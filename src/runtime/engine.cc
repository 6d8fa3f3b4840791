#include "runtime/engine.h"

#include <algorithm>
#include <cstdio>

#include "obs/trace_export.h"
#include "util/check.h"
#include "util/table_printer.h"

namespace ringdb {
namespace runtime {

StatusOr<Engine> Engine::Create(const ring::Catalog& catalog,
                                std::vector<Symbol> group_vars,
                                agca::ExprPtr body, EngineOptions options) {
  // The partition analysis reads the query before compilation consumes it.
  exec::PartitionScheme scheme =
      options.num_shards > 1
          ? exec::DerivePartitionScheme(catalog, group_vars, body)
          : exec::PartitionScheme{};
  RINGDB_ASSIGN_OR_RETURN(
      compiler::CompiledQuery compiled,
      compiler::Compile(catalog, group_vars, std::move(body)));
  return Engine(std::move(compiled), std::move(group_vars),
                std::move(options), std::move(scheme));
}

Engine::Engine(compiler::CompiledQuery compiled,
               std::vector<Symbol> group_vars, EngineOptions options,
               exec::PartitionScheme scheme)
    : group_vars_(std::move(group_vars)),
      root_key_order_(std::move(compiled.root_key_order)),
      options_(options),
      sharded_(std::make_unique<exec::ShardedExecutor>(
          compiled.program, std::move(scheme), options.num_shards,
          options.backend)),
      builder_(std::make_unique<exec::BatchBuilder>(
          sharded_->shard(0).program().catalog)) {}

Status Engine::ApplyBatch(const std::vector<ring::Update>& updates) {
  ApplyGuard guard(apply_depth_.get());
  const size_t window = std::max<size_t>(options_.batch_size, 1);
  size_t i = 0;
  while (i < updates.size()) {
    size_t end = std::min(updates.size(), i + window);
    const size_t window_events = end - i;
    const uint64_t seq = trace_ != nullptr ? ++trace_seq_ : 0;
    if (seq != 0) {
      trace_->BeginWindow(seq, window_events);
      sharded_->SetTraceContext({trace_.get(), seq, 0});
    }
    const uint64_t t0 = obs::NowNs();
    for (; i < end; ++i) {
      Status added = builder_->Add(updates[i]);
      if (!added.ok()) {
        // Match sequential semantics: the valid prefix before the bad
        // update still applies, and nothing lingers in the builder to
        // leak into a later batch.
        RINGDB_RETURN_IF_ERROR(sharded_->ApplyBatch(builder_->Build()));
        return added;
      }
    }
    exec::UpdateBatch batch = builder_->Build();
    const uint64_t t1 = obs::NowNs();
    Status applied = sharded_->ApplyBatch(batch);
    if (seq != 0) {
      const uint64_t t2 = obs::NowNs();
      trace_->Stage(seq, obs::kTraceCoalesce, t0, t1);
      trace_->Stage(seq, obs::kTraceApply, t1, t2);
      trace_->FinishWindow(seq);
      sharded_->SetTraceContext({});
    }
    RINGDB_RETURN_IF_ERROR(std::move(applied));
  }
  return Status::Ok();
}

Status Engine::ApplyPrepared(const exec::UpdateBatch& batch) {
  ApplyGuard guard(apply_depth_.get());
  return sharded_->ApplyBatch(batch);
}

Numeric Engine::ResultScalar() const {
  CheckNotApplying();
  RINGDB_CHECK(group_vars_.empty());
  Numeric total = kZero;
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    total += sharded_->shard(i).root().At({});
  }
  return total;
}

Numeric Engine::ResultAt(const std::vector<Value>& group_values) const {
  CheckNotApplying();
  RINGDB_CHECK_EQ(group_values.size(), group_vars_.size());
  Key key(group_values.size());
  for (size_t i = 0; i < group_values.size(); ++i) {
    key[root_key_order_[i]] = group_values[i];
  }
  Numeric total = kZero;
  for (size_t i = 0; i < sharded_->num_shards(); ++i) {
    total += sharded_->shard(i).root().At(key);
  }
  return total;
}

ring::Gmr Engine::ResultGmr() const {
  CheckNotApplying();
  // Ring addition over the shard roots: Gmr::Add sums a group key that
  // several shards hold and drops it when the contributions cancel.
  ring::Gmr out;
  for (size_t s = 0; s < sharded_->num_shards(); ++s) {
    sharded_->shard(s).root().ForEach([&](KeyView key, Numeric m) {
      std::vector<ring::Tuple::Field> fields;
      fields.reserve(group_vars_.size());
      for (size_t i = 0; i < group_vars_.size(); ++i) {
        fields.emplace_back(group_vars_[i], key[root_key_order_[i]]);
      }
      out.Add(ring::Tuple::FromFields(std::move(fields)), m);
    });
  }
  return out;
}

namespace {

const char* ModeName(uint8_t mode) {
  switch (mode) {
    case 1:
      return "native";
    case 2:
      return "profiling";
    case 3:
      return "unused";
    default:
      return "interp";
  }
}

}  // namespace

Engine::EngineStats Engine::Stats() const {
  CheckNotApplying();
  EngineStats out;
  out.totals = sharded_->AggregateStats();
  out.approx_bytes = sharded_->ApproxBytes();
  out.num_shards = sharded_->num_shards();
  out.native_enabled = sharded_->native_enabled();
  out.shard_apply_ns = sharded_->ApplySpanSnapshot();
  const exec::ShardedExecutor::StealStats steals = sharded_->steal_stats();
  out.morsels_run = steals.morsels_run;
  out.morsels_stolen = steals.morsels_stolen;

  const std::vector<Executor::StmtCounters> counters =
      sharded_->AggregateStmtCounters();
  std::vector<Executor::StmtDispatch> dispatch;
  sharded_->CollectDispatch(&dispatch);
  const compiler::TriggerProgram& prog = program();
  out.statements.reserve(counters.size());
  for (size_t t = 0; t < prog.lowered->stmts.size(); ++t) {
    const compiler::Trigger& trig = prog.triggers[t];
    const char sign =
        trig.sign == ring::Update::Sign::kDelete ? '-' : '+';
    for (size_t s = 0; s < prog.lowered->stmts[t].size(); ++s) {
      const compiler::lower::StmtProgram& sp = prog.lowered->stmts[t][s];
      StmtStats row;
      row.stmt_id = sp.stmt_id;
      row.label = std::string(1, sign) + trig.relation.str() + " s" +
                  std::to_string(s) + " -> " +
                  prog.views[static_cast<size_t>(sp.target_view)].name;
      if (sp.stmt_id < counters.size()) row.counters = counters[sp.stmt_id];
      if (sp.stmt_id < dispatch.size()) row.dispatch = dispatch[sp.stmt_id];
      out.statements.push_back(std::move(row));
    }
  }
  std::sort(out.statements.begin(), out.statements.end(),
            [](const StmtStats& a, const StmtStats& b) {
              return a.stmt_id < b.stmt_id;
            });
  return out;
}

std::string Engine::StatsText() const {
  const EngineStats st = Stats();
  std::string out;
  out += "engine: shards=" + std::to_string(st.num_shards) +
         " backend=" + (st.native_enabled ? "native" : "interp") +
         " approx_bytes=" + std::to_string(st.approx_bytes) +
         " updates=" + std::to_string(st.totals.updates) +
         " statements_run=" + std::to_string(st.totals.statements_run) +
         " entries_touched=" + std::to_string(st.totals.entries_touched) +
         " morsels_run=" + std::to_string(st.morsels_run) +
         " morsels_stolen=" + std::to_string(st.morsels_stolen) + "\n";
  const obs::HistogramSnapshot& apply = st.shard_apply_ns;
  out += "shard_apply: n=" + std::to_string(apply.count) +
         " mean=" + std::to_string(apply.mean()) +
         "ns p50=" + std::to_string(apply.p50) +
         "ns p99=" + std::to_string(apply.p99) +
         "ns max=" + std::to_string(apply.max) + "ns\n";
  TablePrinter table({"statement", "invocations", "loop_iters", "probes",
                      "emissions", "native", "interp", "win ms", "mode"});
  for (const StmtStats& row : st.statements) {
    const Executor::StmtCounters& c = row.counters;
    std::string mode = ModeName(row.dispatch.plain_mode);
    if (row.dispatch.window_available) {
      mode += " w:";
      mode += ModeName(row.dispatch.win_plain_mode);
      if (row.dispatch.grouped_available &&
          row.dispatch.win_grouped_mode != row.dispatch.win_plain_mode) {
        mode += "/";
        mode += ModeName(row.dispatch.win_grouped_mode);
      }
    }
    if (!row.dispatch.native_available) mode = "interp-only";
    char win_ms[32];
    std::snprintf(win_ms, sizeof(win_ms), "%.1f", c.window_ns / 1e6);
    table.AddRow({row.label, std::to_string(c.invocations),
                  std::to_string(c.loop_iterations),
                  std::to_string(c.probes), std::to_string(c.emissions),
                  std::to_string(c.native_calls),
                  std::to_string(c.interp_calls), win_ms,
                  std::move(mode)});
  }
  out += table.Render();
  return out;
}

void Engine::EnableTracing(size_t windows) {
  trace_ = std::make_unique<obs::TraceRecorder>(windows);
}

std::string Engine::TraceJson() const {
  if (trace_ == nullptr) return "";
  return obs::TraceToChromeJson(trace_->Export(), "engine");
}

std::string Engine::TraceBreakdownJson(int indent) const {
  std::string out;
  if (trace_ == nullptr) return "null";
  obs::AppendTraceBreakdownJson(
      obs::ComputeTraceBreakdown(trace_->Export()), indent, &out);
  return out;
}

std::string Engine::StatsJson(int indent) const {
  const EngineStats st = Stats();
  const std::string pad(static_cast<size_t>(indent), ' ');
  std::string out = "{\n";
  out += pad + "  \"num_shards\": " + std::to_string(st.num_shards) + ",\n";
  out += pad + "  \"native_enabled\": " +
         (st.native_enabled ? std::string("true") : std::string("false")) +
         ",\n";
  out += pad + "  \"approx_bytes\": " + std::to_string(st.approx_bytes) +
         ",\n";
  out += pad + "  \"totals\": {\"updates\": " +
         std::to_string(st.totals.updates) +
         ", \"statements_run\": " + std::to_string(st.totals.statements_run) +
         ", \"entries_touched\": " +
         std::to_string(st.totals.entries_touched) +
         ", \"arithmetic_ops\": " + std::to_string(st.totals.arithmetic_ops) +
         ", \"init_evaluations\": " +
         std::to_string(st.totals.init_evaluations) +
         ", \"delta_entries\": " + std::to_string(st.totals.delta_entries) +
         ", \"scaled_firings\": " + std::to_string(st.totals.scaled_firings) +
         "},\n";
  out += pad + "  \"morsels_run\": " + std::to_string(st.morsels_run) +
         ",\n";
  out += pad + "  \"morsels_stolen\": " + std::to_string(st.morsels_stolen) +
         ",\n";
  out += pad + "  \"shard_apply_ns\": ";
  obs::AppendHistogramJson(st.shard_apply_ns, &out);
  out += ",\n" + pad + "  \"statements\": [\n";
  for (size_t i = 0; i < st.statements.size(); ++i) {
    const StmtStats& row = st.statements[i];
    const Executor::StmtCounters& c = row.counters;
    out += pad + "    {\"stmt_id\": " + std::to_string(row.stmt_id) +
           ", \"label\": \"" + row.label + "\"" +
           ", \"invocations\": " + std::to_string(c.invocations) +
           ", \"loop_iterations\": " + std::to_string(c.loop_iterations) +
           ", \"probes\": " + std::to_string(c.probes) +
           ", \"emissions\": " + std::to_string(c.emissions) +
           ", \"native_calls\": " + std::to_string(c.native_calls) +
           ", \"interp_calls\": " + std::to_string(c.interp_calls) +
           ", \"window_ns\": " + std::to_string(c.window_ns) +
           ", \"native_available\": " +
           (row.dispatch.native_available ? "true" : "false") +
           ", \"window_available\": " +
           (row.dispatch.window_available ? "true" : "false") +
           ", \"plain_mode\": \"" + ModeName(row.dispatch.plain_mode) +
           "\", \"grouped_mode\": \"" + ModeName(row.dispatch.grouped_mode) +
           "\", \"win_plain_mode\": \"" +
           ModeName(row.dispatch.win_plain_mode) +
           "\", \"win_grouped_mode\": \"" +
           ModeName(row.dispatch.win_grouped_mode) +
           "\", \"profile_native_ns\": " +
           std::to_string(row.dispatch.profile_native_ns) +
           ", \"profile_interp_ns\": " +
           std::to_string(row.dispatch.profile_interp_ns) + "}";
    out += (i + 1 < st.statements.size()) ? ",\n" : "\n";
  }
  out += pad + "  ]\n" + pad + "}";
  return out;
}

}  // namespace runtime
}  // namespace ringdb
