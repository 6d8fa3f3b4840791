#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "baseline/baselines.h"
#include "exec/batch.h"
#include "log/durable_log.h"
#include "runtime/engine.h"
#include "serve/query_service.h"
#include "sql/translate.h"
#include "util/random.h"
#include "workload/stream.h"

namespace ringbench {

namespace fs = std::filesystem;
using ringdb::Status;
using ringdb::Symbol;
using ringdb::Value;
using ringdb::exec::BatchBuilder;
using ringdb::exec::UpdateBatch;
using ringdb::runtime::Engine;
using ringdb::runtime::EngineOptions;
using ringdb::serve::QueryService;
using ringdb::serve::ServeOptions;

namespace {

constexpr const char* kRevenueSql =
    "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
    "WHERE o.okey = l.okey GROUP BY o.ckey";
constexpr const char* kOrderCountSql =
    "SELECT o.ckey, COUNT(*) FROM orders o GROUP BY o.ckey";

// Point reads issued after every zipf-batch window, timed as one group:
// read_*_us there is the group's mean per read, one sample per window.
constexpr size_t kReadsPerWindow = 64;
// Set-up repetitions per run; setup_s is their median.
constexpr size_t kSetups = 5;
// zipf-batch runs its timed phase this many times, each on a freshly set
// up engine, and pools the readings. The host's speed swings by up to
// 1.7x with a period shorter than a minute, and one 13 s pass is one draw
// of it.
constexpr size_t kZipfPasses = 2;
// Durability fixture: windows logged, checkpoint cadence (so recovery
// loads the window-128 checkpoint and replays 128 windows), and
// recoveries per run (recover_s is their median).
constexpr size_t kFixtureWindows = 256;
constexpr uint64_t kFixtureCheckpointEvery = 128;
constexpr int kRecoveries = 9;
// Live rows per relation of the second oracle check (see CheckOracle).
constexpr size_t kMiniLiveRows = 2048;
// The timed phase runs in blocks. In a traced run blocks alternate
// untraced and traced, so tracing overhead is measured on the same engine
// state. upd_per_s is the untraced blocks' updates over their time:
// windows differ in work, so a median of block rates would jump between
// runs.
constexpr size_t kZipfBlockWindows = 16;
constexpr size_t kUniformBlockUpdates = 16384;
// Spans written to the traced run's span file (all are kept in memory).
constexpr size_t kMaxSpansWritten = 20000;
// serve-durable: every 16th open-loop update is a visibility sample.
constexpr size_t kVisibleEvery = 16;
// serve-durable: the burst runs in this many closed-loop segments, each
// drained before the next (alternately untraced and traced in a traced
// run); burst_upd_per_s is the untraced segments' updates over their time.
constexpr size_t kBurstSegments = 16;

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double Mean(uint64_t sum, uint64_t count) {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

// ---- Program set-up -------------------------------------------------------

struct Program {
  ringdb::ring::Catalog catalog;
  std::vector<std::string> sql;
  std::vector<ringdb::sql::TranslatedQuery> queries;
};

bool Translate(const Spec& spec, Program* p, RunResult* result) {
  p->catalog = ringdb::workload::OrdersSchema();
  p->sql = {kRevenueSql};
  if (spec.name == "serve-durable") p->sql.push_back(kOrderCountSql);
  for (const std::string& sql : p->sql) {
    auto t = ringdb::sql::TranslateSql(p->catalog, sql);
    if (!t.ok()) {
      result->Fail("TranslateSql: " + t.status().ToString());
      return false;
    }
    p->queries.push_back(std::move(*t));
  }
  return true;
}

EngineOptions EngineOpts(const Spec& spec, bool compiled) {
  EngineOptions eo;
  eo.batch_size = spec.batch;
  eo.num_shards = spec.shards;
  eo.backend = compiled ? ringdb::runtime::Backend::kCompile
                        : ringdb::runtime::Backend::kInterpret;
  return eo;
}

std::unique_ptr<Engine> MakeEngine(const Program& p, size_t q,
                                   const EngineOptions& eo,
                                   RunResult* result) {
  auto e = Engine::Create(p.catalog, p.queries[q].group_vars,
                          p.queries[q].body, eo);
  if (!e.ok()) {
    result->Fail("Engine::Create: " + e.status().ToString());
    return nullptr;
  }
  return std::make_unique<Engine>(std::move(*e));
}

ServeOptions ServiceOpts(const Spec& spec, const std::string& dir) {
  ServeOptions so;
  so.batch_size = spec.batch;
  so.num_shards = spec.shards;
  so.backend = ringdb::runtime::Backend::kCompile;
  so.trace_windows = 0;  // timed runs never trace inside the program
  so.durability.dir = dir;
  so.durability.fsync_policy = ringdb::log::FsyncPolicy::kNever;
  so.durability.checkpoint_every_windows = spec.checkpoint_every;
  return so;
}

std::unique_ptr<QueryService> MakeService(const Spec& spec, const Program& p,
                                          const std::string& dir,
                                          RunResult* result) {
  auto svc =
      std::make_unique<QueryService>(p.catalog, ServiceOpts(spec, dir));
  for (size_t q = 0; q < p.sql.size(); ++q) {
    auto id = svc->RegisterSql("q" + std::to_string(q), p.sql[q]);
    if (!id.ok()) {
      result->Fail("RegisterSql: " + id.status().ToString());
      return nullptr;
    }
  }
  return svc;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

// Op index just past the first `n` updates at or after `begin`.
size_t SkipUpdates(const std::vector<Op>& ops, size_t begin, size_t n) {
  size_t i = begin;
  for (size_t seen = 0; i < ops.size() && seen < n; ++i) {
    if (IsUpdate(ops[i])) ++seen;
  }
  return i;
}

// Applies the updates among ops[begin, end) in windows of `batch` via
// BatchBuilder + ApplyPrepared (reads are skipped).
bool ApplyWindows(const ringdb::ring::Catalog& catalog, Engine* engine,
                  const std::vector<Op>& ops, size_t begin, size_t end,
                  size_t batch, RunResult* result) {
  BatchBuilder builder(catalog);
  OpDecoder dec;
  size_t in_window = 0;
  for (size_t i = begin; i < end; ++i) {
    if (!IsUpdate(ops[i])) continue;
    if (!builder.Add(dec.Decode(ops[i])).ok()) {
      result->Fail("BatchBuilder::Add rejected a generated update");
      return false;
    }
    if (++in_window == batch || i + 1 == end) {
      Status st = engine->ApplyPrepared(builder.Build());
      if (!st.ok()) {
        result->Fail("ApplyPrepared: " + st.ToString());
        return false;
      }
      in_window = 0;
    }
  }
  if (in_window > 0 && !engine->ApplyPrepared(builder.Build()).ok()) {
    result->Fail("ApplyPrepared failed on the last window");
    return false;
  }
  return true;
}

bool ApplyTuples(Engine* engine, const std::vector<Op>& ops, size_t begin,
                 size_t end, RunResult* result) {
  OpDecoder dec;
  for (size_t i = begin; i < end; ++i) {
    if (!IsUpdate(ops[i])) continue;
    Status st = engine->Apply(dec.Decode(ops[i]));
    if (!st.ok()) {
      result->Fail("Engine::Apply: " + st.ToString());
      return false;
    }
  }
  return true;
}

// Pushes the updates among ops[begin, end); returns the failed pushes.
uint64_t PushAll(QueryService* svc, const std::vector<Op>& ops, size_t begin,
                 size_t end) {
  OpDecoder dec;
  uint64_t failed = 0;
  for (size_t i = begin; i < end; ++i) {
    if (IsUpdate(ops[i]) && !svc->Push(dec.Decode(ops[i])).ok()) ++failed;
  }
  return failed;
}

// Every backend-dispatch decision and warm-up timer of an engine. Equal
// before and after the timed phase means profile-guided dispatch had
// already locked for everything the timed phase ran.
std::vector<uint64_t> DispatchFingerprint(const Engine& engine) {
  std::vector<uint64_t> out;
  for (const Engine::StmtStats& s : engine.Stats().statements) {
    const auto& d = s.dispatch;
    out.insert(out.end(), {d.plain_mode, d.grouped_mode, d.win_plain_mode,
                           d.win_grouped_mode, d.profile_native_ns,
                           d.profile_interp_ns});
  }
  return out;
}

// The locked dispatch mode of every statement variant (0 interpreter,
// 1 native, 2 still profiling), as one '#' line per engine.
void PrintDispatch(const Engine& engine) {
  std::printf("# dispatch (plain/grouped/win_plain/win_grouped):");
  for (const Engine::StmtStats& s : engine.Stats().statements) {
    const auto& d = s.dispatch;
    std::printf(" s%u=%d%d%d%d", s.stmt_id, d.plain_mode, d.grouped_mode,
                d.win_plain_mode, d.win_grouped_mode);
  }
  std::printf("\n");
}

// Exact counters summed over the statements of an engine (or a delta of
// two such snapshots).
struct Counters {
  uint64_t updates = 0;
  uint64_t delta_entries = 0;
  uint64_t window_ns = 0;
  uint64_t loop_iterations = 0;
  uint64_t probes = 0;
  uint64_t emissions = 0;
  uint64_t native_calls = 0;
  uint64_t interp_calls = 0;
  std::vector<uint64_t> stmt_ns;
  std::vector<uint64_t> stmt_iters;

  static Counters Of(const Engine& engine) {
    Counters c;
    const Engine::EngineStats st = engine.Stats();
    c.updates = st.totals.updates;
    c.delta_entries = st.totals.delta_entries;
    for (const Engine::StmtStats& s : st.statements) {
      c.window_ns += s.counters.window_ns;
      c.loop_iterations += s.counters.loop_iterations;
      c.probes += s.counters.probes;
      c.emissions += s.counters.emissions;
      c.native_calls += s.counters.native_calls;
      c.interp_calls += s.counters.interp_calls;
      c.stmt_ns.push_back(s.counters.window_ns);
      c.stmt_iters.push_back(s.counters.loop_iterations);
    }
    return c;
  }

  // Accumulates (after - before).
  void AddDelta(const Counters& before, const Counters& after) {
    updates += after.updates - before.updates;
    delta_entries += after.delta_entries - before.delta_entries;
    window_ns += after.window_ns - before.window_ns;
    loop_iterations += after.loop_iterations - before.loop_iterations;
    probes += after.probes - before.probes;
    emissions += after.emissions - before.emissions;
    native_calls += after.native_calls - before.native_calls;
    interp_calls += after.interp_calls - before.interp_calls;
    stmt_ns.resize(after.stmt_ns.size(), 0);
    stmt_iters.resize(after.stmt_iters.size(), 0);
    for (size_t i = 0; i < after.stmt_ns.size(); ++i) {
      stmt_ns[i] += after.stmt_ns[i] - before.stmt_ns[i];
      stmt_iters[i] += after.stmt_iters[i] - before.stmt_iters[i];
    }
  }
};

// ---- Per-layer metric assembly -------------------------------------------

// Every per-layer metric, zero unless the workload sets it; traced runs
// print them all (a layer a workload does not exercise reads 0).
struct Layers {
  double create_ms = 0, stmts = 0, cc_cold_ms = 0;
  double coalesce_ns_per_upd = 0, delta_entries_per_upd = 0,
         apply_other_ns_per_upd = 0, morsels_per_window = 0, stolen_frac = 0;
  double stmt_ns_per_upd = 0, loop_iters_per_upd = 0, emissions_per_upd = 0,
         probes_per_upd = 0, native_frac = 0, view_mb = 0;
  std::vector<double> s_ns_per_upd, s_iters_per_upd;
  std::vector<std::string> s_labels;
  double push_ns_mean = 0, upd_per_window = 0, coalesce_ns_mean = 0,
         query_apply_ns_mean = 0, publish_age_ns_mean = 0,
         gen_late_p99_us = 0, poll_gap_us = 0, visible_p50_us = 0,
         visible_p99_us = 0;
  double append_ns_mean = 0, checkpoints = 0, checkpoint_ms_mean = 0,
         replayed_records = 0, fsyncs = 0;
  double trace_overhead_pct = 0, unattributed_pct = 0;

  void FromCounters(const Counters& c, uint64_t updates) {
    const double u = static_cast<double>(std::max<uint64_t>(updates, 1));
    stmt_ns_per_upd = static_cast<double>(c.window_ns) / u;
    loop_iters_per_upd = static_cast<double>(c.loop_iterations) / u;
    emissions_per_upd = static_cast<double>(c.emissions) / u;
    probes_per_upd = static_cast<double>(c.probes) / u;
    delta_entries_per_upd = static_cast<double>(c.delta_entries) / u;
    const uint64_t calls = c.native_calls + c.interp_calls;
    native_frac = calls == 0 ? 0.0
                             : static_cast<double>(c.native_calls) /
                                   static_cast<double>(calls);
    s_ns_per_upd.clear();
    s_iters_per_upd.clear();
    for (size_t i = 0; i < c.stmt_ns.size(); ++i) {
      s_ns_per_upd.push_back(static_cast<double>(c.stmt_ns[i]) / u);
      s_iters_per_upd.push_back(static_cast<double>(c.stmt_iters[i]) / u);
    }
  }

  void Emit(RunResult* r) const {
    r->Set("compiler.create_ms", create_ms, "ms");
    r->Set("compiler.stmts", stmts, "count");
    r->Set("compiler.cc_cold_ms", cc_cold_ms, "ms");
    r->Set("exec.coalesce_ns_per_upd", coalesce_ns_per_upd, "ns");
    r->Set("exec.delta_entries_per_upd", delta_entries_per_upd, "ratio");
    r->Set("exec.apply_other_ns_per_upd", apply_other_ns_per_upd, "ns");
    r->Set("exec.morsels_per_window", morsels_per_window, "count");
    r->Set("exec.stolen_frac", stolen_frac, "ratio");
    r->Set("runtime.stmt_ns_per_upd", stmt_ns_per_upd, "ns");
    r->Set("runtime.loop_iters_per_upd", loop_iters_per_upd, "count");
    r->Set("runtime.emissions_per_upd", emissions_per_upd, "count");
    r->Set("runtime.probes_per_upd", probes_per_upd, "count");
    r->Set("runtime.native_frac", native_frac, "ratio");
    r->Set("runtime.view_mb", view_mb, "MB");
    for (size_t i = 0; i < s_ns_per_upd.size(); ++i) {
      r->Set("runtime.s" + std::to_string(i) + ".ns_per_upd",
             s_ns_per_upd[i], "ns");
      r->Set("runtime.s" + std::to_string(i) + ".iters_per_upd",
             s_iters_per_upd[i], "count");
    }
    r->Set("serve.push_ns_mean", push_ns_mean, "ns");
    r->Set("serve.upd_per_window", upd_per_window, "count");
    r->Set("serve.coalesce_ns_mean", coalesce_ns_mean, "ns");
    r->Set("serve.query_apply_ns_mean", query_apply_ns_mean, "ns");
    r->Set("serve.publish_age_ns_mean", publish_age_ns_mean, "ns");
    r->Set("serve.gen_late_p99_us", gen_late_p99_us, "us");
    r->Set("serve.poll_gap_us", poll_gap_us, "us");
    r->Set("serve.visible_p50_us", visible_p50_us, "us");
    r->Set("serve.visible_p99_us", visible_p99_us, "us");
    r->Set("log.append_ns_mean", append_ns_mean, "ns");
    r->Set("log.checkpoints", checkpoints, "count");
    r->Set("log.checkpoint_ms_mean", checkpoint_ms_mean, "ms");
    r->Set("log.replayed_records", replayed_records, "count");
    r->Set("log.fsyncs", fsyncs, "count");
    r->Set("obs.trace_overhead_pct", trace_overhead_pct, "%");
    r->Set("obs.unattributed_pct", unattributed_pct, "%");
  }

  // Human labels beside the per-statement metrics (stdout, not metrics).
  void PrintLabels() const {
    for (size_t i = 0; i < s_labels.size(); ++i) {
      std::printf("# runtime.s%zu = \"%s\"\n", i, s_labels[i].c_str());
    }
  }
};

// Statement labels of an engine, by stmt id.
std::vector<std::string> StmtLabels(const Engine& engine) {
  std::vector<std::string> out;
  for (const Engine::StmtStats& s : engine.Stats().statements) {
    out.push_back(s.label);
  }
  return out;
}

// End-to-end figures every workload reports (see README.md for what each
// means per workload).
struct EndToEnd {
  std::vector<double> setup_s;
  double upd_per_s = 0;
  std::vector<double> window_us;
  std::vector<double> op_us;
  std::vector<double> read_us;
  double burst_upd_per_s = 0;
  double recover_s = 0;
  double wal_bytes_per_upd = 0;
  double rss_mb = 0;

  void Emit(RunResult* r) {
    size_t n = 0;
    auto pct = [&](std::vector<double>* v, double q, const char* name) {
      const double x = Percentile(v, q, &n);
      std::printf("# %s = %.3f (n=%zu, %zu beyond)\n", name, x, v->size(),
                  n);
      return x;
    };
    std::printf("# setup_s runs:");
    for (double x : setup_s) std::printf(" %.4f", x);
    std::printf("\n");
    r->Set("setup_s", Median(setup_s), "s");
    r->Set("upd_per_s", upd_per_s, "1/s");
    r->Set("window_p50_us", pct(&window_us, 0.50, "window_p50_us"), "us");
    r->Set("window_p90_us", pct(&window_us, 0.90, "window_p90_us"), "us");
    r->Set("op_p50_us", pct(&op_us, 0.50, "op_p50_us"), "us");
    r->Set("op_p99_us", pct(&op_us, 0.99, "op_p99_us"), "us");
    r->Set("read_p50_us", pct(&read_us, 0.50, "read_p50_us"), "us");
    r->Set("read_p99_us", pct(&read_us, 0.99, "read_p99_us"), "us");
    r->Set("burst_upd_per_s", burst_upd_per_s, "1/s");
    r->Set("recover_s", recover_s, "s");
    r->Set("wal_bytes_per_upd", wal_bytes_per_upd, "B");
    r->Set("rss_mb", rss_mb, "MB");
  }
};

// ---- Shared checks and phases --------------------------------------------

// Compares final digests with the pinned ones. A seed that is not pinned
// is checked against an independent configuration computed here, untimed:
// compiled backend, one shard, Engine::ApplyBatch in windows of 4096
// (other window boundaries, so other cancellations, than the run).
void CheckDigests(const Spec& spec, const std::vector<Op>& ops,
                  const RunOptions& options,
                  const std::vector<std::string>& got, RunResult* result) {
  std::vector<std::string> want = options.pinned;
  const char* source = "pinned";
  if (want.empty()) {
    EngineOptions eo = EngineOpts(spec, true);
    eo.batch_size = 4096;
    eo.num_shards = 1;
    want = IndependentDigests(spec, ops, eo);
    source = "cross-check";
  }
  for (size_t q = 0; q < got.size(); ++q) {
    const std::string w = q < want.size() ? want[q] : "(none)";
    std::printf("# digest q%zu = %s (%s %s)\n", q, got[q].c_str(), source,
                w.c_str());
    if (got[q] != w) {
      result->Fail("final result of q" + std::to_string(q) + " digest " +
                   got[q] + " != " + source + " " + w);
    }
  }
}

// The untimed oracle check: the first spec.oracle_prefix updates through
// the workload's own configuration must equal NaiveReevaluator.
void CheckOraclePrefix(const Spec& spec, const Program& p,
                       const std::vector<Op>& ops,
                       const std::string& work_dir, RunResult* result) {
  const size_t end = SkipUpdates(ops, 0, spec.oracle_prefix);
  std::vector<std::string> got;
  if (spec.name == "serve-durable") {
    const std::string dir = work_dir + "/oracle";
    ResetDir(dir);
    auto svc = MakeService(spec, p, dir, result);
    if (svc == nullptr) return;
    svc->Start();
    if (PushAll(svc.get(), ops, 0, end) != 0) {
      result->Fail("oracle prefix: Push failed");
    }
    svc->Stop();
    for (size_t q = 0; q < p.queries.size(); ++q) {
      got.push_back(SnapshotDigest(*svc->snapshot(q)));
    }
  } else {
    auto engine = MakeEngine(p, 0, EngineOpts(spec, true), result);
    if (engine == nullptr) return;
    const bool ok = spec.name == "uniform-tuple-rw"
                        ? ApplyTuples(engine.get(), ops, 0, end, result)
                        : ApplyWindows(p.catalog, engine.get(), ops, 0, end,
                                       spec.batch, result);
    if (!ok) return;
    got.push_back(EngineDigest(*engine));
  }
  OpDecoder dec;
  for (size_t q = 0; q < got.size(); ++q) {
    ringdb::baseline::NaiveReevaluator naive(
        p.catalog, p.queries[q].group_vars, p.queries[q].body);
    for (size_t i = 0; i < end; ++i) {
      if (IsUpdate(ops[i])) naive.Load(dec.Decode(ops[i]));
    }
    Status st = naive.Refresh();
    const std::string want =
        st.ok() ? GmrDigest(naive.ResultGmr(), p.queries[q].group_vars) : "";
    std::printf("# oracle q%zu prefix %zu updates: %s vs naive %s\n", q,
                spec.oracle_prefix, got[q].c_str(), want.c_str());
    if (!st.ok() || got[q] != want) {
      result->Fail("q" + std::to_string(q) +
                   " differs from NaiveReevaluator on the oracle prefix");
    }
  }
}

// Both oracle checks of a run. With live_rows, the run's prefix lies in
// the phase that fills the relations and holds no deletes, so the same
// generator and seed also run at kMiniLiveRows, where most of the prefix
// is the steady insert/delete phase.
void CheckOracle(const Spec& spec, const Program& p,
                 const std::vector<Op>& ops, const RunOptions& options,
                 RunResult* result) {
  CheckOraclePrefix(spec, p, ops, options.work_dir, result);
  if (spec.live_rows == 0) return;
  Spec mini = spec;
  mini.live_rows = kMiniLiveRows;
  mini.preload = mini.oracle_prefix = 8 * kMiniLiveRows;
  mini.open_loop = mini.timed = 0;
  CheckOraclePrefix(mini, p, GenerateStream(mini, options.seed),
                    options.work_dir, result);
}

// Warms the native cache (compiles on a cold cache; untimed) and checks
// that the compiled backend engages.
void WarmNativeCache(const Spec& spec, const Program& p, RunResult* result) {
  for (size_t q = 0; q < p.queries.size(); ++q) {
    auto engine = MakeEngine(p, q, EngineOpts(spec, true), result);
    if (engine != nullptr && !engine->native_enabled()) {
      result->Fail("compiled backend did not engage: " +
                   engine->native_status().ToString());
    }
  }
}

// compiler.cc_cold_ms: Engine::Create for every query against an empty
// native cache directory (traced runs only).
double ColdCompileMs(const Spec& spec, const Program& p,
                     const std::string& work_dir, RunResult* result) {
  const char* saved = std::getenv("RINGDB_NATIVE_CACHE_DIR");
  const std::string saved_dir = saved != nullptr ? saved : "";
  const std::string cold = work_dir + "/cold-cache";
  ResetDir(cold);
  setenv("RINGDB_NATIVE_CACHE_DIR", cold.c_str(), 1);
  const uint64_t t0 = NowNs();
  for (size_t q = 0; q < p.queries.size(); ++q) {
    (void)MakeEngine(p, q, EngineOpts(spec, true), result);
  }
  const uint64_t t1 = NowNs();
  if (saved != nullptr) {
    setenv("RINGDB_NATIVE_CACHE_DIR", saved_dir.c_str(), 1);
  } else {
    unsetenv("RINGDB_NATIVE_CACHE_DIR");
  }
  std::error_code ec;
  fs::remove_all(cold, ec);
  return static_cast<double>(t1 - t0) / 1e6;
}

// The durability fixture: the first kFixtureWindows windows of the
// stream logged through log::DurableLog (fsync never, a checkpoint every
// kFixtureCheckpointEvery windows), then recovered
// kRecoveries times into fresh engines (or, for serve-durable, through
// QueryService::Start on the same directory). The window structure is
// fixed, so the checkpoint load and the replayed tail are the same work
// on every run.
struct FixtureOut {
  double wal_bytes_per_upd = 0;
  double recover_s = 0;
  ringdb::log::DurabilityStats build_stats;
  uint64_t replayed_records = 0;
};

FixtureOut RunFixture(const Spec& spec, const Program& p,
                      const std::vector<Op>& ops, const std::string& dir,
                      RunResult* result) {
  FixtureOut out;
  ResetDir(dir);
  ringdb::log::DurabilityOptions dopt;
  dopt.dir = dir;
  dopt.fsync_policy = ringdb::log::FsyncPolicy::kNever;
  dopt.checkpoint_every_windows = kFixtureCheckpointEvery;
  const EngineOptions eo = EngineOpts(spec, true);
  std::vector<std::string> expected;
  {
    std::vector<std::unique_ptr<Engine>> engines;
    std::vector<ringdb::log::DurableLog::EngineSlot> slots;
    for (size_t q = 0; q < p.queries.size(); ++q) {
      engines.push_back(MakeEngine(p, q, eo, result));
      if (engines.back() == nullptr) return out;
      slots.push_back({"q" + std::to_string(q), engines.back().get()});
    }
    auto dlog = ringdb::log::DurableLog::Open(p.catalog, dopt);
    if (!dlog.ok() || !(*dlog)->Recover(slots).ok()) {
      result->Fail("fixture: DurableLog open/recover failed");
      return out;
    }
    BatchBuilder builder(p.catalog);
    OpDecoder dec;
    const size_t end = SkipUpdates(ops, 0, kFixtureWindows * spec.batch);
    uint64_t seq = 0, applied = 0, in_window = 0;
    for (size_t i = 0; i < end; ++i) {
      if (!IsUpdate(ops[i])) continue;
      (void)builder.Add(dec.Decode(ops[i]));
      if (++in_window < spec.batch && i + 1 < end) continue;
      const UpdateBatch batch = builder.Build();
      applied += in_window;
      ++seq;
      Status st = (*dlog)->AppendWindow(seq, in_window, applied, batch);
      for (auto& e : engines) {
        if (st.ok()) st = e->ApplyPrepared(batch);
      }
      if (st.ok()) st = (*dlog)->MaybeCheckpoint(seq, applied, slots);
      if (!st.ok()) {
        result->Fail("fixture: " + st.ToString());
        return out;
      }
      in_window = 0;
    }
    out.build_stats = (*dlog)->GetStats();
    out.wal_bytes_per_upd = static_cast<double>(out.build_stats.wal_bytes) /
                            static_cast<double>(std::max<uint64_t>(applied, 1));
    (void)(*dlog)->Close();
    for (auto& e : engines) expected.push_back(EngineDigest(*e));
  }
  std::vector<double> recover_s;
  for (int r = 0; r < kRecoveries; ++r) {
    std::vector<std::string> got;
    uint64_t t0 = 0, t1 = 0;
    if (spec.name == "serve-durable") {
      auto svc = MakeService(spec, p, dir, result);
      if (svc == nullptr) return out;
      t0 = NowNs();
      svc->Start();
      t1 = NowNs();
      out.replayed_records = svc->Stats().durability.recovered_records;
      if (!svc->durability_status().ok()) {
        result->Fail("fixture recovery: " +
                     svc->durability_status().ToString());
      }
      for (size_t q = 0; q < p.queries.size(); ++q) {
        got.push_back(SnapshotDigest(*svc->snapshot(q)));
      }
      svc->Stop();
    } else {
      std::vector<std::unique_ptr<Engine>> engines;
      std::vector<ringdb::log::DurableLog::EngineSlot> slots;
      for (size_t q = 0; q < p.queries.size(); ++q) {
        engines.push_back(MakeEngine(p, q, eo, result));
        if (engines.back() == nullptr) return out;
        slots.push_back({"q" + std::to_string(q), engines.back().get()});
      }
      t0 = NowNs();
      auto dlog = ringdb::log::DurableLog::Open(p.catalog, dopt);
      const bool ok = dlog.ok() && (*dlog)->Recover(slots).ok();
      t1 = NowNs();
      if (!ok) {
        result->Fail("fixture recovery failed");
        return out;
      }
      out.replayed_records = (*dlog)->GetStats().recovered_records;
      (void)(*dlog)->Close();
      for (auto& e : engines) got.push_back(EngineDigest(*e));
    }
    if (got != expected) result->Fail("fixture recovery: digest mismatch");
    recover_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  out.recover_s = Median(recover_s);
  return out;
}

void FixtureLayers(const FixtureOut& f, Layers* l) {
  const auto& s = f.build_stats;
  l->append_ns_mean = Mean(s.append_ns.sum, s.append_ns.count);
  l->checkpoints = static_cast<double>(s.checkpoints);
  l->checkpoint_ms_mean = Mean(s.checkpoint_ns.sum, s.checkpoint_ns.count) /
                          1e6;
  l->fsyncs = static_cast<double>(s.wal_fsyncs);
  l->replayed_records = static_cast<double>(f.replayed_records);
}

// Self time of the named spans, summed.
uint64_t SelfNs(const std::vector<std::pair<std::string, uint64_t>>& self,
                const std::string& name) {
  for (const auto& [n, ns] : self) {
    if (n == name) return ns;
  }
  return 0;
}

// ---- zipf-batch and uniform-tuple-rw -------------------------------------

// Key of the r-th point read after the window that starts at ops[pos]:
// the ckey of an orders update of that window.
int64_t ReadKey(const std::vector<Op>& ops, size_t pos, size_t r) {
  size_t k = pos + r * 7;
  while (ops[k].kind > kDeleteOrders) ++k;
  return ops[k].v[1];
}

// Shared driver of the two single-engine workloads. zipf-batch applies
// windows of spec.batch via BatchBuilder + ApplyPrepared with point reads
// between windows; uniform-tuple-rw applies single tuples via
// Engine::Apply with the stream's point reads (ResultAt) mixed in.
void RunEngineWorkload(const Spec& spec, const std::vector<Op>& ops,
                       const RunOptions& options, RunResult* result) {
  const bool batched = spec.name == "zipf-batch";
  Program p;
  if (!Translate(spec, &p, result)) return;
  const EngineOptions eo = EngineOpts(spec, true);
  const size_t preload_end = SkipUpdates(ops, 0, spec.preload);
  const size_t tail_begin =
      SkipUpdates(ops, 0, spec.preload - spec.preload_tail);
  const size_t timed_end = SkipUpdates(ops, preload_end, spec.timed);
  size_t timed_reads = 0;
  for (size_t i = preload_end; i < timed_end; ++i) {
    if (!IsUpdate(ops[i])) ++timed_reads;
  }
  const size_t windows = spec.timed / spec.batch;
  const size_t passes = batched ? kZipfPasses : 1;

  // Sample and span buffers are allocated and touched before the memory
  // baseline, so rss_mb measures the program, not the benchmark.
  EndToEnd e2e;
  e2e.window_us.assign(windows * passes, 0.0);
  e2e.op_us.assign(batched ? windows * passes : spec.timed, 0.0);
  e2e.read_us.assign(batched ? windows * passes : timed_reads, 0.0);
  SpanLog spans;
  if (options.trace) {
    spans.Reserve(batched ? windows * passes * 5 + 64
                          : spec.timed + timed_reads + 1024);
  }
  const uint64_t rss_base = ResidentBytes();

  Layers layers;
  if (options.trace) {
    layers.cc_cold_ms = ColdCompileMs(spec, p, options.work_dir, result);
  }
  WarmNativeCache(spec, p, result);
  if (!result->correct) return;

  // Set-up: Engine::Create + preload. The first `passes` set-ups are the
  // timed passes' engines; the rest of the kSetups run after the memory
  // reading, so no discarded engine shows in rss_mb.
  std::vector<double> create_ms;
  auto set_up = [&]() -> std::unique_ptr<Engine> {
    const uint64_t t0 = NowNs();
    std::unique_ptr<Engine> engine = MakeEngine(p, 0, eo, result);
    if (engine == nullptr) return nullptr;
    const uint64_t t1 = NowNs();
    bool ok = ApplyWindows(p.catalog, engine.get(), ops, 0, tail_begin,
                           spec.batch, result);
    if (ok && spec.preload_tail > 0) {
      ok = ApplyTuples(engine.get(), ops, tail_begin, preload_end, result);
    }
    if (!ok) return nullptr;
    const uint64_t t2 = NowNs();
    e2e.setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    create_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    return engine;
  };
  std::unique_ptr<Engine> engine = set_up();
  if (engine == nullptr) return;
  Engine* e = engine.get();
  std::vector<uint64_t> dispatch_before = DispatchFingerprint(*e);
  PrintDispatch(*e);
  auto check_dispatch = [&]() {
    if (DispatchFingerprint(*e) != dispatch_before) {
      result->Fail("profile-guided dispatch was still profiling during the "
                   "timed phase (lengthen the preload)");
    }
  };
  std::vector<std::string> digests;

  // Timed phase. Every call into the program is timed the same way in
  // untraced and traced blocks; a traced block also records the readings
  // as spans and its counter deltas.
  OpDecoder dec;
  BatchBuilder builder(p.catalog);
  uint64_t failed = 0;
  size_t n_op = 0, n_read = 0, n_win = 0;
  uint64_t wall_ns[2] = {0, 0}, wall_upd[2] = {0, 0};
  Counters traced_counters;
  const uint32_t sp_window = spans.Name("window");
  const uint32_t sp_block = spans.Name("block");
  const uint32_t sp_add = spans.Name("BatchBuilder::Add");
  const uint32_t sp_build = spans.Name("BatchBuilder::Build");
  const uint32_t sp_prepared = spans.Name("Engine::ApplyPrepared");
  const uint32_t sp_apply = spans.Name("Engine::Apply");
  const uint32_t sp_read = spans.Name("Engine::ResultAt");
  uint64_t apply_span_ns = 0;  // ApplyPrepared / Apply spans, traced blocks
  std::vector<Value> key(1);
  std::vector<std::vector<Value>> read_keys(kReadsPerWindow,
                                            std::vector<Value>(1));

  // Window w of the timed phase: Add...Build + ApplyPrepared, then the
  // point reads. One sample each of window_us, op_us (mean Add) and
  // read_us (mean read) per untraced window.
  auto run_window = [&](size_t w, bool traced) {
    const size_t pos = preload_end + w * spec.batch;
    for (size_t r = 0; r < kReadsPerWindow; ++r) {
      read_keys[r][0] = Value(ReadKey(ops, pos, r));
    }
    const int32_t root = traced ? spans.Begin(sp_window, -1) : -1;
    const uint64_t t0 = NowNs();
    for (size_t k = 0; k < spec.batch; ++k) {
      if (!builder.Add(dec.Decode(ops[pos + k])).ok()) ++failed;
    }
    const uint64_t t1 = NowNs();
    const UpdateBatch batch = builder.Build();
    const uint64_t t2 = NowNs();
    if (!e->ApplyPrepared(batch).ok()) ++failed;
    const uint64_t t3 = NowNs();
    for (const std::vector<Value>& k : read_keys) (void)e->ResultAt(k);
    const uint64_t t4 = NowNs();
    if (traced) {
      spans.Add(sp_add, root, t0, t1);
      spans.Add(sp_build, root, t1, t2);
      spans.Add(sp_prepared, root, t2, t3);
      spans.Add(sp_read, root, t3, t4);
      spans.End(root);
      apply_span_ns += t3 - t2;
      return;
    }
    e2e.window_us[n_win++] = Us(t3 - t0);
    e2e.op_us[n_op++] = Us(t1 - t0) / static_cast<double>(spec.batch);
    e2e.read_us[n_read++] = Us(t4 - t3) / static_cast<double>(kReadsPerWindow);
  };

  const uint64_t t_begin = NowNs();
  if (batched) {
    for (size_t pass = 0; pass < passes; ++pass) {
      if (pass > 0) {
        // The previous pass's engine is checked and freed first, so one
        // engine is live at a time.
        check_dispatch();
        digests.push_back(EngineDigest(*e));
        engine.reset();
        engine = set_up();
        if (engine == nullptr) return;
        e = engine.get();
        dispatch_before = DispatchFingerprint(*e);
        PrintDispatch(*e);
      }
      for (size_t b0 = 0; b0 < windows; b0 += kZipfBlockWindows) {
        const bool traced =
            options.trace && (b0 / kZipfBlockWindows) % 2 == 1;
        const size_t n = std::min(windows, b0 + kZipfBlockWindows) - b0;
        Counters before;
        if (traced) before = Counters::Of(*e);
        const uint64_t block_t0 = NowNs();
        for (size_t j = 0; j < n; ++j) run_window(b0 + j, traced);
        wall_ns[traced] += NowNs() - block_t0;
        wall_upd[traced] += n * spec.batch;
        if (traced) traced_counters.AddDelta(before, Counters::Of(*e));
      }
    }
  } else {
    size_t in_window = 0, block_upd = 0;
    bool traced = false;
    Counters before;
    int32_t block_span = -1;
    uint64_t block_t0 = NowNs(), win_t0 = block_t0;
    for (size_t i = preload_end; i < timed_end; ++i) {
      const Op& op = ops[i];
      const bool read = !IsUpdate(op);
      if (read) key[0] = Value(int64_t{op.v[0]});
      const ringdb::ring::Update* u = read ? nullptr : &dec.Decode(op);
      const uint64_t a = NowNs();
      if (read) {
        (void)e->ResultAt(key);
      } else if (!e->Apply(*u).ok()) {
        ++failed;
      }
      const uint64_t b = NowNs();
      if (traced) {
        spans.Add(read ? sp_read : sp_apply, block_span, a, b);
        if (!read) apply_span_ns += b - a;
      } else if (read) {
        e2e.read_us[n_read++] = Us(b - a);
      } else {
        e2e.op_us[n_op++] = Us(b - a);
      }
      if (read) continue;
      if (++in_window == spec.batch) {
        if (!traced && n_win < e2e.window_us.size()) {
          e2e.window_us[n_win++] = Us(b - win_t0);
        }
        win_t0 = b;
        in_window = 0;
      }
      if (++block_upd == kUniformBlockUpdates || i + 1 == timed_end) {
        const uint64_t block_t1 = NowNs();
        spans.End(block_span);
        wall_ns[traced] += block_t1 - block_t0;
        wall_upd[traced] += block_upd;
        if (traced) traced_counters.AddDelta(before, Counters::Of(*e));
        block_upd = 0;
        traced = options.trace && !traced;
        if (traced) {
          before = Counters::Of(*e);
          block_span = spans.Begin(sp_block, -1);
        }
        block_t0 = NowNs();
        win_t0 = block_t0;
        in_window = 0;
      }
    }
  }
  const uint64_t t_end = NowNs();

  e2e.window_us.resize(n_win);
  e2e.op_us.resize(n_op);
  e2e.read_us.resize(n_read);
  e2e.upd_per_s =
      static_cast<double>(wall_upd[0]) /
      (static_cast<double>(std::max<uint64_t>(wall_ns[0], 1)) / 1e9);
  std::printf("# timed phase: %zu updates x %zu pass(es) in %.3f s; %llu "
              "untraced updates at %.0f upd/s\n",
              spec.timed, passes, static_cast<double>(t_end - t_begin) / 1e9,
              static_cast<unsigned long long>(wall_upd[0]), e2e.upd_per_s);
  // Closed loop: the timed phase is itself a burst.
  e2e.burst_upd_per_s = e2e.upd_per_s;
  const uint64_t rss_end = ResidentBytes();
  e2e.rss_mb = static_cast<double>(rss_end - std::min(rss_end, rss_base)) /
               (1024.0 * 1024.0);

  check_dispatch();
  const Engine::EngineStats final_stats = e->Stats();
  layers.view_mb =
      static_cast<double>(final_stats.approx_bytes) / (1024.0 * 1024.0);
  layers.stmts = static_cast<double>(final_stats.statements.size());
  layers.s_labels = StmtLabels(*e);
  digests.push_back(EngineDigest(*e));
  for (size_t pass = 1; pass < passes; ++pass) {
    if (digests[pass] != digests[0]) {
      result->Fail("timed pass " + std::to_string(pass) +
                   " ended with a different result than pass 0");
    }
  }
  digests.resize(1);
  engine.reset();
  e = nullptr;
  for (size_t s = passes; s < kSetups; ++s) {
    if (set_up() == nullptr) return;
  }
  layers.create_ms = Median(create_ms);

  result->attempted =
      batched ? passes * (spec.timed + windows * kReadsPerWindow)
              : spec.timed + timed_reads;
  result->failed = failed;
  if (failed > 0) result->Fail("operations failed in the timed phase");

  const FixtureOut fixture =
      RunFixture(spec, p, ops, options.work_dir + "/fixture", result);
  e2e.recover_s = fixture.recover_s;
  e2e.wal_bytes_per_upd = fixture.wal_bytes_per_upd;
  CheckDigests(spec, ops, options, digests, result);
  CheckOracle(spec, p, ops, options, result);

  if (!options.trace) {
    e2e.Emit(result);
    return;
  }
  // Per-layer budget over the traced blocks.
  const auto self = spans.SelfTimeByName();
  const double upd = static_cast<double>(std::max<uint64_t>(wall_upd[1], 1));
  layers.FromCounters(traced_counters, wall_upd[1]);
  const uint64_t coalesce_ns =
      SelfNs(self, "BatchBuilder::Add") + SelfNs(self, "BatchBuilder::Build");
  const uint64_t stmt_ns = std::min(traced_counters.window_ns, apply_span_ns);
  layers.coalesce_ns_per_upd = static_cast<double>(coalesce_ns) / upd;
  layers.apply_other_ns_per_upd =
      static_cast<double>(apply_span_ns - stmt_ns) / upd;
  const uint64_t attributed =
      coalesce_ns + apply_span_ns + SelfNs(self, "Engine::ResultAt");
  layers.unattributed_pct =
      wall_ns[1] == 0 ? 0.0
                      : 100.0 *
                            (static_cast<double>(wall_ns[1]) -
                             static_cast<double>(attributed)) /
                            static_cast<double>(wall_ns[1]);
  const double ns_traced = static_cast<double>(wall_ns[1]) / upd;
  const double ns_plain =
      static_cast<double>(wall_ns[0]) /
      static_cast<double>(std::max<uint64_t>(wall_upd[0], 1));
  layers.trace_overhead_pct = 100.0 * (ns_traced / ns_plain - 1.0);
  FixtureLayers(fixture, &layers);
  std::printf("# layer budget over %llu traced updates (ns/update): "
              "coalesce %.1f, apply_other %.1f, statements %.1f, reads "
              "%.1f, unattributed %.2f%%\n",
              static_cast<unsigned long long>(wall_upd[1]),
              layers.coalesce_ns_per_upd, layers.apply_other_ns_per_upd,
              static_cast<double>(stmt_ns) / upd,
              static_cast<double>(SelfNs(self, "Engine::ResultAt")) / upd,
              layers.unattributed_pct);
  layers.PrintLabels();
  layers.Emit(result);
  if (!options.trace_out.empty()) {
    spans.WriteChromeJson(options.trace_out, kMaxSpansWritten);
  }
}

// ---- serve-durable --------------------------------------------------------

// Burst watcher thread: per-window publication intervals of query 0
// while the pipeline runs closed-loop (window_*_us on serve-durable).
struct Watcher {
  QueryService* svc = nullptr;
  std::atomic<bool> stop{false};
  std::vector<double> window_us;
  size_t n_win = 0;

  void Run() {
    uint64_t last_version = svc->snapshot(0)->version();
    uint64_t last_change = NowNs();
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t v = svc->snapshot(0)->version();
      const uint64_t now = NowNs();
      if (v != last_version) {
        if (n_win < window_us.size()) {
          window_us[n_win++] =
              Us(now - last_change) / static_cast<double>(v - last_version);
        }
        last_version = v;
        last_change = now;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
};

void RunServeWorkload(const Spec& spec, const std::vector<Op>& ops,
                      const RunOptions& options, RunResult* result) {
  Program p;
  if (!Translate(spec, &p, result)) return;
  const size_t preload_end = SkipUpdates(ops, 0, spec.preload);
  const size_t open_end = SkipUpdates(ops, preload_end, spec.open_loop);
  const size_t burst_end = SkipUpdates(ops, open_end, spec.timed);

  EndToEnd e2e;
  const double open_s = static_cast<double>(spec.open_loop) / spec.open_rate;
  const size_t max_reads = static_cast<size_t>(spec.read_rate * open_s);
  const size_t samples = spec.open_loop / kVisibleEvery;
  e2e.read_us.assign(max_reads, 0.0);
  std::vector<double> visible_us(samples, 0.0);
  e2e.op_us.assign(spec.open_loop, 0.0);
  std::vector<double> late_us(spec.open_loop + max_reads, 0.0);
  std::vector<double> gap_us(samples, 0.0);
  Watcher watcher;
  watcher.window_us.assign(spec.timed / 8 + 64, 0.0);
  SpanLog spans;
  if (options.trace) {
    spans.Reserve(spec.open_loop + max_reads + samples + spec.timed + 64);
  }
  const uint64_t rss_base = ResidentBytes();

  Layers layers;
  if (options.trace) {
    layers.cc_cold_ms = ColdCompileMs(spec, p, options.work_dir, result);
  }
  WarmNativeCache(spec, p, result);
  if (!result->correct) return;

  // Set-up: service construction, registration, Start and the preload
  // pushed closed-loop until drained. The first set-up is the live
  // service; the rest of the kSetups run after the memory reading, in a
  // directory of their own.
  const std::string live_dir = options.work_dir + "/live";
  std::vector<double> create_ms;
  auto set_up = [&](const std::string& dir) -> std::unique_ptr<QueryService> {
    ResetDir(dir);
    const uint64_t t0 = NowNs();
    auto svc = MakeService(spec, p, dir, result);
    if (svc == nullptr) return nullptr;
    const uint64_t t1 = NowNs();
    svc->Start();
    const uint64_t failed = PushAll(svc.get(), ops, 0, preload_end);
    svc->Drain();
    const uint64_t t2 = NowNs();
    if (failed != 0) result->Fail("preload Push failed");
    e2e.setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    create_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    return svc;
  };
  std::unique_ptr<QueryService> svc = set_up(live_dir);
  if (svc == nullptr) return;

  // Open loop: one generator thread (this one) pushes updates at
  // spec.open_rate and issues Get calls at spec.read_rate, timing each
  // call and its lateness against its due time. Between events it polls
  // both queries' snapshots for the first one whose updates_applied()
  // covers each visibility sample (every kVisibleEvery-th update).
  OpDecoder dec;
  uint64_t failed = 0;
  const uint32_t sp_push = spans.Name("QueryService::Push");
  const uint32_t sp_get = spans.Name("QueryService::Get");
  const uint32_t sp_vis = spans.Name("visible");
  const uint32_t sp_segment = spans.Name("burst-segment");
  const uint32_t sp_drain = spans.Name("QueryService::Drain");
  std::vector<Value> key(1);
  const uint64_t t_start = NowNs() + 1000000;
  auto due_at = [t_start](size_t n, double rate) {
    return t_start + static_cast<uint64_t>(static_cast<double>(n) * 1e9 /
                                           rate);
  };
  size_t n_push = 0, n_read = 0, n_vis = 0, n_late = 0, n_gap = 0;
  size_t pos = preload_end, key_pos = preload_end;
  uint64_t push_span_ns = 0, last_poll = t_start;
  while (n_push < spec.open_loop || n_vis < samples) {
    const uint64_t now = NowNs();
    if (n_push < spec.open_loop && now >= due_at(n_push, spec.open_rate)) {
      while (!IsUpdate(ops[pos])) ++pos;
      const ringdb::ring::Update& u = dec.Decode(ops[pos++]);
      const uint64_t due = due_at(n_push, spec.open_rate);
      const uint64_t a = NowNs();
      if (!svc->Push(u).ok()) ++failed;
      const uint64_t b = NowNs();
      late_us[n_late++] = Us(a - due);
      if (options.trace) {
        spans.Add(sp_push, -1, a, b);
        push_span_ns += b - a;
      } else {
        e2e.op_us[n_push] = Us(b - a);
      }
      ++n_push;
      continue;
    }
    if (n_read < max_reads && now >= due_at(n_read, spec.read_rate)) {
      // Read keys: ckeys of the stream's orders updates, in order.
      while (ops[key_pos].kind > kDeleteOrders) ++key_pos;
      key[0] = Value(int64_t{ops[key_pos++].v[1]});
      const uint64_t due = due_at(n_read, spec.read_rate);
      const uint64_t a = NowNs();
      (void)svc->Get(0, key);
      const uint64_t b = NowNs();
      late_us[n_late++] = Us(a - due);
      if (options.trace) {
        spans.Add(sp_get, -1, a, b);
      } else {
        e2e.read_us[n_read] = Us(b - a);
      }
      ++n_read;
      continue;
    }
    // The gap since the previous poll bounds how late this poll observes
    // a sample; it is recorded for every poll that observes one.
    const uint64_t gap = now - last_poll;
    last_poll = now;
    const uint64_t applied = std::min(svc->snapshot(0)->updates_applied(),
                                      svc->snapshot(1)->updates_applied());
    if (n_vis < samples && spec.preload + n_vis * kVisibleEvery < applied &&
        n_gap < gap_us.size()) {
      gap_us[n_gap++] = Us(gap);
    }
    while (n_vis < samples && n_vis * kVisibleEvery < n_push &&
           spec.preload + n_vis * kVisibleEvery < applied) {
      const uint64_t due = due_at(n_vis * kVisibleEvery, spec.open_rate);
      if (options.trace) spans.Add(sp_vis, -1, due, now);
      visible_us[n_vis++] = Us(now - due);
    }
  }
  svc->Drain();
  const uint64_t wal_before_burst = svc->Stats().durability.wal_bytes;

  // Burst: closed-loop segments, alternately untraced and traced in a
  // traced run, each timed from its first Push until it has drained.
  watcher.svc = svc.get();
  std::thread watcher_thread([&watcher] { watcher.Run(); });
  uint64_t seg_ns[2] = {0, 0}, seg_upd[2] = {0, 0};
  uint64_t seg_push_ns = 0;  // Push + Drain spans, traced segments
  const size_t seg_len = (spec.timed + kBurstSegments - 1) / kBurstSegments;
  size_t seg_done = 0;
  for (size_t seg = 0; seg < kBurstSegments; ++seg) {
    const bool traced = options.trace && seg % 2 == 1;
    const size_t begin = SkipUpdates(ops, open_end, seg_done);
    const size_t end = SkipUpdates(ops, begin, seg_len);
    const int32_t root = traced ? spans.Begin(sp_segment, -1) : -1;
    const uint64_t t0 = NowNs();
    size_t pushed = 0;
    for (size_t i = begin; i < end && i < burst_end; ++i) {
      if (!IsUpdate(ops[i])) continue;
      const ringdb::ring::Update& u = dec.Decode(ops[i]);
      const uint64_t a = NowNs();
      if (!svc->Push(u).ok()) ++failed;
      const uint64_t b = NowNs();
      if (traced) {
        spans.Add(sp_push, root, a, b);
        seg_push_ns += b - a;
      }
      ++pushed;
    }
    const uint64_t drain_t0 = NowNs();
    svc->Drain();
    const uint64_t t1 = NowNs();
    if (traced) {
      spans.Add(sp_drain, root, drain_t0, t1);
      seg_push_ns += t1 - drain_t0;
    }
    spans.End(root);
    seg_ns[traced] += t1 - t0;
    seg_upd[traced] += pushed;
    seg_done += pushed;
  }
  watcher.stop.store(true, std::memory_order_release);
  watcher_thread.join();
  // WAL bytes per update over the burst's full windows: the open loop's
  // window sizes follow the host's timing, the burst's do not.
  e2e.wal_bytes_per_upd =
      static_cast<double>(svc->Stats().durability.wal_bytes -
                          wal_before_burst) /
      static_cast<double>(std::max<uint64_t>(seg_upd[0] + seg_upd[1], 1));
  e2e.burst_upd_per_s = static_cast<double>(seg_upd[0]) /
                        (static_cast<double>(seg_ns[0]) / 1e9);
  // upd_per_s is the pipeline's closed-loop rate too: the open-loop
  // phase's applied rate is the offered rate, which no code change moves.
  e2e.upd_per_s = e2e.burst_upd_per_s;

  const uint32_t sp_stop = spans.Name("QueryService::Stop");
  const int32_t stop_span = spans.Begin(sp_stop, -1);
  svc->Stop();
  spans.End(stop_span);
  // Resident memory once stopped: the peak would include the last
  // checkpoint's transient buffers, whose effect on it followed the
  // allocator's timing from run to run.
  const uint64_t rss_end = ResidentBytes();
  e2e.rss_mb = static_cast<double>(rss_end - std::min(rss_end, rss_base)) /
               (1024.0 * 1024.0);

  // Quiesced: read the program's exact counters.
  const QueryService::ServiceStats st = svc->Stats();
  if (!svc->status().ok()) result->Fail("service: " + svc->status().ToString());
  if (!svc->durability_status().ok()) {
    result->Fail("durability: " + svc->durability_status().ToString());
  }
  if (st.applied != spec.total_updates()) {
    result->Fail("service applied " + std::to_string(st.applied) +
                 " updates, pushed " + std::to_string(spec.total_updates()));
  }
  std::vector<std::string> digests;
  for (size_t q = 0; q < p.queries.size(); ++q) {
    digests.push_back(SnapshotDigest(*svc->snapshot(q)));
  }
  uint64_t morsels = 0, stolen = 0;
  for (size_t q = 0; q < p.queries.size(); ++q) {
    const Engine::EngineStats es = svc->engine(q).Stats();
    morsels += es.morsels_run;
    stolen += es.morsels_stolen;
    layers.view_mb += static_cast<double>(es.approx_bytes) / (1024.0 * 1024.0);
  }
  {
    const Engine& e0 = svc->engine(0);
    layers.stmts = static_cast<double>(e0.Stats().statements.size());
    layers.s_labels = StmtLabels(e0);
    layers.FromCounters(Counters::Of(e0), st.applied);
  }
  layers.morsels_per_window =
      static_cast<double>(morsels) /
      static_cast<double>(std::max<int64_t>(st.windows, 1)) /
      static_cast<double>(p.queries.size());
  layers.stolen_frac =
      morsels == 0 ? 0.0
                   : static_cast<double>(stolen) / static_cast<double>(morsels);
  layers.upd_per_window =
      static_cast<double>(st.applied) /
      static_cast<double>(std::max<int64_t>(st.windows, 1));
  layers.coalesce_ns_mean = Mean(st.coalesce_ns.sum, st.coalesce_ns.count);
  layers.query_apply_ns_mean =
      Mean(st.query_apply_ns.sum, st.query_apply_ns.count);
  layers.publish_age_ns_mean =
      Mean(st.publish_age_ns.sum, st.publish_age_ns.count);
  layers.append_ns_mean =
      Mean(st.durability.append_ns.sum, st.durability.append_ns.count);
  layers.checkpoints = static_cast<double>(st.durability.checkpoints);
  layers.checkpoint_ms_mean =
      Mean(st.durability.checkpoint_ns.sum, st.durability.checkpoint_ns.count) /
      1e6;
  layers.fsyncs = static_cast<double>(st.durability.wal_fsyncs);
  std::printf("# live service: %lld windows, %.1f updates/window, %llu "
              "checkpoints (mean %.2f ms), %.1f morsels/window\n",
              static_cast<long long>(st.windows), layers.upd_per_window,
              static_cast<unsigned long long>(st.durability.checkpoints),
              layers.checkpoint_ms_mean, layers.morsels_per_window);
  svc.reset();

  // The stopped service's directory must recover to the same results.
  {
    auto again = MakeService(spec, p, live_dir, result);
    if (again == nullptr) return;
    again->Start();
    for (size_t q = 0; q < p.queries.size(); ++q) {
      if (SnapshotDigest(*again->snapshot(q)) != digests[q]) {
        result->Fail("recovered service serves a different q" +
                     std::to_string(q) + " result");
      }
    }
    if (again->recovered_updates() != spec.total_updates()) {
      result->Fail("recovery landed on " +
                   std::to_string(again->recovered_updates()) + " updates");
    }
    again->Stop();
  }
  for (size_t s = 1; s < kSetups; ++s) {
    if (set_up(options.work_dir + "/setup") == nullptr) return;
  }
  layers.create_ms = Median(create_ms);

  gap_us.resize(n_gap);
  late_us.resize(n_late);
  layers.poll_gap_us = Percentile(&gap_us, 0.99);
  layers.gen_late_p99_us = Percentile(&late_us, 0.99);
  // Push-to-visible latency: per-layer only. Its run-to-run spread on the
  // sizing host (0.4-0.6 of the median) exceeds any end-to-end bound.
  visible_us.resize(n_vis);
  layers.visible_p50_us = Percentile(&visible_us, 0.50);
  layers.visible_p99_us = Percentile(&visible_us, 0.99);
  std::printf("# visible p50 %.1f us, p99 %.1f us (n=%zu)\n",
              layers.visible_p50_us, layers.visible_p99_us, n_vis);
  std::printf("# generator lateness p99 %.1f us, watcher poll gap p99 %.1f "
              "us (validity: both far below the visible p50)\n",
              layers.gen_late_p99_us, layers.poll_gap_us);

  result->attempted = spec.open_loop + spec.timed + n_read;
  result->failed = failed;
  if (failed > 0) result->Fail("Push failed in the timed phases");

  const FixtureOut fixture =
      RunFixture(spec, p, ops, options.work_dir + "/fixture", result);
  e2e.recover_s = fixture.recover_s;
  layers.replayed_records = static_cast<double>(fixture.replayed_records);
  CheckDigests(spec, ops, options, digests, result);
  CheckOracle(spec, p, ops, options, result);

  if (!options.trace) {
    e2e.window_us = std::move(watcher.window_us);
    e2e.window_us.resize(watcher.n_win);
    e2e.read_us.resize(n_read);
    e2e.Emit(result);
    return;
  }
  layers.push_ns_mean = Mean(push_span_ns, spec.open_loop);
  layers.unattributed_pct =
      seg_ns[1] == 0 ? 0.0
                     : 100.0 *
                           (static_cast<double>(seg_ns[1]) -
                            static_cast<double>(seg_push_ns)) /
                           static_cast<double>(seg_ns[1]);
  const double traced_rate = static_cast<double>(seg_upd[1]) /
                             (static_cast<double>(seg_ns[1]) / 1e9);
  layers.trace_overhead_pct =
      100.0 * (e2e.burst_upd_per_s / traced_rate - 1.0);
  layers.PrintLabels();
  layers.Emit(result);
  if (!options.trace_out.empty()) {
    spans.WriteChromeJson(options.trace_out, kMaxSpansWritten);
  }
}

}  // namespace

bool MakeSpec(const std::string& workload, int seconds, Spec* spec) {
  const size_t secs = static_cast<size_t>(std::max(seconds, 1));
  Spec s;
  s.name = workload;
  if (workload == "zipf-batch") {
    s.domain = 4096;
    s.zipf_s = 1.1;
    // A fixed-size sliding window of live rows, so every timed window does
    // the same work. With a delete fraction the views kept growing: at 35%
    // the last windows took three times as long as the first, and
    // window_p50_us, taken on that ramp, spread 0.29 over five seeds.
    s.live_rows = 128 * 1024;
    // The windows fill both relations (256 windows), then run 64 windows
    // of steady state, so the delete statements' dispatch locks too.
    s.preload = 320 * 1024;
    // About 4.1 ms per window on the sizing host, so about 13 s at S = 8:
    // the host has spells of 10-20 s in which everything runs up to 1.6x
    // faster, and a longer phase dilutes them. At least 1,100 windows, so
    // that window_p90_us has over 100 samples beyond it.
    s.timed = std::max<size_t>(1100, secs * 400) * 1024;
    s.shards = 1;
    // The naive join costs the square of the rows: 32,768 inserts took 25 s.
    s.oracle_prefix = 8 * 1024;
    s.program_threads = 0;
    s.generator_threads = 1;
  } else if (workload == "uniform-tuple-rw") {
    s.domain = 262144;
    s.zipf_s = 0.0;
    // One read per 8 updates: reads come from the orders stream only, so
    // its read fraction f satisfies f / (2 - f) = 1/8.
    s.orders_read_fraction = 2.0 / 9.0;
    s.preload = 1024 * 1024;
    s.preload_tail = 64 * 1024;
    s.timed = secs * 300 * 1024;
    s.shards = 2;
    s.oracle_prefix = 32 * 1024;
    s.program_threads = 1;  // shard 1's worker (idle: Apply routes inline)
    s.generator_threads = 1;
  } else if (workload == "serve-durable") {
    s.domain = 4096;
    s.zipf_s = 1.1;
    s.preload = 300 * 1024;
    // About 17% of the pipeline's closed-loop capacity (burst_upd_per_s,
    // about 177k upd/s) on the sizing host; at 40% the visibility figures
    // spread too widely between runs to be read.
    s.open_rate = 30000.0;
    s.read_rate = 20000.0;
    s.open_loop = static_cast<size_t>(s.open_rate * 1.5 *
                                      static_cast<double>(secs));
    // A 35%-delete sliding window keeps the join fan-out, and so the work
    // per update, nearly flat across the run; the serve and log layers
    // then carry most of the cost.
    s.delete_fraction = 0.35;
    // About 13 s of burst at S = 8. The host's speed swings by up to 1.7x
    // within a minute; a 4 s burst is one draw of it, and its figures
    // spread 0.33 of their median over ten seeds.
    s.timed = secs * 360 * 1024;
    // One shard per query: with two, a window runs four program threads
    // at once and the generator thread is preempted on a 4-core host.
    s.shards = 1;
    s.checkpoint_every = 1024;
    s.oracle_prefix = 16 * 1024;
    s.program_threads = 2;  // batcher (applies q0), q1 applier
    s.generator_threads = 1;  // + a sleeping window watcher in the burst
  } else {
    return false;
  }
  *spec = s;
  return true;
}

std::vector<Op> GenerateStream(const Spec& spec, uint64_t seed) {
  const ringdb::ring::Catalog catalog = ringdb::workload::OrdersSchema();
  ringdb::workload::StreamOptions so;
  so.seed = seed;
  so.domain_size = spec.domain;
  so.zipf_s = spec.zipf_s;
  so.delete_fraction = spec.live_rows > 0 ? 0.0 : spec.delete_fraction;
  ringdb::workload::StreamOptions orders_so = so;
  orders_so.read_fraction = spec.orders_read_fraction;
  orders_so.read_key_positions = {1};
  std::vector<ringdb::workload::RelationStream> streams;
  streams.emplace_back(catalog, Symbol::Intern("orders"), orders_so);
  streams.emplace_back(catalog, Symbol::Intern("lineitem"), so);
  ringdb::workload::RoundRobinStream stream(std::move(streams));
  const Symbol orders = Symbol::Intern("orders");
  std::vector<Op> live[2];  // live rows of orders and lineitem (live_rows)
  ringdb::Rng victims(ringdb::workload::ChildSeed(seed, 2));
  std::vector<Op> ops;
  const size_t want = spec.total_updates();
  ops.reserve(want + want / 4);
  for (size_t updates = 0; updates < want;) {
    const ringdb::workload::StreamOp sop = stream.NextOp();
    Op op;
    if (sop.kind == ringdb::workload::StreamOp::Kind::kRead) {
      op.kind = kRead;
      op.v[0] = static_cast<int32_t>(sop.read_key[0].AsInt());
    } else {
      const ringdb::ring::Update& u = sop.update;
      const bool ins = u.sign == ringdb::ring::Update::Sign::kInsert;
      if (u.relation == orders) {
        op.kind = ins ? kInsertOrders : kDeleteOrders;
      } else {
        op.kind = ins ? kInsertLineitem : kDeleteLineitem;
      }
      for (size_t c = 0; c < u.values.size(); ++c) {
        op.v[c] = static_cast<int32_t>(u.values[c].AsInt());
      }
      if (spec.live_rows > 0) {
        std::vector<Op>& rows = live[op.kind == kInsertOrders ? 0 : 1];
        if (rows.size() >= spec.live_rows) {
          const size_t pick = victims.Below(rows.size());
          Op del = rows[pick];
          del.kind = op.kind == kInsertOrders ? kDeleteOrders : kDeleteLineitem;
          rows[pick] = rows.back();
          rows.pop_back();
          ops.push_back(del);
          if (++updates == want) break;
        }
        rows.push_back(op);
      }
      ++updates;
    }
    ops.push_back(op);
  }
  return ops;
}

void RunWorkload(const Spec& spec, const std::vector<Op>& ops,
                 const RunOptions& options, RunResult* result) {
  std::printf("# workload %s seed %llu: %zu updates (preload %zu, open "
              "loop %zu, timed %zu), %zu shard(s), batch %zu; threads: "
              "generator %d + program %d; nproc %u\n",
              spec.name.c_str(), static_cast<unsigned long long>(options.seed),
              spec.total_updates(), spec.preload, spec.open_loop, spec.timed,
              spec.shards, spec.batch, spec.generator_threads,
              spec.program_threads, std::thread::hardware_concurrency());
  if (spec.name == "serve-durable") {
    RunServeWorkload(spec, ops, options, result);
  } else {
    RunEngineWorkload(spec, ops, options, result);
  }
}

std::vector<std::string> IndependentDigests(const Spec& spec,
                                            const std::vector<Op>& ops,
                                            const EngineOptions& eo) {
  RunResult scratch;
  Program p;
  std::vector<std::string> out;
  if (!Translate(spec, &p, &scratch)) return out;
  OpDecoder dec;
  for (size_t q = 0; q < p.queries.size(); ++q) {
    auto engine = MakeEngine(p, q, eo, &scratch);
    std::vector<ringdb::ring::Update> chunk;
    bool ok = engine != nullptr;
    for (size_t i = 0; ok && i < ops.size(); ++i) {
      if (IsUpdate(ops[i])) chunk.push_back(dec.Decode(ops[i]));
      if (chunk.size() == eo.batch_size || i + 1 == ops.size()) {
        ok = engine->ApplyBatch(chunk).ok();
        chunk.clear();
      }
    }
    out.push_back(ok ? EngineDigest(*engine) : "error");
  }
  return out;
}

}  // namespace ringbench
