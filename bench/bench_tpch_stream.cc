// E10 — end-to-end stream analytics throughput: the revenue-per-customer
// query and the Example 5.2 per-customer nation count, maintained over
// generated order/lineitem/customer streams (uniform and zipf-skewed,
// with deletions), comparing recursive IVM against classical first-order
// IVM. Expected shape: recursive IVM sustains a multiple of classical
// throughput, growing with stream length (classical per-update cost
// scales with matching-group sizes).

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/baselines.h"
#include "exec/batch.h"
#include "log/durable_log.h"
#include "runtime/engine.h"
#include "sql/translate.h"
#include "util/table_printer.h"
#include "workload/stream.h"

namespace {

using ringdb::Symbol;
using ringdb::Value;

Symbol S(const char* s) { return Symbol::Intern(s); }

struct Config {
  std::string name;
  double zipf_s;
  double delete_fraction;
};

// Command line: --updates N (sweep event budget), --json PATH (snapshot
// output, empty disables), --label STR (snapshot label), --sweep-only
// (skip the classical-IVM comparison sections; CI smoke mode),
// --backend interpret|compile|both (which statement-execution backends
// the sweep measures; compile rows are skipped with a note when no host
// C compiler is available), --stats (dump each sweep engine's full
// metrics export — per-statement counters, dispatch decisions, stage
// spans — after its row). The default output name is distinct from the
// committed trajectory file BENCH_tpch_stream.json (same schema) so an
// argless run never clobbers the recorded per-PR history; merge
// snapshots into it deliberately.
struct Options {
  int updates = 200000;
  std::string json_path = "BENCH_tpch_stream.dev.json";
  std::string label = "dev";
  bool sweep_only = false;
  std::string backend = "both";
  std::string stream = "both";   // uniform|zipf|both: sweep stream filter
  std::string config_filter;     // substring filter over sweep config names
  bool stats = false;
  // off|never|window|group|all: adds the durability overhead section,
  // which re-runs the zipf batch-1024 row with every applied window
  // appended write-ahead (log/durable_log.h) under the given fsync
  // policy, against the memory-only baseline. Empty = section skipped.
  std::string durability;
  // --assert-scaling: fail (exit 1) unless every 4-shard batch-1024 row
  // reached >= 2x its 1-shard row — skipped with a note on hosts with
  // hardware_concurrency < 4, where no scaling claim is possible.
  bool assert_scaling = false;
  // --trace FILE: enable the per-window flight recorder on every batched
  // sweep engine (Engine::EnableTracing), write the last batch-1024
  // row's Chrome trace-event JSON to FILE, and attach a
  // "stage_breakdown" object to every traced row. Single-tuple rows run
  // untraced (they go through Engine::Apply, below window granularity).
  std::string trace_path;
};

// One measured (stream, engine-config) cell of the sweep, serialized to
// BENCH_tpch_stream.json so the repo tracks a perf trajectory across PRs.
struct SweepResult {
  std::string stream;
  std::string config;
  std::string backend;  // "interpret" or "compile"
  size_t batch_size;
  size_t shards;
  double upd_per_s;
  size_t approx_bytes;
  std::string stats_json;  // Engine::StatsJson of the run (valid JSON)
  // Engine::TraceBreakdownJson when the run was traced (empty = "null").
  std::string stage_breakdown;
};

// One line of the snapshot's `scaling` block: a multi-shard batch-1024
// row normalized to its same-(stream, backend) 1-shard row. `scaled` is
// an honesty label, not a measurement: it is refused outright when the
// host has fewer cores than the row has shards, so 1-core container
// numbers can never masquerade as scaling data no matter what the
// speedup ratio happens to be.
struct ScalingEntry {
  std::string stream;
  std::string backend;
  size_t shards;
  double upd_per_s;
  double speedup_vs_1shard;
  bool scaled;
};

std::vector<ScalingEntry> ComputeScaling(
    const std::vector<SweepResult>& results) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<ScalingEntry> out;
  for (const SweepResult& r : results) {
    if (r.batch_size != 1024 || r.shards <= 1) continue;
    const SweepResult* base = nullptr;
    for (const SweepResult& b : results) {
      if (b.batch_size == 1024 && b.shards == 1 && b.stream == r.stream &&
          b.backend == r.backend && b.config.rfind("durability=", 0) != 0) {
        base = &b;
        break;
      }
    }
    if (base == nullptr || base->upd_per_s <= 0.0) continue;
    out.push_back(ScalingEntry{
        r.stream, r.backend, r.shards, r.upd_per_s,
        r.upd_per_s / base->upd_per_s, hw >= r.shards});
  }
  return out;
}

// --assert-scaling: on hosts with the cores to back it up, the 4-shard
// batch-1024 rows must actually scale (>= 2x their 1-shard row). On
// smaller hosts the assertion is skipped with a note — there is nothing
// to assert, and the emitted rows already carry scaled=false.
bool AssertScaling(const std::vector<ScalingEntry>& scaling) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    std::printf("\n--assert-scaling: skipped, hardware_concurrency=%u < 4 "
                "(rows are labeled scaled=false)\n", hw);
    return true;
  }
  bool ok = true;
  bool any = false;
  for (const ScalingEntry& e : scaling) {
    if (e.shards != 4 || !e.scaled) continue;
    any = true;
    if (e.speedup_vs_1shard < 2.0) {
      std::fprintf(stderr,
                   "--assert-scaling FAILED: %s/%s 4 shards is only "
                   "%.2fx the 1-shard row (need >= 2x)\n",
                   e.stream.c_str(), e.backend.c_str(),
                   e.speedup_vs_1shard);
      ok = false;
    }
  }
  if (!any) {
    std::fprintf(stderr, "--assert-scaling FAILED: no 4-shard batch-1024 "
                         "row ran (config filter?)\n");
    return false;
  }
  if (ok) std::printf("\n--assert-scaling: ok (all 4-shard rows >= 2x)\n");
  return ok;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void WriteSnapshotJson(const Options& opt,
                       const std::vector<SweepResult>& results) {
  if (opt.json_path.empty()) return;
  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"tpch_stream\",\n  \"snapshots\": [\n");
  std::fprintf(f, "    {\n      \"label\": \"%s\",\n      \"updates\": %d,\n",
               JsonEscape(opt.label).c_str(), opt.updates);
  std::fprintf(f, "      \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "      \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(f,
                 "        {\"stream\": \"%s\", \"config\": \"%s\", "
                 "\"backend\": \"%s\", \"batch_size\": %zu, "
                 "\"shards\": %zu, \"hardware_concurrency\": %u, "
                 "\"upd_per_s\": %.0f, \"approx_bytes\": %zu,\n"
                 "         \"stage_breakdown\": %s,\n"
                 "         \"stats\": %s}%s\n",
                 JsonEscape(r.stream).c_str(), JsonEscape(r.config).c_str(),
                 JsonEscape(r.backend).c_str(), r.batch_size, r.shards,
                 std::thread::hardware_concurrency(),
                 r.upd_per_s, r.approx_bytes,
                 r.stage_breakdown.empty() ? "null"
                                           : r.stage_breakdown.c_str(),
                 r.stats_json.empty() ? "null" : r.stats_json.c_str(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "      ],\n");
  // Multi-shard throughput normalized to the matching 1-shard row.
  // `scaled: false` rows are data recorded without the cores to back
  // them (or genuinely flat scaling on a capable host — the speedup
  // value disambiguates); downstream gates must never read a speedup
  // off a scaled=false row as evidence of scaling.
  const std::vector<ScalingEntry> scaling = ComputeScaling(results);
  std::fprintf(f, "      \"scaling\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ScalingEntry& e = scaling[i];
    std::fprintf(f,
                 "        {\"stream\": \"%s\", \"backend\": \"%s\", "
                 "\"shards\": %zu, \"upd_per_s\": %.0f, "
                 "\"speedup_vs_1shard\": %.3f, \"scaled\": %s}%s\n",
                 JsonEscape(e.stream).c_str(), JsonEscape(e.backend).c_str(),
                 e.shards, e.upd_per_s, e.speedup_vs_1shard,
                 e.scaled ? "true" : "false",
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "      ]\n    }\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu results)\n", opt.json_path.c_str(),
              results.size());
}

double Throughput(const std::function<void(const ringdb::ring::Update&)>&
                      apply,
                  ringdb::workload::RoundRobinStream& stream, int updates) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < updates; ++i) apply(stream.Next());
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return updates / elapsed;
}

void RevenueQuery() {
  std::printf("revenue per customer over orders/lineitem streams\n\n");
  ringdb::ring::Catalog catalog = ringdb::workload::OrdersSchema();
  auto t = ringdb::sql::TranslateSql(
      catalog,
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  if (!t.ok()) {
    std::fprintf(stderr, "%s\n", t.status().ToString().c_str());
    return;
  }
  const std::vector<Config> configs = {
      {"uniform, insert-only", 0.0, 0.0},
      {"uniform, 15% deletes", 0.0, 0.15},
      {"zipf(1.1), 15% deletes", 1.1, 0.15},
  };
  ringdb::TablePrinter table({"stream", "recursive IVM upd/s",
                              "classical IVM upd/s", "speedup"});
  for (const Config& config : configs) {
    auto make_stream = [&](uint64_t seed) {
      ringdb::workload::StreamOptions options;
      options.seed = seed;
      options.domain_size = 4096;
      options.zipf_s = config.zipf_s;
      options.delete_fraction = config.delete_fraction;
      std::vector<ringdb::workload::RelationStream> streams;
      streams.emplace_back(catalog, S("orders"), options);
      streams.emplace_back(catalog, S("lineitem"), options);
      return ringdb::workload::RoundRobinStream(std::move(streams));
    };

    auto engine =
        ringdb::runtime::Engine::Create(catalog, t->group_vars, t->body);
    auto s1 = make_stream(99);
    double engine_tput = Throughput(
        [&](const ringdb::ring::Update& u) { (void)engine->Apply(u); }, s1,
        100000);

    ringdb::baseline::ClassicalIvm classical(catalog, t->group_vars,
                                             t->body);
    auto s2 = make_stream(99);
    double classical_tput = Throughput(
        [&](const ringdb::ring::Update& u) { (void)classical.Apply(u); },
        s2, 20000);

    char a[32], b[32], c[32];
    std::snprintf(a, sizeof(a), "%.0f", engine_tput);
    std::snprintf(b, sizeof(b), "%.0f", classical_tput);
    std::snprintf(c, sizeof(c), "%.1fx", engine_tput / classical_tput);
    table.AddRow({config.name, a, b, c});
  }
  std::printf("%s", table.Render().c_str());
}

void NationCountQuery() {
  std::printf("\nper-customer same-nation count (Ex. 5.2 shape)\n\n");
  ringdb::ring::Catalog catalog;
  catalog.AddRelation(S("customer"), {S("cid"), S("nation")});
  auto t = ringdb::sql::TranslateSql(
      catalog,
      "SELECT C1.cid, SUM(1) FROM customer C1, customer C2 "
      "WHERE C1.nation = C2.nation GROUP BY C1.cid");
  if (!t.ok()) {
    std::fprintf(stderr, "%s\n", t.status().ToString().c_str());
    return;
  }
  // Nation domain small (25 nations): the grouped self-join has real
  // fan-out (every same-nation customer is an affected value).
  ringdb::workload::StreamOptions options;
  options.seed = 5;
  options.domain_size = 25;
  options.delete_fraction = 0.3;  // heavy churn keeps groups bounded

  ringdb::TablePrinter table(
      {"updates", "recursive IVM upd/s", "classical IVM upd/s"});
  for (int updates : {2000, 8000, 32000}) {
    auto engine =
        ringdb::runtime::Engine::Create(catalog, t->group_vars, t->body);
    std::vector<ringdb::workload::RelationStream> se;
    se.emplace_back(catalog, S("customer"), options);
    ringdb::workload::RoundRobinStream stream_e(std::move(se));
    double engine_tput = Throughput(
        [&](const ringdb::ring::Update& u) { (void)engine->Apply(u); },
        stream_e, updates);

    ringdb::baseline::ClassicalIvm classical(catalog, t->group_vars,
                                             t->body);
    std::vector<ringdb::workload::RelationStream> sc;
    sc.emplace_back(catalog, S("customer"), options);
    ringdb::workload::RoundRobinStream stream_c(std::move(sc));
    double classical_tput = Throughput(
        [&](const ringdb::ring::Update& u) { (void)classical.Apply(u); },
        stream_c, std::min(updates, 8000));

    char a[32], b[32];
    std::snprintf(a, sizeof(a), "%.0f", engine_tput);
    std::snprintf(b, sizeof(b), "%.0f", classical_tput);
    table.AddRow({std::to_string(updates), a, b});
  }
  std::printf("%s", table.Render().c_str());
}

// E11 — batched + sharded execution sweep (src/exec/): the revenue query
// maintained over the same streams through Engine::ApplyBatch at varying
// batch sizes and shard counts, against the single-tuple single-thread
// path. Batching coalesces each window into per-relation delta GMRs
// (cancelled events vanish, repeated events fire linear triggers once,
// scratch and hash-table reservations amortize); sharding partitions the
// view hierarchy by the join key (okey) and applies sub-batches on a
// persistent worker pool.
void BatchShardSweep(const Options& opt,
                     std::vector<SweepResult>* all_results,
                     std::string* trace_json) {
  std::printf("\nbatched + sharded execution sweep (revenue query)\n\n");
  ringdb::ring::Catalog catalog = ringdb::workload::OrdersSchema();
  auto t = ringdb::sql::TranslateSql(
      catalog,
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  if (!t.ok()) {
    std::fprintf(stderr, "%s\n", t.status().ToString().c_str());
    return;
  }

  struct SweepConfig {
    std::string name;
    size_t batch_size;
    size_t num_shards;
  };
  const std::vector<SweepConfig> sweep = {
      {"single-tuple (baseline)", 1, 1},
      {"batch 256", 256, 1},
      {"batch 1024", 1024, 1},
      {"batch 1024, 2 shards", 1024, 2},
      {"batch 1024, 4 shards", 1024, 4},
  };
  const std::vector<Config> stream_configs = {
      {"uniform, 15% deletes", 0.0, 0.15},
      {"zipf(1.1), 15% deletes", 1.1, 0.15},
  };
  const int kUpdates = opt.updates;
  std::vector<SweepResult> sweep_results;
  for (const Config& stream_config : stream_configs) {
    if (opt.stream != "both") {
      const bool is_zipf = stream_config.zipf_s > 0.0;
      if (opt.stream == "zipf" ? !is_zipf : is_zipf) continue;
    }
    std::printf("stream: %s, %d updates\n", stream_config.name.c_str(),
                kUpdates);
    // One pre-generated stream per stream shape, shared by every engine
    // config, so all rows maintain the identical update sequence.
    ringdb::workload::StreamOptions options;
    options.seed = 99;
    options.domain_size = 4096;
    options.zipf_s = stream_config.zipf_s;
    options.delete_fraction = stream_config.delete_fraction;
    std::vector<ringdb::workload::RelationStream> streams;
    streams.emplace_back(catalog, S("orders"), options);
    streams.emplace_back(catalog, S("lineitem"), options);
    ringdb::workload::RoundRobinStream stream(std::move(streams));
    std::vector<ringdb::ring::Update> updates;
    updates.reserve(kUpdates);
    for (int i = 0; i < kUpdates; ++i) updates.push_back(stream.Next());

    // Backend dimension: the interpreter rows are the trajectory the
    // repo has tracked since PR 1; the compiled rows measure the emitted
    // C + dlopen backend on identical streams. Engine construction
    // (including the one-time cc invocation, amortized by the .so cache)
    // is outside the timed region, matching the long-lived-engine use
    // the backend targets.
    std::vector<ringdb::runtime::Backend> backends;
    if (opt.backend == "interpret" || opt.backend == "both") {
      backends.push_back(ringdb::runtime::Backend::kInterpret);
    }
    if (opt.backend == "compile" || opt.backend == "both") {
      backends.push_back(ringdb::runtime::Backend::kCompile);
    }
    ringdb::TablePrinter table({"config", "backend", "shards", "upd/s",
                                "vs single-tuple", "view MB"});
    double baseline = 0.0;
    for (const ringdb::runtime::Backend backend : backends) {
      const char* backend_name =
          backend == ringdb::runtime::Backend::kCompile ? "compile"
                                                        : "interpret";
      for (const SweepConfig& config : sweep) {
        if (!opt.config_filter.empty() &&
            config.name.find(opt.config_filter) == std::string::npos) {
          continue;
        }
        ringdb::runtime::EngineOptions engine_options;
        engine_options.batch_size = config.batch_size;
        engine_options.num_shards = config.num_shards;
        engine_options.backend = backend;
        auto engine = ringdb::runtime::Engine::Create(
            catalog, t->group_vars, t->body, engine_options);
        if (!engine.ok()) {
          std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
          return;
        }
        if (backend == ringdb::runtime::Backend::kCompile &&
            !engine->native_enabled()) {
          std::printf("  (compiled backend unavailable: %s)\n",
                      engine->native_status().ToString().c_str());
          break;
        }
        const bool traced =
            !opt.trace_path.empty() && config.batch_size > 1;
        if (traced) engine->EnableTracing();
        auto start = std::chrono::steady_clock::now();
        if (config.batch_size <= 1 && config.num_shards <= 1) {
          for (const ringdb::ring::Update& u : updates) {
            (void)engine->Apply(u);
          }
        } else {
          (void)engine->ApplyBatch(updates);
        }
        double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        double tput = kUpdates / elapsed;
        if (baseline == 0.0) baseline = tput;
        const size_t bytes = engine->sharded().ApproxBytes();
        sweep_results.push_back(
            SweepResult{stream_config.name, config.name, backend_name,
                        config.batch_size, engine->num_shards(), tput, bytes,
                        engine->StatsJson(9),
                        traced ? engine->TraceBreakdownJson(9)
                               : std::string()});
        if (traced && config.batch_size == 1024) {
          // Later rows overwrite: with both streams the zipf batch-1024
          // row (the acceptance workload) is what lands in the file.
          *trace_json = engine->TraceJson();
        }
        if (opt.stats) {
          std::printf("--- stats: %s / %s / %s ---\n%s\n",
                      stream_config.name.c_str(), config.name.c_str(),
                      backend_name, engine->StatsText().c_str());
        }
        char a[32], b[32], c[32], d[32];
        std::snprintf(a, sizeof(a), "%zu", engine->num_shards());
        std::snprintf(b, sizeof(b), "%.0f", tput);
        std::snprintf(c, sizeof(c), "%.2fx", tput / baseline);
        std::snprintf(d, sizeof(d), "%.1f", bytes / (1024.0 * 1024.0));
        table.AddRow({config.name, backend_name, a, b, c, d});
      }
    }
    std::printf("%s\n", table.Render().c_str());
  }
  all_results->insert(all_results->end(), sweep_results.begin(),
                      sweep_results.end());
}

// E12 — durability overhead: the zipf(1.1) 15%-delete stream at batch
// 1024, with every applied window encoded and appended to the WAL
// (log/durable_log.h) under each fsync policy, against the memory-only
// run. This is the write-ahead cost the serving batcher pays per window;
// the policies mirror the classic redo-flush spectrum (never / every
// window / group commit).
void DurabilitySweep(const Options& opt,
                     std::vector<SweepResult>* all_results) {
  std::printf("\ndurability overhead sweep (zipf batch-1024, WAL per "
              "window)\n\n");
  ringdb::ring::Catalog catalog = ringdb::workload::OrdersSchema();
  auto t = ringdb::sql::TranslateSql(
      catalog,
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  if (!t.ok()) {
    std::fprintf(stderr, "%s\n", t.status().ToString().c_str());
    return;
  }

  ringdb::workload::StreamOptions options;
  options.seed = 99;
  options.domain_size = 4096;
  options.zipf_s = 1.1;
  options.delete_fraction = 0.15;
  std::vector<ringdb::workload::RelationStream> streams;
  streams.emplace_back(catalog, S("orders"), options);
  streams.emplace_back(catalog, S("lineitem"), options);
  ringdb::workload::RoundRobinStream stream(std::move(streams));
  std::vector<ringdb::ring::Update> updates;
  updates.reserve(opt.updates);
  for (int i = 0; i < opt.updates; ++i) updates.push_back(stream.Next());
  constexpr size_t kBatch = 1024;

  struct PolicyRow {
    const char* name;  // config name in the snapshot: "durability=<x>"
    bool enabled;
    ringdb::log::FsyncPolicy policy;
  };
  std::vector<PolicyRow> rows;
  auto want = [&](const char* name) {
    return opt.durability == "all" || opt.durability == name;
  };
  // The off row always runs: it is the baseline the ratios are against.
  rows.push_back({"off", false, ringdb::log::FsyncPolicy::kNever});
  if (want("never")) {
    rows.push_back({"never", true, ringdb::log::FsyncPolicy::kNever});
  }
  if (want("window")) {
    rows.push_back({"window", true, ringdb::log::FsyncPolicy::kEveryWindow});
  }
  if (want("group")) {
    rows.push_back({"group", true, ringdb::log::FsyncPolicy::kGroupCommit});
  }

  ringdb::TablePrinter table(
      {"durability", "upd/s", "vs off", "fsyncs", "wal MB"});
  double baseline = 0.0;
  for (const PolicyRow& row : rows) {
    auto engine = ringdb::runtime::Engine::Create(catalog, t->group_vars,
                                                  t->body, {});
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return;
    }
    std::unique_ptr<ringdb::log::DurableLog> dlog;
    const std::string dir =
        "/tmp/ringdb-bench-durability-" + std::to_string(::getpid());
    if (row.enabled) {
      std::filesystem::remove_all(dir);
      ringdb::log::DurabilityOptions dopt;
      dopt.dir = dir;
      dopt.fsync_policy = row.policy;
      // No checkpoints: isolate the per-window append + flush cost.
      dopt.checkpoint_every_windows = 0;
      auto opened = ringdb::log::DurableLog::Open(catalog, dopt);
      if (!opened.ok()) {
        std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
        return;
      }
      dlog = std::move(opened).value();
      std::vector<ringdb::log::DurableLog::EngineSlot> slots;
      (void)dlog->Recover(slots);
    }

    ringdb::exec::BatchBuilder builder(catalog);
    uint64_t seq = 0;
    uint64_t applied = 0;
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < updates.size();) {
      const size_t end = std::min(i + kBatch, updates.size());
      for (; i < end; ++i) (void)builder.Add(updates[i]);
      ringdb::exec::UpdateBatch batch = builder.Build();
      ++seq;
      applied = i;
      if (dlog != nullptr) {
        ringdb::Status logged =
            dlog->AppendWindow(seq, end, applied, batch);
        if (!logged.ok()) {
          std::fprintf(stderr, "%s\n", logged.ToString().c_str());
          return;
        }
      }
      (void)engine->ApplyPrepared(batch);
    }
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    const double tput = updates.size() / elapsed;
    if (baseline == 0.0) baseline = tput;
    uint64_t fsyncs = 0;
    uint64_t wal_bytes = 0;
    if (dlog != nullptr) {
      const ringdb::log::DurabilityStats stats = dlog->GetStats();
      fsyncs = stats.wal_fsyncs;
      wal_bytes = stats.wal_bytes;
      (void)dlog->Close();
      std::filesystem::remove_all(dir);
    }
    const std::string config = std::string("durability=") + row.name;
    all_results->push_back(SweepResult{
        "zipf(1.1), 15% deletes", config, "interpret", kBatch, 1, tput, 0,
        engine->StatsJson(9)});
    char a[32], b[32], c[32], d[32];
    std::snprintf(a, sizeof(a), "%.0f", tput);
    std::snprintf(b, sizeof(b), "%.2fx", tput / baseline);
    std::snprintf(c, sizeof(c), "%llu",
                  static_cast<unsigned long long>(fsyncs));
    std::snprintf(d, sizeof(d), "%.1f", wal_bytes / (1024.0 * 1024.0));
    table.AddRow({row.name, a, b, c, d});
  }
  std::printf("%s", table.Render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--updates") == 0 && i + 1 < argc) {
      errno = 0;
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || errno == ERANGE || v <= 0 ||
          v > 1000000000L) {
        std::fprintf(stderr,
                     "--updates wants a positive integer <= 1e9, got %s\n",
                     argv[i]);
        return 2;
      }
      opt.updates = static_cast<int>(v);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      opt.label = argv[++i];
    } else if (std::strcmp(argv[i], "--sweep-only") == 0) {
      opt.sweep_only = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      opt.stats = true;
    } else if (std::strcmp(argv[i], "--assert-scaling") == 0) {
      opt.assert_scaling = true;
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      opt.backend = argv[++i];
      if (opt.backend != "interpret" && opt.backend != "compile" &&
          opt.backend != "both") {
        std::fprintf(stderr,
                     "--backend wants interpret|compile|both, got %s\n",
                     opt.backend.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--stream") == 0 && i + 1 < argc) {
      opt.stream = argv[++i];
      if (opt.stream != "uniform" && opt.stream != "zipf" &&
          opt.stream != "both") {
        std::fprintf(stderr, "--stream wants uniform|zipf|both, got %s\n",
                     opt.stream.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      opt.config_filter = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      opt.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--durability") == 0 && i + 1 < argc) {
      opt.durability = argv[++i];
      if (opt.durability != "off" && opt.durability != "never" &&
          opt.durability != "window" && opt.durability != "group" &&
          opt.durability != "all") {
        std::fprintf(stderr,
                     "--durability wants off|never|window|group|all, "
                     "got %s\n",
                     opt.durability.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--updates N] [--json PATH] [--label STR] "
                   "[--sweep-only] [--backend interpret|compile|both] "
                   "[--stream uniform|zipf|both] [--config SUBSTR] "
                   "[--durability off|never|window|group|all] [--stats] "
                   "[--assert-scaling] [--trace FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!opt.sweep_only) {
    RevenueQuery();
    NationCountQuery();
  }
  std::vector<SweepResult> results;
  std::string trace_json;
  BatchShardSweep(opt, &results, &trace_json);
  if (!opt.durability.empty()) DurabilitySweep(opt, &results);
  if (!opt.trace_path.empty()) {
    if (trace_json.empty()) {
      std::fprintf(stderr,
                   "--trace: no batch-1024 row ran, nothing to write\n");
    } else {
      std::FILE* tf = std::fopen(opt.trace_path.c_str(), "w");
      if (tf == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", opt.trace_path.c_str());
      } else {
        std::fwrite(trace_json.data(), 1, trace_json.size(), tf);
        std::fclose(tf);
        std::printf("wrote %s (%zu bytes, load in chrome://tracing)\n",
                    opt.trace_path.c_str(), trace_json.size());
      }
    }
  }
  WriteSnapshotJson(opt, results);
  if (opt.assert_scaling && !AssertScaling(ComputeScaling(results))) {
    return 1;
  }
  return 0;
}
