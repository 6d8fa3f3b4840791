// Public facade: register a schema and an AGCA query, then stream
// single-tuple updates or coalesced batches; the query result (scalar or
// grouped) is always available in O(1) per value, maintained by the
// compiled view hierarchy.
//
//   ring::Catalog catalog;
//   catalog.AddRelation(R, {A});
//   auto engine = runtime::Engine::Create(
//       catalog, /*group_vars=*/{}, body);
//   engine->Apply(ring::Update::Insert(R, {Value(42)}));
//   Numeric count = engine->ResultScalar();
//
// Scaling knobs (runtime::EngineOptions): batch_size coalesces windows of
// updates into per-relation delta GMRs before triggers fire (cancelled
// events cost nothing, repeated events fire multiplicity-linear triggers
// once), num_shards hash-partitions the view hierarchy for parallel
// application when the query admits a sound partition scheme (see
// exec/partition.h), and backend selects between the bytecode interpreter
// and the runtime-compiled native backend (emitted C behind dlopen; see
// runtime/compiled_executor.h). The single-tuple Apply is a batch of one
// routed to its owning shard, so all APIs share one execution path.
//
// Thread safety: Engine is single-writer. Apply/ApplyBatch/ApplyPrepared
// must not run concurrently with each other or with the result accessors
// (ResultScalar/ResultAt/ResultGmr), which read the live view hierarchy
// and would return torn state if they raced the writer. The accessors
// CHECK-fail when an apply is in flight (a relaxed-atomic depth guard, so
// misuse dies loudly instead of silently serving garbage). Concurrent
// readers belong on serve::QueryService, which publishes an immutable
// ResultSnapshot per applied batch and never blocks either side.

#ifndef RINGDB_RUNTIME_ENGINE_H_
#define RINGDB_RUNTIME_ENGINE_H_

#include <atomic>
#include <memory>
#include <vector>

#include <string>

#include "agca/ast.h"
#include "compiler/compile.h"
#include "exec/batch.h"
#include "exec/partition.h"
#include "exec/sharded_executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ring/database.h"
#include "ring/gmr.h"
#include "runtime/interpreter.h"
#include "util/status.h"

namespace ringdb {
namespace runtime {

struct EngineOptions {
  // Number of buffered updates coalesced into one delta batch by
  // ApplyBatch; 1 degenerates to per-tuple execution.
  size_t batch_size = 1;
  // Requested data-parallel shards. The effective count is 1 when the
  // query admits no sound partition scheme (Engine::num_shards tells).
  size_t num_shards = 1;
  // Statement-execution backend. kCompile emits the query's lowered
  // trigger program as C, compiles it with the host C compiler (cached by
  // source hash), and dlopens the result; statements the emitter cannot
  // handle (lazy domain maintenance) and hosts without a compiler fall
  // back to the interpreter transparently — results are identical either
  // way (Engine::native_enabled reports what actually engaged). Prefer
  // kInterpret for short-lived engines and tiny streams, where the
  // one-time cc invocation costs more than it saves.
  Backend backend = Backend::kInterpret;
};

class Engine {
 public:
  // Compiles Sum_[group_vars](body) over the catalog. The engine starts
  // on the empty database.
  static StatusOr<Engine> Create(const ring::Catalog& catalog,
                                 std::vector<Symbol> group_vars,
                                 agca::ExprPtr body) {
    return Create(catalog, std::move(group_vars), std::move(body),
                  EngineOptions{});
  }
  static StatusOr<Engine> Create(const ring::Catalog& catalog,
                                 std::vector<Symbol> group_vars,
                                 agca::ExprPtr body, EngineOptions options);

  // Applies one signed single-tuple update (a batch of one, routed
  // inline to its owning shard). Single-writer: see the class comment.
  Status Apply(const ring::Update& update) {
    ApplyGuard guard(apply_depth_.get());
    return sharded_->Apply(update);
  }

  // Applies the updates in windows of options.batch_size: each window is
  // coalesced into per-relation delta GMRs (opposite events cancel) and
  // executed shard-parallel. Any window size yields the same final state
  // as applying the updates one by one.
  Status ApplyBatch(const std::vector<ring::Update>& updates);

  // Applies one already-coalesced batch (exec::BatchBuilder output)
  // directly, bypassing this engine's builder. This is the multi-query
  // serving hook: serve::QueryService coalesces each ingest window's
  // per-relation delta GMRs once and feeds the same UpdateBatch to every
  // registered query's engine, so the coalescing cost amortizes across
  // queries. The batch must be built against this engine's catalog;
  // relations the query never mentions are no-ops.
  Status ApplyPrepared(const exec::UpdateBatch& batch);

  // Convenience single-tuple wrappers around Apply (multiplicity ±1).
  Status Insert(Symbol relation, std::vector<Value> values) {
    return Apply(ring::Update::Insert(relation, std::move(values)));
  }
  Status Delete(Symbol relation, std::vector<Value> values) {
    return Apply(ring::Update::Delete(relation, std::move(values)));
  }

  // Result for a scalar query; sums over shards. Precondition: the query
  // was compiled with empty group_vars (CHECK-fails otherwise).
  Numeric ResultScalar() const;

  // Result value for one group, values given in group_vars order (0 for
  // groups not in the result's support).
  Numeric ResultAt(const std::vector<Value>& group_values) const;

  // The full grouped result as a gmr over the group variables (tuples
  // {group_var -> value} with the aggregate as multiplicity), merged over
  // shards by ring addition.
  ring::Gmr ResultGmr() const;

  // The compiled NC0C trigger program this engine maintains.
  const compiler::TriggerProgram& program() const {
    return sharded_->shard(0).program();
  }
  // The primary shard's executor (the only shard unless sharding is on);
  // multi-shard callers should use sharded() for per-shard access.
  Executor& executor() { return sharded_->shard(0); }
  const Executor& executor() const { return sharded_->shard(0); }
  // The sharded execution layer (per-shard access, aggregate stats).
  exec::ShardedExecutor& sharded() { return *sharded_; }
  const exec::ShardedExecutor& sharded() const { return *sharded_; }

  // The query's grouping variables, in the order the caller declared.
  const std::vector<Symbol>& group_vars() const { return group_vars_; }
  // root_key_order()[i] = root-view key position holding the i-th group
  // variable (view keys are stored in canonical order); snapshot
  // extraction (serve/) permutes read keys through this.
  const std::vector<size_t>& root_key_order() const {
    return root_key_order_;
  }
  // The options this engine was created with (requested, not effective).
  const EngineOptions& options() const { return options_; }
  // Effective shard count (1 when the query is not partitionable).
  size_t num_shards() const { return sharded_->num_shards(); }
  // The partition-analysis witness behind the effective shard count.
  const exec::PartitionScheme& partition_scheme() const {
    return sharded_->scheme();
  }
  // True when backend == kCompile actually engaged: columnar statement
  // windows may dispatch into the dlopen'd native module (single tuples
  // always run the bytecode interpreter).
  bool native_enabled() const { return sharded_->native_enabled(); }
  // Why the compiled backend is off (Ok when on or never requested) —
  // e.g. "no host C compiler found" in sandboxed CI.
  const Status& native_status() const { return sharded_->native_status(); }

  // One lowered statement's observability row (see Executor::StmtCounters
  // / StmtDispatch): cross-shard counter sums plus the shards' merged
  // backend dispatch state, labeled for humans ("+lineitem s0 -> m1").
  struct StmtStats {
    uint32_t stmt_id = 0;
    std::string label;
    Executor::StmtCounters counters;
    Executor::StmtDispatch dispatch;
  };

  // Structured engine-wide observability snapshot. Reads merge per-shard
  // state on demand; like every Engine read it must not race a writer
  // (concurrent serving stats belong to QueryService::Stats, which only
  // reads between batches by construction).
  struct EngineStats {
    Executor::Stats totals;               // cross-shard sums
    std::vector<StmtStats> statements;    // by stmt_id
    size_t approx_bytes = 0;              // all views, all shards
    size_t num_shards = 0;
    bool native_enabled = false;
    obs::HistogramSnapshot shard_apply_ns;  // per shard per batch
    uint64_t morsels_run = 0;     // window morsels executed (all shards)
    uint64_t morsels_stolen = 0;  // executed by a non-owner worker
  };

  EngineStats Stats() const;
  // The snapshot as an aligned text table / a JSON object (`indent`
  // spaces prefix every line, for embedding in bench JSON files).
  std::string StatsText() const;
  std::string StatsJson(int indent = 0) const;

  // Standalone window tracing (flight recorder). ApplyBatch records one
  // WindowTrace per coalesced window — coalesce + apply stages plus
  // per-shard sub-spans — into a ring of the last `windows` windows.
  // Engines under serve::QueryService do not need this: the service owns
  // the pipeline-wide recorder and hands a TraceContext down per window.
  void EnableTracing(size_t windows = obs::TraceRecorder::kDefaultCapacity);
  const obs::TraceRecorder* trace_recorder() const { return trace_.get(); }
  // Chrome trace-event JSON of the retained windows ("" when tracing is
  // off); loadable in chrome://tracing or Perfetto.
  std::string TraceJson() const;
  // Per-stage latency breakdown of the retained windows as JSON.
  std::string TraceBreakdownJson(int indent = 0) const;

 private:
  // Marks an apply in flight for the duration of a scope; the result
  // accessors check the depth so a reader racing the writer fails fast.
  class ApplyGuard {
   public:
    explicit ApplyGuard(std::atomic<int>* depth) : depth_(depth) {
      depth_->fetch_add(1, std::memory_order_relaxed);
    }
    ~ApplyGuard() { depth_->fetch_sub(1, std::memory_order_relaxed); }

   private:
    std::atomic<int>* depth_;
  };

  Engine(compiler::CompiledQuery compiled, std::vector<Symbol> group_vars,
         EngineOptions options, exec::PartitionScheme scheme);

  void CheckNotApplying() const {
    // Racy by nature (that is the point: it only trips when a reader
    // overlaps a writer); relaxed is enough for a diagnostic.
    RINGDB_CHECK(apply_depth_->load(std::memory_order_relaxed) == 0 &&
                 "Engine result accessor raced Apply/ApplyBatch; use "
                 "serve::QueryService snapshots for concurrent reads");
  }

  std::vector<Symbol> group_vars_;
  std::vector<size_t> root_key_order_;
  EngineOptions options_;
  // unique_ptr so Engine stays movable despite the executor's internals
  // (worker threads, mutexes).
  std::unique_ptr<exec::ShardedExecutor> sharded_;
  std::unique_ptr<exec::BatchBuilder> builder_;
  // unique_ptr keeps Engine movable (atomics are not).
  std::unique_ptr<std::atomic<int>> apply_depth_ =
      std::make_unique<std::atomic<int>>(0);
  // Standalone flight recorder (EnableTracing); null = tracing off.
  std::unique_ptr<obs::TraceRecorder> trace_;
  uint64_t trace_seq_ = 0;  // window numbering for the standalone path
};

}  // namespace runtime
}  // namespace ringdb

#endif  // RINGDB_RUNTIME_ENGINE_H_
