// Data-parallel trigger execution over hash-partitioned view hierarchies.
//
// Each shard owns a full runtime::Executor (views, indexes, lazy base
// database) maintained over the shard's slice of every input relation, as
// assigned by a PartitionScheme. Because the scheme witnesses
// Q(D) = sum_i Q(D_i), the shards never need to communicate during update
// application: a batch is routed entry-by-entry to owning shards and the
// per-shard sub-batches run in parallel. When the scheme is invalid — the
// query does not decompose — the executor degrades to a single shard and
// stays exactly as correct as the sequential engine.
//
// Shard ownership is end-to-end (PR 10). A window's per-shard work is cut
// into *morsels* (row-ranges of the routed slices) executed under a
// per-shard token: any worker may claim the token of any shard, run
// exactly one morsel, and release it, so a zipf-hot shard sheds its tail
// morsels to idle workers. Three invariants make stealing result-
// invariant by construction:
//
//  1. State never migrates. A stolen morsel runs on the *owner shard's*
//     executor — the thief moves to the data, never the data to the
//     thief — so every tuple still lands in the partition the scheme
//     co-located its join partners in.
//  2. Exact per-shard order. The token plus a sequential morsel cursor
//     means each shard's morsels execute in routing order with full
//     mutual exclusion, i.e. precisely the sequential schedule; the
//     paper's window decomposition (applying a window as consecutive
//     sub-windows) is the only rewrite stealing ever exercises.
//  3. Publication happens-before composition. The worker that runs a
//     shard's last morsel freezes the shard's root into an immutable
//     FrozenView (runtime/frozen_view.h) while still holding the token;
//     readers compose the per-shard FrozenViews (serve::ResultSnapshot)
//     without any cross-shard merge, and a shard untouched by a window
//     carries its previous FrozenView forward by epoch (no copy, no
//     scan). Standalone-engine reads (Engine::ResultGmr/ResultAt/
//     ResultScalar) sum the live shard roots by ring addition.
//
// Steal behaviour is observable (morsels_run/morsels_stolen counters,
// kSpanShardSteal/kSpanShardPublish window-trace spans) and testable:
// StealMode::kForced makes every worker prefer other shards' tokens,
// StealMode::kDisabled pins workers to their own shard — the
// differential suite asserts bit-identical results either way.

#ifndef RINGDB_EXEC_SHARDED_EXECUTOR_H_
#define RINGDB_EXEC_SHARDED_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "compiler/ir.h"
#include "exec/batch.h"
#include "exec/partition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ring/database.h"
#include "runtime/compiled_executor.h"
#include "runtime/frozen_view.h"
#include "runtime/interpreter.h"
#include "util/status.h"

namespace ringdb {
namespace exec {

// Morsel scheduling policy. kAuto (default): a worker drains its own
// shard first and steals only when idle. kDisabled: workers never touch
// another shard's token (the sequential per-shard schedule, for
// differentials). kForced: workers prefer *other* shards' tokens and
// fall back to their own, maximizing steals (for differentials and the
// TSan hammer). Also selectable via RINGDB_STEAL=auto|disabled|forced.
enum class StealMode { kAuto, kDisabled, kForced };

class ShardedExecutor {
 public:
  // Builds `num_shards` executors from copies of the program. The
  // effective shard count drops to 1 when num_shards <= 1 or the scheme
  // is invalid; worker threads are only spawned for > 1 effective shards.
  // With backend == kCompile the program's native module is built once
  // (emit C, cc -shared, dlopen — see runtime/native_module.h) and shared
  // by every shard; when that fails (no host compiler, nothing emittable)
  // the shards are plain interpreters and native_status() says why.
  ShardedExecutor(const compiler::TriggerProgram& program,
                  PartitionScheme scheme, size_t num_shards,
                  runtime::Backend backend = runtime::Backend::kInterpret);
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  size_t num_shards() const { return shards_.size(); }
  const PartitionScheme& scheme() const { return scheme_; }

  // True when the shards dispatch (at least some) statements into a
  // dlopen'd native module rather than the bytecode interpreter.
  bool native_enabled() const { return native_enabled_; }
  // Why the compiled backend is off (Ok while native_enabled() or when it
  // was never requested).
  const Status& native_status() const { return native_status_; }

  // Single-tuple path: a batch of one, routed and applied inline on the
  // owning shard (no worker handoff, no morsels).
  Status Apply(const ring::Update& update) {
    ++mutation_epoch_;
    return shards_[ShardOf(update.relation, update.values)]->ApplyDelta(
        update.relation, update.values, update.SignedUnit());
  }

  // Routes every delta entry to its owning shard, cuts the per-shard
  // slices into morsels, and runs them on the worker pool with stealing
  // per steal_mode(). Entries keep their per-relation order within a
  // shard. Returns the first shard error, if any.
  Status ApplyBatch(const UpdateBatch& batch);

  runtime::Executor& shard(size_t i) { return *shards_[i]; }
  const runtime::Executor& shard(size_t i) const { return *shards_[i]; }

  // --- Shard-owned publication ----------------------------------------

  // Turns on eager per-shard publication: the worker finishing a shard's
  // window freezes the shard root into a FrozenView while still holding
  // the shard token. Off by default (standalone engines and benches pay
  // nothing); serve::QueryService enables it after recovery replay so
  // replayed windows also skip the freeze. Call only while quiescent.
  void EnablePublish(bool on) { publish_enabled_ = on; }
  bool publish_enabled() const { return publish_enabled_; }

  // The composed read surface: one immutable FrozenView per shard, each
  // current as of the last mutation. Shards whose published view is
  // stale (publication disabled for some windows, single-tuple applies,
  // recovery replay) are frozen here, on the calling thread — which also
  // seeds the per-shard epochs after crash recovery. Must not race an
  // apply, like every read path on this class.
  std::vector<runtime::FrozenViewPtr> RootSubSnapshots() const;

  // Every shard-table mutation must advance mutation_epoch_, or
  // RootSubSnapshots will serve FrozenViews frozen before the mutation.
  // Apply/ApplyBatch advance it themselves; state installed behind their
  // back (checkpoint load writes directly into the view tables) must
  // call this afterwards. Quiescent-only, like the loads it annotates.
  void NoteExternalMutation() { ++mutation_epoch_; }

  // --- Morsel stealing -------------------------------------------------

  void SetStealMode(StealMode mode) { steal_mode_ = mode; }
  StealMode steal_mode() const { return steal_mode_; }

  struct StealStats {
    uint64_t morsels_run = 0;     // all morsels, stolen or not
    uint64_t morsels_stolen = 0;  // run by a thread whose home != owner
  };
  StealStats steal_stats() const {
    return StealStats{morsels_run_.Value(), morsels_stolen_.Value()};
  }

  // Sums of per-shard counters (reads are only safe between batches).
  runtime::Executor::Stats AggregateStats() const;
  // Cross-shard sums of the per-statement counters, indexed by
  // StmtProgram::stmt_id (same read-safety caveat as AggregateStats).
  std::vector<runtime::Executor::StmtCounters> AggregateStmtCounters() const;
  // The shards' backend dispatch reports, merged. Window modes merge by
  // minimum: native (1) sorts before unused (3), so a window variant reads
  // native once any shard has run it.
  void CollectDispatch(
      std::vector<runtime::Executor::StmtDispatch>* out) const;
  void ResetStats();
  size_t ApproxBytes() const;

  // Pipeline stage span, batch-boundary granularity: wall time of one
  // shard applying its window (first morsel begin → last morsel end, so
  // the spread exposes shard skew).
  obs::HistogramSnapshot ApplySpanSnapshot() const {
    return apply_ns_.Snapshot();
  }

  // Window tracer hook: set by the owning thread before ApplyBatch (the
  // generation handshake publishes it to the workers), cleared or
  // re-pointed per window. Each shard records a kSpanShardApply sub-span
  // tagged with its dispatch mode into ctx.recorder; stolen morsels add
  // kSpanShardSteal and eager publication kSpanShardPublish. Null
  // disables.
  void SetTraceContext(const obs::TraceContext& ctx) { trace_ctx_ = ctx; }

 private:
  // One shard's slice of one relation's columnar delta: either the whole
  // delta (all = true, the single-shard / unroutable fast path — no row
  // list is built at all) or the listed row ids. Slices and their row
  // vectors are pooled across batches (shard_work_used_ marks the live
  // prefix), so steady-state routing allocates nothing.
  struct ShardSlice {
    const RelationDelta* delta = nullptr;
    std::vector<uint32_t> rows;
    bool all = false;
  };

  // One schedulable unit: rows [begin, end) of slice `slice` of the
  // owning shard (the whole slice when it is an all-rows slice). Slices
  // at or under the grain stay one morsel, so small windows keep the
  // exact invocation pattern of the pre-morsel executor.
  struct Morsel {
    uint32_t slice = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  static constexpr uint32_t kMorselGrain = 256;

  // Per-shard window state. `token` is the shard's execution right: the
  // holder may run exactly one morsel (and, for the last one, finish the
  // shard) before releasing. All plain fields are token-protected — the
  // acquire exchange that takes the token synchronizes with the release
  // store that freed it, so hand-offs between workers carry the shard's
  // executor state with them. `done` short-circuits thieves without
  // touching the token line.
  struct ShardRun {
    std::vector<Morsel> morsels;          // built by the router (pre-handshake)
    std::atomic<bool> token{false};
    std::atomic<bool> done{false};
    size_t next = 0;                      // morsel cursor (token-protected)
    uint64_t begin_ns = 0;                // first morsel start
    Status status = Status::Ok();         // first error (token-protected)
  };

  size_t ShardOf(Symbol relation, const std::vector<Value>& values) const {
    return scheme_.ShardOf(relation, values, shards_.size());
  }

  ShardSlice& NextSlice(size_t shard_idx) {
    std::vector<ShardSlice>& pool = shard_work_[shard_idx];
    if (shard_work_used_[shard_idx] == pool.size()) pool.emplace_back();
    ShardSlice& slice = pool[shard_work_used_[shard_idx]++];
    slice.rows.clear();
    slice.all = false;
    return slice;
  }

  void WorkerLoop(size_t shard_idx);
  // Single-shard fast path: the whole window, no morsels, no atomics.
  void RunShardWhole(size_t shard_idx);
  // Runs morsels until every morsel of the window has completed,
  // preferring shards per steal_mode() with `home` as this thread's own
  // shard.
  void RunWindowWorker(size_t home);
  // Claims shard `s`'s token and runs one morsel; finishes the shard
  // (status, spans, eager publish) after its last morsel. Returns false
  // when the token was busy or the shard had no morsel left.
  bool TryRunShard(size_t s, size_t home);
  Status RunMorsel(size_t s, const Morsel& morsel);
  // Token must be held: records the shard apply span and, when
  // publication is on, freezes the root sub-snapshot.
  void FinishShard(size_t s, ShardRun& run);
  void FreezeShard(size_t s) const;

  PartitionScheme scheme_;
  std::vector<std::unique_ptr<runtime::Executor>> shards_;
  bool native_enabled_ = false;
  Status native_status_ = Status::Ok();

  // Published sub-snapshots. subs_[s] is current iff sub_epoch_[s] ==
  // mutation_epoch_. Writers: the worker finishing shard s (under the
  // shard token), the router (epoch carry for untouched shards, before
  // the handshake), and RootSubSnapshots (lazy freeze on a quiescent
  // executor) — all disjoint-by-index or ordered by the pool handshake.
  // Mutable: lazy freezing is logically const.
  uint64_t mutation_epoch_ = 1;
  mutable std::vector<runtime::FrozenViewPtr> subs_;
  mutable std::vector<uint64_t> sub_epoch_;
  bool publish_enabled_ = false;

  StealMode steal_mode_ = StealMode::kAuto;
  obs::Counter morsels_run_;
  obs::Counter morsels_stolen_;

  // Stage-span histogram (atomic buckets: shard workers record
  // concurrently).
  obs::Histogram apply_ns_;

  // Per-window trace target. Written by the batch owner before the
  // generation handshake, read by workers after it (the mu_ acquire
  // gives the happens-before), so plain fields are TSan-clean.
  obs::TraceContext trace_ctx_;

  // Worker pool state: workers_[i] serves shard i + 1 (shard 0 runs on
  // the calling thread), guarded by mu_. A batch publishes shard_work_
  // and the per-shard morsel lists, bumps generation_, and waits for
  // pending_ workers to drain; within the window the workers coordinate
  // lock-free through unclaimed_ and the shard tokens.
  std::vector<std::vector<ShardSlice>> shard_work_;
  std::vector<size_t> shard_work_used_;     // live slices per shard
  std::vector<ShardSlice*> route_scratch_;  // per-delta open slice per shard
  std::vector<std::unique_ptr<ShardRun>> runs_;
  std::atomic<size_t> unclaimed_{0};        // window morsels not yet completed
  Status shard0_status_ = Status::Ok();     // single-shard fast path
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace exec
}  // namespace ringdb

#endif  // RINGDB_EXEC_SHARDED_EXECUTOR_H_
