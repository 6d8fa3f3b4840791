#include "exec/sharded_executor.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "compiler/lower.h"
#include "log/crash_point.h"
#include "util/check.h"

namespace ringdb {
namespace exec {

namespace {

StealMode StealModeFromEnv() {
  const char* env = std::getenv("RINGDB_STEAL");
  if (env == nullptr) return StealMode::kAuto;
  if (std::strcmp(env, "disabled") == 0) return StealMode::kDisabled;
  if (std::strcmp(env, "forced") == 0) return StealMode::kForced;
  return StealMode::kAuto;
}

}  // namespace

ShardedExecutor::ShardedExecutor(const compiler::TriggerProgram& program,
                                 PartitionScheme scheme, size_t num_shards,
                                 runtime::Backend backend)
    : scheme_(std::move(scheme)), steal_mode_(StealModeFromEnv()) {
  size_t effective = num_shards;
  if (effective == 0) effective = 1;
  if (!scheme_.valid) effective = 1;
  // Lower to bytecode once; every shard's executor shares the programs.
  // Only materialize an augmented copy when the caller's program has not
  // been lowered yet.
  const compiler::TriggerProgram* prog = &program;
  compiler::TriggerProgram augmented;
  if (program.lowered == nullptr) {
    augmented = program;
    augmented.lowered = compiler::lower::Lower(augmented);
    prog = &augmented;
  }
  // The native module (one emit + compile + dlopen) is shared by every
  // shard, like the lowered program; failure to build one is not an
  // error, it selects the interpreter (graceful fallback for hosts
  // without a C compiler and for programs with nothing emittable).
  std::shared_ptr<const runtime::NativeModule> module;
  if (backend == runtime::Backend::kCompile) {
    auto built = runtime::NativeModule::Build(*prog);
    if (built.ok()) {
      module = *std::move(built);
      native_enabled_ = true;
    } else {
      native_status_ = built.status();
    }
  }
  shards_.reserve(effective);
  for (size_t i = 0; i < effective; ++i) {
    if (module != nullptr) {
      shards_.push_back(
          std::make_unique<runtime::CompiledExecutor>(*prog, module));
    } else {
      shards_.push_back(std::make_unique<runtime::Executor>(*prog));
    }
  }
  shard_work_.resize(effective);
  shard_work_used_.assign(effective, 0);
  route_scratch_.resize(effective);
  subs_.resize(effective);
  sub_epoch_.assign(effective, 0);  // 0 < mutation_epoch_: stale until frozen
  runs_.reserve(effective);
  for (size_t i = 0; i < effective; ++i) {
    runs_.push_back(std::make_unique<ShardRun>());
  }
  // Shard 0 always runs on the calling thread; workers serve shards 1..N.
  for (size_t i = 1; i < effective; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ShardedExecutor::~ShardedExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ShardedExecutor::FreezeShard(size_t s) const {
  RINGDB_CRASH_POINT("shard_publish");
  subs_[s] = runtime::FrozenView::Freeze(shards_[s]->root());
  sub_epoch_[s] = mutation_epoch_;
}

std::vector<runtime::FrozenViewPtr> ShardedExecutor::RootSubSnapshots()
    const {
  std::vector<runtime::FrozenViewPtr> parts(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (subs_[s] == nullptr || sub_epoch_[s] != mutation_epoch_) {
      // Stale (publication off for some windows, single-tuple applies,
      // or the first composition after recovery replay): freeze now and
      // seed the shard's epoch so subsequent windows carry it forward.
      FreezeShard(s);
    }
    parts[s] = subs_[s];
  }
  return parts;
}

void ShardedExecutor::RunShardWhole(size_t shard_idx) {
  const uint64_t t0 = obs::NowNs();
  runtime::Executor& exec = *shards_[shard_idx];
  Status status = Status::Ok();
  // Each slice is one relation's (sub-)delta in columnar form and goes
  // through the statement-major columnar path; whole-delta slices pass
  // the columns straight down with no row list at all.
  const size_t used = shard_work_used_[shard_idx];
  for (size_t i = 0; i < used && status.ok(); ++i) {
    const ShardSlice& slice = shard_work_[shard_idx][i];
    status = slice.all ? exec.ApplyDeltaColumns(*slice.delta)
                       : exec.ApplyDeltaColumns(*slice.delta,
                                                slice.rows.data(),
                                                slice.rows.size());
  }
  shard0_status_ = std::move(status);
#ifndef RINGDB_NO_METRICS
  const uint64_t t1 = obs::NowNs();
  apply_ns_.Record(t1 - t0);
  if (trace_ctx_.recorder != nullptr && trace_ctx_.seq != 0) {
    trace_ctx_.recorder->AddSpan(
        trace_ctx_.seq, obs::kSpanShardApply, trace_ctx_.query,
        static_cast<uint32_t>(shard_idx), exec.window_dispatch_mode(), t0,
        t1);
  }
#endif
}

Status ShardedExecutor::RunMorsel(size_t s, const Morsel& morsel) {
  runtime::Executor& exec = *shards_[s];
  const ShardSlice& slice = shard_work_[s][morsel.slice];
  if (slice.all) return exec.ApplyDeltaColumns(*slice.delta);
  return exec.ApplyDeltaColumns(*slice.delta,
                                slice.rows.data() + morsel.begin,
                                morsel.end - morsel.begin);
}

void ShardedExecutor::FinishShard(size_t s, ShardRun& run) {
#ifndef RINGDB_NO_METRICS
  const uint64_t t1 = obs::NowNs();
  apply_ns_.Record(t1 - run.begin_ns);
  if (trace_ctx_.recorder != nullptr && trace_ctx_.seq != 0) {
    trace_ctx_.recorder->AddSpan(
        trace_ctx_.seq, obs::kSpanShardApply, trace_ctx_.query,
        static_cast<uint32_t>(s), shards_[s]->window_dispatch_mode(),
        run.begin_ns, t1);
  }
#endif
  if (publish_enabled_ && run.status.ok()) {
    const uint64_t p0 = obs::NowNs();
    FreezeShard(s);
#ifndef RINGDB_NO_METRICS
    if (trace_ctx_.recorder != nullptr && trace_ctx_.seq != 0) {
      trace_ctx_.recorder->AddSpan(
          trace_ctx_.seq, obs::kSpanShardPublish, trace_ctx_.query,
          static_cast<uint32_t>(s), shards_[s]->window_dispatch_mode(), p0,
          obs::NowNs());
    }
#endif
  }
  // done is the thieves' cheap short-circuit; the release pairs with
  // their acquire load so a true reading implies the shard's final
  // state (status, sub-snapshot) is visible.
  run.done.store(true, std::memory_order_release);
}

bool ShardedExecutor::TryRunShard(size_t s, size_t home) {
  ShardRun& run = *runs_[s];
  if (run.done.load(std::memory_order_acquire)) return false;
  if (run.token.exchange(true, std::memory_order_acquire)) return false;
  // Token held: exclusive over shards_[s] and run's plain fields. The
  // acquire exchange synchronized with the previous holder's release
  // store, so the shard executor's state (and the cursor) is current.
  const size_t idx = run.next;
  if (idx >= run.morsels.size()) {
    // The previous holder finished the shard between our done check and
    // the exchange.
    run.token.store(false, std::memory_order_release);
    return false;
  }
  const uint64_t t0 = obs::NowNs();
  if (idx == 0) run.begin_ns = t0;
  run.next = idx + 1;
  Status status = RunMorsel(s, run.morsels[idx]);
  size_t completed = 1;
  if (!status.ok()) {
    run.status = std::move(status);
    // Fail the shard: skip its remaining morsels (they are accounted as
    // completed so the window barrier still drains).
    completed += run.morsels.size() - run.next;
    run.next = run.morsels.size();
  }
  RINGDB_OBS(morsels_run_.Add());
  if (s != home) {
    RINGDB_OBS(morsels_stolen_.Add());
#ifndef RINGDB_NO_METRICS
    if (trace_ctx_.recorder != nullptr && trace_ctx_.seq != 0) {
      trace_ctx_.recorder->AddSpan(
          trace_ctx_.seq, obs::kSpanShardSteal, trace_ctx_.query,
          static_cast<uint32_t>(s), shards_[s]->window_dispatch_mode(), t0,
          obs::NowNs());
    }
#endif
  }
  if (run.next >= run.morsels.size()) FinishShard(s, run);
  run.token.store(false, std::memory_order_release);
  // Completion count last: when unclaimed_ hits zero every morsel has
  // fully executed and every touched shard is finished (FinishShard ran
  // before this decrement). The RMW joins the release sequence, so the
  // window owner's acquire read of zero sees all workers' effects.
  unclaimed_.fetch_sub(completed, std::memory_order_acq_rel);
  return true;
}

void ShardedExecutor::RunWindowWorker(size_t home) {
  const size_t n = shards_.size();
  const StealMode mode = steal_mode_;
  while (unclaimed_.load(std::memory_order_acquire) != 0) {
    bool progress = false;
    switch (mode) {
      case StealMode::kDisabled:
        progress = TryRunShard(home, home);
        break;
      case StealMode::kForced:
        // Visit the other shards first, own shard as a last resort —
        // maximizes steals for the differential and the TSan hammer.
        for (size_t k = 1; k < n && !progress; ++k) {
          progress = TryRunShard((home + k) % n, home);
        }
        if (!progress) progress = TryRunShard(home, home);
        break;
      case StealMode::kAuto:
        progress = TryRunShard(home, home);
        for (size_t k = 1; k < n && !progress; ++k) {
          progress = TryRunShard((home + k) % n, home);
        }
        break;
    }
    if (!progress) std::this_thread::yield();
  }
}

void ShardedExecutor::WorkerLoop(size_t shard_idx) {
  uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    RunWindowWorker(shard_idx);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    done_cv_.notify_one();
  }
}

Status ShardedExecutor::ApplyBatch(const UpdateBatch& batch) {
  if (batch.empty()) return Status::Ok();
  const size_t n = shards_.size();
  ++mutation_epoch_;
  std::fill(shard_work_used_.begin(), shard_work_used_.end(), size_t{0});
  if (n == 1) {
    // Single shard: hand every delta over whole — no routing, no row
    // lists, no morsels; the columns flow through untouched on the
    // calling thread.
    size_t rows = 0;
    for (const RelationDelta& delta : batch.deltas()) {
      ShardSlice& slice = NextSlice(0);
      slice.delta = &delta;
      slice.all = true;
      rows += delta.size();
    }
    if (rows != 0) shards_[0]->ReserveForBatch(rows);
    RunShardWhole(0);
    if (publish_enabled_ && shard0_status_.ok()) FreezeShard(0);
    return shard0_status_;
  }
  for (const RelationDelta& delta : batch.deltas()) {
    // The routing column is per relation; resolve it once and hash only
    // that column's values. Unroutable relations (absent from the
    // scheme, or a malformed routing column) go whole to shard 0,
    // matching PartitionScheme::ShardOf row semantics.
    auto route = scheme_.route_column.find(delta.relation);
    if (route == scheme_.route_column.end() ||
        route->second >= delta.arity()) {
      ShardSlice& slice = NextSlice(0);
      slice.delta = &delta;
      slice.all = true;
      continue;
    }
    const std::vector<Value>& col = delta.columns[route->second];
    std::fill(route_scratch_.begin(), route_scratch_.end(), nullptr);
    for (uint32_t r = 0; r < delta.size(); ++r) {
      const size_t s = col[r].Hash() % n;
      if (route_scratch_[s] == nullptr) {
        route_scratch_[s] = &NextSlice(s);
        route_scratch_[s]->delta = &delta;
      }
      route_scratch_[s]->rows.push_back(r);
    }
  }
  // Cut each shard's slices into morsels and arm the per-shard runs.
  // Whole-delta slices and slices at or under the grain stay one morsel
  // (small windows keep the exact pre-morsel invocation pattern); only a
  // genuinely hot shard's long row lists split into stealable ranges.
  size_t total_morsels = 0;
  for (size_t s = 0; s < n; ++s) {
    ShardRun& run = *runs_[s];
    run.morsels.clear();
    size_t rows = 0;
    for (uint32_t k = 0; k < shard_work_used_[s]; ++k) {
      const ShardSlice& slice = shard_work_[s][k];
      if (slice.all) {
        run.morsels.push_back(Morsel{k, 0, 0});
        rows += slice.delta->size();
        continue;
      }
      const uint32_t count = static_cast<uint32_t>(slice.rows.size());
      rows += count;
      if (count <= kMorselGrain) {
        run.morsels.push_back(Morsel{k, 0, count});
        continue;
      }
      for (uint32_t b = 0; b < count; b += kMorselGrain) {
        run.morsels.push_back(
            Morsel{k, b, std::min(count, b + kMorselGrain)});
      }
    }
    run.next = 0;
    run.begin_ns = 0;
    run.status = Status::Ok();
    run.token.store(false, std::memory_order_relaxed);
    if (run.morsels.empty()) {
      run.done.store(true, std::memory_order_relaxed);
      if (publish_enabled_ && sub_epoch_[s] == mutation_epoch_ - 1) {
        // Epoch carry: the window does not touch this shard, so its
        // previous sub-snapshot stays exact — republish it for free.
        sub_epoch_[s] = mutation_epoch_;
      }
    } else {
      run.done.store(false, std::memory_order_relaxed);
      total_morsels += run.morsels.size();
    }
    if (rows != 0) shards_[s]->ReserveForBatch(rows);
  }
  if (total_morsels == 0) return Status::Ok();
  unclaimed_.store(total_morsels, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ = n - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  RunWindowWorker(0);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
  }
  for (const auto& run : runs_) {
    if (!run->status.ok()) return run->status;
  }
  return Status::Ok();
}

runtime::Executor::Stats ShardedExecutor::AggregateStats() const {
  runtime::Executor::Stats total;
  for (const auto& shard : shards_) {
    const runtime::Executor::Stats& s = shard->stats();
    total.updates += s.updates;
    total.statements_run += s.statements_run;
    total.entries_touched += s.entries_touched;
    total.arithmetic_ops += s.arithmetic_ops;
    total.init_evaluations += s.init_evaluations;
    total.delta_entries += s.delta_entries;
    total.scaled_firings += s.scaled_firings;
  }
  return total;
}

std::vector<runtime::Executor::StmtCounters>
ShardedExecutor::AggregateStmtCounters() const {
  std::vector<runtime::Executor::StmtCounters> total(
      shards_[0]->stmt_counters().size());
  for (const auto& shard : shards_) {
    const auto& per = shard->stmt_counters();
    for (size_t i = 0; i < per.size() && i < total.size(); ++i) {
      total[i].invocations += per[i].invocations;
      total[i].loop_iterations += per[i].loop_iterations;
      total[i].probes += per[i].probes;
      total[i].emissions += per[i].emissions;
      total[i].native_calls += per[i].native_calls;
      total[i].interp_calls += per[i].interp_calls;
      total[i].window_ns += per[i].window_ns;
    }
  }
  return total;
}

void ShardedExecutor::CollectDispatch(
    std::vector<runtime::Executor::StmtDispatch>* out) const {
  shards_[0]->CollectDispatch(out);
  std::vector<runtime::Executor::StmtDispatch> per;
  for (size_t s = 1; s < shards_.size(); ++s) {
    shards_[s]->CollectDispatch(&per);
    for (size_t i = 0; i < per.size() && i < out->size(); ++i) {
      (*out)[i].win_plain_mode =
          std::min((*out)[i].win_plain_mode, per[i].win_plain_mode);
      (*out)[i].win_grouped_mode =
          std::min((*out)[i].win_grouped_mode, per[i].win_grouped_mode);
    }
  }
}

void ShardedExecutor::ResetStats() {
  for (const auto& shard : shards_) shard->ResetStats();
}

size_t ShardedExecutor::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) bytes += shard->ApproxBytes();
  // Routing scratch: pooled slices and their row-id buffers.
  for (const std::vector<ShardSlice>& pool : shard_work_) {
    bytes += pool.capacity() * sizeof(ShardSlice);
    for (const ShardSlice& slice : pool) {
      bytes += slice.rows.capacity() * sizeof(uint32_t);
    }
  }
  // Published sub-snapshots (shared with any live ResultSnapshots).
  for (const runtime::FrozenViewPtr& sub : subs_) {
    if (sub != nullptr) bytes += sub->ApproxBytes();
  }
  return bytes;
}

}  // namespace exec
}  // namespace ringdb
