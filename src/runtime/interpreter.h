// The NC0C trigger interpreter: executes a compiled TriggerProgram against
// materialized ViewTables. Apply(update) runs the matching trigger's
// statements (ordered by descending target-view degree, so each level
// reads pre-update values of the deeper levels — Equation (1) of §1.1).
//
// Statements run in their lowered bytecode form (compiler/lower.h): loop
// variables live in a flat Value frame indexed by slot, every key the
// statement builds comes from a pre-resolved SlotRef template into a
// reused scratch buffer, and the rhs is a postfix opcode stream executed
// by a tight dispatch loop over a small register stack. The statement
// inner loop performs no Symbol lookups, no expression-tree recursion,
// and no per-emission allocation.
//
// The interpreter counts arithmetic operations and touched entries so the
// benchmarks can verify the constant-work-per-maintained-value claim
// (Theorem 7.1 / the NC0 property) empirically; the lowered programs
// preserve the tree walker's operation counts exactly.
//
// Whole-window statement execution is a virtual seam: the compiled
// backend (runtime/compiled_executor.h) subclasses Executor and overrides
// RunStatementWindow to dispatch columnar windows into dlopen'd native
// code, inheriting batching, grouping, lazy maintenance, the per-firing
// path (single tuples, single-row groups, nonlinear triggers) and all
// read paths unchanged.

#ifndef RINGDB_RUNTIME_INTERPRETER_H_
#define RINGDB_RUNTIME_INTERPRETER_H_

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "compiler/ir.h"
#include "compiler/lower.h"
#include "exec/batch.h"
#include "obs/metrics.h"
#include "ring/database.h"
#include "runtime/view_table.h"
#include "util/status.h"
#include "util/symbol.h"

namespace ringdb {
namespace runtime {

class Executor {
 public:
  struct Stats {
    uint64_t updates = 0;           // input tuple-units (|multiplicity|)
    uint64_t statements_run = 0;
    uint64_t entries_touched = 0;   // view entries incremented
    uint64_t arithmetic_ops = 0;    // +, *, comparisons in rhs evaluation.
                                    // Instrumentation, not a contract: it
                                    // counts arithmetic actually performed,
                                    // which differs across backends (native
                                    // windows do not instrument rhs ops)
                                    // and across representations (the
                                    // columnar window path folds per-row
                                    // scales where the per-tuple path
                                    // re-evaluates per firing).
    uint64_t init_evaluations = 0;  // lazy first-touch initializations
    uint64_t delta_entries = 0;     // coalesced delta-GMR entries applied
    uint64_t scaled_firings = 0;    // linear triggers fired once for m > 1
  };

  // Per-statement execution counters, indexed by StmtProgram::stmt_id.
  // Plain (non-atomic) uint64: each executor shard is single-writer, and
  // even relaxed atomics are measurable per enumerated join entry on the
  // NC0 hot path; cross-shard totals merge on read (Engine::Stats). The
  // semantic counters (everything except the dispatch split) are backend-
  // invariant: interpreter and native execution of the same stream
  // produce identical values — the metrics-exactness test pins that.
  // Compiled out (left zero) under -DRINGDB_NO_METRICS.
  struct StmtCounters {
    uint64_t invocations = 0;      // statement firings (both rhs variants)
    uint64_t loop_iterations = 0;  // enumerated loop entries, pre-filter
    uint64_t probes = 0;           // rhs view lookups
    uint64_t emissions = 0;        // nonzero rhs values emitted
    uint64_t native_calls = 0;     // dispatched into the native module
    uint64_t interp_calls = 0;     // run by the bytecode interpreter
    // Wall ns spent in this statement's whole-window dispatches
    // (RunStatementWindow). Timing, not a semantic count: it varies by
    // backend and run, so the backend invariance suites exclude it. Zero
    // on the per-tuple path, which never runs windows.
    uint64_t window_ns = 0;
  };

  // Per-statement backend dispatch report for stats export; the compiled
  // backend overrides with its profile-guided window decisions. Modes:
  // 0 = interpreter, 1 = native, 2 = profiling (warmup alternation still
  // measuring), 3 = unused (no window of this variant has run yet).
  struct StmtDispatch {
    bool native_available = false;    // the statement has native code
    bool grouped_available = false;   // grouped rhs has a native window
    bool window_available = false;    // columnar-window entry point exists
                                      // (native code exists only as
                                      // windows, so == native_available)
    // Per-firing execution (single tuples, single-row groups, gathered
    // windows): always 0, the interpreter.
    uint8_t plain_mode = 0;
    uint8_t grouped_mode = 0;
    // Whole-window dispatch (native columnar call vs the interpreter's
    // gather loop); meaningless unless window_available, and
    // win_grouped_mode unless grouped_available.
    uint8_t win_plain_mode = 0;
    uint8_t win_grouped_mode = 0;
    uint64_t profile_native_ns = 0;   // warmup wall time, native runs
    uint64_t profile_interp_ns = 0;   // warmup wall time, interpreted runs
  };

  explicit Executor(compiler::TriggerProgram program);
  virtual ~Executor() = default;

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Fires the trigger for the update; relations without triggers are
  // no-ops (the query does not depend on them).
  Status Apply(const ring::Update& update) {
    return ApplyDelta(update.relation, update.values, update.SignedUnit());
  }

  // Applies one coalesced delta-GMR entry: the net effect of inserting
  // (multiplicity > 0) or deleting (multiplicity < 0) |multiplicity|
  // copies of the tuple. Multiplicity-linear triggers (see compiler::
  // Trigger) fire once with emissions scaled by |multiplicity|; nonlinear
  // triggers fall back to |multiplicity| unit firings, each reading the
  // state left by the previous one. Multiplicity must be integral (batch
  // deltas are sums of ±1 events) and may be zero (no-op).
  Status ApplyDelta(Symbol relation, const std::vector<Value>& values,
                    Numeric multiplicity);

  // A columnar execution window: `n` firings of one statement, row i
  // reading its trigger params from cols[c][rows[i]] and scaling its
  // emissions by scales[i]. `cols` points at the arity dense columns of a
  // RelationDelta; `rows` selects and orders the firings (never null);
  // col_len is the full column length and `epoch` identifies the column
  // arrays across windows cut from the same delta, so backends can cache
  // per-delta derived state (the native mirror columns) and convert each
  // column once per batch rather than once per statement window.
  struct ColWindow {
    const std::vector<Value>* cols;
    const uint32_t* rows;
    const Numeric* scales;
    size_t n = 0;
    uint32_t arity = 0;
    size_t col_len = 0;
    uint64_t epoch = 0;
  };

  // Applies a columnar relation delta GMR (or the subset selected by
  // `rows`, when non-null) with the same net semantics as calling
  // ApplyDelta per row, in order. For multiplicity-linear triggers the
  // statements additionally run *statement-major with grouping*: rows
  // that agree on a statement's shape params (those resolved into loop
  // probes, target keys, or view-lookup keys) share one execution whose
  // emission scale is the group's accumulated coefficient — multiplicity
  // times the product of the rhs's pure scalar-multiplier params. This is
  // the batch delta rule: e.g. the revenue query's per-lineitem join loop
  // runs once per distinct order key in the batch instead of once per
  // lineitem event. Sound because linearity makes every firing read only
  // views this trigger never writes, so reordering and merging firings
  // cannot change what they observe. Sign groups become ColWindows driven
  // straight off the column arrays — no per-row Value vectors, no KeyView
  // callback binding. Single-row groups and nonlinear triggers take the
  // per-tuple path (ApplyDelta's firing loop).
  Status ApplyDeltaColumns(const exec::RelationDelta& delta,
                           const uint32_t* rows, size_t n);
  Status ApplyDeltaColumns(const exec::RelationDelta& delta) {
    return ApplyDeltaColumns(delta, nullptr, 0);
  }

  // Pre-sizes every view's entry table for `additional` more entries (the
  // batch path passes the delta-GMR entry count as the hint).
  void ReserveForBatch(size_t additional);

  const compiler::TriggerProgram& program() const { return program_; }
  const ViewTable& view(int id) const {
    return views_[static_cast<size_t>(id)];
  }
  const ViewTable& root() const {
    return views_[static_cast<size_t>(program_.root_view)];
  }
  size_t num_views() const { return views_.size(); }
  // Checkpoint-recovery load hook (log/checkpoint.cc): bulk-inserts
  // restored entries into an otherwise untouched executor. Not for use
  // during normal maintenance — views are trigger-owned state.
  ViewTable& mutable_view(int id) { return views_[static_cast<size_t>(id)]; }
  bool has_lazy_views() const { return has_lazy_views_; }

  const Stats& stats() const { return stats_; }
  // Per-statement counters, indexed by StmtProgram::stmt_id (see
  // StmtCounters; all-zero under -DRINGDB_NO_METRICS).
  const std::vector<StmtCounters>& stmt_counters() const {
    return stmt_counters_;
  }
  // Fills *out (resized to the statement count) with each statement's
  // backend dispatch state. Base executor: everything interpreted.
  virtual void CollectDispatch(std::vector<StmtDispatch>* out) const {
    out->assign(lowered_->num_statements, StmtDispatch{});
  }
  // How this executor dispatches whole columnar windows, for per-shard
  // trace spans: 1 = interpreted / gathered windows, 2 = native window
  // entry points, 3 = still profiling. Base executor never has native
  // windows.
  virtual uint32_t window_dispatch_mode() const { return 1; }
  void ResetStats() {
    stats_ = Stats();
    std::fill(stmt_counters_.begin(), stmt_counters_.end(), StmtCounters{});
  }

  // Total heap footprint of all views plus executor-side batch scratch
  // (experiment E3). Virtual so the compiled backend can add its native
  // conversion buffers (mirror columns, span scratch) to the gauge.
  virtual size_t ApproxBytes() const;

 protected:
  // Runs one statement over a whole columnar window. The base
  // implementation gathers each row's params into a scratch buffer and
  // fires it through the interpreter (RunStatement); the compiled backend
  // overrides this to dispatch whole windows into the native columnar
  // entry points. Callers have already accounted statements_run/
  // invocations for all n firings.
  virtual void RunStatementWindow(const compiler::lower::StmtProgram& sp,
                                  const ColWindow& win,
                                  const compiler::lower::RhsProgram& rhs);

  // Shared with the compiled backend: the immutable lowered program and
  // the view stores its trampolines probe/enumerate/add against.
  std::shared_ptr<const compiler::lower::LoweredProgram> lowered_;
  std::vector<ViewTable> views_;
  Stats stats_;
  // stmt_counters_[StmtProgram::stmt_id]; sized at construction (at
  // least one element so cur_counters_ always points at valid storage).
  std::vector<StmtCounters> stmt_counters_;
  // The running statement's counter row, set on statement entry (here
  // and in the compiled backend's native window call, whose trampolines
  // attribute loop/probe/emission events through it).
  StmtCounters* cur_counters_ = nullptr;

 private:
  // One rhs register: either a computed Numeric or a reference to a Value
  // in the params array, a constant pool, or the loop-variable frame.
  // Leaves load references; arithmetic converts on use, so string values
  // flow into kind-sensitive equality comparisons without conversion.
  struct Reg {
    const Value* ref = nullptr;  // nullptr: num holds a computed value
    Numeric num;
  };

  // Lowered trigger index for (relation, sign), or -1: a flat array
  // indexed by (relation.id() - trigger_base_) * 2 + sign, resolved once
  // at construction (replaces a hash lookup per applied delta). Rebasing
  // on the smallest trigger relation id keeps the array sized by the
  // program's own relation-id span, not the global intern counter.
  int FindTrigger(Symbol relation, ring::Update::Sign sign) const {
    const uint32_t id = relation.id();
    if (id < trigger_base_) return -1;
    const size_t idx = static_cast<size_t>(id - trigger_base_) * 2 +
                       (sign == ring::Update::Sign::kDelete ? 1 : 0);
    return idx < trigger_lookup_.size() ? trigger_lookup_[idx] : -1;
  }

  // Runs one statement with the given rhs program (sp.rhs normally,
  // sp.grouped_rhs for grouped batch execution) through the bytecode
  // interpreter; emissions scale by `scale`. Every firing that is not
  // part of a native window lands here.
  void RunStatement(const compiler::lower::StmtProgram& sp,
                    const Value* params, Numeric scale,
                    const compiler::lower::RhsProgram& rhs);
  // Applies the buffered emissions of the statement just run, scaled by
  // `scale`.
  void FlushEmissions(const compiler::lower::StmtProgram& sp, Numeric scale);

  // ApplyDelta after relation/arity validation (batch entries are
  // validated once per batch, not per entry).
  void ApplyDeltaUnchecked(Symbol relation, const std::vector<Value>& values,
                           Numeric multiplicity);
  // Runs every statement of the trigger once; emissions are scaled by
  // `scale` (1 for unit firings).
  void FireTrigger(size_t trigger_idx, const Value* params, Numeric scale);
  // Statement-major grouped execution of a linear trigger over same-sign
  // rows of a columnar delta (see ApplyDeltaColumns): shape keys hash
  // straight out of the columns (no Key materialization) and statements
  // fire through RunStatementWindow. `rows` lists the row ids.
  void RunLinearTriggerColumns(size_t trigger_idx,
                               const exec::RelationDelta& delta,
                               const uint32_t* rows, size_t n);
  void RunLoops(const compiler::lower::StmtProgram& sp, size_t loop_index,
                const Value* params, const compiler::lower::RhsProgram& rhs);
  // Applies a loop's binds/filters from the enumerated key (or slice
  // subkey); false when a filter rejects the entry.
  bool BindLoop(const compiler::lower::LoopProgram& lp, const Value* key);
  void Emit(const compiler::lower::StmtProgram& sp, const Value* params,
            const compiler::lower::RhsProgram& rhs);
  // The bytecode dispatch loop; returns the rhs value.
  Numeric EvalRhs(const compiler::lower::StmtProgram& sp,
                  const compiler::lower::RhsProgram& rhs,
                  const Value* params);
  Numeric AsNum(const Reg& r) const;

  const Value& Resolve(const compiler::lower::StmtProgram& sp,
                       compiler::lower::SlotRef ref,
                       const Value* params) const {
    switch (ref.source) {
      case compiler::lower::SlotRef::Source::kParam:
        return params[ref.index];
      case compiler::lower::SlotRef::Source::kConst:
        return sp.const_pool[ref.index];
      case compiler::lower::SlotRef::Source::kFrame:
        return frame_[ref.index];
    }
    RINGDB_CHECK(false);
    return frame_[0];
  }
  // Materializes a key template into a reused scratch buffer.
  void BuildKey(const compiler::lower::StmtProgram& sp,
                compiler::lower::KeyTemplate t, const Value* params,
                Key* out) {
    out->resize(t.size);
    const compiler::lower::SlotRef* refs = sp.slot_refs.data() + t.first;
    for (size_t i = 0; i < t.size; ++i) {
      (*out)[i] = Resolve(sp, refs[i], params);
    }
  }

  // Lazy domain maintenance (paper footnote 2): the first use of a slice
  // of a lazy_init view evaluates the view definition with the slice key
  // bound against the base database, materializing the whole slice.
  void InitializeLazySlice(int view_id, const Key& slice_key);
  // Initializes the slice (given directly as its subkey) if needed.
  void EnsureSlice(int view_id, const Key& slice_key) {
    if (!slices_[static_cast<size_t>(view_id)].contains(slice_key)) {
      InitializeLazySlice(view_id, slice_key);
    }
  }
  Numeric ProbeView(const compiler::lower::ProbePlan& plan, const Key& key);

  compiler::TriggerProgram program_;
  // Base database, maintained only when some view needs lazy
  // initialization (the pure view hierarchy never reads it otherwise).
  bool has_lazy_views_ = false;
  ring::Database base_db_;
  // Initialized slice subkeys per lazy view (empty sets for non-lazy).
  std::vector<std::unordered_set<Key, KeyHash>> slices_;
  // Flat (relation, sign) -> trigger index map; -1 = no trigger.
  uint32_t trigger_base_ = 0;  // smallest trigger relation id
  std::vector<int32_t> trigger_lookup_;

  // Shared execution scratch, sized once at construction from the
  // lowered program's maxima. Nothing below allocates per firing.
  std::vector<Value> frame_;          // loop-variable slots
  std::vector<Reg> stack_;            // rhs register stack
  std::vector<Numeric> loop_values_;  // per-depth driver-entry value
  std::vector<Key> loop_key_scratch_;  // per-depth index probe subkeys
  // Deferred emissions of the running statement: target keys flattened
  // into one Value buffer (arity-sized chunks) plus parallel deltas.
  // Buffered because a statement may loop over its own target view
  // (domain maintenance), and mutating a view during enumeration would
  // change what later iterations observe.
  std::vector<Value> emission_keys_;
  std::vector<Numeric> emission_values_;
  Key probe_scratch_;                  // rhs view-lookup keys
  Key slice_scratch_;                  // lazy slice subkeys
  // Columnar batch scratch (ApplyDeltaColumns / RunLinearTriggerColumns);
  // counted by ApproxBytes. The grouped path open-addresses
  // representative rows directly: group_slots_ maps hash -> rep index,
  // reps keep (row id, accumulated coefficient, hash) in first-touch
  // order — no shape Key is ever materialized.
  uint64_t col_epoch_ = 0;          // bumped once per columnar delta
  std::vector<uint32_t> sign_rows_[2];
  std::vector<uint32_t> group_slots_;
  std::vector<uint32_t> rep_rows_;
  std::vector<Numeric> rep_coeffs_;
  std::vector<uint64_t> rep_hashes_;
  std::vector<uint32_t> win_rows_;     // rows of the window being fired
  std::vector<Numeric> win_scales_;    // parallel per-firing scales
  std::vector<Value> param_gather_;    // RunStatementWindow base impl
  std::vector<Value> row_gather_;      // single-row gathers (lazy, fallback)
};

}  // namespace runtime
}  // namespace ringdb

#endif  // RINGDB_RUNTIME_INTERPRETER_H_
