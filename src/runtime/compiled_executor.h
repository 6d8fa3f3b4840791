// The compiled execution backend: an Executor whose columnar statement
// windows run as dlopen'd native code (compiler/codegen_c.h emission,
// runtime/native_module.h compilation + caching) instead of bytecode
// dispatch.
//
// CompiledExecutor is plug-compatible with the interpreter — it overrides
// exactly one seam, RunStatementWindow, and inherits everything else:
// trigger dispatch, delta batching, grouping, lazy domain maintenance,
// stats, and every read path (root views, cross-shard result sums,
// serving snapshots). Each emitted statement has one native entry point
// per rhs variant, and it takes a whole window:
//
//   host RunStatementWindow      native window function
//   -----------------------      ----------------------------------
//   mirror delta columns to  --> per row: loop nest via api->foreach
//   RdbVal (once per delta),     [_matching], straight-line rhs over
//   convert the row scales       RdbNum locals, scaled emission into
//                                a local chunk; api->add_span per chunk
//   return                   <-- return
//
// Native code only ever mutates the statement's target view, which its
// rhs never reads (windows are emitted only for such statements), so
// probes and enumeration see frozen state for the whole call — which is
// also what keeps the borrowed string pointers in RdbVal valid.
//
// Everything that is not a window runs the interpreter: single tuples
// (Engine::Apply), single-row groups, nonlinear triggers, and statements
// the emitter skips (lazy domain maintenance, rhs reading its own target)
// all take the base class's per-firing path.
//
// Backend choice is per window variant (plain rhs vs grouped rhs) and
// profile-guided: a variant reads "unused" until its first window, then
// alternates native and interpreted (gathered) windows during a short
// warmup, timing both with obs::NowNs, and locks whichever measured
// cheaper per row on the live workload (cross-multiplied, no division).
// Under -DRINGDB_NO_METRICS there is no clock, so the first window locks
// the emitter's static cost-model preference. Engine::Stats exports the
// decision per statement (StmtDispatch).
//
// Fallback is per statement and per module: statements the emitter skips
// keep their interpreter implementation, and when no module could be
// built at all (no host compiler — CI sandboxes, locked-down deploys)
// ShardedExecutor constructs plain Executors instead, recording why in
// native_status().

#ifndef RINGDB_RUNTIME_COMPILED_EXECUTOR_H_
#define RINGDB_RUNTIME_COMPILED_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "compiler/ir.h"
#include "compiler/lower.h"
#include "runtime/interpreter.h"
#include "runtime/native_abi.h"
#include "runtime/native_module.h"

namespace ringdb {
namespace runtime {

// Which statement-execution backend an engine uses (EngineOptions).
enum class Backend {
  kInterpret,  // register-based bytecode interpreter (always available)
  kCompile,    // emitted C compiled at runtime for columnar windows;
               // everything else interprets, per statement (lazy domain,
               // self-reading statements, single tuples) and wholesale
               // when no host compiler is available
};

class CompiledExecutor : public Executor {
 public:
  // `module` must have been built from (a program lowered identically to)
  // `program`; ShardedExecutor builds it once and shares it across
  // shards.
  CompiledExecutor(compiler::TriggerProgram program,
                   std::shared_ptr<const NativeModule> module);

  // Statements this executor runs natively (the rest interpret).
  size_t native_statements() const { return module_->native_statements(); }

  void CollectDispatch(std::vector<StmtDispatch>* out) const override;

  // Executor::ApproxBytes plus the native conversion scratch this backend
  // owns (mirror columns, span buffers, entry scratch).
  size_t ApproxBytes() const override;

  // Trace-span mode summary over the window profiles: 2 (native) when
  // any variant locked a native columnar entry point, 3 while any is
  // still profiling (unused variants do not count), else the
  // interpreter's own answer.
  uint32_t window_dispatch_mode() const override;

 protected:
  // Whole-window dispatch into the columnar native entry points
  // (RdbColStmtFn), profiled against the base gather loop, which fires
  // each row through the interpreter.
  void RunStatementWindow(const compiler::lower::StmtProgram& sp,
                          const ColWindow& win,
                          const compiler::lower::RhsProgram& rhs) override;

 private:
  // Profile-guided selection state for one window variant. Mode values
  // match StmtDispatch: 3 = unused (no window yet), 2 = profiling
  // (warmup alternation), then 1 = native or 0 = interpreter. Window cost
  // scales with the window width, so the lock normalizes by row units
  // (ns x units cross-multiplication): a wide native window and a narrow
  // gathered one still compare per row. Single-writer per shard, like
  // everything else in the executor.
  struct WindowProfile {
    uint8_t mode = 3;
    // The mode the first window moves to: 2, or without a clock
    // (-DRINGDB_NO_METRICS) the static cost-model preference.
    uint8_t start_mode = 2;
    uint16_t native_runs = 0;
    uint16_t interp_runs = 0;
    uint64_t native_ns = 0;
    uint64_t interp_ns = 0;
    uint64_t native_units = 0;
    uint64_t interp_units = 0;
  };
  // Warmup windows per backend before a variant's mode locks. Long
  // enough to amortize first-touch effects (branch training, view growth
  // during early batches), short enough that profiling cost is invisible
  // next to steady-state throughput.
  static constexpr uint16_t kWarmupRuns = 12;

  struct Fns {
    RdbColStmtFn plain = nullptr;
    RdbColStmtFn grouped = nullptr;  // null when not groupable
    WindowProfile plain_profile;
    WindowProfile grouped_profile;
  };

  // The native half of RunStatementWindow: mirrors the window's columns
  // into cached RdbVal arrays (once per delta epoch, shared by every
  // statement window cut from it), converts the scales, and runs the
  // whole window in one RdbColStmtFn call.
  void RunNativeWindow(RdbColStmtFn fn, const compiler::lower::StmtProgram& sp,
                       const ColWindow& win);

  // The host-api table handed to every native call (function-local static
  // so the private trampolines stay private).
  static const RdbHostApi& HostApi();

  // RdbHostApi trampolines; ctx is the CompiledExecutor.
  static RdbNum Probe(void* ctx, int32_t view_id, const RdbVal* key,
                      uint32_t n);
  static void Foreach(void* ctx, int32_t view_id, RdbLoopFn fn, void* env);
  static void ForeachMatching(void* ctx, int32_t view_id, int32_t index_id,
                              const RdbVal* subkey, uint32_t n,
                              RdbLoopFn fn, void* env);
  static void AddSpan(void* ctx, int32_t view_id, const RdbVal* keys,
                      const RdbNum* deltas, uint32_t count, uint32_t arity);
  static void Fail(void* ctx, const char* msg);

  std::shared_ptr<const NativeModule> module_;
  // Lowered statement -> native entry points + profiles, resolved once
  // (lowered_ is immutable and shared, so StmtProgram addresses are
  // stable keys).
  std::unordered_map<const compiler::lower::StmtProgram*, Fns> fns_;

  // Trampoline conversion scratch (single-writer executor, like the
  // interpreter's frames): enumerated keys and probe subkeys per loop
  // depth.
  std::vector<std::vector<RdbVal>> entry_scratch_;  // per loop depth
  std::vector<Key> subkey_scratch_;                 // per loop depth
  Key probe_scratch_;
  size_t depth_ = 0;

  // Columnar-window conversion scratch. Mirror columns are keyed by the
  // window's delta epoch: the first statement window cut from a delta
  // converts the columns it reads (cols_read), later windows over the
  // same delta reuse them — so conversion is once per (delta, column),
  // not once per statement. Pointers for unconverted columns stay null
  // (never dereferenced: window code only names cols_read).
  uint64_t mirror_epoch_ = ~0ull;
  std::vector<std::vector<RdbVal>> mirror_cols_;
  std::vector<const RdbVal*> mirror_ptrs_;
  std::vector<RdbNum> win_scale_scratch_;
  // add_span trampoline conversion buffers (flattened keys + deltas).
  std::vector<Value> span_keys_scratch_;
  std::vector<Numeric> span_deltas_scratch_;
};

}  // namespace runtime
}  // namespace ringdb

#endif  // RINGDB_RUNTIME_COMPILED_EXECUTOR_H_
