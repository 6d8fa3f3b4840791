// The compiled execution backend: an Executor whose statements run as
// dlopen'd native code (compiler/codegen_c.h emission, runtime/
// native_module.h compilation + caching) instead of bytecode dispatch.
//
// CompiledExecutor is plug-compatible with the interpreter — it overrides
// exactly one seam, RunStatement, and inherits everything else: trigger
// dispatch, delta batching, grouped statement-major execution, lazy
// domain maintenance, stats, and every read path (root views, cross-shard
// result sums, serving snapshots). A native statement executes as
//
//   host RunStatement            native statement function
//   ------------------           ----------------------------------
//   convert params to RdbVal --> loop nest via api->foreach[_matching]
//   (per-shard scratch)          straight-line rhs over RdbNum locals
//                                api->emit into the host buffers
//   apply buffered emissions <-- return
//   (scaled, stats counted)
//
// so native code never mutates a view: probes and enumeration see frozen
// state for the duration of the statement (which is also what keeps the
// borrowed string pointers in RdbVal valid).
//
// Backend choice is per statement VARIANT (plain rhs vs grouped rhs) and
// profile-guided: the emitter compiles every emittable variant and
// records its static cost-model preference, then during a short warmup
// this executor alternates native and interpreted execution, timing both
// with obs::NowNs, and locks whichever measured cheaper on the live
// workload (cross-multiplied ns-per-run comparison, no division). Under
// -DRINGDB_NO_METRICS there is no clock, so the static preference locks
// immediately. Engine::Stats exports the decision per statement
// (StmtDispatch).
//
// Fallback is per statement and per module: statements the emitter skips
// (lazy domain maintenance) simply keep their interpreter implementation,
// and when no module could be built at all (no host compiler — CI
// sandboxes, locked-down deploys) ShardedExecutor constructs plain
// Executors instead, recording why in native_status().

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
  kCompile,    // emitted C compiled at runtime; falls back to the
               // interpreter per statement (lazy domain) and wholesale
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
  // owns (mirror columns, span buffers, param/entry scratch).
  size_t ApproxBytes() const override;

  // Trace-span mode summary over the window profiles: 2 (native) when
  // any variant locked a native columnar entry point, 3 while any is
  // still profiling, else the interpreter's own answer.
  uint32_t window_dispatch_mode() const override;

 protected:
  void RunStatement(const compiler::lower::StmtProgram& sp,
                    const Value* params, Numeric scale,
                    const compiler::lower::RhsProgram& rhs) override;
  // Whole-window dispatch into the columnar native entry points
  // (RdbColStmtFn). Profiled separately from the per-firing variants: the
  // window path competes against the base gather loop (which itself lands
  // in the profiled RunStatement above), so the measured alternative is
  // "best per-firing backend", not just the interpreter.
  void RunStatementWindow(const compiler::lower::StmtProgram& sp,
                          const ColWindow& win,
                          const compiler::lower::RhsProgram& rhs) override;

 private:
  // Profile-guided selection state for one rhs variant. Mode values
  // match StmtDispatch: 0 = interpreter, 1 = native, 2 = still profiling
  // (warmup alternation). Single-writer per shard, like everything else
  // in the executor.
  struct VariantProfile {
    uint8_t mode = 2;
    uint16_t native_runs = 0;
    uint16_t interp_runs = 0;
    uint64_t native_ns = 0;
    uint64_t interp_ns = 0;
  };
  // Warmup runs per backend before a variant's mode locks. Long enough
  // to amortize first-touch effects (branch training, view growth during
  // early batches), short enough that profiling cost is invisible next
  // to steady-state throughput.
  static constexpr uint16_t kWarmupRuns = 12;

  // Like VariantProfile, but for whole-window runs, whose cost scales
  // with the window width: the lock normalizes by row units (ns x units
  // cross-multiplication), so a wide native window and a narrow gathered
  // one still compare per row.
  struct WindowProfile {
    uint8_t mode = 2;
    uint16_t native_runs = 0;
    uint16_t interp_runs = 0;
    uint64_t native_ns = 0;
    uint64_t interp_ns = 0;
    uint64_t native_units = 0;
    uint64_t interp_units = 0;
  };

  struct Fns {
    RdbStmtFn plain = nullptr;
    RdbStmtFn grouped = nullptr;
    // Columnar-window entry points; null for emit-buffered statements
    // (windows are emitted only for direct-add statements).
    RdbColStmtFn col_plain = nullptr;
    RdbColStmtFn col_grouped = nullptr;
    uint32_t param_count = 0;  // trigger relation arity
    VariantProfile plain_profile;
    VariantProfile grouped_profile;
    WindowProfile plain_win_profile;
    WindowProfile grouped_win_profile;
  };

  // Dispatches into `fn` through the RdbHostApi trampolines (the native
  // half of RunStatement; the interpreted half is the base class).
  void RunNative(RdbStmtFn fn, uint32_t param_count,
                 const compiler::lower::StmtProgram& sp, const Value* params,
                 Numeric scale);
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
  static void Emit(void* ctx, const RdbVal* key, uint32_t n, RdbNum value);
  static void Add(void* ctx, int32_t view_id, const RdbVal* key,
                  uint32_t n, RdbNum delta);
  static void AddSpan(void* ctx, int32_t view_id, const RdbVal* keys,
                      const RdbNum* deltas, uint32_t count, uint32_t arity);
  static void Fail(void* ctx, const char* msg);

  std::shared_ptr<const NativeModule> module_;
  // Lowered statement -> native entry points + profiles, resolved once
  // (lowered_ is immutable and shared, so StmtProgram addresses are
  // stable keys).
  std::unordered_map<const compiler::lower::StmtProgram*, Fns> fns_;

  // Per-call conversion scratch (single-writer executor, like the
  // interpreter's frames): params once per statement, enumerated keys and
  // probe subkeys per loop depth.
  std::vector<RdbVal> param_scratch_;
  std::vector<std::vector<RdbVal>> entry_scratch_;  // per loop depth
  std::vector<Key> subkey_scratch_;                 // per loop depth
  Key probe_scratch_;
  Key add_scratch_;
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
