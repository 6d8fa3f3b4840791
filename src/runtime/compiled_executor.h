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
// Dispatch is fixed, not chosen at run time: every window of an emitted
// variant (plain rhs or grouped rhs) runs its native window function. A
// variant reads "unused" until its first window, then "native";
// Engine::Stats exports that per statement (StmtDispatch). Metrics and
// -DRINGDB_NO_METRICS builds run the same code.
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

  // Trace-span mode summary: 2 (native) once any variant has run a
  // native window, else the interpreter's own answer.
  uint32_t window_dispatch_mode() const override;

 protected:
  // Whole-window dispatch: one call into the variant's columnar native
  // entry point (RdbColStmtFn) per window; statements without one take
  // the base gather loop, which fires each row through the interpreter.
  void RunStatementWindow(const compiler::lower::StmtProgram& sp,
                          const ColWindow& win,
                          const compiler::lower::RhsProgram& rhs) override;

 private:
  // A statement's window entry points and whether each variant has run
  // (StmtDispatch reads 3 = unused until then, 1 = native after).
  // Single-writer per shard, like everything else in the executor.
  struct Fns {
    RdbColStmtFn plain = nullptr;
    RdbColStmtFn grouped = nullptr;  // null when not groupable
    bool plain_ran = false;
    bool grouped_ran = false;
  };

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
  // Lowered statement -> native entry points, resolved once
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
