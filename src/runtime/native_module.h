// Runtime compilation of generated trigger modules: take the C source
// emitted by compiler::GenerateModule, compile it with the host C
// compiler (`cc -O2 -shared -fPIC`), dlopen the result, and resolve the
// columnar-window entry points of every emitted statement (the only
// native code a module exports; runtime/native_abi.h).
//
// Shared objects are cached by source hash under a per-user build
// directory, so repeated engine construction for the same query (every
// shard, every test run, every process restart) pays the external
// compiler exactly once and then just dlopens. The cache is
// crash/race-safe: artifacts are written to temp names and renamed into
// place atomically.
//
// Environment knobs:
//   RINGDB_CC                - host compiler override. An empty value or a
//                              path that cannot be executed disables the
//                              backend (Build returns an error and the
//                              engine falls back to the interpreter); used
//                              by tests/CI to simulate compiler-less hosts.
//   RINGDB_NATIVE_CACHE_DIR  - cache directory override (default:
//                              $TMPDIR/ringdb-native-cache-<uid>).
//
// Build() never aborts on environmental failure — no compiler, read-only
// filesystem, dlopen errors all surface as Status so the caller can fall
// back gracefully. ABI drift between the host and an (possibly stale,
// cached) module is caught by the rdb_abi_version / rdb_abi_layout
// handshake exported by every module.

#ifndef RINGDB_RUNTIME_NATIVE_MODULE_H_
#define RINGDB_RUNTIME_NATIVE_MODULE_H_

#include <memory>
#include <string>
#include <vector>

#include "compiler/codegen_c.h"
#include "compiler/ir.h"
#include "runtime/native_abi.h"
#include "util/status.h"

namespace ringdb {
namespace runtime {

class NativeModule {
 public:
  // Per-statement columnar-window entry points; null col_plain means the
  // statement was not emitted and always interprets. col_grouped is null
  // for non-groupable statements and aliases col_plain when the grouped
  // rhs folds nothing. The prefer flags carry the emitter's static cost-
  // model verdict per variant (compiler::CodegenStmt), which the compiled
  // executor locks when it has no clock to profile with.
  struct StmtFns {
    RdbColStmtFn col_plain = nullptr;
    RdbColStmtFn col_grouped = nullptr;
    bool prefer_native = true;
    bool grouped_prefer_native = true;
  };

  // Emits, compiles, caches, and loads the module for `program`. Errors
  // (no emittable statements, no host compiler, compile/dlopen failure,
  // ABI mismatch) are returned, never fatal.
  static StatusOr<std::shared_ptr<const NativeModule>> Build(
      const compiler::TriggerProgram& program);

  ~NativeModule();
  NativeModule(const NativeModule&) = delete;
  NativeModule& operator=(const NativeModule&) = delete;

  // fns(t, s) for program.triggers[t].statements[s].
  const StmtFns& fns(size_t trigger, size_t stmt) const {
    return fns_[trigger][stmt];
  }
  size_t native_statements() const { return native_statements_; }
  const std::string& so_path() const { return so_path_; }
  const std::string& source() const { return source_; }

 private:
  NativeModule() = default;

  // dlopen + ABI handshake + per-statement symbol resolution for one
  // on-disk artifact. Split from Build so a failing *cached* artifact
  // (truncated, bit-rotted, or from an older ABI) can be evicted and
  // rebuilt instead of surfacing as a hard error.
  static StatusOr<std::shared_ptr<NativeModule>> LoadAndResolve(
      const std::string& so_path, const compiler::CodegenModule& gen);

  void* handle_ = nullptr;  // dlclosed by the destructor
  std::vector<std::vector<StmtFns>> fns_;
  size_t native_statements_ = 0;
  std::string so_path_;
  std::string source_;
};

}  // namespace runtime
}  // namespace ringdb

#endif  // RINGDB_RUNTIME_NATIVE_MODULE_H_
