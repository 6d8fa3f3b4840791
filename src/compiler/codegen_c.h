// Emits a compiled TriggerProgram as a self-contained C translation unit
// ready for `cc -O2 -shared` — the paper's §7 observation ("essentially a
// small fragment of the programming language C") taken literally and made
// an execution backend (runtime::NativeModule + the compiled-backend seam
// in runtime/compiled_executor.h).
//
// The emission scheme works from the lowered bytecode (compiler/lower.h),
// not the TExpr trees: each emitted StmtProgram becomes one exported
// columnar-window function per rhs variant (`rdb_t<T>_s<S>_w`, plus `_gw`
// when the grouped rhs folds params) that runs a whole window of firings
// in one call —
//
//  - frame slots become fields of a stack-allocated environment struct
//    (locals, threaded through the loop callbacks);
//  - every KeyTemplate materializes into a fixed-size stack buffer;
//  - the postfix Op array unrolls into straight-line C expressions over
//    RdbNum temporaries (overflow-promoting arithmetic and kind-sensitive
//    comparisons textually mirror util/numeric.h and the interpreter's
//    EvalRhs — same results, no dispatch loop);
//  - view probes and loop enumeration call through the RdbHostApi
//    function-pointer table (runtime/native_abi.h), and scaled emissions
//    collect in chunks flushed through its add_span, so the module has no
//    link-time dependencies and views stay host-owned (sharding, serving
//    snapshots, and result reads are unaffected).
//
// Not everything is emitted. Statements touching the lazy domain-
// maintenance machinery (slice enumeration, lazy drivers or probes, lazy
// targets) and statements whose rhs reads their own target view (which
// must buffer emissions per firing) are skipped and keep the interpreter
// (CodegenStmt::emitted false); so do single tuples, which never form a
// window. Every window of an emitted statement runs its native window
// function (runtime/compiled_executor.h). A statement whose grouped rhs
// folds nothing reuses the plain window (grouped_win_fn == win_fn).

#ifndef RINGDB_COMPILER_CODEGEN_C_H_
#define RINGDB_COMPILER_CODEGEN_C_H_

#include <string>
#include <vector>

#include "compiler/ir.h"

namespace ringdb {
namespace compiler {

// Emission record for one lowered statement.
struct CodegenStmt {
  bool emitted = false;  // false: interpreter only for this statement
  // Columnar-window entry points (RdbColStmtFn, `rdb_t<T>_s<S>_w` /
  // `_gw`): whole-window execution over mirrored column arrays. Set iff
  // emitted; grouped_win_fn is empty when the statement is not groupable
  // and equals win_fn when its grouped rhs folds nothing.
  std::string win_fn;
  std::string grouped_win_fn;
};

struct CodegenModule {
  std::string source;  // the complete C translation unit
  // stmts[t][s] describes program.triggers[t].statements[s].
  std::vector<std::vector<CodegenStmt>> stmts;
  size_t emitted_statements = 0;  // statements with a window entry point
};

// Emits the module for `program`, lowering it first if program.lowered is
// unset. Pure function of the program: identical programs produce
// byte-identical source (the .so cache keys on the source hash).
CodegenModule GenerateModule(const TriggerProgram& program);

// Convenience: just the emitted source (docs, golden tests, debugging).
std::string GenerateC(const TriggerProgram& program);

}  // namespace compiler
}  // namespace ringdb

#endif  // RINGDB_COMPILER_CODEGEN_C_H_
