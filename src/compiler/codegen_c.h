// Emits a compiled TriggerProgram as a self-contained C translation unit
// ready for `cc -O2 -shared` — the paper's §7 observation ("essentially a
// small fragment of the programming language C") taken literally and made
// an execution backend (runtime::NativeModule + the compiled-backend seam
// in runtime/compiled_executor.h).
//
// The emission scheme works from the lowered bytecode (compiler/lower.h),
// not the TExpr trees: each StmtProgram becomes one exported function
// whose body is the statement's loop nest and straight-line rhs —
//
//  - frame slots become fields of a stack-allocated environment struct
//    (locals, threaded through the loop callbacks);
//  - every KeyTemplate materializes into a fixed-size stack buffer;
//  - the postfix Op array unrolls into straight-line C expressions over
//    RdbNum temporaries (overflow-promoting arithmetic and kind-sensitive
//    comparisons textually mirror util/numeric.h and the interpreter's
//    EvalRhs — same results, no dispatch loop);
//  - view probes, loop enumeration, and emissions call through the
//    RdbHostApi function-pointer table (runtime/native_abi.h), so the
//    module has no link-time dependencies and views stay host-owned
//    (sharding, serving snapshots, and result reads are unaffected).
//
// Not everything is emitted. Statements touching the lazy domain-
// maintenance machinery (slice enumeration, lazy drivers or probes, lazy
// targets) are skipped and keep the interpreter (CodegenStmt::emitted
// false). Everything else is emitted, and a per-variant static cost
// model records a *preference* instead: loops whose rhs is a single load
// (the strength-reduced grouped join) are flagged prefer-interpreter —
// the interpreter already runs those as bind-and-copy loops, and the ABI
// marshalling per enumerated entry usually costs more than the saved
// dispatch — but the runtime's profile-guided selection
// (runtime/compiled_executor.h) measures both backends during warmup and
// may overturn the static verdict on the live workload. A statement
// whose grouped rhs folds nothing reuses the plain function
// (grouped_fn == fn).

#ifndef RINGDB_COMPILER_CODEGEN_C_H_
#define RINGDB_COMPILER_CODEGEN_C_H_

#include <string>
#include <vector>

#include "compiler/ir.h"

namespace ringdb {
namespace compiler {

// Emission record for one lowered statement.
struct CodegenStmt {
  bool emitted = false;    // false: interpreter fallback for this statement
  std::string fn;          // exported symbol for the plain rhs
  std::string grouped_fn;  // exported symbol for the grouped rhs (may == fn;
                           // empty when the statement is not groupable)
  // Columnar-window entry points (RdbColStmtFn, symbol `fn + "_w"` /
  // `fn + "_gw"`): whole-window execution over mirrored column arrays.
  // Emitted only for direct-add statements (emit-buffered self-loop
  // statements need a host flush per firing); empty otherwise. A
  // statement whose grouped rhs folds nothing shares the plain window
  // (grouped_win_fn == win_fn), like grouped_fn == fn.
  std::string win_fn;
  std::string grouped_win_fn;
  // Static cost-model verdict per variant (see WorthNative in the .cc):
  // the runtime's profile-guided selection (runtime/compiled_executor.h)
  // starts from this preference and overrides it with measured warmup
  // timings. Before PR 6 a false verdict suppressed emission entirely;
  // now every emittable variant is compiled and the verdict is advice.
  bool prefer_native = true;          // plain variant
  bool grouped_prefer_native = true;  // grouped variant
};

struct CodegenModule {
  std::string source;  // the complete C translation unit
  // stmts[t][s] describes program.triggers[t].statements[s].
  std::vector<std::vector<CodegenStmt>> stmts;
  size_t emitted_statements = 0;  // functions worth compiling
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
