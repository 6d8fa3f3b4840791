// Lowering pass: flattens compiled NC0C statements (compiler/ir.h) into
// register-based bytecode programs the trigger interpreter executes
// without touching the TExpr tree.
//
// The tree-walking executor paid a per-firing tax that had nothing to do
// with the paper's constant: every loop variable went through an
// unordered_map<Symbol, Value>, every rhs node was a shared_ptr
// indirection, and every emission heap-allocated a fresh Key. Lowering
// resolves all of that at compile time:
//
//  - Loop variables get *frame slots* (dense indices into a Value array
//    sized per statement). Loop drivers copy bindings straight from the
//    enumerated KeyView into slots; re-bindings of an already-bound
//    variable become equality filters. No Symbol ever appears at run time.
//  - Every key the statement builds — index probe subkeys, lazy slice
//    subkeys, view-lookup keys, the target key — becomes a KeyTemplate:
//    a span of SlotRefs (param index / constant-pool index / frame slot)
//    the runtime materializes into reusable scratch buffers.
//  - The rhs becomes a flat postfix Op array over a small register stack
//    (kLoadConst/kLoadParam/kLoadFrame/kProbeView/kAdd/kMul/kCmp). A view
//    lookup whose key pattern is identical to a loop driver's pattern is
//    strength-reduced to kLoadLoopValue: the driver already enumerated
//    that exact entry, so its multiplicity is forwarded for free.
//
// Operation counting is preserved exactly: kAdd/kMul of n operands count
// n-1 ops, kCmp counts one, so the instrumented NC0 benches report the
// same constants as the tree walker did.
//
// The linear opcode stream is also the stepping stone for codegen_c: each
// Op maps 1:1 onto a line of emitted C.

#ifndef RINGDB_COMPILER_LOWER_H_
#define RINGDB_COMPILER_LOWER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/ir.h"
#include "util/numeric.h"
#include "util/value.h"

namespace ringdb {
namespace compiler {
namespace lower {

// One resolvable key slot: where the runtime fetches the Value from.
struct SlotRef {
  enum class Source : uint8_t { kParam, kConst, kFrame };
  Source source = Source::kConst;
  uint16_t index = 0;  // param position / const-pool index / frame slot
};

// A span of SlotRefs inside StmtProgram::slot_refs.
struct KeyTemplate {
  uint32_t first = 0;
  uint16_t size = 0;
};

enum class OpCode : uint8_t {
  kLoadConst,      // push &const_pool[a]
  kLoadParam,      // push &params[a]
  kLoadFrame,      // push &frame[a]
  kLoadLoopValue,  // push loop a's current driver-entry multiplicity
  kProbeView,      // build probes[a]'s key, probe its view, push Numeric
  kAdd,            // pop a operands, push their sum (a-1 ops)
  kMul,            // pop a operands, push their product (a-1 ops)
  kCmp,            // pop rhs, lhs; push 1/0; aux = agca::CmpOp (1 op)
};

struct Op {
  OpCode code;
  uint8_t aux = 0;
  uint16_t a = 0;
};

// A postfix rhs; executing all ops leaves exactly one stack value.
struct RhsProgram {
  std::vector<Op> ops;
  uint32_t max_stack = 0;
};

// An O(1) view lookup inside an rhs.
struct ProbePlan {
  int view_id = -1;
  KeyTemplate key;  // full key of the probed view
  // Lazy-init target: the probed slice is ensured first, projected from
  // the built key at these positions.
  bool lazy = false;
  std::vector<uint16_t> slice_positions;
};

// One binding action of a loop, in key-position order. Non-filter binds
// copy key[pos] into frame[frame]; filters require frame[frame] ==
// key[pos] (the variable was bound by an earlier loop or an earlier
// position of this one).
struct LoopBind {
  uint16_t pos = 0;
  uint16_t frame = 0;
  bool is_filter = false;
};

struct LoopProgram {
  int view_id = -1;
  // Index over the bound key positions; -1 for a full scan. Ids follow
  // LoweredProgram::view_indexes registration order, which the runtime
  // replays through ViewTable::EnsureIndex.
  int index_id = -1;
  // Slice-domain loop (lazy self maintenance): enumerate the view's
  // initialized slice subkeys; binds[].pos then indexes the slice subkey.
  bool slice_domain = false;
  // Lazy driver, case A: the probed slice must be materialized before
  // enumerating; lazy_slice builds its subkey.
  bool lazy_driver = false;
  KeyTemplate probe;       // subkey over bound positions, position order
  KeyTemplate lazy_slice;  // slice subkey (lazy_driver only)
  std::vector<LoopBind> binds;
};

// A fully lowered statement: for loops[0..n): target[target_key] += rhs.
struct StmtProgram {
  int target_view = -1;
  KeyTemplate target_key;
  bool target_lazy = false;                     // lazy-init target view
  std::vector<uint16_t> target_slice_positions;  // over the built key
  std::vector<LoopProgram> loops;
  RhsProgram rhs;
  // Batch grouping metadata (multiplicity-linear triggers only; see the
  // statement-major batch rule in runtime/interpreter.h). Delta entries
  // agreeing at shape_params share one execution of grouped_rhs (the rhs
  // with foldable bare-param factors removed) scaled by the group's
  // accumulated coefficient.
  bool groupable = false;
  std::vector<uint16_t> shape_params;
  std::vector<uint16_t> foldable_params;
  RhsProgram grouped_rhs;

  uint16_t frame_size = 0;          // loop-variable slots used
  std::vector<SlotRef> slot_refs;   // backing store for all KeyTemplates
  std::vector<Value> const_pool;
  std::vector<ProbePlan> probes;

  // Flat program-wide statement id (trigger-major assignment order),
  // indexing LoweredProgram::num_statements-sized side tables: the
  // runtime's per-statement execution counters (obs layer) and dispatch
  // reports (StmtDispatch) key on it.
  uint32_t stmt_id = 0;

  // Column-access metadata for the columnar batch path: the trigger
  // relation's arity (how many params a firing carries) and the sorted
  // distinct param positions this statement actually reads — from key
  // templates (slot_refs) or either rhs opcode stream. Window drivers
  // bind only these columns; the native emitter declares one restrict-
  // qualified column pointer per entry.
  uint16_t param_count = 0;
  std::vector<uint16_t> cols_read;

  std::string ToString() const;  // disassembly (tests, debugging)
};

// Secondary indexes each view must expose, in registration order. The
// runtime replays EnsureIndex over these sets at construction; because
// EnsureIndex deduplicates identically, the returned ids match the
// LoopProgram::index_id values assigned here.
struct ViewIndexes {
  std::vector<std::vector<size_t>> position_sets;
};

struct LoweredProgram {
  // stmts[t][s] lowers program.triggers[t].statements[s].
  std::vector<std::vector<StmtProgram>> stmts;
  std::vector<ViewIndexes> view_indexes;  // parallel to program.views
  // Sizing hints for the runtime's shared scratch state.
  uint16_t max_frame = 0;
  uint32_t max_stack = 0;
  uint32_t max_loop_depth = 0;
  // Total statements across all triggers; StmtProgram::stmt_id ranges
  // over [0, num_statements).
  uint32_t num_statements = 0;
};

// Pure function of the program; the result is immutable and shared by
// every executor built from it (TriggerProgram::lowered).
std::shared_ptr<const LoweredProgram> Lower(const TriggerProgram& program);

}  // namespace lower
}  // namespace compiler
}  // namespace ringdb

#endif  // RINGDB_COMPILER_LOWER_H_
