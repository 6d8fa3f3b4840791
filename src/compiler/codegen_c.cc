#include "compiler/codegen_c.h"

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/lower.h"
#include "util/check.h"

namespace ringdb {
namespace compiler {

namespace {

namespace lw = lower;

// The module-side copy of runtime/native_abi.h plus the scalar helpers
// every statement body uses. The struct definitions MUST stay textually
// equivalent to native_abi.h; rdb_abi_version/rdb_abi_layout (emitted at
// the tail) let the loader verify that at dlopen time instead of
// corrupting memory at run time.
constexpr const char kPreamble[] = R"(#include <stddef.h>
#include <stdint.h>
#include <string.h>

typedef struct RdbVal {
  int64_t i;
  double d;
  const char* s;
  uint64_t slen;
  uint8_t kind; /* 0 int, 1 double, 2 string */
} RdbVal;

typedef struct RdbNum {
  int64_t i;
  double d;
  uint8_t is_int;
} RdbNum;

typedef void (*RdbLoopFn)(void* env, const RdbVal* key, RdbNum mult);

typedef struct RdbHostApi {
  uint32_t abi_version;
  RdbNum (*probe)(void* ctx, int32_t view_id, const RdbVal* key,
                  uint32_t n);
  void (*foreach)(void* ctx, int32_t view_id, RdbLoopFn fn, void* env);
  void (*foreach_matching)(void* ctx, int32_t view_id, int32_t index_id,
                           const RdbVal* subkey, uint32_t n, RdbLoopFn fn,
                           void* env);
  void (*fail)(void* ctx, const char* msg);
  void (*add_span)(void* ctx, int32_t view_id, const RdbVal* keys,
                   const RdbNum* deltas, uint32_t count, uint32_t arity);
} RdbHostApi;

typedef struct RdbColWin {
  const RdbVal* const* cols;
  const uint32_t* rows;
  const RdbNum* scales;
  uint32_t n;
  uint32_t arity;
} RdbColWin;

static RdbNum rdb_int(int64_t v) {
  RdbNum n; n.i = v; n.d = 0.0; n.is_int = 1; return n;
}
static RdbNum rdb_dbl(double v) {
  RdbNum n; n.i = 0; n.d = v; n.is_int = 0; return n;
}
static double rdb_f(RdbNum a) { return a.is_int ? (double)a.i : a.d; }
static int rdb_is_zero(RdbNum a) { return a.is_int ? a.i == 0 : a.d == 0.0; }
static int rdb_is_one(RdbNum a) { return a.is_int ? a.i == 1 : a.d == 1.0; }

/* Value -> scalar-ring embedding; strings cannot enter arithmetic
 * (mirrors Value::ToNumeric + the interpreter's RINGDB_CHECK). */
static RdbNum rdb_num(const RdbHostApi* api, void* ctx, RdbVal v) {
  if (v.kind == 0) return rdb_int(v.i);
  if (v.kind == 1) return rdb_dbl(v.d);
  api->fail(ctx, "string value used in arithmetic");
  return rdb_int(0);
}

/* int64 add/mul promote to double instead of wrapping on overflow
 * (util/numeric.h contract). */
static RdbNum rdb_add(RdbNum a, RdbNum b) {
  if (a.is_int && b.is_int) {
    int64_t r;
    if (!__builtin_add_overflow(a.i, b.i, &r)) return rdb_int(r);
    return rdb_dbl((double)a.i + (double)b.i);
  }
  return rdb_dbl(rdb_f(a) + rdb_f(b));
}
static RdbNum rdb_mul(RdbNum a, RdbNum b) {
  if (a.is_int && b.is_int) {
    int64_t r;
    if (!__builtin_mul_overflow(a.i, b.i, &r)) return rdb_int(r);
    return rdb_dbl((double)a.i * (double)b.i);
  }
  return rdb_dbl(rdb_f(a) * rdb_f(b));
}

/* Kind-sensitive Value equality: int64(3) != double(3.0) != "3". */
static int rdb_val_eq(RdbVal a, RdbVal b) {
  if (a.kind != b.kind) return 0;
  if (a.kind == 0) return a.i == b.i;
  if (a.kind == 1) return a.d == b.d;
  return a.slen == b.slen && memcmp(a.s, b.s, (size_t)a.slen) == 0;
}
/* Value equality against a computed scalar materialized as Value(n)
 * (int kind while exact, double kind otherwise). */
static int rdb_val_num_eq(RdbVal a, RdbNum b) {
  if (b.is_int) return a.kind == 0 && a.i == b.i;
  return a.kind == 1 && a.d == b.d;
}
static int rdb_num_num_eq(RdbNum a, RdbNum b) {
  if (a.is_int != b.is_int) return 0;
  return a.is_int ? a.i == b.i : a.d == b.d;
}
/* Numeric ordering: exact on int pairs, double otherwise (3 < 3.5). */
static int rdb_lt(RdbNum a, RdbNum b) {
  if (a.is_int && b.is_int) return a.i < b.i;
  return rdb_f(a) < rdb_f(b);
}
static int rdb_le(RdbNum a, RdbNum b) {
  if (a.is_int && b.is_int) return a.i <= b.i;
  return rdb_f(a) <= rdb_f(b);
}
)";

constexpr const char kTail[] = R"(
/* Loader handshake: layout checksum over this translation unit's own
 * struct copies; must equal runtime::RdbAbiLayout() on the host side. */
const int32_t rdb_abi_version = 4;
const uint64_t rdb_abi_layout =
    (uint64_t)sizeof(RdbVal) * 1000000u +
    (uint64_t)offsetof(RdbVal, kind) * 10000u +
    (uint64_t)sizeof(RdbNum) * 100u + (uint64_t)offsetof(RdbNum, is_int);
)";

// Statements that touch lazy domain maintenance are interpreted, not
// emitted: slice enumeration and first-touch initialization read
// executor-private state (the slice sets and the base database) that the
// C ABI deliberately does not expose.
bool Emittable(const lw::StmtProgram& sp) {
  if (sp.target_lazy) return false;
  for (const lw::LoopProgram& lp : sp.loops) {
    if (lp.slice_domain || lp.lazy_driver) return false;
  }
  for (const lw::ProbePlan& p : sp.probes) {
    if (p.lazy) return false;
  }
  return true;
}

std::string CComment(std::string s) {
  // Comment bodies come from disassembly/user strings; break any "*/".
  for (size_t i = 0; i + 1 < s.size(); ++i) {
    if (s[i] == '*' && s[i + 1] == '/') s[i + 1] = ' ';
  }
  return s;
}

std::string CInt(int64_t v) {
  if (v == INT64_MIN) return "(-9223372036854775807 - 1)";
  return std::to_string(v);
}

std::string CDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CStringLit(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20 || u >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\%03o", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// A positional RdbVal initializer {i, d, s, slen, kind}.
std::string CValInit(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kInt:
      return "{" + CInt(v.AsInt()) + ", 0.0, 0, 0, 0}";
    case Value::Kind::kDouble:
      return "{0, " + CDouble(v.AsDouble()) + ", 0, 0, 1}";
    case Value::Kind::kString:
      return "{0, 0.0, " + CStringLit(v.AsString()) + ", " +
             std::to_string(v.AsString().size()) + ", 2}";
  }
  RINGDB_CHECK(false);
  return "{0, 0.0, 0, 0, 0}";
}

// Rows buffered by a columnar window before flushing through
// api->add_span (flattened keys + parallel scaled deltas). 128 keeps the
// key chunk a few KB of stack while amortizing the host's up-front
// hash-and-prefetch pipeline over enough rows to hide probe latency.
constexpr uint32_t kWindowChunk = 128;

// True when the statement's rhs cannot read its own target view (no loop
// drives it, no probe looks it up): emissions may then apply in place
// (api->add_span) across firing boundaries, because no rhs evaluation of
// the window can observe them. Only such statements are emitted; self-
// reading ones buffer per firing in the interpreter.
bool CanEmitDirect(const lw::StmtProgram& sp) {
  for (const lw::LoopProgram& lp : sp.loops) {
    if (lp.view_id == sp.target_view) return false;
  }
  for (const lw::ProbePlan& p : sp.probes) {
    if (p.view_id == sp.target_view) return false;
  }
  return true;
}

// Emits the window functions of one lowered statement: a shared constant
// pool and environment struct, then one {body, loop callbacks, entry}
// chain per rhs variant. The structure mirrors the interpreter —
// RunLoops becomes the callback chain, EvalRhs becomes the straight-line
// body — so results (including evaluation order over doubles) agree.
class StmtEmitter {
 public:
  StmtEmitter(const lw::StmtProgram& sp, std::string base,
              std::ostringstream* out)
      : sp_(sp), base_(std::move(base)), out_(*out) {}

  void EmitShared() {
    out_ << "/* " << CComment(sp_.ToString()) << " */\n";
    if (!sp_.const_pool.empty()) {
      out_ << "static const RdbVal " << base_ << "_c[] = {\n";
      for (const Value& v : sp_.const_pool) {
        out_ << "    " << CValInit(v) << ",\n";
      }
      out_ << "};\n";
    }
    out_ << "typedef struct {\n"
         << "  const RdbHostApi* api;\n"
         << "  void* ctx;\n"
         << "  const RdbVal* p;\n"
         << "  RdbNum sc;\n"
         << "  RdbVal f[" << std::max<int>(sp_.frame_size, 1) << "];\n"
         << "  RdbNum lv[" << std::max<size_t>(sp_.loops.size(), 1)
         << "];\n"
         << "  RdbVal* kb;\n"  // window emission chunk
         << "  RdbNum* vb;\n"
         << "  uint32_t nb;\n"
         << "} " << base_ << "_env;\n";
  }

  // The columnar-window entry point `<base><wsuffix>` (RdbColStmtFn) for
  // one rhs variant: all window firings in one native call, params
  // indexed straight out of the mirrored columns. Loop-less statements
  // inline the rhs over restrict-qualified column pointers — a straight-
  // line loop nest cc -O2 can vectorize. Statements with loops get their
  // own callback chain whose body pushes emissions into the window's
  // chunk instead of one host call per enumerated entry. Either way,
  // scaled emissions collect in chunk buffers and flush through
  // api->add_span, which hashes whole chunks up front; deferring the
  // adds past firing boundaries is sound exactly because windows are
  // only emitted for direct-add statements — the rhs provably never
  // reads the target view, so no firing in the window can observe
  // another's emissions early or late.
  void EmitWindowVariant(const std::string& wsuffix,
                         const lw::RhsProgram& rhs) {
    const std::string name = base_ + wsuffix;
    if (sp_.loops.empty()) {
      EmitWindowLoopless(name, rhs);
      return;
    }
    const uint32_t key_size = sp_.target_key.size;
    const std::string ks = std::to_string(key_size);
    EmitWindowBody(name, rhs);
    for (size_t i = sp_.loops.size(); i-- > 0;) {
      EmitLoopCallback(name, i);
    }
    out_ << "void " << name
         << "(const RdbHostApi* api, void* ctx, const RdbColWin* win) {\n"
         << "  " << base_ << "_env e;\n"
         << "  e.api = api;\n  e.ctx = ctx;\n"
         << "  RdbVal pbuf[" << std::max<int>(sp_.param_count, 1)
         << "];\n"
         << "  e.p = pbuf;\n"
         << "  RdbVal kb[" << kWindowChunk * std::max<uint32_t>(key_size, 1)
         << "];\n"
         << "  RdbNum vb[" << kWindowChunk << "];\n"
         << "  e.kb = kb;\n  e.vb = vb;\n  e.nb = 0;\n";
    for (uint16_t c : sp_.cols_read) {
      out_ << "  const RdbVal* restrict c" << c << " = win->cols[" << c
           << "];\n";
    }
    out_ << "  const uint32_t* restrict rows = win->rows;\n"
         << "  const RdbNum* restrict scales = win->scales;\n"
         << "  " << base_ << "_env* E = &e;\n"
         << "  for (uint32_t i = 0; i < win->n; ++i) {\n"
         << "    const uint32_t r = rows[i];\n";
    if (sp_.cols_read.empty()) out_ << "    (void)r;\n";
    for (uint16_t c : sp_.cols_read) {
      out_ << "    pbuf[" << c << "] = c" << c << "[r];\n";
    }
    out_ << "    e.sc = scales[i];\n";
    EmitNext(name, 0, "    ");
    out_ << "  }\n"
         << "  if (e.nb) api->add_span(ctx, " << sp_.target_view
         << ", kb, vb, e.nb, " << ks << ");\n"
         << "}\n\n";
  }

 private:
  // In column mode (the loop-less window variant) params read straight
  // from the restrict-qualified column pointers at the current row and
  // host calls use the entry point's own api/ctx — there is no env.
  std::string Ref(const lw::SlotRef& r) const {
    switch (r.source) {
      case lw::SlotRef::Source::kParam:
        if (col_) return "c" + std::to_string(r.index) + "[r]";
        return "E->p[" + std::to_string(r.index) + "]";
      case lw::SlotRef::Source::kConst:
        return base_ + "_c[" + std::to_string(r.index) + "]";
      case lw::SlotRef::Source::kFrame:
        return "E->f[" + std::to_string(r.index) + "]";
    }
    RINGDB_CHECK(false);
    return "";
  }

  std::string Api() const { return col_ ? "api" : "E->api"; }
  std::string Ctx() const { return col_ ? "ctx" : "E->ctx"; }

  // Materializes a KeyTemplate into stack buffer `buf`. Clamped to one
  // element for empty templates (a scalar-view probe): zero-length
  // arrays are a GNU extension a strict RINGDB_CC would reject.
  void EmitKeyBuffer(const std::string& buf, lw::KeyTemplate t,
                     const std::string& indent) {
    out_ << indent << "RdbVal " << buf << "["
         << std::max<int>(t.size, 1) << "];\n";
    for (size_t i = 0; i < t.size; ++i) {
      out_ << indent << buf << "[" << i
           << "] = " << Ref(sp_.slot_refs[t.first + i]) << ";\n";
    }
  }

  // Starts loop `i` (or calls the body past the last loop).
  void EmitNext(const std::string& name, size_t i,
                const std::string& indent) {
    if (i == sp_.loops.size()) {
      out_ << indent << name << "_body(E);\n";
      return;
    }
    const lw::LoopProgram& lp = sp_.loops[i];
    const std::string cb = name + "_l" + std::to_string(i);
    if (lp.index_id >= 0) {
      const std::string sk = "sk" + std::to_string(i);
      EmitKeyBuffer(sk, lp.probe, indent);
      out_ << indent << "E->api->foreach_matching(E->ctx, " << lp.view_id
           << ", " << lp.index_id << ", " << sk << ", " << lp.probe.size
           << ", " << cb << ", (void*)E);\n";
    } else {
      out_ << indent << "E->api->foreach(E->ctx, " << lp.view_id << ", "
           << cb << ", (void*)E);\n";
    }
  }

  void EmitLoopCallback(const std::string& name, size_t i) {
    const lw::LoopProgram& lp = sp_.loops[i];
    out_ << "static void " << name << "_l" << i
         << "(void* ve, const RdbVal* k, RdbNum m) {\n"
         << "  " << base_ << "_env* E = (" << base_ << "_env*)ve;\n";
    for (const lw::LoopBind& b : lp.binds) {
      if (b.is_filter) {
        // Re-bound position: must agree with the earlier binding.
        out_ << "  if (!rdb_val_eq(E->f[" << b.frame << "], k[" << b.pos
             << "])) return;\n";
      } else {
        out_ << "  E->f[" << b.frame << "] = k[" << b.pos << "];\n";
      }
    }
    out_ << "  E->lv[" << i << "] = m;\n";
    EmitNext(name, i + 1, "  ");
    out_ << "}\n";
  }

  // One rhs operand tracked while unrolling the postfix program: either
  // an RdbVal lvalue (leaf) or an RdbNum expression (computed).
  struct CV {
    bool is_num;
    std::string expr;
  };

  std::string AsNum(const CV& v) const {
    if (v.is_num) return v.expr;
    return "rdb_num(" + Api() + ", " + Ctx() + ", " + v.expr + ")";
  }

  // Unrolls one postfix rhs into straight-line C at `indent`; returns the
  // final value as a CV. Shared by the loop-ful window body and the
  // loop-less window (which runs it in column mode inside the row loop).
  CV EmitRhs(const lw::RhsProgram& rhs, const std::string& indent) {
    std::vector<CV> stk;
    auto temp = [&](const std::string& expr) {
      const std::string t = "t" + std::to_string(tmp_++);
      out_ << indent << "RdbNum " << t << " = " << expr << ";\n";
      stk.push_back(CV{true, t});
    };
    for (const lw::Op& op : rhs.ops) {
      switch (op.code) {
        case lw::OpCode::kLoadConst:
          stk.push_back(
              CV{false, base_ + "_c[" + std::to_string(op.a) + "]"});
          break;
        case lw::OpCode::kLoadParam:
          stk.push_back(CV{
              false, Ref(lw::SlotRef{lw::SlotRef::Source::kParam,
                                     static_cast<uint16_t>(op.a)})});
          break;
        case lw::OpCode::kLoadFrame:
          stk.push_back(CV{false, "E->f[" + std::to_string(op.a) + "]"});
          break;
        case lw::OpCode::kLoadLoopValue:
          // The loop driver already enumerated this entry; forward its
          // multiplicity instead of re-probing (compiler/lower.h).
          stk.push_back(CV{true, "E->lv[" + std::to_string(op.a) + "]"});
          break;
        case lw::OpCode::kProbeView: {
          const lw::ProbePlan& plan = sp_.probes[op.a];
          const std::string pk = "pk" + std::to_string(tmp_);
          EmitKeyBuffer(pk, plan.key, indent);
          temp(Api() + "->probe(" + Ctx() + ", " +
               std::to_string(plan.view_id) + ", " + pk + ", " +
               std::to_string(plan.key.size) + ")");
          break;
        }
        case lw::OpCode::kAdd:
        case lw::OpCode::kMul: {
          const char* fn = op.code == lw::OpCode::kAdd ? "rdb_add"
                                                       : "rdb_mul";
          const size_t n = op.a;
          // Left fold, matching the interpreter's accumulation order
          // (double rounding is order-sensitive).
          std::string expr = AsNum(stk[stk.size() - n]);
          for (size_t i = 1; i < n; ++i) {
            expr = std::string(fn) + "(" + expr + ", " +
                   AsNum(stk[stk.size() - n + i]) + ")";
          }
          stk.resize(stk.size() - n);
          temp(expr);
          break;
        }
        case lw::OpCode::kCmp: {
          const CV r = stk.back();
          stk.pop_back();
          const CV l = stk.back();
          stk.pop_back();
          const auto cop = static_cast<agca::CmpOp>(op.aux);
          std::string cond;
          if (cop == agca::CmpOp::kEq || cop == agca::CmpOp::kNe) {
            // Kind-sensitive Value equality; computed operands
            // materialize as Value(num) — exactly EvalRhs's kCmp.
            if (!l.is_num && !r.is_num) {
              cond = "rdb_val_eq(" + l.expr + ", " + r.expr + ")";
            } else if (!l.is_num) {
              cond = "rdb_val_num_eq(" + l.expr + ", " + r.expr + ")";
            } else if (!r.is_num) {
              cond = "rdb_val_num_eq(" + r.expr + ", " + l.expr + ")";
            } else {
              cond = "rdb_num_num_eq(" + l.expr + ", " + r.expr + ")";
            }
            if (cop == agca::CmpOp::kNe) cond = "!" + cond;
          } else {
            const std::string ln = AsNum(l);
            const std::string rn = AsNum(r);
            switch (cop) {
              case agca::CmpOp::kLt:
                cond = "rdb_lt(" + ln + ", " + rn + ")";
                break;
              case agca::CmpOp::kLe:
                cond = "rdb_le(" + ln + ", " + rn + ")";
                break;
              case agca::CmpOp::kGt:
                cond = "rdb_lt(" + rn + ", " + ln + ")";
                break;
              case agca::CmpOp::kGe:
                cond = "rdb_le(" + rn + ", " + ln + ")";
                break;
              default:
                RINGDB_CHECK(false);
            }
          }
          temp("rdb_int(" + cond + " ? 1 : 0)");
          break;
        }
      }
    }
    RINGDB_CHECK_EQ(stk.size(), 1u);
    return stk[0];
  }

  // Shape of the loop-less window variant: one tight row loop, no env
  // struct, no callbacks, no per-firing host call. Emissions collect in
  // local chunk buffers (flattened keys + parallel scaled deltas) and
  // flush through api->add_span, which hashes the whole chunk up front.
  void EmitWindowLoopless(const std::string& name,
                          const lw::RhsProgram& rhs) {
    const uint32_t key_size = sp_.target_key.size;
    const std::string ks = std::to_string(key_size);
    out_ << "void " << name
         << "(const RdbHostApi* api, void* ctx, const RdbColWin* win) {\n";
    for (uint16_t c : sp_.cols_read) {
      out_ << "  const RdbVal* restrict c" << c << " = win->cols[" << c
           << "];\n";
    }
    out_ << "  const uint32_t* restrict rows = win->rows;\n"
         << "  const RdbNum* restrict scales = win->scales;\n"
         << "  enum { CHUNK = 128 };\n"
         << "  RdbVal kb[CHUNK * " << std::max<uint32_t>(key_size, 1)
         << "];\n"
         << "  RdbNum vb[CHUNK];\n"
         << "  uint32_t nb = 0;\n"
         << "  for (uint32_t i = 0; i < win->n; ++i) {\n"
         << "    const uint32_t r = rows[i];\n";
    if (sp_.cols_read.empty()) out_ << "    (void)r;\n";
    col_ = true;
    tmp_ = 0;
    const CV result = EmitRhs(rhs, "    ");
    out_ << "    RdbNum v = " << AsNum(result) << ";\n"
         << "    if (rdb_is_zero(v)) continue;\n"
         << "    if (!rdb_is_one(scales[i])) v = rdb_mul(v, scales[i]);\n";
    for (uint32_t j = 0; j < key_size; ++j) {
      out_ << "    kb[nb * " << ks << " + " << j
           << "] = " << Ref(sp_.slot_refs[sp_.target_key.first + j])
           << ";\n";
    }
    col_ = false;
    out_ << "    vb[nb] = v;\n"
         << "    if (++nb == CHUNK) {\n"
         << "      api->add_span(ctx, " << sp_.target_view
         << ", kb, vb, nb, " << ks << ");\n"
         << "      nb = 0;\n"
         << "    }\n"
         << "  }\n"
         << "  if (nb) api->add_span(ctx, " << sp_.target_view
         << ", kb, vb, nb, " << ks << ");\n"
         << "}\n\n";
  }

  // The body of a loop-ful window variant: the straight-line rhs in the
  // interpreter's evaluation order (so results agree to the last double
  // bit); the emission folds the scale in and pushes into the env's
  // window chunk — the entry point flushes the tail.
  void EmitWindowBody(const std::string& name, const lw::RhsProgram& rhs) {
    const uint32_t ks = sp_.target_key.size;
    out_ << "static void " << name << "_body(" << base_ << "_env* E) {\n";
    tmp_ = 0;
    const CV result = EmitRhs(rhs, "  ");
    out_ << "  RdbNum v = " << AsNum(result) << ";\n"
         << "  if (rdb_is_zero(v)) return;\n"
         << "  if (!rdb_is_one(E->sc)) v = rdb_mul(v, E->sc);\n";
    if (ks > 0) {
      out_ << "  RdbVal* kk = E->kb + (size_t)E->nb * " << ks << ";\n";
      for (uint32_t j = 0; j < ks; ++j) {
        out_ << "  kk[" << j
             << "] = " << Ref(sp_.slot_refs[sp_.target_key.first + j])
             << ";\n";
      }
    }
    out_ << "  E->vb[E->nb] = v;\n"
         << "  if (++E->nb == " << kWindowChunk << ") {\n"
         << "    E->api->add_span(E->ctx, " << sp_.target_view
         << ", E->kb, E->vb, E->nb, " << ks << ");\n"
         << "    E->nb = 0;\n"
         << "  }\n"
         << "}\n";
  }

  const lw::StmtProgram& sp_;
  const std::string base_;
  std::ostringstream& out_;
  bool col_ = false;  // see Ref(): loop-less window emission mode
  int tmp_ = 0;       // rhs temporary counter of the function being emitted
};

}  // namespace

CodegenModule GenerateModule(const TriggerProgram& program) {
  std::shared_ptr<const lw::LoweredProgram> lowered = program.lowered;
  if (lowered == nullptr) lowered = lw::Lower(program);

  CodegenModule mod;
  std::ostringstream out;
  out << "/* Native trigger module generated by ringdb "
         "(compiler/codegen_c.cc).\n"
      << " * Views (host-owned; probed through the RdbHostApi):\n";
  for (const ViewDef& v : program.views) {
    out << " *   " << CComment(v.ToString()) << "\n";
  }
  out << " */\n" << kPreamble;

  mod.stmts.resize(program.triggers.size());
  for (size_t t = 0; t < program.triggers.size(); ++t) {
    const Trigger& trigger = program.triggers[t];
    out << "\n/* === trigger "
        << (trigger.sign == ring::Update::Sign::kInsert ? "+" : "-")
        << trigger.relation.str() << " === */\n";
    const std::vector<lw::StmtProgram>& stmts = lowered->stmts[t];
    mod.stmts[t].reserve(stmts.size());
    for (size_t s = 0; s < stmts.size(); ++s) {
      const lw::StmtProgram& sp = stmts[s];
      CodegenStmt cs;
      const bool lazy = !Emittable(sp);
      if (lazy || !CanEmitDirect(sp)) {
        out << "/* stmt " << s << ": interpreter fallback ("
            << (lazy ? "lazy domain" : "reads its own target")
            << "): " << CComment(sp.ToString()) << " */\n";
        mod.stmts[t].push_back(cs);
        continue;
      }
      cs.emitted = true;
      const std::string base =
          "rdb_t" + std::to_string(t) + "_s" + std::to_string(s);
      StmtEmitter emitter(sp, base, &out);
      emitter.EmitShared();
      cs.win_fn = base + "_w";
      emitter.EmitWindowVariant("_w", sp.rhs);
      if (sp.groupable) {
        if (sp.foldable_params.empty()) {
          // grouped_rhs shares the plain ops; reuse the window function.
          cs.grouped_win_fn = cs.win_fn;
        } else {
          cs.grouped_win_fn = base + "_gw";
          emitter.EmitWindowVariant("_gw", sp.grouped_rhs);
        }
      }
      ++mod.emitted_statements;
      mod.stmts[t].push_back(std::move(cs));
    }
  }
  out << kTail;
  mod.source = out.str();
  return mod;
}

std::string GenerateC(const TriggerProgram& program) {
  return GenerateModule(program).source;
}

}  // namespace compiler
}  // namespace ringdb
