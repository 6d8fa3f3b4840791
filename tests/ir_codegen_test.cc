// The NC0C IR: TExpr op counting (the NC0 constant), printing, and the
// native C emitter's structural properties across a query portfolio —
// including the golden-file lock on the revenue query's +lineitem
// trigger, so any change to the emission format shows up as a reviewable
// diff instead of a silent drift (set RINGDB_REGEN_GOLDEN=1 to rewrite
// the golden after an intentional change).

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "agca/ast.h"
#include "compiler/codegen_c.h"
#include "compiler/compile.h"
#include "compiler/ir.h"
#include "sql/translate.h"
#include "workload/stream.h"

namespace ringdb {
namespace compiler {
namespace {

using agca::CmpOp;
using agca::Expr;
using agca::ExprPtr;
using agca::Term;

Symbol S(const char* s) { return Symbol::Intern(s); }
ExprPtr V(const char* name) { return Expr::Var(S(name)); }

TEST(TExprTest, OpCountIsStructural) {
  // (c * m[k] + p) has 1 mul + 1 add = 2 ops; a comparison adds 1.
  TExprPtr e = TExpr::Add(
      {TExpr::Mul({TExpr::Const(Value(3)),
                   TExpr::ViewLookup(0, {KeyRef::Param(0)})}),
       TExpr::Param(1)});
  EXPECT_EQ(e->OpCount(), 2u);
  TExprPtr cmp = TExpr::Cmp(CmpOp::kEq, TExpr::Param(0), TExpr::Param(1));
  EXPECT_EQ(cmp->OpCount(), 1u);
  EXPECT_EQ(TExpr::Mul({e, cmp})->OpCount(), 4u);
}

TEST(TExprTest, SingletonAddMulCollapse) {
  TExprPtr p = TExpr::Param(0);
  EXPECT_EQ(TExpr::Add({p})->kind(), TExpr::Kind::kParam);
  EXPECT_EQ(TExpr::Mul({p})->kind(), TExpr::Kind::kParam);
}

TEST(TExprTest, Printing) {
  TExprPtr e = TExpr::Mul(
      {TExpr::Const(Value(-1)),
       TExpr::ViewLookup(3, {KeyRef::Param(0), KeyRef::LoopVar(S("k"))}),
       TExpr::Cmp(CmpOp::kLt, TExpr::Param(1),
                  TExpr::Const(Value("lim")))});
  EXPECT_EQ(e->ToString(), "(-1 * m3[@p0, k] * (@p1 < 'lim'))");
}

TEST(KeyRefTest, Kinds) {
  EXPECT_EQ(KeyRef::Param(2).ToString(), "@p2");
  EXPECT_EQ(KeyRef::LoopVar(S("v")).ToString(), "v");
  EXPECT_EQ(KeyRef::Const(Value("s")).ToString(), "'s'");
  EXPECT_EQ(KeyRef::Const(Value(5)).ToString(), "5");
  EXPECT_TRUE(KeyRef::Param(0).IsBoundBeforeLoops());
  EXPECT_FALSE(KeyRef::LoopVar(S("v")).IsBoundBeforeLoops());
}

TEST(ProgramPrintTest, ListsViewsAndTriggers) {
  ring::Catalog catalog;
  catalog.AddRelation(S("Rp1"), {S("A")});
  auto compiled = Compile(catalog, {},
                          Expr::Relation(S("Rp1"), {Term(S("x"))}));
  ASSERT_TRUE(compiled.ok());
  std::string s = compiled->program.ToString();
  EXPECT_NE(s.find("views:"), std::string::npos);
  EXPECT_NE(s.find("m0[] (deg 1)"), std::string::npos);
  EXPECT_NE(s.find("on +Rp1:"), std::string::npos);
  EXPECT_NE(s.find("on -Rp1:"), std::string::npos);
  EXPECT_NE(s.find("m0[] += 1"), std::string::npos);
  EXPECT_NE(s.find("m0[] += -1"), std::string::npos);
}

TEST(CodegenTest, LoopsEmitForeachCallbacks) {
  ring::Catalog catalog;
  catalog.AddRelation(S("Cg2"), {S("cid"), S("nation")});
  ExprPtr body =
      Expr::Mul({Expr::Relation(S("Cg2"), {Term(S("c")), Term(S("n"))}),
                 Expr::Relation(S("Cg2"), {Term(S("c2")), Term(S("n"))})});
  auto compiled = Compile(catalog, {S("c")}, body);
  ASSERT_TRUE(compiled.ok());
  std::string code = GenerateC(compiled->program);
  // The grouped self-join needs index-driven enumeration: loop callbacks
  // threaded through the host api, binds copied into the env frame.
  EXPECT_NE(code.find("E->api->foreach_matching(E->ctx"),
            std::string::npos);
  EXPECT_NE(code.find("_l0(void* ve, const RdbVal* k, RdbNum m)"),
            std::string::npos);
  EXPECT_NE(code.find("E->f[0] = k["), std::string::npos);
}

TEST(CodegenTest, EveryViewListedAndEmittableStatementsExported) {
  ring::Catalog catalog;
  catalog.AddRelation(S("Rg3"), {S("A"), S("B")});
  catalog.AddRelation(S("Sg3"), {S("B"), S("C")});
  ExprPtr body = Expr::Mul(
      {Expr::Relation(S("Rg3"), {Term(S("a")), Term(S("b"))}),
       Expr::Relation(S("Sg3"), {Term(S("b")), Term(S("c"))})});
  auto compiled = Compile(catalog, {}, body);
  ASSERT_TRUE(compiled.ok());
  CodegenModule mod = GenerateModule(compiled->program);
  // Views are host-owned now; the module lists them in its header
  // comment for self-description rather than declaring maps.
  for (const ViewDef& v : compiled->program.views) {
    EXPECT_NE(mod.source.find(" *   " + v.ToString()), std::string::npos)
        << v.ToString();
  }
  for (size_t t = 0; t < mod.stmts.size(); ++t) {
    for (const CodegenStmt& cs : mod.stmts[t]) {
      ASSERT_TRUE(cs.emitted);  // equality join: nothing lazy
      EXPECT_NE(mod.source.find("void " + cs.win_fn + "("),
                std::string::npos);
    }
  }
}

TEST(CodegenTest, LazyDomainStatementsFallBackToInterpreter) {
  // Inequality join: lazy domain maintenance (paper footnote 2) is
  // deliberately not emitted — those statements keep the interpreter.
  ring::Catalog catalog;
  catalog.AddRelation(S("Rg5"), {S("A")});
  catalog.AddRelation(S("Sg5"), {S("A")});
  ExprPtr body = Expr::Mul({Expr::Relation(S("Rg5"), {Term(S("x"))}),
                            Expr::Relation(S("Sg5"), {Term(S("y"))}),
                            Expr::Cmp(CmpOp::kLt, V("x"), V("y"))});
  auto compiled = Compile(catalog, {}, body);
  ASSERT_TRUE(compiled.ok());
  CodegenModule mod = GenerateModule(compiled->program);
  size_t fallback = 0;
  for (const auto& trigger : mod.stmts) {
    for (const CodegenStmt& cs : trigger) {
      if (!cs.emitted) ++fallback;
    }
  }
  EXPECT_GT(fallback, 0u);
  EXPECT_NE(mod.source.find("interpreter fallback (lazy domain)"),
            std::string::npos);
}

TEST(CodegenTest, GroupedVariantDistinctWhenParamsFold) {
  // Revenue shape: the +lineitem statements fold price/qty out of the
  // grouped rhs, so each groupable statement exports a distinct _gw
  // window next to the plain one.
  ring::Catalog catalog = workload::OrdersSchema();
  auto t = sql::TranslateSql(
      catalog,
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  auto compiled = Compile(catalog, t->group_vars, t->body);
  ASSERT_TRUE(compiled.ok());
  CodegenModule mod = GenerateModule(compiled->program);
  bool any_distinct = false;
  for (size_t t = 0; t < mod.stmts.size(); ++t) {
    for (size_t s = 0; s < mod.stmts[t].size(); ++s) {
      const CodegenStmt& cs = mod.stmts[t][s];
      if (cs.grouped_win_fn.empty()) continue;
      EXPECT_EQ(cs.grouped_win_fn, "rdb_t" + std::to_string(t) + "_s" +
                                       std::to_string(s) + "_gw");
      any_distinct = true;
      EXPECT_NE(mod.source.find("void " + cs.grouped_win_fn + "("),
                std::string::npos);
    }
  }
  EXPECT_TRUE(any_distinct);
}

TEST(CodegenTest, GroupedVariantSharedWhenNothingFolds) {
  // Weighted grouped join where the weight is a joined column, not an
  // update parameter: nothing folds out of the grouped rhs, so the
  // module records grouped_win_fn == win_fn instead of duplicating code.
  ring::Catalog catalog;
  catalog.AddRelation(S("Rgs"), {S("ok"), S("ck"), S("z")});
  catalog.AddRelation(S("Sgs"), {S("ok2"), S("v")});
  ExprPtr body = Expr::Mul(
      {Expr::Relation(S("Rgs"),
                      {Term(S("o")), Term(S("c")), Term(S("z"))}),
       Expr::Relation(S("Sgs"), {Term(S("o")), Term(S("w"))}), V("w")});
  auto compiled = Compile(catalog, {S("c")}, body);
  ASSERT_TRUE(compiled.ok());
  CodegenModule mod = GenerateModule(compiled->program);
  bool any_shared = false;
  for (const auto& trigger : mod.stmts) {
    for (const CodegenStmt& cs : trigger) {
      if (!cs.grouped_win_fn.empty() && cs.grouped_win_fn == cs.win_fn) {
        any_shared = true;
      }
    }
  }
  EXPECT_TRUE(any_shared);
}

TEST(CodegenTest, TrivialForwardedLoopPrefersInterpreter) {
  // The strength-reduced grouped join (rhs = one forwarded load) is a
  // bind-and-copy loop the interpreter already executes optimally; the
  // static cost model must flag it prefer-interpreter so profiling-free
  // builds (-DRINGDB_NO_METRICS) keep it off the ABI marshalling tax.
  // The window variant is still *emitted* — the runtime's window
  // profiler may overturn the verdict on the live workload.
  ring::Catalog catalog;
  catalog.AddRelation(S("Rcm"), {S("ok"), S("ck")});
  catalog.AddRelation(S("Scm"), {S("ok2"), S("v")});
  ExprPtr body = Expr::Mul(
      {Expr::Relation(S("Rcm"), {Term(S("o")), Term(S("c"))}),
       Expr::Relation(S("Scm"), {Term(S("o")), Term(S("w"))})});
  auto compiled = Compile(catalog, {S("c")}, body);
  ASSERT_TRUE(compiled.ok());
  CodegenModule mod = GenerateModule(compiled->program);
  bool any_prefer_interp = false;
  for (const auto& trigger : mod.stmts) {
    for (const CodegenStmt& cs : trigger) {
      if (!cs.emitted) continue;
      EXPECT_FALSE(cs.win_fn.empty());
      if (!cs.prefer_native || !cs.grouped_prefer_native) {
        any_prefer_interp = true;
      }
    }
  }
  EXPECT_TRUE(any_prefer_interp);
  EXPECT_NE(mod.source.find("static cost model prefers interpreter"),
            std::string::npos);
}

// Golden-file lock on the emitted C of the revenue query's +lineitem
// trigger. The emission format is an interface now (reviewers read these
// diffs; the .so cache keys on the text): refactors of the emitter must
// show up here. After an intentional format change, regenerate with
//   RINGDB_REGEN_GOLDEN=1 ./build/ir_codegen_test
TEST(CodegenTest, RevenueLineitemTriggerMatchesGolden) {
  ring::Catalog catalog = workload::OrdersSchema();
  auto t = sql::TranslateSql(
      catalog,
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  auto compiled = Compile(catalog, t->group_vars, t->body);
  ASSERT_TRUE(compiled.ok());
  std::string source = GenerateC(compiled->program);

  const std::string marker = "/* === trigger +lineitem === */";
  const size_t begin = source.find(marker);
  ASSERT_NE(begin, std::string::npos);
  size_t end = source.find("/* === trigger ", begin + marker.size());
  if (end == std::string::npos) {
    end = source.find("/* Loader handshake", begin);
  }
  ASSERT_NE(end, std::string::npos);
  const std::string section = source.substr(begin, end - begin);

  const std::string golden_path = std::string(RINGDB_SOURCE_DIR) +
                                  "/tests/golden/revenue_lineitem_trigger.c";
  if (std::getenv("RINGDB_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    out << section;
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), section)
      << "emitted C for the +lineitem trigger changed; if intentional, "
         "regenerate with RINGDB_REGEN_GOLDEN=1";
}

TEST(CodegenTest, RhsOpCountIsQueryConstant) {
  // The emitted statements' op counts are a static property: record them
  // for the Example 1.2 query as a regression anchor of the NC0 claim.
  ring::Catalog catalog;
  catalog.AddRelation(S("Rg4"), {S("A")});
  ExprPtr body = Expr::Mul({Expr::Relation(S("Rg4"), {Term(S("x"))}),
                            Expr::Relation(S("Rg4"), {Term(S("y"))}),
                            Expr::Cmp(CmpOp::kEq, Expr::Var(S("x")),
                                      Expr::Var(S("y")))});
  auto compiled = Compile(catalog, {}, body);
  ASSERT_TRUE(compiled.ok());
  size_t total_ops = 0;
  for (const Trigger& t : compiled->program.triggers) {
    for (const Statement& st : t.statements) {
      total_ops += st.rhs->OpCount() + 1;  // + the final +=
    }
  }
  // Small and static: every update executes at most this many ops.
  EXPECT_GT(total_ops, 0u);
  EXPECT_LT(total_ops, 24u);
}

}  // namespace
}  // namespace compiler
}  // namespace ringdb
