// The recursive IVM compiler: Example 1.2's exact table, Example 1.3's
// factorized delta structure, CSE across the view hierarchy, NC0C code
// generation, and the constant-operation property (E9).

#include <gtest/gtest.h>

#include <string>

#include "agca/ast.h"
#include "compiler/codegen_c.h"
#include "compiler/compile.h"
#include "runtime/engine.h"

namespace ringdb {
namespace compiler {
namespace {

using agca::CmpOp;
using agca::Expr;
using agca::ExprPtr;
using agca::Term;
using ring::Catalog;
using runtime::Engine;

Symbol S(const char* s) { return Symbol::Intern(s); }
ExprPtr V(const char* name) { return Expr::Var(S(name)); }

// ---- Example 1.2: select count(*) from R r1, R r2 where r1.A = r2.A ----

class Example12 : public ::testing::Test {
 protected:
  Catalog catalog_;
  Symbol R_ = S("R12");

  void SetUp() override { catalog_.AddRelation(R_, {S("A")}); }

  ExprPtr Query() const {
    return Expr::Mul({Expr::Relation(R_, {Term(S("r1"))}),
                      Expr::Relation(R_, {Term(S("r2"))}),
                      Expr::Cmp(CmpOp::kEq, V("r1"), V("r2"))});
  }
};

TEST_F(Example12, PaperUpdateSequence) {
  auto engine = Engine::Create(catalog_, {}, Query());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Value c("c"), d("d");

  // The Q(R) column of the Example 1.2 table.
  EXPECT_EQ(engine->ResultScalar(), Numeric(0));
  ASSERT_TRUE(engine->Insert(R_, {c}).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric(1));
  ASSERT_TRUE(engine->Insert(R_, {c}).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric(4));
  ASSERT_TRUE(engine->Insert(R_, {d}).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric(5));
  ASSERT_TRUE(engine->Insert(R_, {c}).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric(10));
  ASSERT_TRUE(engine->Delete(R_, {d}).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric(9));
  ASSERT_TRUE(engine->Insert(R_, {c}).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric(16));
  ASSERT_TRUE(engine->Delete(R_, {c}).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric(9));
}

TEST_F(Example12, HierarchyHasDegreeOneAuxiliaryView) {
  auto engine = Engine::Create(catalog_, {}, Query());
  ASSERT_TRUE(engine.ok());
  const TriggerProgram& p = engine->program();
  // Root (degree 2) plus one auxiliary view m1[a] = count per value
  // (degree 1); the second delta is constant and stays inline.
  ASSERT_EQ(p.views.size(), 2u);
  EXPECT_EQ(p.view(p.root_view).degree, 2);
  EXPECT_EQ(p.views[1].degree, 1);
  EXPECT_EQ(p.views[1].key_vars.size(), 1u);
}

TEST_F(Example12, CseUnifiesTheTwoSymmetricDeltaViews) {
  // Delta w.r.t. r1's atom and r2's atom both need "count of value a in
  // R"; CSE must materialize it once.
  auto engine = Engine::Create(catalog_, {}, Query());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->program().views.size(), 2u);
}

TEST_F(Example12, ConstantOpsPerUpdate) {
  auto engine = Engine::Create(catalog_, {}, Query());
  ASSERT_TRUE(engine.ok());
  // Grow the database, recording ops per update: must stay bounded by a
  // constant independent of database size, and become exactly constant
  // once every view entry is populated (zero-valued deltas short-circuit
  // and skip a few ops during warm-up).
  uint64_t steady = 0;
  for (int i = 0; i < 256; ++i) {
    uint64_t before = engine->executor().stats().arithmetic_ops;
    ASSERT_TRUE(engine->Insert(R_, {Value(int64_t{i % 4})}).ok());
    uint64_t ops = engine->executor().stats().arithmetic_ops - before;
    EXPECT_GT(ops, 0u);
    EXPECT_LT(ops, 32u) << "update " << i;
    if (i == 8) steady = ops;
    if (i > 8) EXPECT_EQ(ops, steady) << "update " << i;
  }
}

// ---- Example 1.3: factorization ----

class Example13 : public ::testing::Test {
 protected:
  Catalog catalog_;

  void SetUp() override {
    catalog_.AddRelation(S("R13"), {S("A"), S("B")});
    catalog_.AddRelation(S("S13"), {S("C"), S("D")});
    catalog_.AddRelation(S("T13"), {S("E"), S("F")});
  }

  // select sum(A*F) from R, S, T where B = C and D = E, written with
  // shared variables for the equalities.
  ExprPtr Query() const {
    return Expr::Mul(
        {Expr::Relation(S("R13"), {Term(S("a")), Term(S("b"))}),
         Expr::Relation(S("S13"), {Term(S("b")), Term(S("d"))}),
         Expr::Relation(S("T13"), {Term(S("d")), Term(S("f"))}),
         V("a"), V("f")});
  }
};

TEST_F(Example13, DeltaOnSFactorizesIntoTwoLinearViews) {
  auto compiled = Compile(catalog_, {}, Query());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const TriggerProgram& p = compiled->program;

  // Find the +S trigger and its statement for the root view.
  const Trigger* s_trigger = nullptr;
  for (const Trigger& t : p.triggers) {
    if (t.relation == S("S13") && t.sign == ring::Update::Sign::kInsert) {
      s_trigger = &t;
    }
  }
  ASSERT_NE(s_trigger, nullptr);
  const Statement* root_stmt = nullptr;
  for (const Statement& st : s_trigger->statements) {
    if (st.target_view == p.root_view) root_stmt = &st;
  }
  ASSERT_NE(root_stmt, nullptr);
  // Q += (dQ)1(c) * (dQ)2(d): two independent view lookups, no loops.
  EXPECT_TRUE(root_stmt->loops.empty());
  ASSERT_EQ(root_stmt->rhs->kind(), TExpr::Kind::kMul);
  int lookups = 0;
  for (const auto& child : root_stmt->rhs->children()) {
    if (child->kind() == TExpr::Kind::kViewLookup) ++lookups;
  }
  EXPECT_EQ(lookups, 2);

  // The two factor views are unary (linear space), not the quadratic
  // unfactorized Delta.
  for (const auto& child : root_stmt->rhs->children()) {
    if (child->kind() == TExpr::Kind::kViewLookup) {
      EXPECT_EQ(p.view(child->view_id()).key_vars.size(), 1u);
    }
  }
}

TEST_F(Example13, EndToEndSumOfProducts) {
  auto engine = Engine::Create(catalog_, {}, Query());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // R(a=2, b=1), S(c=1, d=5), T(e=5, f=7) joins: sum += 2*7.
  ASSERT_TRUE(engine->Insert(S("R13"), {Value(2), Value(1)}).ok());
  ASSERT_TRUE(engine->Insert(S("S13"), {Value(1), Value(5)}).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric(0));  // no T yet
  ASSERT_TRUE(engine->Insert(S("T13"), {Value(5), Value(7)}).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric(14));
  // A second R row with the same join key doubles the A contribution.
  ASSERT_TRUE(engine->Insert(S("R13"), {Value(3), Value(1)}).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric((2 + 3) * 7));
  // Deleting S empties the join.
  ASSERT_TRUE(engine->Delete(S("S13"), {Value(1), Value(5)}).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric(0));
}

// ---- Grouped query (Example 5.2 shape) ----

TEST(CompilerGroupedTest, PerNationCustomerCount) {
  Catalog catalog;
  catalog.AddRelation(S("C"), {S("cid"), S("nation")});
  ExprPtr body =
      Expr::Mul({Expr::Relation(S("C"), {Term(S("c")), Term(S("n"))}),
                 Expr::Relation(S("C"), {Term(S("c2")), Term(S("n"))})});
  auto engine = Engine::Create(catalog, {S("c")}, body);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine->Insert(S("C"), {Value(1), Value("CH")}).ok());
  ASSERT_TRUE(engine->Insert(S("C"), {Value(2), Value("CH")}).ok());
  ASSERT_TRUE(engine->Insert(S("C"), {Value(3), Value("AT")}).ok());
  EXPECT_EQ(engine->ResultAt({Value(1)}), Numeric(2));
  EXPECT_EQ(engine->ResultAt({Value(2)}), Numeric(2));
  EXPECT_EQ(engine->ResultAt({Value(3)}), Numeric(1));
  // Customer 3 moves to CH: counts become 3, 3, gone, 3.
  ASSERT_TRUE(engine->Delete(S("C"), {Value(3), Value("AT")}).ok());
  ASSERT_TRUE(engine->Insert(S("C"), {Value(3), Value("CH")}).ok());
  EXPECT_EQ(engine->ResultAt({Value(1)}), Numeric(3));
  EXPECT_EQ(engine->ResultAt({Value(3)}), Numeric(3));
  EXPECT_EQ(engine->ResultGmr().SupportSize(), 3u);
}

// ---- NC0C code generation ----

TEST(CodegenTest, EmitsStatementFunctionsPerTrigger) {
  Catalog catalog;
  catalog.AddRelation(S("Rcg"), {S("A")});
  ExprPtr body = Expr::Mul({Expr::Relation(S("Rcg"), {Term(S("x"))}),
                            Expr::Relation(S("Rcg"), {Term(S("y"))}),
                            Expr::Cmp(CmpOp::kEq, V("x"), V("y"))});
  auto compiled = Compile(catalog, {}, body);
  ASSERT_TRUE(compiled.ok());
  CodegenModule mod = GenerateModule(compiled->program);
  ASSERT_EQ(mod.stmts.size(), compiled->program.triggers.size());
  EXPECT_GT(mod.emitted_statements, 0u);
  // Every statement of this non-lazy program is emitted, each trigger
  // gets a marker section, and exported names follow rdb_t<T>_s<S>_w
  // (the columnar-window entry point, the only one a module exports).
  for (size_t t = 0; t < mod.stmts.size(); ++t) {
    const Trigger& trigger = compiled->program.triggers[t];
    std::string marker =
        std::string("/* === trigger ") +
        (trigger.sign == ring::Update::Sign::kInsert ? "+" : "-") +
        trigger.relation.str() + " === */";
    EXPECT_NE(mod.source.find(marker), std::string::npos) << marker;
    ASSERT_EQ(mod.stmts[t].size(), trigger.statements.size());
    for (size_t s = 0; s < mod.stmts[t].size(); ++s) {
      EXPECT_TRUE(mod.stmts[t][s].emitted);
      const std::string name = "rdb_t" + std::to_string(t) + "_s" +
                               std::to_string(s) + "_w";
      EXPECT_EQ(mod.stmts[t][s].win_fn, name);
      std::string decl = "void " + name +
                         "(const RdbHostApi* api, void* ctx, "
                         "const RdbColWin* win)";
      EXPECT_NE(mod.source.find(decl), std::string::npos) << decl;
    }
  }
  // No loops are needed for this fully update-bound query: emissions go
  // straight through the host api (direct add — no statement reads its
  // own target), no enumeration calls.
  EXPECT_EQ(mod.source.find("->foreach"), std::string::npos);
  EXPECT_NE(mod.source.find("->add_span("), std::string::npos);
  // Loader handshake symbols are always present.
  EXPECT_NE(mod.source.find("rdb_abi_version"), std::string::npos);
  EXPECT_NE(mod.source.find("rdb_abi_layout"), std::string::npos);
}

// ---- Error paths ----

TEST(CompilerErrorsTest, ReservedVariablePrefixRejected) {
  Catalog catalog;
  catalog.AddRelation(S("Rz"), {S("A")});
  auto c = Compile(catalog, {},
                   Expr::Relation(S("Rz"), {Term(S("@bad"))}));
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompilerErrorsTest, NonSimpleConditionUnimplemented) {
  Catalog catalog;
  catalog.AddRelation(S("Ry"), {S("A")});
  ExprPtr nested = Expr::Cmp(
      CmpOp::kLt, Expr::Sum({}, Expr::Relation(S("Ry"), {Term(S("y"))})),
      Expr::Const(Numeric(2)));
  auto c = Compile(catalog, {},
                   Expr::Mul({Expr::Relation(S("Ry"), {Term(S("x"))}),
                              nested}));
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kUnimplemented);
}

// ---- Statement ordering (Equation (1)) ----

TEST_F(Example12, StatementsOrderedByDescendingDegree) {
  auto compiled = Compile(catalog_, {}, Query());
  ASSERT_TRUE(compiled.ok());
  for (const Trigger& t : compiled->program.triggers) {
    int last = 1 << 20;
    for (const Statement& s : t.statements) {
      int deg = compiled->program.view(s.target_view).degree;
      EXPECT_LE(deg, last);
      last = deg;
    }
  }
}

}  // namespace
}  // namespace compiler
}  // namespace ringdb
