// Differential coverage for the columnar delta-window execution path:
// every coalesced per-relation delta reaches the executors as dense
// column arrays (exec::RelationDelta), and both the interpreter's
// gather loop and the compiled backend's native window entry points
// must agree with the AGCA reevaluation oracle — including degenerate
// windows (all-cancelling coalesced deltas, single-column relations)
// across batch sizes {1, 7, 1024}, shard counts {1, 2, 8}, and both
// backends. The second half pins the backend half of the
// counter-invariance contract: the interpreter and the compiled backend
// must produce identical results AND identical semantic operation
// counts on the same stream, per statement.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "agca/ast.h"
#include "baseline/baselines.h"
#include "ring/database.h"
#include "runtime/engine.h"
#include "util/random.h"
#include "workload/stream.h"

namespace ringdb {
namespace {

using agca::Expr;
using agca::ExprPtr;
using agca::Term;
using baseline::NaiveReevaluator;
using ring::Catalog;
using ring::Update;
using runtime::Backend;
using runtime::Engine;
using runtime::EngineOptions;

Symbol S(const char* s) { return Symbol::Intern(s); }
ExprPtr V(const char* name) { return Expr::Var(S(name)); }

bool ExpectNative() {
  return std::getenv("RINGDB_EXPECT_NATIVE") != nullptr;
}

struct Query {
  std::string name;
  Catalog catalog;
  std::vector<Symbol> relations;  // deterministic stream order
  std::vector<Symbol> group_vars;
  ExprPtr body;
};

// revenue per customer: multi-column relations, grouped result.
Query RevenueQuery() {
  Query q;
  q.name = "revenue";
  q.catalog = workload::OrdersSchema();
  q.relations = {S("orders"), S("lineitem")};
  q.group_vars = {S("c")};
  q.body = Expr::Mul(
      {Expr::Relation(S("orders"), {Term(S("o")), Term(S("c"))}),
       Expr::Relation(S("lineitem"),
                      {Term(S("o")), Term(S("p")), Term(S("q"))}),
       V("p"), V("q")});
  return q;
}

// Join of two single-column relations: every delta window has exactly
// one key column, so the columnar layout degenerates to a single dense
// array (and the native window's key chunk has arity 1).
Query SingleColumnQuery() {
  Query q;
  q.name = "single_column";
  q.catalog.AddRelation(S("R1"), {S("A")});
  q.catalog.AddRelation(S("S1"), {S("A")});
  q.relations = {S("R1"), S("S1")};
  q.group_vars = {S("x")};
  q.body = Expr::Mul({Expr::Relation(S("R1"), {Term(S("x"))}),
                      Expr::Relation(S("S1"), {Term(S("x"))})});
  return q;
}

// Random update stream over the query's relations. A small domain keeps
// coalescing and in-window cancellation frequent.
std::vector<Update> RandomStream(const Query& q, int n, uint64_t seed,
                                 double delete_fraction) {
  Rng rng(seed);
  std::vector<Update> updates;
  updates.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Symbol rel = q.relations[static_cast<size_t>(
        rng.Range(0, static_cast<int64_t>(q.relations.size()) - 1))];
    const size_t arity = q.catalog.Arity(rel);
    std::vector<Value> row;
    row.reserve(arity);
    for (size_t c = 0; c < arity; ++c) {
      row.push_back(Value(rng.Range(0, 24)));
    }
    updates.push_back(rng.Bernoulli(delete_fraction)
                          ? Update::Delete(rel, std::move(row))
                          : Update::Insert(rel, std::move(row)));
  }
  return updates;
}

// A stream whose every window coalesces to nothing: each insert is
// followed (within any window size tested) by its own delete... except
// batch size 1 never coalesces, which is exactly the point — the same
// stream must agree at every batch size anyway. A few survivors are
// mixed in so views are non-empty when the cancelling pairs arrive.
std::vector<Update> AllCancellingStream(const Query& q, int pairs,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<Update> updates;
  // Survivors first: one insert per relation that nothing cancels.
  for (const Symbol rel : q.relations) {
    std::vector<Value> row(q.catalog.Arity(rel), Value(3));
    updates.push_back(Update::Insert(rel, row));
  }
  // Then insert/delete pairs of identical tuples, back to back: every
  // window of even size over this suffix coalesces to an empty delta.
  for (int i = 0; i < pairs; ++i) {
    const Symbol rel = q.relations[static_cast<size_t>(
        rng.Range(0, static_cast<int64_t>(q.relations.size()) - 1))];
    const size_t arity = q.catalog.Arity(rel);
    std::vector<Value> row;
    for (size_t c = 0; c < arity; ++c) {
      row.push_back(Value(rng.Range(0, 8)));
    }
    updates.push_back(Update::Insert(rel, row));
    updates.push_back(Update::Delete(rel, row));
  }
  return updates;
}

// Applies `updates` through a batched engine and checks the result GMR
// against the AGCA reevaluation oracle at every window boundary.
void RunDifferential(const Query& q, const std::vector<Update>& updates,
                     size_t batch_size, size_t shards, Backend backend) {
  SCOPED_TRACE(q.name + " batch=" + std::to_string(batch_size) +
               " shards=" + std::to_string(shards) + " backend=" +
               (backend == Backend::kCompile ? "compile" : "interpret"));
  EngineOptions options;
  options.batch_size = batch_size;
  options.num_shards = shards;
  options.backend = backend;
  auto engine = Engine::Create(q.catalog, q.group_vars, q.body, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  if (backend == Backend::kCompile && !engine->native_enabled()) {
    if (ExpectNative()) {
      FAIL() << "native expected: " << engine->native_status().ToString();
    }
    GTEST_SKIP() << engine->native_status().ToString();
  }
  NaiveReevaluator oracle(q.catalog, q.group_vars, q.body);

  const size_t window = 512;  // oracle checkpoint, not the engine batch
  for (size_t i = 0; i < updates.size(); i += window) {
    const size_t end = std::min(updates.size(), i + window);
    std::vector<Update> slice(
        updates.begin() + static_cast<ptrdiff_t>(i),
        updates.begin() + static_cast<ptrdiff_t>(end));
    ASSERT_TRUE(engine->ApplyBatch(slice).ok());
    for (const Update& u : slice) oracle.Load(u);
    ASSERT_TRUE(oracle.Refresh().ok());
    ASSERT_EQ(engine->ResultGmr(), oracle.ResultGmr())
        << "divergence after " << end << " updates";
  }
}

class ColumnarWindowTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ColumnarWindowTest, RandomStreamMatchesOracle) {
  const size_t shards = GetParam();
  for (Query q : {RevenueQuery(), SingleColumnQuery()}) {
    const std::vector<Update> updates =
        RandomStream(q, 2048, /*seed=*/901, /*delete_fraction=*/0.3);
    for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
      for (Backend backend : {Backend::kInterpret, Backend::kCompile}) {
        RunDifferential(q, updates, batch, shards, backend);
        if (HasFatalFailure() || IsSkipped()) return;
      }
    }
  }
}

TEST_P(ColumnarWindowTest, AllCancellingWindowsMatchOracle) {
  const size_t shards = GetParam();
  for (Query q : {RevenueQuery(), SingleColumnQuery()}) {
    const std::vector<Update> updates =
        AllCancellingStream(q, /*pairs=*/512, /*seed=*/77);
    for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
      for (Backend backend : {Backend::kInterpret, Backend::kCompile}) {
        RunDifferential(q, updates, batch, shards, backend);
        if (HasFatalFailure() || IsSkipped()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ColumnarWindowTest,
                         ::testing::Values<size_t>(1, 2, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "shards_" + std::to_string(info.param);
                         });

// ---- Interpreter-vs-compiled backend invariance -------------------------

struct RunOutcome {
  ring::Gmr gmr;
  runtime::Executor::Stats totals;
  std::vector<Engine::StmtStats> statements;
};

std::optional<RunOutcome> RunOnce(const Query& q,
                                  const std::vector<Update>& updates,
                                  size_t shards, Backend backend) {
  EngineOptions options;
  options.batch_size = 1024;
  options.num_shards = shards;
  options.backend = backend;
  auto engine = Engine::Create(q.catalog, q.group_vars, q.body, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return std::nullopt;
  if (backend == Backend::kCompile && !engine->native_enabled()) {
    EXPECT_FALSE(ExpectNative()) << engine->native_status().ToString();
    return std::nullopt;
  }
  EXPECT_TRUE(engine->ApplyBatch(updates).ok());
  RunOutcome out;
  out.gmr = engine->ResultGmr();
  Engine::EngineStats st = engine->Stats();
  out.totals = st.totals;
  out.statements = std::move(st.statements);
  return out;
}

// The semantic counters that the contract pins across backends.
// Excluded: native_calls / interp_calls (dispatch split is profile-
// guided, so timing-dependent) and arithmetic_ops (documented as
// instrumentation of arithmetic actually performed — native windows
// do not instrument rhs ops).
void ExpectSameCounters(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.gmr, b.gmr);
  EXPECT_EQ(a.totals.updates, b.totals.updates);
  EXPECT_EQ(a.totals.statements_run, b.totals.statements_run);
  EXPECT_EQ(a.totals.entries_touched, b.totals.entries_touched);
  EXPECT_EQ(a.totals.delta_entries, b.totals.delta_entries);
  EXPECT_EQ(a.totals.scaled_firings, b.totals.scaled_firings);
  ASSERT_EQ(a.statements.size(), b.statements.size());
  for (size_t i = 0; i < a.statements.size(); ++i) {
    SCOPED_TRACE(a.statements[i].label);
    EXPECT_EQ(a.statements[i].counters.invocations,
              b.statements[i].counters.invocations);
    EXPECT_EQ(a.statements[i].counters.loop_iterations,
              b.statements[i].counters.loop_iterations);
    EXPECT_EQ(a.statements[i].counters.probes,
              b.statements[i].counters.probes);
    EXPECT_EQ(a.statements[i].counters.emissions,
              b.statements[i].counters.emissions);
  }
}

TEST(BackendInvarianceTest, InterpreterAndCompiledAgreeOnCounters) {
  const Query q = RevenueQuery();
  const std::vector<Update> updates =
      RandomStream(q, 4096, /*seed=*/555, /*delete_fraction=*/0.25);
  NaiveReevaluator oracle(q.catalog, q.group_vars, q.body);
  for (const Update& u : updates) oracle.Load(u);
  ASSERT_TRUE(oracle.Refresh().ok());
  for (size_t shards : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::optional<RunOutcome> interp =
        RunOnce(q, updates, shards, Backend::kInterpret);
    const std::optional<RunOutcome> native =
        RunOnce(q, updates, shards, Backend::kCompile);
    ASSERT_TRUE(interp);
    EXPECT_EQ(interp->gmr, oracle.ResultGmr());
    if (!native) GTEST_SKIP() << "compiled backend unavailable";
    ExpectSameCounters(*interp, *native);
  }
}

}  // namespace
}  // namespace ringdb
