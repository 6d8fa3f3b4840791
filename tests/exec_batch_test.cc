// Batch execution subsystem: BatchBuilder coalescing (cancellation, net
// multiplicities, ordering, validation), partition-scheme derivation
// (sound schemes found, unsound ones refused), and ShardedExecutor
// equivalence with the sequential engine at 1, 2, and 8 shards —
// including the multiplicity-linear scaled-firing fast path and the
// unit-firing fallback for nonlinear (self-join) triggers.

#include <gtest/gtest.h>

#include <vector>

#include "agca/ast.h"
#include "exec/batch.h"
#include "exec/partition.h"
#include "exec/sharded_executor.h"
#include "ring/database.h"
#include "runtime/engine.h"
#include "util/random.h"
#include "workload/stream.h"

namespace ringdb {
namespace {

using agca::CmpOp;
using agca::Expr;
using agca::ExprPtr;
using agca::Term;
using exec::BatchBuilder;
using exec::DerivePartitionScheme;
using exec::PartitionScheme;
using exec::UpdateBatch;
using ring::Catalog;
using ring::Update;
using runtime::Engine;
using runtime::EngineOptions;

Symbol S(const char* s) { return Symbol::Intern(s); }
ExprPtr V(const char* name) { return Expr::Var(S(name)); }

Catalog OrdersCatalog() { return workload::OrdersSchema(); }

// ---- BatchBuilder -----------------------------------------------------

TEST(BatchBuilderTest, CoalescesAndCancels) {
  Catalog catalog = OrdersCatalog();
  BatchBuilder builder(catalog);
  Symbol orders = S("orders");
  // +t1, +t1, +t2, -t1: t1 nets to +1, t2 to +1.
  ASSERT_TRUE(builder.Add(Update::Insert(orders, {Value(1), Value(10)})).ok());
  ASSERT_TRUE(builder.Add(Update::Insert(orders, {Value(1), Value(10)})).ok());
  ASSERT_TRUE(builder.Add(Update::Insert(orders, {Value(2), Value(20)})).ok());
  ASSERT_TRUE(builder.Add(Update::Delete(orders, {Value(1), Value(10)})).ok());
  EXPECT_EQ(builder.pending_updates(), 4u);

  UpdateBatch batch = builder.Build();
  EXPECT_EQ(builder.pending_updates(), 0u);
  ASSERT_EQ(batch.deltas().size(), 1u);
  const exec::RelationDelta& delta = batch.deltas()[0];
  EXPECT_EQ(delta.relation, orders);
  ASSERT_EQ(delta.size(), 2u);
  ASSERT_EQ(delta.arity(), 2u);
  // First-touch order survives coalescing; row r of the columnar delta is
  // (columns[0][r], ..., columns[arity-1][r]) -> mults[r].
  EXPECT_EQ(delta.columns[0][0], Value(1));
  EXPECT_EQ(delta.mults[0], Numeric(1));
  EXPECT_EQ(delta.columns[0][1], Value(2));
  EXPECT_EQ(delta.mults[1], Numeric(1));
  EXPECT_EQ(delta.columns[1][0], Value(10));
  EXPECT_EQ(delta.columns[1][1], Value(20));
}

TEST(BatchBuilderTest, FullCancellationYieldsEmptyBatch) {
  Catalog catalog = OrdersCatalog();
  BatchBuilder builder(catalog);
  Symbol orders = S("orders");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        builder.Add(Update::Insert(orders, {Value(7), Value(7)})).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        builder.Add(Update::Delete(orders, {Value(7), Value(7)})).ok());
  }
  UpdateBatch batch = builder.Build();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.EntryCount(), 0u);
}

TEST(BatchBuilderTest, NetMultiplicityAccumulates) {
  Catalog catalog = OrdersCatalog();
  BatchBuilder builder(catalog);
  Symbol lineitem = S("lineitem");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        builder
            .Add(Update::Insert(lineitem, {Value(1), Value(5), Value(2)}))
            .ok());
  }
  UpdateBatch batch = builder.Build();
  ASSERT_EQ(batch.EntryCount(), 1u);
  EXPECT_EQ(batch.deltas()[0].mults[0], Numeric(4));
  EXPECT_EQ(batch.TupleUnits(), 4u);
}

TEST(BatchBuilderTest, PreservesRelationFirstTouchOrder) {
  Catalog catalog = OrdersCatalog();
  BatchBuilder builder(catalog);
  ASSERT_TRUE(
      builder.Add(Update::Insert(S("lineitem"), {Value(1), Value(2), Value(3)}))
          .ok());
  ASSERT_TRUE(
      builder.Add(Update::Insert(S("orders"), {Value(1), Value(2)})).ok());
  UpdateBatch batch = builder.Build();
  ASSERT_EQ(batch.deltas().size(), 2u);
  EXPECT_EQ(batch.deltas()[0].relation, S("lineitem"));
  EXPECT_EQ(batch.deltas()[1].relation, S("orders"));
}

TEST(BatchBuilderTest, RejectsUnknownRelationAndArityMismatch) {
  Catalog catalog = OrdersCatalog();
  BatchBuilder builder(catalog);
  Status unknown = builder.Add(Update::Insert(S("nope"), {Value(1)}));
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  Status arity = builder.Add(Update::Insert(S("orders"), {Value(1)}));
  EXPECT_EQ(arity.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(builder.Build().empty());
}

// ---- Partition scheme derivation --------------------------------------

TEST(PartitionSchemeTest, EquiJoinOnSharedVariableIsPartitionable) {
  Catalog catalog = OrdersCatalog();
  // revenue per customer: orders(o, c) join lineitem(o, p, q) on o.
  ExprPtr body = Expr::Mul(
      {Expr::Relation(S("orders"), {Term(S("o")), Term(S("c"))}),
       Expr::Relation(S("lineitem"), {Term(S("o")), Term(S("p")), Term(S("q"))}),
       V("p"), V("q")});
  PartitionScheme scheme = DerivePartitionScheme(catalog, {S("c")}, body);
  ASSERT_TRUE(scheme.valid);
  EXPECT_EQ(scheme.route_column.at(S("orders")), 0u);
  EXPECT_EQ(scheme.route_column.at(S("lineitem")), 0u);
}

TEST(PartitionSchemeTest, ExplicitEqualityJoinsOneClass) {
  Catalog catalog;
  catalog.AddRelation(S("Rp"), {S("A")});
  ExprPtr body = Expr::Mul({Expr::Relation(S("Rp"), {Term(S("x"))}),
                            Expr::Relation(S("Rp"), {Term(S("y"))}),
                            Expr::Cmp(CmpOp::kEq, V("x"), V("y"))});
  PartitionScheme scheme = DerivePartitionScheme(catalog, {}, body);
  ASSERT_TRUE(scheme.valid);
  EXPECT_EQ(scheme.route_column.at(S("Rp")), 0u);
}

TEST(PartitionSchemeTest, InequalityJoinIsNotPartitionable) {
  Catalog catalog;
  catalog.AddRelation(S("Rq"), {S("A")});
  catalog.AddRelation(S("Sq"), {S("A")});
  ExprPtr body = Expr::Mul({Expr::Relation(S("Rq"), {Term(S("x"))}),
                            Expr::Relation(S("Sq"), {Term(S("y"))}),
                            Expr::Cmp(CmpOp::kLt, V("x"), V("y"))});
  EXPECT_FALSE(DerivePartitionScheme(catalog, {}, body).valid);
}

TEST(PartitionSchemeTest, ChainJoinIsNotPartitionable) {
  Catalog catalog;
  catalog.AddRelation(S("Rc"), {S("A"), S("B")});
  catalog.AddRelation(S("Sc"), {S("B"), S("C")});
  catalog.AddRelation(S("Tc"), {S("C"), S("D")});
  // R(a,b) S(b,c) T(c,d): no single variable reaches all three atoms.
  ExprPtr body = Expr::Mul(
      {Expr::Relation(S("Rc"), {Term(S("a")), Term(S("b"))}),
       Expr::Relation(S("Sc"), {Term(S("b")), Term(S("c"))}),
       Expr::Relation(S("Tc"), {Term(S("c")), Term(S("d"))})});
  EXPECT_FALSE(DerivePartitionScheme(catalog, {}, body).valid);
}

TEST(PartitionSchemeTest, SumOfIndependentCountsIsPartitionable) {
  Catalog catalog;
  catalog.AddRelation(S("Ri"), {S("A")});
  catalog.AddRelation(S("Si"), {S("A")});
  ExprPtr body = Expr::Add({Expr::Relation(S("Ri"), {Term(S("x"))}),
                            Expr::Neg(Expr::Relation(S("Si"), {Term(S("y"))}))});
  PartitionScheme scheme = DerivePartitionScheme(catalog, {}, body);
  ASSERT_TRUE(scheme.valid);
  EXPECT_EQ(scheme.route_column.at(S("Ri")), 0u);
  EXPECT_EQ(scheme.route_column.at(S("Si")), 0u);
}

// ---- Sharded / batched execution equivalence --------------------------

struct BatchQuery {
  Catalog catalog;
  std::vector<Symbol> group_vars;
  ExprPtr body;
};

// revenue per customer (linear in both relations, partitionable by okey).
BatchQuery RevenueQuery() {
  BatchQuery q;
  q.catalog = OrdersCatalog();
  q.group_vars = {S("c")};
  q.body = Expr::Mul(
      {Expr::Relation(S("orders"), {Term(S("o")), Term(S("c"))}),
       Expr::Relation(S("lineitem"), {Term(S("o")), Term(S("p")), Term(S("q"))}),
       V("p"), V("q")});
  return q;
}

// per-value pair count (nonlinear self-join: exercises unit-firing).
BatchQuery SelfJoinQuery() {
  BatchQuery q;
  q.catalog.AddRelation(S("Rz"), {S("A")});
  q.body = Expr::Mul({Expr::Relation(S("Rz"), {Term(S("x"))}),
                      Expr::Relation(S("Rz"), {Term(S("y"))}),
                      Expr::Cmp(CmpOp::kEq, V("x"), V("y"))});
  return q;
}

std::vector<Update> RandomOrdersStream(int n, uint64_t seed, double zipf_s,
                                       double delete_fraction) {
  workload::StreamOptions options;
  options.seed = seed;
  options.domain_size = 64;  // small domain: coalescing actually happens
  options.zipf_s = zipf_s;
  options.delete_fraction = delete_fraction;
  Catalog catalog = OrdersCatalog();
  std::vector<workload::RelationStream> streams;
  streams.emplace_back(catalog, S("orders"), options);
  streams.emplace_back(catalog, S("lineitem"), options);
  workload::RoundRobinStream rr(std::move(streams));
  std::vector<Update> updates;
  updates.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) updates.push_back(rr.Next());
  return updates;
}

class ShardedEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardedEquivalenceTest, BatchedShardedMatchesSequential) {
  const size_t num_shards = GetParam();
  BatchQuery q = RevenueQuery();

  auto reference = Engine::Create(q.catalog, q.group_vars, q.body);
  ASSERT_TRUE(reference.ok());
  EngineOptions options;
  options.batch_size = 64;
  options.num_shards = num_shards;
  auto batched = Engine::Create(q.catalog, q.group_vars, q.body, options);
  ASSERT_TRUE(batched.ok());
  EXPECT_EQ(batched->num_shards(), num_shards);  // scheme is valid

  std::vector<Update> updates =
      RandomOrdersStream(2000, /*seed=*/42, /*zipf_s=*/1.1,
                         /*delete_fraction=*/0.25);
  // Apply in windows so intermediate states are compared too.
  for (size_t i = 0; i < updates.size(); i += 500) {
    std::vector<Update> window(
        updates.begin() + static_cast<ptrdiff_t>(i),
        updates.begin() + static_cast<ptrdiff_t>(std::min(i + 500,
                                                          updates.size())));
    for (const Update& u : window) ASSERT_TRUE(reference->Apply(u).ok());
    ASSERT_TRUE(batched->ApplyBatch(window).ok());
    ASSERT_EQ(reference->ResultGmr(), batched->ResultGmr())
        << "divergence after " << (i + window.size()) << " updates at "
        << num_shards << " shards";
  }
  // Point lookups agree as well (merged over shards).
  for (int c = 0; c < 64; ++c) {
    ASSERT_EQ(reference->ResultAt({Value(c)}), batched->ResultAt({Value(c)}));
  }
}

TEST_P(ShardedEquivalenceTest, NonlinearSelfJoinMatchesSequential) {
  const size_t num_shards = GetParam();
  BatchQuery q = SelfJoinQuery();

  auto reference = Engine::Create(q.catalog, q.group_vars, q.body);
  ASSERT_TRUE(reference.ok());
  EngineOptions options;
  options.batch_size = 32;
  options.num_shards = num_shards;
  auto batched = Engine::Create(q.catalog, q.group_vars, q.body, options);
  ASSERT_TRUE(batched.ok());

  // Tiny domain: many duplicate tuples per batch, so net multiplicities
  // routinely exceed 1 and the nonlinear fallback must fire per unit.
  Rng rng(7);
  std::vector<Update> updates;
  for (int i = 0; i < 600; ++i) {
    std::vector<Value> row = {Value(rng.Range(0, 4))};
    updates.push_back(rng.Bernoulli(0.6) ? Update::Insert(S("Rz"), row)
                                         : Update::Delete(S("Rz"), row));
  }
  for (const Update& u : updates) ASSERT_TRUE(reference->Apply(u).ok());
  ASSERT_TRUE(batched->ApplyBatch(updates).ok());
  EXPECT_EQ(reference->ResultScalar(), batched->ResultScalar());
  EXPECT_EQ(reference->ResultGmr(), batched->ResultGmr());
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedEquivalenceTest,
                         ::testing::Values<size_t>(1, 2, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "shards_" + std::to_string(info.param);
                         });

TEST(ShardedExecutorTest, UnpartitionableQueryFallsBackToOneShard) {
  Catalog catalog;
  catalog.AddRelation(S("Ru"), {S("A")});
  catalog.AddRelation(S("Su"), {S("A")});
  ExprPtr body = Expr::Mul({Expr::Relation(S("Ru"), {Term(S("x"))}),
                            Expr::Relation(S("Su"), {Term(S("y"))}),
                            Expr::Cmp(CmpOp::kLt, V("x"), V("y"))});
  EngineOptions options;
  options.num_shards = 8;
  auto engine = Engine::Create(catalog, {}, body, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->num_shards(), 1u);
  EXPECT_FALSE(engine->partition_scheme().valid);

  // Still correct, of course.
  auto reference = Engine::Create(catalog, {}, body);
  ASSERT_TRUE(reference.ok());
  Rng rng(11);
  std::vector<Update> updates;
  for (int i = 0; i < 200; ++i) {
    Symbol rel = rng.Bernoulli(0.5) ? S("Ru") : S("Su");
    std::vector<Value> row = {Value(rng.Range(0, 20))};
    updates.push_back(rng.Bernoulli(0.7) ? Update::Insert(rel, row)
                                         : Update::Delete(rel, row));
  }
  for (const Update& u : updates) ASSERT_TRUE(reference->Apply(u).ok());
  ASSERT_TRUE(engine->ApplyBatch(updates).ok());
  EXPECT_EQ(reference->ResultScalar(), engine->ResultScalar());
}

TEST(ShardedExecutorTest, ScaledFiringUsedForLinearTriggers) {
  BatchQuery q = RevenueQuery();
  EngineOptions options;
  options.batch_size = 128;
  auto engine = Engine::Create(q.catalog, q.group_vars, q.body, options);
  ASSERT_TRUE(engine.ok());
  // Every trigger of this query is linear in its relation.
  for (const auto& trigger : engine->program().triggers) {
    EXPECT_TRUE(trigger.multiplicity_linear)
        << trigger.relation.str() << " trigger unexpectedly nonlinear";
  }
  // One batch with the same lineitem row 10 times: one scaled firing.
  std::vector<Update> updates(
      10, Update::Insert(S("lineitem"), {Value(1), Value(3), Value(2)}));
  updates.push_back(Update::Insert(S("orders"), {Value(1), Value(9)}));
  ASSERT_TRUE(engine->ApplyBatch(updates).ok());
  const auto& stats = engine->executor().stats();
  EXPECT_EQ(stats.updates, 11u);
  EXPECT_EQ(stats.delta_entries, 2u);
  EXPECT_EQ(stats.scaled_firings, 1u);
  EXPECT_EQ(engine->ResultAt({Value(9)}), Numeric(60));

  // Multi-entry delta GMR (grouped statement-major path): two distinct
  // lineitem tuples, each net multiplicity 5, count as two scaled firings.
  std::vector<Update> second;
  for (int i = 0; i < 5; ++i) {
    second.push_back(
        Update::Insert(S("lineitem"), {Value(1), Value(2), Value(1)}));
    second.push_back(
        Update::Insert(S("lineitem"), {Value(1), Value(4), Value(1)}));
  }
  ASSERT_TRUE(engine->ApplyBatch(second).ok());
  EXPECT_EQ(engine->executor().stats().scaled_firings, 3u);
  // 60 + 5*(2 + 4) for customer 9's order 1.
  EXPECT_EQ(engine->ResultAt({Value(9)}), Numeric(90));
}

TEST(ShardedExecutorTest, SelfJoinTriggerIsNonlinear) {
  BatchQuery q = SelfJoinQuery();
  auto engine = Engine::Create(q.catalog, q.group_vars, q.body);
  ASSERT_TRUE(engine.ok());
  for (const auto& trigger : engine->program().triggers) {
    EXPECT_FALSE(trigger.multiplicity_linear);
  }
  // Net multiplicity 3 of one tuple: 3*3 = 9 ordered pairs.
  std::vector<Update> updates(3, Update::Insert(S("Rz"), {Value(5)}));
  ASSERT_TRUE(engine->ApplyBatch(updates).ok());
  EXPECT_EQ(engine->ResultScalar(), Numeric(9));
}

TEST(ShardedExecutorTest, MalformedSingleTupleUpdateIsRejectedNotRouted) {
  BatchQuery q = RevenueQuery();
  EngineOptions options;
  options.num_shards = 2;
  auto engine = Engine::Create(q.catalog, q.group_vars, q.body, options);
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ(engine->num_shards(), 2u);
  // Arity-short tuple must surface InvalidArgument, not index the routing
  // column out of bounds.
  Status s = engine->Apply(Update::Insert(S("orders"), {}));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  s = engine->Apply(Update::Insert(S("ghost"), {Value(1)}));
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(ShardedExecutorTest, FailedBatchAppliesValidPrefixWithoutLeaking) {
  BatchQuery q = RevenueQuery();
  EngineOptions options;
  options.batch_size = 1024;
  auto engine = Engine::Create(q.catalog, q.group_vars, q.body, options);
  ASSERT_TRUE(engine.ok());
  std::vector<Update> mixed = {
      Update::Insert(S("orders"), {Value(1), Value(5)}),
      Update::Insert(S("lineitem"), {Value(1), Value(10), Value(1)}),
      Update::Insert(S("ghost"), {Value(1)}),
  };
  Status status = engine->ApplyBatch(mixed);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  // Sequential semantics: the prefix before the bad update is applied...
  EXPECT_EQ(engine->ResultAt({Value(5)}), Numeric(10));
  // ...and nothing lingers in the builder to replay into a later batch.
  ASSERT_TRUE(
      engine->ApplyBatch({Update::Insert(S("orders"), {Value(2), Value(7)})})
          .ok());
  EXPECT_EQ(engine->ResultAt({Value(5)}), Numeric(10));
  EXPECT_EQ(engine->ResultGmr().SupportSize(), 1u);
}

TEST(SplittableStreamTest, ChildStreamsAreDeterministicAndDistinct) {
  Catalog catalog = OrdersCatalog();
  workload::StreamOptions options;
  options.seed = 77;
  options.domain_size = 1000;
  workload::RelationStream parent(catalog, S("orders"), options);

  workload::RelationStream child_a = parent.Split(0);
  workload::RelationStream child_a_again = parent.Split(0);
  workload::RelationStream child_b = parent.Split(1);
  bool all_equal_ab = true;
  for (int i = 0; i < 50; ++i) {
    Update ua = child_a.Next();
    Update ua2 = child_a_again.Next();
    Update ub = child_b.Next();
    ASSERT_EQ(ua.ToString(), ua2.ToString());  // same index: same stream
    if (ua.ToString() != ub.ToString()) all_equal_ab = false;
  }
  EXPECT_FALSE(all_equal_ab);  // distinct indexes: distinct streams
}

}  // namespace
}  // namespace ringdb
