// Work-stealing differential: morsel stealing must be invisible in the
// result. The revenue query is maintained over zipf(1.1) skewed mixed
// insert/delete streams across batch sizes {1, 7, 1024}, shard counts
// {1, 2, 8}, and both statement backends, with stealing forced on one
// engine and disabled on its twin (the StealMode test hook). Both must
// agree with the NaiveReevaluator AGCA oracle at every checkpoint, and
// the steal counters must prove the modes actually diverged: forced
// multi-shard runs steal, disabled runs never do. Soundness rests on the
// token-FIFO protocol (a thief runs the owner shard's next morsel on the
// owner's executor, in order), so equal results here certify the only
// rewrite stealing performs — splitting a shard's window into
// consecutive sub-windows.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "baseline/baselines.h"
#include "exec/sharded_executor.h"
#include "ring/database.h"
#include "runtime/engine.h"
#include "sql/translate.h"
#include "workload/stream.h"

namespace ringdb {
namespace {

using baseline::NaiveReevaluator;
using exec::StealMode;
using ring::Update;
using runtime::Backend;
using runtime::Engine;

Symbol S(const char* s) { return Symbol::Intern(s); }

// The acceptance workload's query: grouped two-relation equijoin with an
// arithmetic aggregate, partitionable on okey (so multi-shard cells
// really shard; see exec/partition.h).
sql::TranslatedQuery RevenueQuery(const ring::Catalog& catalog) {
  auto t = sql::TranslateSql(
      catalog,
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return std::move(*t);
}

// zipf(1.1) mixed insert/delete stream over orders + lineitem, identical
// for every engine under test (one pre-generated vector).
std::vector<Update> ZipfStream(const ring::Catalog& catalog, size_t events,
                               uint64_t seed) {
  workload::StreamOptions options;
  options.seed = seed;
  options.domain_size = 512;
  options.zipf_s = 1.1;
  options.delete_fraction = 0.15;
  std::vector<workload::RelationStream> streams;
  streams.emplace_back(catalog, S("orders"), options);
  streams.emplace_back(catalog, S("lineitem"), options);
  workload::RoundRobinStream rr(std::move(streams));
  std::vector<Update> updates;
  updates.reserve(events);
  for (size_t i = 0; i < events; ++i) updates.push_back(rr.Next());
  return updates;
}

struct Cell {
  Backend backend;
  size_t shards;
  size_t batch;
};

std::string CellName(const Cell& cell) {
  std::string name = cell.backend == Backend::kCompile ? "compile"
                                                       : "interpret";
  name += "_s" + std::to_string(cell.shards);
  name += "_b" + std::to_string(cell.batch);
  return name;
}

std::vector<Cell> Cells() {
  std::vector<Cell> out;
  for (Backend backend : {Backend::kInterpret, Backend::kCompile}) {
    for (size_t shards : {1u, 2u, 8u}) {
      for (size_t batch : {1u, 7u, 1024u}) {
        out.push_back(Cell{backend, shards, batch});
      }
    }
  }
  return out;
}

class StealDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StealDifferentialTest, ForcedAndDisabledStealingMatchOracle) {
  const Cell cell = Cells()[GetParam()];
  SCOPED_TRACE(CellName(cell));

  ring::Catalog catalog = workload::OrdersSchema();
  auto t = RevenueQuery(catalog);
  const size_t kEvents = 4096;
  const std::vector<Update> updates = ZipfStream(catalog, kEvents, 4242);

  runtime::EngineOptions options;
  options.batch_size = cell.batch;
  options.num_shards = cell.shards;
  options.backend = cell.backend;
  auto forced = Engine::Create(catalog, t.group_vars, t.body, options);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  if (cell.backend == Backend::kCompile && !forced->native_enabled()) {
    GTEST_SKIP() << "compiled backend unavailable: "
                 << forced->native_status().ToString();
  }
  auto disabled = Engine::Create(catalog, t.group_vars, t.body, options);
  ASSERT_TRUE(disabled.ok()) << disabled.status().ToString();
  forced->sharded().SetStealMode(StealMode::kForced);
  disabled->sharded().SetStealMode(StealMode::kDisabled);

  NaiveReevaluator oracle(catalog, t.group_vars, t.body);
  for (const Update& u : updates) oracle.Load(u);

  // Two checkpoints: mid-stream (a state neither engine ever quiesced
  // at unless windows really are applied in order) and the end.
  const size_t half = kEvents / 2;
  const std::vector<Update> first(updates.begin(), updates.begin() + half);
  const std::vector<Update> second(updates.begin() + half, updates.end());

  NaiveReevaluator mid_oracle(catalog, t.group_vars, t.body);
  for (const Update& u : first) mid_oracle.Load(u);
  ASSERT_TRUE(mid_oracle.Refresh().ok());
  ASSERT_TRUE(oracle.Refresh().ok());

  ASSERT_TRUE(forced->ApplyBatch(first).ok());
  ASSERT_TRUE(disabled->ApplyBatch(first).ok());
  ASSERT_EQ(mid_oracle.ResultGmr(), forced->ResultGmr())
      << "forced-steal engine diverged from the oracle at mid-stream";
  ASSERT_EQ(mid_oracle.ResultGmr(), disabled->ResultGmr())
      << "steal-disabled engine diverged from the oracle at mid-stream";

  ASSERT_TRUE(forced->ApplyBatch(second).ok());
  ASSERT_TRUE(disabled->ApplyBatch(second).ok());
  ASSERT_EQ(oracle.ResultGmr(), forced->ResultGmr())
      << "forced-steal engine diverged from the oracle at end of stream";
  ASSERT_EQ(oracle.ResultGmr(), disabled->ResultGmr())
      << "steal-disabled engine diverged from the oracle at end of stream";
  ASSERT_EQ(forced->ResultGmr(), disabled->ResultGmr());

  // The counters must prove the modes diverged: results above are only a
  // differential if forced runs actually stole. Disabled never steals;
  // forced steals whenever another shard has morsels (thousands of
  // windows' worth of opportunities here), so a zero count would mean
  // the test hook is dead, not that the race went the other way. The
  // steal counters are compiled out under -DRINGDB_NO_METRICS.
#ifndef RINGDB_NO_METRICS
  const exec::ShardedExecutor::StealStats f = forced->sharded().steal_stats();
  const exec::ShardedExecutor::StealStats d =
      disabled->sharded().steal_stats();
  EXPECT_EQ(d.morsels_stolen, 0u);
  if (forced->num_shards() > 1) {
    EXPECT_GT(f.morsels_stolen, 0u)
        << "forced mode never stole across " << kEvents << " events";
    // Every morsel may be stolen (under TSan's scheduler thieves often
    // win every token race), but never more than actually ran.
    EXPECT_GE(f.morsels_run, f.morsels_stolen);
  } else {
    EXPECT_EQ(f.morsels_stolen, 0u);
  }
#endif
}

INSTANTIATE_TEST_SUITE_P(AllCells, StealDifferentialTest,
                         ::testing::Range<size_t>(0, Cells().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return CellName(Cells()[info.param]);
                         });

// Steal-count invariance at the snapshot layer too: the composed
// per-shard sub-snapshots (the serving read path) must agree between a
// forced-steal and a steal-disabled engine — stealing must not perturb
// which shard publishes what.
TEST(StealDifferentialTest, PublishedSubSnapshotsInvariantToStealing) {
  ring::Catalog catalog = workload::OrdersSchema();
  auto t = RevenueQuery(catalog);
  const std::vector<Update> updates = ZipfStream(catalog, 2048, 77);

  runtime::EngineOptions options;
  options.batch_size = 256;
  options.num_shards = 4;
  auto forced = Engine::Create(catalog, t.group_vars, t.body, options);
  auto disabled = Engine::Create(catalog, t.group_vars, t.body, options);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  ASSERT_TRUE(disabled.ok()) << disabled.status().ToString();
  forced->sharded().SetStealMode(StealMode::kForced);
  forced->sharded().EnablePublish(true);
  disabled->sharded().SetStealMode(StealMode::kDisabled);
  disabled->sharded().EnablePublish(true);

  ASSERT_TRUE(forced->ApplyBatch(updates).ok());
  ASSERT_TRUE(disabled->ApplyBatch(updates).ok());

  const auto f_parts = forced->sharded().RootSubSnapshots();
  const auto d_parts = disabled->sharded().RootSubSnapshots();
  ASSERT_EQ(f_parts.size(), d_parts.size());
  for (size_t s = 0; s < f_parts.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ASSERT_EQ(f_parts[s]->size(), d_parts[s]->size());
    EXPECT_EQ(f_parts[s]->total(), d_parts[s]->total());
    // Ownership is by route key, so each shard's frozen part must be
    // identical entry-for-entry, not just in aggregate.
    f_parts[s]->ForEach([&](runtime::KeyView key, Numeric m) {
      EXPECT_EQ(d_parts[s]->At(key.begin(), key.size()), m);
    });
  }
#ifndef RINGDB_NO_METRICS
  if (forced->num_shards() > 1) {
    EXPECT_GT(forced->sharded().steal_stats().morsels_stolen, 0u);
  }
#endif
}

}  // namespace
}  // namespace ringdb
