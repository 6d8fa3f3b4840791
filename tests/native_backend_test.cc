// The compiled execution backend end to end: EngineOptions::backend =
// kCompile must produce results identical to the interpreter (the
// randomized cross-backend differential lives in lowering_test.cc; here
// the revenue pipeline plus the operational properties), fall back to
// the interpreter cleanly when no host C compiler exists (simulated via
// the RINGDB_CC override), reuse the hash-keyed .so cache across engine
// constructions, and plumb through serve::QueryService.
//
// On hosts without any C compiler the native-path tests skip; setting
// RINGDB_EXPECT_NATIVE=1 (the release CI job does) turns those skips
// into failures so an environment that is supposed to exercise native
// code cannot silently regress to the interpreter.

#include <dlfcn.h>
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/engine.h"
#include "runtime/native_abi.h"
#include "serve/query_service.h"
#include "sql/translate.h"
#include "util/random.h"
#include "workload/stream.h"

namespace ringdb {
namespace {

using ring::Update;
using runtime::Backend;
using runtime::Engine;
using runtime::EngineOptions;

// Scoped environment override (tests run single-threaded).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

sql::TranslatedQuery RevenueQuery(const ring::Catalog& catalog) {
  auto t = sql::TranslateSql(
      catalog,
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  RINGDB_CHECK(t.ok());
  return *std::move(t);
}

std::vector<Update> RevenueStream(const ring::Catalog& catalog, int n) {
  workload::StreamOptions options;
  options.seed = 1234;
  options.domain_size = 64;
  options.zipf_s = 1.1;
  options.delete_fraction = 0.2;
  std::vector<workload::RelationStream> streams;
  streams.emplace_back(catalog, Symbol::Intern("orders"), options);
  streams.emplace_back(catalog, Symbol::Intern("lineitem"), options);
  workload::RoundRobinStream stream(std::move(streams));
  std::vector<Update> updates;
  updates.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) updates.push_back(stream.Next());
  return updates;
}

bool ExpectNative() {
  return std::getenv("RINGDB_EXPECT_NATIVE") != nullptr;
}

// native_calls per statement (all zero under -DRINGDB_NO_METRICS).
std::vector<uint64_t> NativeCalls(const Engine& engine) {
  std::vector<uint64_t> out;
  for (const Engine::StmtStats& s : engine.Stats().statements) {
    out.push_back(s.counters.native_calls);
  }
  return out;
}

// Builds a compiled-backend engine or explains why native is off; used
// to decide skip-vs-fail on compiler-less hosts.
StatusOr<Engine> CompiledEngine(const ring::Catalog& catalog,
                                const sql::TranslatedQuery& q,
                                size_t batch_size, size_t shards) {
  EngineOptions options;
  options.batch_size = batch_size;
  options.num_shards = shards;
  options.backend = Backend::kCompile;
  return Engine::Create(catalog, q.group_vars, q.body, options);
}

TEST(NativeBackendTest, FallsBackToInterpreterWithoutCompiler) {
  ScopedEnv no_cc("RINGDB_CC", "/nonexistent/ringdb-no-such-cc");
  // A fresh cache dir too: a previously cached .so loads without any
  // compiler (by design — see ModuleCacheServesRepeatConstruction), and
  // this test simulates a host that has neither.
  char cache_template[] = "/tmp/ringdb-native-test-XXXXXX";
  ASSERT_NE(::mkdtemp(cache_template), nullptr);
  ScopedEnv no_cache("RINGDB_NATIVE_CACHE_DIR", cache_template);
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto engine = CompiledEngine(catalog, q, 16, 1);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_FALSE(engine->native_enabled());
  EXPECT_FALSE(engine->native_status().ok());

  // The fallback engine is a fully functional interpreter.
  auto oracle = Engine::Create(catalog, q.group_vars, q.body);
  ASSERT_TRUE(oracle.ok());
  std::vector<Update> updates = RevenueStream(catalog, 400);
  ASSERT_TRUE(engine->ApplyBatch(updates).ok());
  for (const Update& u : updates) ASSERT_TRUE(oracle->Apply(u).ok());
  EXPECT_EQ(engine->ResultGmr(), oracle->ResultGmr());
}

TEST(NativeBackendTest, CompiledMatchesInterpreterOnRevenueStream) {
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto compiled = CompiledEngine(catalog, q, 64, 1);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled->native_enabled()) {
    ASSERT_FALSE(ExpectNative())
        << "RINGDB_EXPECT_NATIVE set but native backend unavailable: "
        << compiled->native_status().ToString();
    GTEST_SKIP() << "no host C compiler: "
                 << compiled->native_status().ToString();
  }
  EXPECT_GT(compiled->executor().program().triggers.size(), 0u);

  auto interp = Engine::Create(catalog, q.group_vars, q.body,
                               EngineOptions{.batch_size = 64});
  ASSERT_TRUE(interp.ok());
  std::vector<Update> updates = RevenueStream(catalog, 3000);
  ASSERT_TRUE(compiled->ApplyBatch(updates).ok());
  ASSERT_TRUE(interp->ApplyBatch(updates).ok());
  EXPECT_EQ(compiled->ResultGmr(), interp->ResultGmr());
  const std::vector<uint64_t> after_batch = NativeCalls(*compiled);
#ifndef RINGDB_NO_METRICS
  // Native code runs as whole columnar windows, and every window of an
  // emitted variant runs native, so the batch phase must have called
  // into the module.
  if (ExpectNative()) {
    uint64_t batch_native = 0;
    for (uint64_t n : after_batch) batch_native += n;
    EXPECT_GT(batch_native, 0u) << compiled->StatsText();
  }
#endif

  // Single tuples never form a window: they run the interpreter's firing
  // path and add no native calls to any statement.
  for (const Update& u : RevenueStream(catalog, 200)) {
    ASSERT_TRUE(compiled->Apply(u).ok());
    ASSERT_TRUE(interp->Apply(u).ok());
  }
  EXPECT_EQ(compiled->ResultGmr(), interp->ResultGmr());
  EXPECT_EQ(NativeCalls(*compiled), after_batch) << compiled->StatsText();
}

TEST(NativeBackendTest, WindowVariantsReadUnusedUnderSingleTupleApply) {
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto compiled = CompiledEngine(catalog, q, 64, 1);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled->native_enabled()) {
    ASSERT_FALSE(ExpectNative()) << compiled->native_status().ToString();
    GTEST_SKIP() << compiled->native_status().ToString();
  }
  for (const Update& u : RevenueStream(catalog, 500)) {
    ASSERT_TRUE(compiled->Apply(u).ok());
  }
  // No window ever ran, so no window variant has run native: each one
  // says so, and the trace-span summary reports interpreted dispatch.
  size_t windows = 0;
  for (const Engine::StmtStats& s : compiled->Stats().statements) {
    EXPECT_EQ(s.dispatch.plain_mode, 0) << s.label;
    EXPECT_EQ(s.dispatch.grouped_mode, 0) << s.label;
    if (!s.dispatch.window_available) continue;
    ++windows;
    EXPECT_EQ(s.dispatch.win_plain_mode, 3) << s.label;
    if (s.dispatch.grouped_available) {
      EXPECT_EQ(s.dispatch.win_grouped_mode, 3) << s.label;
    }
  }
  EXPECT_GT(windows, 0u);
  EXPECT_EQ(compiled->executor().window_dispatch_mode(), 1u);
  const std::string text = compiled->StatsText();
  EXPECT_NE(text.find("w:unused"), std::string::npos) << text;
  EXPECT_EQ(text.find("profiling"), std::string::npos) << text;
  const std::string json = compiled->StatsJson();
  EXPECT_NE(json.find("\"win_plain_mode\": \"unused\""), std::string::npos)
      << json;
  EXPECT_EQ(json.find("profiling"), std::string::npos) << json;
}

// Checks the dispatch report after some windows ran: every window variant
// reads native (1) or, if no window of it ran, unused (3), never the
// interpreter, and both a plain and a grouped variant ran native.
void ExpectWindowsRanNative(const Engine& engine) {
  size_t plain_native = 0;
  size_t grouped_native = 0;
  for (const Engine::StmtStats& s : engine.Stats().statements) {
    if (!s.dispatch.window_available) continue;
    EXPECT_TRUE(s.dispatch.win_plain_mode == 1 ||
                s.dispatch.win_plain_mode == 3)
        << s.label << " win_plain_mode " << int{s.dispatch.win_plain_mode};
    plain_native += s.dispatch.win_plain_mode == 1;
    if (!s.dispatch.grouped_available) continue;
    EXPECT_TRUE(s.dispatch.win_grouped_mode == 1 ||
                s.dispatch.win_grouped_mode == 3)
        << s.label << " win_grouped_mode "
        << int{s.dispatch.win_grouped_mode};
    grouped_native += s.dispatch.win_grouped_mode == 1;
  }
  EXPECT_GT(plain_native, 0u) << engine.StatsText();
  EXPECT_GT(grouped_native, 0u) << engine.StatsText();
  const std::string text = engine.StatsText();
  EXPECT_NE(text.find("w:native"), std::string::npos) << text;
  EXPECT_EQ(text.find("profiling"), std::string::npos) << text;
  EXPECT_EQ(text.find("interp-only"), std::string::npos) << text;
}

TEST(NativeBackendTest, WindowVariantsRunNativeFromTheFirstWindow) {
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto compiled = CompiledEngine(catalog, q, 1024, 1);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled->native_enabled()) {
    ASSERT_FALSE(ExpectNative()) << compiled->native_status().ToString();
    GTEST_SKIP() << compiled->native_status().ToString();
  }
  // One window: there is no warm-up before a variant runs native, with or
  // without metrics.
  ASSERT_TRUE(compiled->ApplyBatch(RevenueStream(catalog, 1024)).ok());
  ExpectWindowsRanNative(*compiled);
  EXPECT_EQ(compiled->executor().window_dispatch_mode(), 2u);
}

TEST(NativeBackendTest, DispatchMergesAcrossShards) {
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto compiled = CompiledEngine(catalog, q, 1024, 2);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled->native_enabled()) {
    ASSERT_FALSE(ExpectNative()) << compiled->native_status().ToString();
    GTEST_SKIP() << compiled->native_status().ToString();
  }
  ASSERT_EQ(compiled->num_shards(), 2u);
  // A batch whose every row routes to shard 1: shard 0 runs no window,
  // and the engine's report must still say what shard 1 ran.
  std::vector<Update> shard1;
  for (const Update& u : RevenueStream(catalog, 4096)) {
    if (compiled->partition_scheme().ShardOf(u.relation, u.values, 2) == 1) {
      shard1.push_back(u);
    }
  }
  ASSERT_GT(shard1.size(), 256u);
  ASSERT_TRUE(compiled->ApplyBatch(shard1).ok());
  ExpectWindowsRanNative(*compiled);
}

TEST(NativeBackendTest, ShardedCompiledMatchesInterpreter) {
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto compiled = CompiledEngine(catalog, q, 64, 4);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (!compiled->native_enabled()) {
    GTEST_SKIP() << compiled->native_status().ToString();
  }
  auto interp = Engine::Create(catalog, q.group_vars, q.body);
  ASSERT_TRUE(interp.ok());
  std::vector<Update> updates = RevenueStream(catalog, 2000);
  ASSERT_TRUE(compiled->ApplyBatch(updates).ok());
  for (const Update& u : updates) ASSERT_TRUE(interp->Apply(u).ok());
  EXPECT_EQ(compiled->ResultGmr(), interp->ResultGmr());
}

TEST(NativeBackendTest, ModuleCacheServesRepeatConstruction) {
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);
  auto first = CompiledEngine(catalog, q, 16, 1);
  ASSERT_TRUE(first.ok());
  if (!first->native_enabled()) {
    GTEST_SKIP() << first->native_status().ToString();
  }
  // Same program → same source hash → cached .so; the second engine must
  // come up native without recompiling (observable as: still enabled).
  auto second = CompiledEngine(catalog, q, 16, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->native_enabled());
}

TEST(NativeBackendTest, CorruptedCacheEntryIsEvictedAndRebuilt) {
  namespace fs = std::filesystem;
  char cache_template[] = "/tmp/ringdb-native-corrupt-XXXXXX";
  ASSERT_NE(::mkdtemp(cache_template), nullptr);
  ScopedEnv cache("RINGDB_NATIVE_CACHE_DIR", cache_template);
  ring::Catalog catalog = workload::OrdersSchema();
  sql::TranslatedQuery q = RevenueQuery(catalog);

  // Corruption shapes a cache can actually contain when a fresh process
  // starts (crashed copy, bit rot, cache shared with an incompatible
  // build): truncated artifact, outright garbage bytes, and a well-formed
  // module from the previous ABI version under the hash-keyed name. All
  // must be evicted and rebuilt, never surfaced as an engine-construction
  // failure, a crash, or a stale module in use. Each round populates and
  // then fully releases the module before corrupting: dlopen of a path
  // that is still mapped in-process returns the live mapping, so
  // in-place corruption under a live engine is not the scenario this
  // recovery path serves.
  const std::string version_decl = "const int32_t rdb_abi_version = ";
  for (const char* mode : {"truncate", "garbage", "stale-abi"}) {
    std::vector<fs::path> so_files;
    {
      auto first = CompiledEngine(catalog, q, 16, 1);
      ASSERT_TRUE(first.ok());
      if (!first->native_enabled()) {
        GTEST_SKIP() << first->native_status().ToString();
      }
      for (const auto& entry : fs::directory_iterator(cache_template)) {
        if (entry.path().extension() == ".so") {
          so_files.push_back(entry.path());
        }
      }
      ASSERT_FALSE(so_files.empty()) << mode;
    }  // engine destroyed -> module dlclosed -> mapping released
    for (const fs::path& so : so_files) {
      if (std::string_view(mode) == "stale-abi") {
        // The cached source recompiled with the previous rdb_abi_version:
        // it loads, resolves every symbol and passes the layout check, so
        // only the version handshake can reject it.
        fs::path c = so;
        c.replace_extension(".c");
        std::ifstream in(c);
        std::string source((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
        const std::string current =
            version_decl + std::to_string(runtime::RDB_ABI_VERSION) + ";";
        const size_t at = source.find(current);
        ASSERT_NE(at, std::string::npos) << c;
        source.replace(at, current.size(),
                       version_decl +
                           std::to_string(runtime::RDB_ABI_VERSION - 1) +
                           ";");
        const fs::path stale_c = fs::path(cache_template) / "stale-abi.c";
        std::ofstream(stale_c) << source;
        const char* cc = std::getenv("RINGDB_CC");
        const std::string cmd = std::string(cc != nullptr ? cc : "cc") +
                                " -O2 -fPIC -shared -w -x c " +
                                stale_c.string() + " -o " + so.string();
        ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
        fs::remove(stale_c);
        continue;
      }
      std::ofstream out(so, std::ios::binary | std::ios::trunc);
      if (std::string_view(mode) == "garbage") {
        out << "this is not an ELF shared object";
      }
    }
    auto rebuilt = CompiledEngine(catalog, q, 16, 1);
    ASSERT_TRUE(rebuilt.ok()) << mode << ": "
                              << rebuilt.status().ToString();
    EXPECT_TRUE(rebuilt->native_enabled())
        << mode << ": " << rebuilt->native_status().ToString();
    // The module the engine holds is the rebuilt one, at the current ABI
    // version (RTLD_NOLOAD: only a handle to the already-mapped object).
    for (const fs::path& so : so_files) {
      void* handle = ::dlopen(so.c_str(), RTLD_NOW | RTLD_NOLOAD);
      ASSERT_NE(handle, nullptr) << mode << ": " << so;
      const auto* version =
          static_cast<const int32_t*>(::dlsym(handle, "rdb_abi_version"));
      ASSERT_NE(version, nullptr) << mode;
      EXPECT_EQ(*version, static_cast<int32_t>(runtime::RDB_ABI_VERSION))
          << mode;
      ::dlclose(handle);
    }

    // And the rebuilt module computes correctly.
    auto oracle = Engine::Create(catalog, q.group_vars, q.body);
    ASSERT_TRUE(oracle.ok());
    std::vector<Update> updates = RevenueStream(catalog, 300);
    ASSERT_TRUE(rebuilt->ApplyBatch(updates).ok());
    for (const Update& u : updates) ASSERT_TRUE(oracle->Apply(u).ok());
    EXPECT_EQ(rebuilt->ResultGmr(), oracle->ResultGmr()) << mode;
  }
  fs::remove_all(cache_template);
}

TEST(NativeBackendTest, ServeOptionsPlumbBackend) {
  ring::Catalog catalog = workload::OrdersSchema();
  serve::ServeOptions options;
  options.batch_size = 32;
  options.backend = Backend::kCompile;
  serve::QueryService service(catalog, options);
  auto id = service.RegisterSql(
      "revenue",
      "SELECT o.ckey, SUM(l.price * l.qty) FROM orders o, lineitem l "
      "WHERE o.okey = l.okey GROUP BY o.ckey");
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const bool native = service.engine(*id).native_enabled();

  service.Start();
  std::vector<Update> updates = RevenueStream(catalog, 500);
  for (const Update& u : updates) ASSERT_TRUE(service.Push(u).ok());
  service.Drain();
  service.Stop();
  ASSERT_TRUE(service.status().ok()) << service.status().ToString();

  // Snapshot equals an interpreter replay of the same stream whether or
  // not the native module engaged (compiler-less hosts fall back).
  auto oracle = Engine::Create(
      catalog, service.query_info(*id).group_vars,
      RevenueQuery(catalog).body);
  ASSERT_TRUE(oracle.ok());
  for (const Update& u : updates) ASSERT_TRUE(oracle->Apply(u).ok());
  ring::Gmr expected = oracle->ResultGmr();
  auto snapshot = service.snapshot(*id);
  for (const auto& [tuple, m] : expected.support()) {
    std::vector<Value> key;
    for (Symbol g : service.query_info(*id).group_vars) {
      const Value* v = tuple.Get(g);
      ASSERT_NE(v, nullptr);
      key.push_back(*v);
    }
    EXPECT_EQ(snapshot->Get(key), m);
  }
  if (std::getenv("RINGDB_EXPECT_NATIVE") != nullptr) {
    EXPECT_TRUE(native) << "serve backend did not engage native code";
  }
}

}  // namespace
}  // namespace ringdb
