#include "runtime/native_module.h"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/hash.h"

namespace ringdb {
namespace runtime {

namespace {

namespace fs = std::filesystem;

// Resolves the host C compiler. RINGDB_CC wins when set (even when bogus:
// the caller is asking for exactly that compiler, and a bad one must fail
// instead of silently substituting); otherwise the first of the usual
// names found on PATH.
std::string FindCompiler() {
  if (const char* env = std::getenv("RINGDB_CC")) return env;
  const char* path = std::getenv("PATH");
  if (path == nullptr) return "";
  for (const char* cand : {"cc", "gcc", "clang"}) {
    std::stringstream dirs(path);
    std::string dir;
    while (std::getline(dirs, dir, ':')) {
      if (dir.empty()) continue;
      fs::path p = fs::path(dir) / cand;
      std::error_code ec;
      if (fs::exists(p, ec) && ::access(p.c_str(), X_OK) == 0) {
        return p.string();
      }
    }
  }
  return "";
}

StatusOr<fs::path> CacheDir() {
  fs::path dir;
  if (const char* env = std::getenv("RINGDB_NATIVE_CACHE_DIR")) {
    dir = env;
  } else {
    std::error_code ec;
    fs::path tmp = fs::temp_directory_path(ec);
    if (ec) tmp = "/tmp";
    dir = tmp / ("ringdb-native-cache-" + std::to_string(::getuid()));
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create native cache dir " +
                            dir.string() + ": " + ec.message());
  }
  return dir;
}

// Unique per (process, call) suffix for temp artifacts: pid alone is not
// enough — two threads of one process building the same program would
// collide on the temp names and could publish a corrupt artifact into
// the hash-keyed cache.
std::string TmpSuffix() {
  static std::atomic<uint64_t> counter{0};
  return ".tmp" + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

Status WriteFileAtomic(const fs::path& target, const std::string& content) {
  fs::path tmp = target;
  tmp += TmpSuffix();
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  out.close();
  if (!out) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return Status::Internal("cannot write " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::Internal("cannot rename into " + target.string() +
                            ": " + ec.message());
  }
  return Status::Ok();
}

std::string ShellQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

std::string FirstLines(const fs::path& file, size_t max_bytes) {
  std::ifstream in(file);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (content.size() > max_bytes) {
    content.resize(max_bytes);
    content += "...";
  }
  return content;
}

// Compiles `src` into `so` (via a temp name so concurrent builders of the
// same hash can only ever publish complete artifacts).
Status CompileSo(const std::string& cc, const fs::path& src,
                 const fs::path& so) {
  const std::string suffix = TmpSuffix();
  fs::path tmp_so = so;
  tmp_so += suffix;
  fs::path log = so;
  log += suffix + ".log";
  // -w: generated code compiles warning-free in spirit, but helper
  // functions a given module never calls would trip -Wunused-function.
  const std::string cmd = ShellQuote(cc) + " -O2 -fPIC -shared -w -x c " +
                          ShellQuote(src.string()) + " -o " +
                          ShellQuote(tmp_so.string()) + " 2> " +
                          ShellQuote(log.string());
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    const std::string detail = FirstLines(log, 512);
    std::error_code ec;
    fs::remove(tmp_so, ec);
    fs::remove(log, ec);
    return Status::Internal("native compile failed (" + cc +
                            "): " + detail);
  }
  std::error_code ec;
  fs::remove(log, ec);
  fs::rename(tmp_so, so, ec);
  if (ec) {
    fs::remove(tmp_so, ec);
    return Status::Internal("cannot publish " + so.string() + ": " +
                            ec.message());
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::shared_ptr<const NativeModule>> NativeModule::Build(
    const compiler::TriggerProgram& program) {
  compiler::CodegenModule gen = compiler::GenerateModule(program);
  if (gen.emitted_statements == 0) {
    return Status::FailedPrecondition(
        "no emittable statements (every statement is lazy-domain or reads "
        "its own target); interpreter only");
  }
  const std::string cc = FindCompiler();
  if (cc.empty()) {
    return Status::FailedPrecondition(
        "no host C compiler found (set RINGDB_CC or install cc)");
  }
  RINGDB_ASSIGN_OR_RETURN(fs::path dir, CacheDir());
  // Key on content hash + length: same program, same artifact.
  char key[64];
  std::snprintf(key, sizeof(key), "%016llx-%zu",
                static_cast<unsigned long long>(HashString(gen.source)),
                gen.source.size());
  const fs::path src = dir / (std::string(key) + ".c");
  const fs::path so = dir / (std::string(key) + ".so");

  std::error_code ec;
  const bool cached = fs::exists(so, ec);
  if (!cached) {
    RINGDB_RETURN_IF_ERROR(WriteFileAtomic(src, gen.source));
    RINGDB_RETURN_IF_ERROR(CompileSo(cc, src, so));
  }

  auto loaded = LoadAndResolve(so.string(), gen);
  if (!loaded.ok() && cached) {
    // The cache lied: the hash-keyed name promised a loadable module for
    // this exact source, but the artifact would not dlopen, failed the
    // ABI handshake, or is missing symbols (truncated or bit-rotted
    // file, cache shared with an incompatible build). Evict it and pay
    // the compile once — never surface a corrupt cache entry as an
    // engine-construction error.
    fs::remove(so, ec);
    RINGDB_RETURN_IF_ERROR(WriteFileAtomic(src, gen.source));
    RINGDB_RETURN_IF_ERROR(CompileSo(cc, src, so));
    loaded = LoadAndResolve(so.string(), gen);
  }
  if (!loaded.ok()) return loaded.status();
  std::shared_ptr<NativeModule> module = std::move(loaded).value();
  module->source_ = std::move(gen.source);
  return std::shared_ptr<const NativeModule>(std::move(module));
}

StatusOr<std::shared_ptr<NativeModule>> NativeModule::LoadAndResolve(
    const std::string& so_path, const compiler::CodegenModule& gen) {
  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = ::dlerror();
    return Status::Internal("dlopen(" + so_path +
                            ") failed: " + (err ? err : "?"));
  }
  auto module = std::shared_ptr<NativeModule>(new NativeModule());
  module->handle_ = handle;
  module->so_path_ = so_path;

  // ABI handshake before touching any statement symbol: a stale cached
  // artifact from an older ABI must be rejected, not executed.
  const auto* version =
      static_cast<const int32_t*>(::dlsym(handle, "rdb_abi_version"));
  const auto* layout =
      static_cast<const uint64_t*>(::dlsym(handle, "rdb_abi_layout"));
  if (version == nullptr || layout == nullptr ||
      static_cast<uint32_t>(*version) != RDB_ABI_VERSION ||
      *layout != RdbAbiLayout()) {
    return Status::Internal("native module ABI mismatch: " + so_path);
  }

  module->fns_.resize(gen.stmts.size());
  for (size_t t = 0; t < gen.stmts.size(); ++t) {
    module->fns_[t].resize(gen.stmts[t].size());
    for (size_t s = 0; s < gen.stmts[t].size(); ++s) {
      const compiler::CodegenStmt& cs = gen.stmts[t][s];
      if (!cs.emitted) continue;
      StmtFns fns;
      fns.col_plain = reinterpret_cast<RdbColStmtFn>(
          ::dlsym(handle, cs.win_fn.c_str()));
      if (fns.col_plain == nullptr) {
        return Status::Internal("missing native symbol " + cs.win_fn);
      }
      if (!cs.grouped_win_fn.empty()) {
        if (cs.grouped_win_fn == cs.win_fn) {
          fns.col_grouped = fns.col_plain;
        } else {
          fns.col_grouped = reinterpret_cast<RdbColStmtFn>(
              ::dlsym(handle, cs.grouped_win_fn.c_str()));
          if (fns.col_grouped == nullptr) {
            return Status::Internal("missing native symbol " +
                                    cs.grouped_win_fn);
          }
        }
      }
      fns.prefer_native = cs.prefer_native;
      fns.grouped_prefer_native = cs.grouped_prefer_native;
      module->fns_[t][s] = fns;
      ++module->native_statements_;
    }
  }
  return module;
}

NativeModule::~NativeModule() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

}  // namespace runtime
}  // namespace ringdb
