#include "bench_util.h"

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <unordered_map>

namespace ringbench {

using ringdb::Symbol;
using ringdb::Value;

namespace {

constexpr char kMagic[8] = {'R', 'B', 'S', 'T', 'R', 'M', '0', '1'};

std::string Hex64(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// Sorts "key=value" records and folds them with FNV-1a 64.
std::string DigestRecords(std::vector<std::string> records) {
  std::sort(records.begin(), records.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& r : records) {
    for (char c : r) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= ';';
    h *= 0x100000001b3ULL;
  }
  return Hex64(h);
}

}  // namespace

bool WriteStream(const std::string& path, const std::vector<Op>& ops,
                 std::string* error) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    *error = "cannot write " + tmp;
    return false;
  }
  const uint64_t n = ops.size();
  bool ok = std::fwrite(kMagic, 1, sizeof(kMagic), f) == sizeof(kMagic) &&
            std::fwrite(&n, sizeof(n), 1, f) == 1 &&
            std::fwrite(ops.data(), sizeof(Op), ops.size(), f) == ops.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "short write to " + path;
    return false;
  }
  return true;
}

bool ReadStream(const std::string& path, std::vector<Op>* ops,
                std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = "cannot read " + path;
    return false;
  }
  char magic[sizeof(kMagic)];
  uint64_t n = 0;
  bool ok = std::fread(magic, 1, sizeof(magic), f) == sizeof(magic) &&
            std::memcmp(magic, kMagic, sizeof(kMagic)) == 0 &&
            std::fread(&n, sizeof(n), 1, f) == 1 && n < (uint64_t{1} << 32);
  if (ok) {
    ops->resize(n);
    ok = std::fread(ops->data(), sizeof(Op), n, f) == n;
  }
  std::fclose(f);
  if (!ok) *error = "malformed stream file " + path;
  return ok;
}

OpDecoder::OpDecoder() {
  orders_.relation = Symbol::Intern("orders");
  orders_.values.resize(2);
  lineitem_.relation = Symbol::Intern("lineitem");
  lineitem_.values.resize(3);
}

const ringdb::ring::Update& OpDecoder::Decode(const Op& op) {
  using Sign = ringdb::ring::Update::Sign;
  if (op.kind == kInsertOrders || op.kind == kDeleteOrders) {
    orders_.sign = op.kind == kInsertOrders ? Sign::kInsert : Sign::kDelete;
    orders_.values[0] = Value(int64_t{op.v[0]});
    orders_.values[1] = Value(int64_t{op.v[1]});
    return orders_;
  }
  lineitem_.sign = op.kind == kInsertLineitem ? Sign::kInsert : Sign::kDelete;
  lineitem_.values[0] = Value(int64_t{op.v[0]});
  lineitem_.values[1] = Value(int64_t{op.v[1]});
  lineitem_.values[2] = Value(int64_t{op.v[2]});
  return lineitem_;
}

double Percentile(std::vector<double>* samples, double q, size_t* beyond) {
  if (samples->empty()) {
    if (beyond != nullptr) *beyond = 0;
    return 0.0;
  }
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (beyond != nullptr) *beyond = n - rank;
  return (*samples)[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string GmrDigest(const ringdb::ring::Gmr& gmr,
                      const std::vector<Symbol>& group_vars) {
  std::vector<std::string> records;
  records.reserve(gmr.SupportSize());
  for (const auto& [tuple, m] : gmr.support()) {
    if (m.IsZero()) continue;
    std::string r;
    for (Symbol g : group_vars) {
      const Value* v = tuple.Get(g);
      r += v == nullptr ? "?" : v->ToString();
      r += ',';
    }
    r += '=';
    r += m.ToString();
    records.push_back(std::move(r));
  }
  return DigestRecords(std::move(records));
}

std::string EngineDigest(const ringdb::runtime::Engine& engine) {
  return GmrDigest(engine.ResultGmr(), engine.group_vars());
}

std::string SnapshotDigest(const ringdb::serve::ResultSnapshot& snapshot) {
  const std::vector<size_t>& order = snapshot.info().key_order;
  std::vector<std::string> records;
  records.reserve(snapshot.size());
  snapshot.ForEach([&](ringdb::runtime::KeyView key, ringdb::Numeric m) {
    if (m.IsZero()) return;
    std::string r;
    for (size_t i = 0; i < order.size(); ++i) {
      r += key[order[i]].ToString();
      r += ',';
    }
    r += '=';
    r += m.ToString();
    records.push_back(std::move(r));
  });
  return DigestRecords(std::move(records));
}

uint32_t SpanLog::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

std::vector<std::pair<std::string, uint64_t>> SpanLog::SelfTimeByName()
    const {
  std::vector<uint64_t> child_ns(size_, 0);
  for (size_t i = 0; i < size_; ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 && s.end_ns >= s.begin_ns) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.begin_ns;
    }
  }
  std::vector<uint64_t> by_name(names_.size(), 0);
  for (size_t i = 0; i < size_; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.begin_ns) continue;  // never closed
    const uint64_t dur = s.end_ns - s.begin_ns;
    by_name[s.name] += dur > child_ns[i] ? dur - child_ns[i] : 0;
  }
  std::vector<std::pair<std::string, uint64_t>> out;
  for (size_t i = 0; i < names_.size(); ++i) {
    out.emplace_back(names_[i], by_name[i]);
  }
  return out;
}

bool SpanLog::WriteChromeJson(const std::string& path,
                              size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::min(size_, max_spans);
  const uint64_t t0 = n > 0 ? spans_[0].begin_ns : 0;
  std::fprintf(f, "{\"metadata\":{\"spans\":%zu,\"written\":%zu,"
                  "\"dropped\":%zu},\"traceEvents\":[\n",
               size_, n, dropped_);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const double ts = static_cast<double>(s.begin_ns - t0) / 1e3;
    const double dur =
        s.end_ns >= s.begin_ns
            ? static_cast<double>(s.end_ns - s.begin_ns) / 1e3
            : 0.0;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", names_[s.name].c_str(), ts, dur, i,
                 s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "ringbench: CHECK FAILED: %s\n", why.c_str());
}

void RunResult::PrintJsonLine() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

uint64_t ResidentBytes() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<uint64_t>(resident) *
         static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace ringbench
