// Shared plumbing for the ringbench workloads: the compact pre-generated
// update stream, timers, exact order statistics, result digests, the
// benchmark's own span log, and the one-line JSON result.
//
// Everything here lives on the benchmark side of the library boundary:
// the program under test only ever sees ring::Update values decoded from
// the compact stream, and every per-layer number is computed from these
// timers plus exact counters the program exports.

#ifndef RINGBENCH_BENCH_UTIL_H_
#define RINGBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "ring/database.h"
#include "ring/gmr.h"
#include "runtime/engine.h"
#include "serve/snapshot.h"
#include "util/symbol.h"
#include "util/value.h"

namespace ringbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- Compact stream -------------------------------------------------------

// One generated event in 16 bytes: a signed update of orders(okey, ckey)
// or lineitem(okey, price, qty), or a point read of one ckey. A 1M-event
// stream is 16 MB here instead of ~250 MB of ring::Update, so the input
// buffer does not dominate the process's memory.
enum OpKind : uint8_t {
  kInsertOrders = 0,
  kDeleteOrders = 1,
  kInsertLineitem = 2,
  kDeleteLineitem = 3,
  kRead = 4,
};

struct Op {
  uint8_t kind = kRead;
  int32_t v[3] = {0, 0, 0};
};
static_assert(sizeof(Op) == 16, "compact op layout");

inline bool IsUpdate(const Op& op) { return op.kind != kRead; }

bool WriteStream(const std::string& path, const std::vector<Op>& ops,
                 std::string* error);
bool ReadStream(const std::string& path, std::vector<Op>* ops,
                std::string* error);

// Decodes compact ops into reusable ring::Update objects (one per
// relation), so the timed loops allocate nothing on the benchmark side.
class OpDecoder {
 public:
  OpDecoder();
  const ringdb::ring::Update& Decode(const Op& op);

 private:
  ringdb::ring::Update orders_;
  ringdb::ring::Update lineitem_;
};

// ---- Order statistics -----------------------------------------------------

// Exact nearest-rank percentile of `samples` (sorted in place): the
// smallest sample with at least q of the samples at or below it.
// `beyond` receives how many samples lie strictly above the rank.
double Percentile(std::vector<double>* samples, double q,
                  size_t* beyond = nullptr);

double Median(std::vector<double> values);

// ---- Result digests -------------------------------------------------------

// Canonical digest of a grouped result: groups sorted by their key text,
// zero-valued groups dropped, FNV-1a 64 over "key=value;" records, as 16
// hex digits. Engine, snapshot and oracle results digest identically.
std::string EngineDigest(const ringdb::runtime::Engine& engine);
std::string GmrDigest(const ringdb::ring::Gmr& gmr,
                      const std::vector<ringdb::Symbol>& group_vars);
std::string SnapshotDigest(const ringdb::serve::ResultSnapshot& snapshot);

// ---- Span log -------------------------------------------------------------

// The traced run's span store: name, start, end and parent per span, held
// in a preallocated array and written out when the run ends. Spans are
// recorded only by the benchmark's own code, around its calls into the
// program.
class SpanLog {
 public:
  struct Span {
    uint32_t name = 0;
    int32_t parent = -1;
    uint64_t begin_ns = 0;
    uint64_t end_ns = 0;
  };

  // Touches `capacity` slots up front so recording never allocates (and
  // never grows the process's memory inside a measured phase).
  void Reserve(size_t capacity) {
    spans_.assign(capacity, Span{});
    size_ = 0;
  }
  uint32_t Name(const std::string& name);

  // Opens a span; returns its id (or -1 once the store is full, which the
  // caller reports as dropped).
  int32_t Begin(uint32_t name, int32_t parent) {
    if (size_ == spans_.size()) {
      ++dropped_;
      return -1;
    }
    Span& s = spans_[size_];
    s.name = name;
    s.parent = parent;
    s.begin_ns = NowNs();
    return static_cast<int32_t>(size_++);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  // Records an already-timed span.
  int32_t Add(uint32_t name, int32_t parent, uint64_t begin_ns,
              uint64_t end_ns) {
    if (size_ == spans_.size()) {
      ++dropped_;
      return -1;
    }
    spans_[size_] = Span{name, parent, begin_ns, end_ns};
    return static_cast<int32_t>(size_++);
  }

  // Self time per span name: each span's duration minus the part its
  // child spans cover, summed by name.
  std::vector<std::pair<std::string, uint64_t>> SelfTimeByName() const;

  // Chrome trace-event JSON (at most `max_spans` spans; the count of
  // spans left out is recorded in the file's metadata).
  bool WriteChromeJson(const std::string& path, size_t max_spans) const;

 private:
  std::vector<Span> spans_;
  size_t size_ = 0;
  size_t dropped_ = 0;
  std::vector<std::string> names_;
};

// ---- Result line ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  // Records a failed correctness check (printed to stderr).
  void Fail(const std::string& why);
  // The result, printed as the last stdout line: {"correct", "attempted",
  // "failed", "metrics": {name: {"value", "unit"}}}.
  void PrintJsonLine() const;
};

// Resident set of this process now, in bytes (/proc/self/statm).
uint64_t ResidentBytes();

}  // namespace ringbench

#endif  // RINGBENCH_BENCH_UTIL_H_
