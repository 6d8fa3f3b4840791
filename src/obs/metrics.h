// Low-overhead, always-on metrics primitives (DESIGN.md "Observability").
//
// Everything here is built for one budget: instrumentation that stays on
// in production costs < 2% of zipf batch-1024 maintenance throughput
// (the CI release job enforces exactly that, comparing against a build
// with -DRINGDB_NO_METRICS=ON). Three primitives carry the whole layer:
//
//  - Counter: a monotone event count, thread-sharded over cache-line-
//    padded cells. Writers pick a cell by a per-thread slot (relaxed
//    fetch_add, no contention, no false sharing); readers merge on
//    demand. Totals are exact — sharding changes where the adds land,
//    never how many.
//  - Gauge: a single atomic level (queue depth, snapshot epoch, bytes).
//    One writer or few writers, many readers; relaxed everywhere, the
//    value is advisory by nature.
//  - Histogram: fixed-point log2-bucketed distribution (latency spans in
//    nanoseconds, probe lengths, batch sizes). Atomic bucket counts, so
//    concurrent recording from shard workers is safe; quantiles are
//    bucket-upper-bound estimates — exact enough for "did p99 move an
//    order of magnitude", which is what pipeline tracing needs.
//
// Recording is timing-granular only at batch/window boundaries: nothing
// in this layer is called per tuple with a clock. Per-tuple facts
// (statement loop iterations, probes, emissions) are plain uint64
// counters owned single-writer by each executor shard and merged on
// read — see runtime::Executor::StmtCounters — because even a relaxed
// atomic per enumerated join entry is measurable on the NC0 hot path.
//
// MetricsRegistry owns named instances (stable addresses; components
// create their metrics once at construction and keep raw pointers) and
// renders the whole set as an aligned text table (util/table_printer)
// or a JSON object — the exporters behind Engine::StatsText/StatsJson,
// QueryService stats, and the bench --stats flags.
//
// Compiling with -DRINGDB_NO_METRICS turns every recording call into a
// no-op (reads return zeros) without changing any signature; that build
// is the control arm of the CI overhead gate, not a supported
// configuration for users.

#ifndef RINGDB_OBS_METRICS_H_
#define RINGDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

// Wraps a single recording statement so -DRINGDB_NO_METRICS compiles it
// out entirely (the control arm of the CI overhead gate). Use only for
// observability side effects — never for anything semantics depend on.
#ifdef RINGDB_NO_METRICS
#define RINGDB_OBS(stmt) \
  do {                   \
  } while (0)
#else
#define RINGDB_OBS(stmt) \
  do {                   \
    stmt;                \
  } while (0)
#endif

namespace ringdb {
namespace obs {

// Monotonic nanosecond clock for stage spans. Kept out-of-line-free and
// vDSO-backed (clock_gettime) so a batch-boundary span costs ~20ns.
inline uint64_t NowNs() {
#ifdef RINGDB_NO_METRICS
  return 0;
#else
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
#endif
}

// Stable small slot for the calling thread; threads hash onto
// Counter::kCells cells. Monotone assignment (not a hash of the thread
// id) keeps the first kCells threads perfectly collision-free — the
// engine's shard workers and the serve pipeline threads are exactly
// that population.
inline size_t ThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

class Counter {
 public:
  static constexpr size_t kCells = 16;  // power of two

  void Add(uint64_t n = 1) {
#ifndef RINGDB_NO_METRICS
    cells_[ThreadSlot() & (kCells - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  // Merge-on-read total. Exact for quiescent writers; a concurrent read
  // may miss in-flight adds (never double-counts).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kCells];
};

class Gauge {
 public:
  void Set(int64_t v) {
#ifndef RINGDB_NO_METRICS
    v_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void Add(int64_t d) {
#ifndef RINGDB_NO_METRICS
    v_.fetch_add(d, std::memory_order_relaxed);
#else
    (void)d;
#endif
  }
  // Set-if-greater, for monotone epoch gauges updated by racing writers.
  void SetMax(int64_t v) {
#ifndef RINGDB_NO_METRICS
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
#else
    (void)v;
#endif
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Read-time summary of a Histogram (also the unit JSON/text exporters
// format). Quantiles are upper bounds of the containing log2 bucket,
// clamped to [min, max]; min/max/sum (and therefore mean()) are exact —
// tracked per Record with relaxed CAS extremes, so exported stats carry
// one exact central moment alongside the bucket-estimated tail.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;

  uint64_t mean() const { return count == 0 ? 0 : sum / count; }
};

class Histogram {
 public:
  // Bucket b holds values v with bit_width(v) == b, i.e. [2^(b-1), 2^b);
  // bucket 0 holds v == 0. 48 buckets cover ~78 hours in nanoseconds.
  static constexpr size_t kBuckets = 48;

  void Record(uint64_t v) {
#ifndef RINGDB_NO_METRICS
    size_t b = BucketOf(v);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    // Exact extremes. The CAS loops almost never iterate: after warmup
    // the extremes are sticky, so the common case is one relaxed load.
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
#else
    (void)v;
#endif
  }

  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  static size_t BucketOf(uint64_t v) {
    size_t b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b < kBuckets ? b : kBuckets - 1;
  }

  std::atomic<uint64_t> buckets_[kBuckets]{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

// Named-metric owner + exporter. Registration (construction-time, takes
// a mutex-free single-threaded path by convention: components register
// in their constructors, before any concurrent recording) returns
// stable pointers; Export* merges every metric on demand. Names use
// dotted paths ("serve.queue.wait_ns") and render in registration
// order.
class MetricsRegistry {
 public:
  Counter* AddCounter(std::string name);
  Gauge* AddGauge(std::string name);
  Histogram* AddHistogram(std::string name);

  // Aligned text table: name | value | p50 | p90 | p99 | max (histogram
  // columns empty for counters/gauges).
  std::string ExportText() const;
  // One JSON object: {"name": value, "hist_name": {count, sum, ...}}.
  // `indent` spaces prefix every line (for embedding in larger docs).
  std::string ExportJson(int indent = 0) const;

  void ResetAll();

 private:
  struct Entry {
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  std::vector<Entry> entries_;
};

// Appends one JSON histogram object for `snap` to `out` (shared by the
// registry exporter and the structured Stats() serializers).
void AppendHistogramJson(const HistogramSnapshot& snap, std::string* out);

}  // namespace obs
}  // namespace ringdb

#endif  // RINGDB_OBS_METRICS_H_
