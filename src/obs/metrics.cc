#include "obs/metrics.h"

#include <algorithm>
#include <utility>

#include "util/table_printer.h"

namespace ringdb {
namespace obs {

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  uint64_t counts[kBuckets];
  for (size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    snap.count += counts[b];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (snap.count == 0) return snap;
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  // Quantile q = upper bound of the first bucket whose cumulative count
  // reaches q * total, clamped to the exact [min, max]. Bucket b covers
  // [2^(b-1), 2^b), so the upper bound is (1 << b) - 1 (bucket 0 is
  // exactly {0}). The clamp is min-then-max rather than std::clamp: a
  // snapshot racing the first Record can see min > max.
  auto quantile = [&](uint64_t rank) -> uint64_t {
    uint64_t cum = 0;
    uint64_t bound = (uint64_t{1} << (kBuckets - 1)) - 1;
    for (size_t b = 0; b < kBuckets; ++b) {
      cum += counts[b];
      if (cum >= rank) {
        bound = b == 0 ? 0 : (uint64_t{1} << b) - 1;
        break;
      }
    }
    return std::min(std::max(bound, snap.min), snap.max);
  };
  snap.p50 = quantile((snap.count + 1) / 2);
  snap.p90 = quantile((snap.count * 9 + 9) / 10);
  snap.p99 = quantile((snap.count * 99 + 99) / 100);
  return snap;
}

void Histogram::Reset() {
  for (size_t b = 0; b < kBuckets; ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Counter* MetricsRegistry::AddCounter(std::string name) {
  Entry e;
  e.name = std::move(name);
  e.counter = std::make_unique<Counter>();
  Counter* ptr = e.counter.get();
  entries_.push_back(std::move(e));
  return ptr;
}

Gauge* MetricsRegistry::AddGauge(std::string name) {
  Entry e;
  e.name = std::move(name);
  e.gauge = std::make_unique<Gauge>();
  Gauge* ptr = e.gauge.get();
  entries_.push_back(std::move(e));
  return ptr;
}

Histogram* MetricsRegistry::AddHistogram(std::string name) {
  Entry e;
  e.name = std::move(name);
  e.histogram = std::make_unique<Histogram>();
  Histogram* ptr = e.histogram.get();
  entries_.push_back(std::move(e));
  return ptr;
}

std::string MetricsRegistry::ExportText() const {
  TablePrinter table({"metric", "value", "p50", "p90", "p99", "max"});
  for (const Entry& e : entries_) {
    if (e.counter != nullptr) {
      table.AddRow({e.name, std::to_string(e.counter->Value()), "", "", "",
                    ""});
    } else if (e.gauge != nullptr) {
      table.AddRow(
          {e.name, std::to_string(e.gauge->Value()), "", "", "", ""});
    } else {
      const HistogramSnapshot s = e.histogram->Snapshot();
      table.AddRow({e.name + " (n=" + std::to_string(s.count) + ")",
                    std::to_string(s.mean()), std::to_string(s.p50),
                    std::to_string(s.p90), std::to_string(s.p99),
                    std::to_string(s.max)});
    }
  }
  return table.Render();
}

void AppendHistogramJson(const HistogramSnapshot& snap, std::string* out) {
  *out += "{\"count\": " + std::to_string(snap.count) +
          ", \"sum\": " + std::to_string(snap.sum) +
          ", \"mean\": " + std::to_string(snap.mean()) +
          ", \"min\": " + std::to_string(snap.min) +
          ", \"p50\": " + std::to_string(snap.p50) +
          ", \"p90\": " + std::to_string(snap.p90) +
          ", \"p99\": " + std::to_string(snap.p99) +
          ", \"max\": " + std::to_string(snap.max) + "}";
}

std::string MetricsRegistry::ExportJson(int indent) const {
  const std::string pad(static_cast<size_t>(indent), ' ');
  std::string out = "{\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += pad + "  \"" + e.name + "\": ";
    if (e.counter != nullptr) {
      out += std::to_string(e.counter->Value());
    } else if (e.gauge != nullptr) {
      out += std::to_string(e.gauge->Value());
    } else {
      AppendHistogramJson(e.histogram->Snapshot(), &out);
    }
    if (i + 1 < entries_.size()) out += ",";
    out += "\n";
  }
  out += pad + "}";
  return out;
}

void MetricsRegistry::ResetAll() {
  for (Entry& e : entries_) {
    if (e.counter != nullptr) {
      e.counter->Reset();
    } else if (e.gauge != nullptr) {
      e.gauge->Reset();
    } else {
      e.histogram->Reset();
    }
  }
}

}  // namespace obs
}  // namespace ringdb
