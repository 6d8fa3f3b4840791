// Immutable frozen copy of one ViewTable — a shard's published sub-result.
//
// The shard-owned publish path (PR 10) ends every applied window with the
// owning worker freezing its shard's root view into one of these:
// a build-once open-addressing table (dense arity-strided keys, dense
// values, power-of-two slot array with linear probing) plus the
// precomputed ring total of all its multiplicities. serve::ResultSnapshot
// composes the per-shard FrozenViews by shared_ptr — readers probe each
// part and sum in the ring, full scans lazily merge — so publication
// never merges shards, and a shard untouched by a window republishes its
// previous FrozenView for free (the epoch-carry in ShardedExecutor).
//
// Immutable after Freeze(): every accessor is const and safe to call from
// any number of threads with no synchronization beyond the happens-before
// that delivered the pointer (SnapshotCell / the worker-pool handshake).
//
// Freeze copies out all live entries exactly as ViewTable::ForEach visits
// them — including zero-valued entries of keep_zeros views — so a
// single-part composition preserves the source table's iteration
// semantics bit-for-bit.

#ifndef RINGDB_RUNTIME_FROZEN_VIEW_H_
#define RINGDB_RUNTIME_FROZEN_VIEW_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/view_table.h"
#include "util/numeric.h"
#include "util/value.h"

namespace ringdb {
namespace runtime {

class FrozenView {
 public:
  // Freezes `table`'s current live entries. Must not race a writer of
  // `table` (callers hold the shard token or the executor is quiescent).
  static std::shared_ptr<const FrozenView> Freeze(const ViewTable& table) {
    auto view = std::shared_ptr<FrozenView>(new FrozenView(table.arity()));
    const size_t n = table.size();
    view->keys_.reserve(n * view->arity_);
    view->values_.reserve(n);
    Numeric total = kZero;
    table.ForEach([&](KeyView key, Numeric m) {
      for (size_t i = 0; i < key.size(); ++i) view->keys_.push_back(key[i]);
      view->values_.push_back(m);
      total += m;
    });
    view->total_ = total;
    view->BuildSlots();
    return view;
  }

  size_t arity() const { return arity_; }
  size_t size() const { return values_.size(); }
  // Ring sum of every entry's multiplicity (the shard's contribution to
  // a scalar / Sum(.) read), precomputed so composition is O(shards).
  Numeric total() const { return total_; }

  // Point probe in root key order; 0 when absent (the gmr default).
  Numeric At(const Value* key, size_t n) const {
    if (values_.empty()) return kZero;
    size_t slot = HashValues(key, n) & slot_mask_;
    while (slots_[slot] != kEmptySlot) {
      const uint32_t id = slots_[slot];
      const Value* entry = keys_.data() + static_cast<size_t>(id) * arity_;
      bool match = true;
      for (size_t i = 0; i < n && match; ++i) match = entry[i] == key[i];
      if (match) return values_[id];
      slot = (slot + 1) & slot_mask_;
    }
    return kZero;
  }

  // fn(KeyView, Numeric) per entry, in freeze (= source iteration) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < values_.size(); ++i) {
      fn(KeyView(keys_.data() + i * arity_, arity_), values_[i]);
    }
  }

  size_t ApproxBytes() const {
    return keys_.capacity() * sizeof(Value) +
           values_.capacity() * sizeof(Numeric) +
           slots_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  explicit FrozenView(size_t arity) : arity_(arity) {}

  void BuildSlots() {
    size_t want = 16;
    while (want < values_.size() * 2) want <<= 1;
    slots_.assign(want, kEmptySlot);
    slot_mask_ = want - 1;
    for (size_t id = 0; id < values_.size(); ++id) {
      const uint64_t h = HashValues(keys_.data() + id * arity_, arity_);
      size_t slot = h & slot_mask_;
      while (slots_[slot] != kEmptySlot) slot = (slot + 1) & slot_mask_;
      slots_[slot] = static_cast<uint32_t>(id);
    }
  }

  const size_t arity_;
  Numeric total_ = kZero;
  std::vector<Value> keys_;  // arity_-strided, root key order
  std::vector<Numeric> values_;
  std::vector<uint32_t> slots_;
  size_t slot_mask_ = 0;
};

using FrozenViewPtr = std::shared_ptr<const FrozenView>;

}  // namespace runtime
}  // namespace ringdb

#endif  // RINGDB_RUNTIME_FROZEN_VIEW_H_
