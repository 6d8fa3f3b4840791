// Batched update execution: coalescing a sequence of single-tuple update
// events into per-relation columnar delta GMRs.
//
// Koch's delta rule maintains views from the update event alone, and ring
// addition makes a batch of events a first-class object: the net effect of
// a window of updates is one gmr per relation mapping each touched tuple
// to its signed multiplicity (inserts +1, deletes -1, duplicates summed).
// Opposite events inside one batch cancel *before* any trigger fires, so
// a sliding-window workload that inserts and deletes the same tuple within
// a batch costs nothing at all, and m identical inserts fire a
// multiplicity-linear trigger once (see compiler::Trigger) instead of m
// times. Rows preserve per-relation first-touch order, so replaying a
// batch is deterministic.
//
// The delta is stored column-major: one dense Value array per attribute
// plus a contiguous multiplicity array. Columns are built directly during
// coalescing (BatchBuilder appends each event's values to the column
// tails), so there is no row-to-column transpose pass. Downstream loop
// drivers (Executor::ApplyDeltaColumns, the native columnar-window entry
// points) index the columns directly; paths that need a contiguous tuple
// (single-row groups, nonlinear triggers, lazy base-database upkeep)
// gather one row at a time with GatherRow.

#ifndef RINGDB_EXEC_BATCH_H_
#define RINGDB_EXEC_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ring/database.h"
#include "util/hash.h"
#include "util/numeric.h"
#include "util/status.h"
#include "util/symbol.h"
#include "util/value.h"

namespace ringdb {
namespace exec {

// The delta GMR of one relation in columnar layout: all touched tuples
// with nonzero net multiplicity, in first-touch order. Row r of the delta
// is (columns[0][r], ..., columns[arity-1][r]) -> mults[r].
struct RelationDelta {
  Symbol relation;
  std::vector<std::vector<Value>> columns;  // arity() dense columns
  std::vector<Numeric> mults;               // one net multiplicity per row

  size_t size() const { return mults.size(); }
  size_t arity() const { return columns.size(); }
  bool empty() const { return mults.empty(); }

  // Copies row r into out[0..arity), which must have room for arity()
  // values. The row-gather used by paths that need a contiguous tuple
  // (single-row groups, nonlinear triggers, lazy base-database upkeep).
  void GatherRow(size_t r, Value* out) const {
    for (size_t c = 0; c < columns.size(); ++c) out[c] = columns[c][r];
  }

  // Sum of |multiplicity| over rows (tuple-units the delta stands for).
  uint64_t TupleUnits() const;
};

// An immutable coalesced batch, produced by BatchBuilder::Build.
class UpdateBatch {
 public:
  UpdateBatch() = default;

  // Rehydrates a batch from already-materialized deltas. This is the
  // recovery path (log::DecodeBatch): WAL records store the coalesced
  // deltas a BatchBuilder produced before the crash, so replay feeds
  // them back through ApplyPrepared without re-coalescing. Callers are
  // responsible for the BatchBuilder invariants (validated rows, net
  // multiplicities) — decode validates against the catalog.
  static UpdateBatch FromDeltas(std::vector<RelationDelta> deltas) {
    UpdateBatch batch;
    batch.deltas_ = std::move(deltas);
    return batch;
  }

  const std::vector<RelationDelta>& deltas() const { return deltas_; }
  bool empty() const { return deltas_.empty(); }

  // Number of coalesced (relation, tuple) rows across relations.
  size_t EntryCount() const;
  // Number of input tuple-units the batch nets out to.
  uint64_t TupleUnits() const;

  std::string ToString() const;

 private:
  friend class BatchBuilder;
  std::vector<RelationDelta> deltas_;  // relation first-touch order
};

// Accumulates update events and coalesces them into an UpdateBatch.
// Validates each event against the catalog at Add time, so a built batch
// is always well-formed. Coalescing is an open-addressing hash over row
// ids (power-of-two table, linear probing): a repeated tuple folds its
// multiplicity into the existing row, a fresh tuple appends one Value to
// each column tail — the columnar delta is built in place.
class BatchBuilder {
 public:
  explicit BatchBuilder(const ring::Catalog& catalog) : catalog_(&catalog) {}

  Status Add(const ring::Update& update) {
    return Add(update.relation, update.values, update.SignedUnit());
  }
  Status Add(Symbol relation, const std::vector<Value>& values,
             Numeric multiplicity);

  // The validation Add performs (relation known, arity matches), exposed
  // so producer-facing layers (serve::QueryService::Push) can reject bad
  // events eagerly with the identical error — an update passing Validate
  // cannot fail Add.
  static Status Validate(const ring::Catalog& catalog, Symbol relation,
                         const std::vector<Value>& values);

  // Events accumulated since the last Build (tuple-units, pre-coalesce).
  uint64_t pending_updates() const { return pending_updates_; }

  // Finalizes the batch: drops rows whose multiplicities cancelled to
  // zero (preserving the order of the survivors) and resets the builder.
  // The columnar buffers move out wholesale; the builder re-acquires
  // capacity on the next Add.
  UpdateBatch Build();

  // Bytes held by the coalescing buffers (columns, multiplicities, hash
  // tables), including string payloads of buffered values. Feeds
  // Engine::Stats::approx_bytes so pending-window memory is visible.
  size_t ApproxBytes() const;

 private:
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  // Per-relation accumulator: the delta under construction plus the
  // open-addressing row index (hashes cached per row so growth never
  // rehashes values).
  struct Accum {
    RelationDelta delta;
    std::vector<uint64_t> hashes;  // per-row tuple hash
    std::vector<uint32_t> slots;   // power-of-two open addressing -> row id
  };

  static uint64_t HashRow(const std::vector<Value>& values);
  static void GrowSlots(Accum& a, size_t min_rows);

  const ring::Catalog* catalog_;
  uint64_t pending_updates_ = 0;
  // Parallel per-relation accumulators, in relation first-touch order.
  std::vector<Symbol> relations_;
  std::vector<Accum> accums_;
  std::unordered_map<Symbol, size_t> relation_slot_;
};

}  // namespace exec
}  // namespace ringdb

#endif  // RINGDB_EXEC_BATCH_H_
