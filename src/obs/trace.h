// Window-scoped pipeline tracing (DESIGN.md "Tracing").
//
// Since PR 4 the unit of work is a coalesced *window* flowing through a
// concurrent pipeline (ingest queue → coalesce → WAL append/fsync →
// per-query fan-out apply → snapshot publish). The histograms in
// obs/metrics.h aggregate each stage in isolation; this layer records
// one WindowTrace per window so a p99 spike can be attributed to the
// stage (and shard, and query) that caused it, and the last N windows
// double as a flight recorder dumped on durability fail-stop.
//
// TraceRecorder is a fixed-capacity ring of seqlock-framed slots:
//
//  - BeginWindow(seq) claims slot seq % capacity by publishing
//    started=seq (release) after zeroing the slot. A window overwrites
//    whatever was capacity windows ago — retention is "last N", never
//    an allocation or a lock.
//  - Each pipeline stage writes its own begin/end timestamp pair into
//    the slot (relaxed atomics). Stages are single-writer by
//    construction — the batcher owns queue-wait/coalesce/WAL/fan-out,
//    each shard worker owns its sub-span, each query worker owns its
//    apply/publish sub-span — so there are no write-write races, and
//    the relaxed stores keep the hot path at one vDSO clock read plus
//    one store per stage edge.
//  - FinishWindow(seq) publishes finished=seq (release). Export()
//    re-checks started after copying a slot (acquire fences on both
//    reads) and discards slots whose frame changed mid-copy; a slot
//    with started==seq but finished!=seq exports as complete=false —
//    exactly what a flight-recorder dump wants to show for the window
//    that was in flight when the pipeline died.
//
// Everything compiles out under -DRINGDB_NO_METRICS (capacity forced to
// zero, every call an early-out), and recording is timing-granular only
// at window/stage boundaries, so the ≤2% CI overhead budget holds with
// tracing on.

#ifndef RINGDB_OBS_TRACE_H_
#define RINGDB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"

namespace ringdb {
namespace obs {

// Pipeline stages, one track each in the Chrome-trace export. Values
// index fixed arrays in the slot; keep kTraceStageCount last.
enum TraceStage : uint32_t {
  kTraceQueueWait = 0,  // oldest enqueue → batcher dequeue (serve)
  kTraceCoalesce,       // BatchBuilder Add loop + Build
  kTraceWalAppend,      // encode + WAL write (excluding fsync)
  kTraceWalFsync,       // the fsync portion of the append, if any
  kTraceApply,          // engine-standalone ApplyBatch window
  kTraceFanout,         // serve fan-out publish → done barrier
  kTraceCheckpoint,     // ViewTable checkpoint round, when one ran
  kTraceStageCount,
};

const char* TraceStageName(TraceStage stage);

// Sub-span kinds within a window: per-query and per-shard attribution.
enum TraceSpanKind : uint32_t {
  kSpanQueryApply = 0,  // one query's ApplyPrepared inside the fan-out
  kSpanQueryPublish,    // that query's snapshot rebuild + store
  kSpanShardApply,      // one shard's ApplyDeltaColumns inside an apply
  kSpanShardSteal,      // one stolen morsel run on an idle worker
  kSpanShardPublish,    // one shard freezing its root sub-snapshot
  kSpanKindCount,
};

const char* TraceSpanKindName(TraceSpanKind kind);

// One sub-span as exported (begin/end in NowNs() nanoseconds).
struct TraceSpan {
  TraceSpanKind kind = kSpanQueryApply;
  uint32_t query = 0;  // query index (query spans) or 0
  uint32_t shard = 0;  // shard index (shard spans) or 0
  uint32_t mode = 0;   // dispatch mode the window ran under (shard spans)
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
};

// One window's merged trace as exported. Stage begin/end of 0 means the
// stage did not run for this window (e.g. no WAL when durability is
// off, no checkpoint most windows).
struct WindowTrace {
  uint64_t seq = 0;
  uint64_t events = 0;       // updates coalesced into the window
  uint64_t bytes_logged = 0;  // WAL bytes appended for the window
  bool wal_synced = false;    // window's append ended with an fsync
  bool complete = false;      // FinishWindow ran (false: in flight)
  uint64_t stage_begin_ns[kTraceStageCount] = {};
  uint64_t stage_end_ns[kTraceStageCount] = {};
  std::vector<TraceSpan> spans;

  uint64_t StageNs(TraceStage stage) const {
    const uint64_t b = stage_begin_ns[stage];
    const uint64_t e = stage_end_ns[stage];
    return e > b ? e - b : 0;
  }
  // End-to-end latency: first stage begin to last stage end.
  uint64_t BeginNs() const;
  uint64_t EndNs() const;
  uint64_t ElapsedNs() const { return EndNs() - BeginNs(); }
};

// Fixed-capacity lock-free window-trace ring + flight recorder. One
// recorder per pipeline (QueryService) or per engine; writers are the
// pipeline's own threads, Export() may run concurrently from any thread.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 256;
  // Per-window sub-span budget: covers 8 shards + 16 queries × 2 spans
  // with room to spare; overflow increments dropped_spans() instead of
  // writing out of bounds.
  static constexpr size_t kMaxSpans = 48;

  explicit TraceRecorder(size_t capacity = kDefaultCapacity);

  // Claims the slot for `seq` (seq must be nonzero and monotone per
  // recorder; both hold for window sequence numbers). Invalidates the
  // overwritten window first so a concurrent Export never sees a
  // half-cleared slot as valid.
  void BeginWindow(uint64_t seq, uint64_t events);
  // Records one stage's [begin, end) for the window. Single writer per
  // (seq, stage).
  void Stage(uint64_t seq, TraceStage stage, uint64_t begin_ns,
             uint64_t end_ns);
  void SetBytesLogged(uint64_t seq, uint64_t bytes, bool synced);
  // Appends a sub-span; safe from concurrent shard/query workers (slot
  // claim via fetch_add).
  void AddSpan(uint64_t seq, TraceSpanKind kind, uint32_t query,
               uint32_t shard, uint32_t mode, uint64_t begin_ns,
               uint64_t end_ns);
  void FinishWindow(uint64_t seq);

  // Merge-on-export: copies every valid retained window, oldest seq
  // first. Windows overwritten or begun mid-copy are skipped; a window
  // still in flight exports with complete=false.
  std::vector<WindowTrace> Export() const;

  size_t capacity() const { return capacity_; }
  uint64_t dropped_spans() const {
    return dropped_spans_.load(std::memory_order_relaxed);
  }

 private:
  // BeginWindow resets nspans but not the span payloads, and AddSpan
  // claims its index before it writes, so a claimed span may still hold
  // the previous occupant's fields. `tag` is the publication mark: the
  // window seq, stored (release) after the payload. Export keeps a span
  // only when its tag (acquire) equals the slot's started seq.
  struct SpanSlot {
    std::atomic<uint64_t> meta{0};  // kind | query<<8 | shard<<24 | mode<<40
    std::atomic<uint64_t> begin_ns{0};
    std::atomic<uint64_t> end_ns{0};
    std::atomic<uint64_t> tag{0};
  };
  struct Slot {
    // Seqlock frame: started is published (release) after the clear,
    // finished (release) after the last stage write. A reader that sees
    // started==seq before and after its copy, with acquire ordering,
    // holds a consistent snapshot of everything written in between.
    std::atomic<uint64_t> started{0};
    std::atomic<uint64_t> finished{0};
    std::atomic<uint64_t> events{0};
    std::atomic<uint64_t> bytes_logged{0};
    std::atomic<uint64_t> flags{0};  // bit 0: wal_synced
    std::atomic<uint64_t> stage_begin[kTraceStageCount];
    std::atomic<uint64_t> stage_end[kTraceStageCount];
    std::atomic<uint32_t> nspans{0};
    SpanSlot spans[kMaxSpans];
  };

  Slot* SlotFor(uint64_t seq) const {
    return capacity_ == 0 ? nullptr : &slots_[seq % capacity_];
  }

  size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> dropped_spans_{0};
};

// Shared writer context handed down to the executors so per-shard and
// per-query sub-spans land in the pipeline's recorder. A null recorder
// (or seq 0) disables recording; ownership stays with the pipeline.
struct TraceContext {
  TraceRecorder* recorder = nullptr;
  uint64_t seq = 0;
  uint32_t query = 0;
};

// SIGUSR1-style on-demand dump: ArmTraceDumpSignal installs an async-
// signal-safe handler that only bumps a flag; the pipeline polls
// ConsumeTraceDumpRequest() at window boundaries and writes the dump on
// its own thread. Process-wide (signals are); last armer wins.
void ArmTraceDumpSignal(int signum);
bool ConsumeTraceDumpRequest();

}  // namespace obs
}  // namespace ringdb

#endif  // RINGDB_OBS_TRACE_H_
