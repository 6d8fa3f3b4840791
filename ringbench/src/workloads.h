// The three ringbench workloads and the stream each one is generated from.
// See ringbench/README.md for why each exists and what it measures.

#ifndef RINGBENCH_WORKLOADS_H_
#define RINGBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/engine.h"

namespace ringbench {

// Everything that shapes one workload's input and run, derived from the
// workload name and --seconds alone (the seed only picks the stream).
struct Spec {
  std::string name;
  // Stream shape (workload::StreamOptions, per column).
  int64_t domain = 4096;
  double zipf_s = 0.0;
  double delete_fraction = 0.15;
  // When > 0, deletes keep each relation at this many live rows instead of
  // following delete_fraction: once a relation is full, every insert into
  // it is preceded by the delete of one of its live rows, chosen at random.
  size_t live_rows = 0;
  // Read events generated into the orders stream (uniform-tuple-rw).
  double orders_read_fraction = 0.0;
  // Update counts of the phases, in stream order.
  size_t preload = 0;    // untimed, counted in setup_s
  size_t open_loop = 0;  // serve-durable: paced producer phase
  size_t timed = 0;      // closed-loop timed phase (serve: the burst)
  // Preload tail applied through the timed phase's own call
  // (uniform-tuple-rw: single-tuple Apply, so that call's dispatch locks).
  size_t preload_tail = 0;
  size_t shards = 1;
  size_t batch = 1024;
  // serve-durable pacing.
  double open_rate = 0.0;  // offered updates per second
  double read_rate = 0.0;  // offered Get calls per second
  uint64_t checkpoint_every = 128;
  // Oracle prefix checked against NaiveReevaluator.
  size_t oracle_prefix = 0;
  // Program threads (besides the driving thread) and benchmark threads.
  int program_threads = 0;
  int generator_threads = 1;

  size_t total_updates() const { return preload + open_loop + timed; }
};

bool MakeSpec(const std::string& workload, int seconds, Spec* spec);

// Generates the workload's stream from the seed (runs in its own process,
// so generator memory never shows in the measured process).
std::vector<Op> GenerateStream(const Spec& spec, uint64_t seed);

struct RunOptions {
  uint64_t seed = 1;
  bool trace = false;
  std::string work_dir;      // scratch directory owned by this run
  std::string trace_out;     // span file (traced runs)
  // Pinned digests for (workload, seed, seconds), one per query; empty
  // when this seed is not pinned (the run then computes the reference).
  std::vector<std::string> pinned;
};

// Runs the workload on a pre-generated stream and fills `result` with
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
void RunWorkload(const Spec& spec, const std::vector<Op>& ops,
                 const RunOptions& options, RunResult* result);

// Final-result digests (one per query) of the whole stream applied with
// Engine::ApplyBatch under `eo`. Pinned digests come from the reference
// configuration: interpreter backend, one shard, batch size 1.
std::vector<std::string> IndependentDigests(
    const Spec& spec, const std::vector<Op>& ops,
    const ringdb::runtime::EngineOptions& eo);

}  // namespace ringbench

#endif  // RINGBENCH_WORKLOADS_H_
