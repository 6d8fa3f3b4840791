// ringbench: the repository benchmark's measuring program.
//
//   ringbench gen --workload W --seed N --seconds S --stream FILE
//       Generates the workload's update stream (compact format) into FILE.
//   ringbench run --workload W --seed N --seconds S --stream FILE
//                 --trace 0|1 --work-dir DIR [--digests FILE]
//                 [--trace-out FILE]
//       Runs the workload on FILE; prints the result JSON as the last
//       line of stdout. Exit code 0 iff every correctness check passed.
//   ringbench reference --workload W --seed N --seconds S --stream FILE
//       Prints the reference digest line (interpreter, one shard,
//       single-tuple Apply) in the digests-file format.
//
// ringbench/run.py builds this program and drives the three steps.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace {

struct Args {
  std::string cmd;
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string stream;
  std::string work_dir;
  std::string digests;
  std::string trace_out;
};

bool Parse(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->cmd = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--stream") {
      a->stream = v;
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--digests") {
      a->digests = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->stream.empty();
}

// Digests file: one line per pinned (workload, seed, seconds):
//   <workload> <seed> <seconds> <digest q0>[,<digest q1>...]
std::vector<std::string> PinnedDigests(const Args& a) {
  std::ifstream in(a.digests);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, digests;
    uint64_t seed = 0;
    int seconds = 0;
    if (!(ls >> w >> seed >> seconds >> digests)) continue;
    if (w != a.workload || seed != a.seed || seconds != a.seconds) continue;
    std::vector<std::string> out;
    std::stringstream ds(digests);
    std::string d;
    while (std::getline(ds, d, ',')) out.push_back(d);
    return out;
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args a;
  if (!Parse(argc, argv, &a)) {
    std::fprintf(stderr, "usage: see the comment at the top of main.cc\n");
    return 2;
  }
  ringbench::Spec spec;
  if (!ringbench::MakeSpec(a.workload, a.seconds, &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  std::string error;
  if (a.cmd == "gen") {
    const std::vector<ringbench::Op> ops =
        ringbench::GenerateStream(spec, a.seed);
    if (!ringbench::WriteStream(a.stream, ops, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  std::vector<ringbench::Op> ops;
  if (!ringbench::ReadStream(a.stream, &ops, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (a.cmd == "reference") {
    const std::vector<std::string> d =
        ringbench::IndependentDigests(spec, ops, {});  // interpreter, batch 1
    std::string joined;
    for (size_t i = 0; i < d.size(); ++i) joined += (i ? "," : "") + d[i];
    std::printf("%s %llu %d %s\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds,
                joined.c_str());
    return 0;
  }
  if (a.cmd != "run" || a.work_dir.empty()) return 2;
  ringbench::RunOptions options;
  options.seed = a.seed;
  options.trace = a.trace;
  options.work_dir = a.work_dir;
  options.trace_out = a.trace_out;
  if (!a.digests.empty()) options.pinned = PinnedDigests(a);
  ringbench::RunResult result;
  ringbench::RunWorkload(spec, ops, options, &result);
  result.PrintJsonLine();
  return result.correct ? 0 : 1;
}
