#!/usr/bin/env python3
"""Builds and runs the ringdb repository benchmark.

    python3 ringbench/run.py --workload zipf-batch --seed 1 --seconds 8 --trace 0

Run from the root of a checkout. The script builds ringdb from src/ and the
measuring program (ringbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default
.bench_build), generates the workload's stream from the seed in its own
process, runs the workload and relays its output; the last stdout line is
the result JSON. The exit code is 0 only when the build, the run and every
correctness check succeeded.

    python3 ringbench/run.py --pin SEEDS --workload W --seconds S

prints digests-file lines for the given seeds (e.g. 1-12), computed with the
reference configuration (interpreter backend, one shard, batch size 1).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "engine.h")):
        log("ringdb sources (src/) not found next to ringbench/")
        return None
    build_dir = os.path.join(build_root, "ringbench")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 2)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "ringbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--pin", default="")
    args = ap.parse_args()

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    if binary is None:
        return 2

    # Everything the run writes stays under the build root: the native
    # trigger cache (warmed untimed inside the run), the C compiler's
    # temporaries, the stream file, WAL/checkpoint directories and traces.
    env = dict(os.environ)
    env["RINGDB_NATIVE_CACHE_DIR"] = os.path.join(build_root, "native-cache")
    env["TMPDIR"] = os.path.join(build_root, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    work = os.path.join(build_root, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)

    def stream_for(seed):
        path = os.path.join(work, "stream-%d.bin" % seed)
        gen = subprocess.run(
            [binary, "gen", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--stream", path], env=env)
        return path if gen.returncode == 0 else None

    try:
        if args.pin:
            lo, _, hi = args.pin.partition("-")
            for seed in range(int(lo), int(hi or lo) + 1):
                path = stream_for(seed)
                if path is None:
                    return 1
                subprocess.run(
                    [binary, "reference", "--workload", args.workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--stream", path], env=env, check=True)
                os.remove(path)
            return 0

        path = stream_for(args.seed)
        if path is None:
            log("stream generation failed")
            return 1
        cmd = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--stream", path,
               "--work-dir", os.path.join(work, "run"),
               "--digests", os.path.join(HERE, "digests.txt")]
        if args.trace:
            traces = os.path.join(build_root, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
        proc = subprocess.Popen(cmd, env=env)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("run exceeded %d s" % RUN_TIMEOUT_S)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
