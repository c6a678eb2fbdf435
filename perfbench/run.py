#!/usr/bin/env python3
"""End-to-end benchmark of the sysgo commands users wait on: sweep, solve
and synth.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Workloads: sweep_validate, solve_synth, solve_mix, synth_corpus, synth_large
(see perfbench/README.md for why each exists).  The first run configures and
builds perfbench/ -- which compiles the repository's own library from
source -- into $CARGO_TARGET_DIR, or .bench_build when that is unset.

--trace 0 measures the end-to-end metrics with tracing off; set-up time is
sampled in several benchmark processes (each measures its own start-up
from inside) and reported as their median.  --trace 1 runs the separate
traced replay and prints the per-layer metrics; its spans are written as
Chrome trace JSON next to the build.  The last stdout line is the benchmark's
JSON result.  A failed build or a failed run exits non-zero.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep_validate", "solve_synth", "solve_mix", "synth_corpus",
             "synth_large")
DEFAULT_SEED = 1402446108  # the sysgo CLI's default --seed
SETUP_PROBES = 20  # extra processes that only measure set-up
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then bring the binary up to date (a no-op when it is)."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def setup_samples(base_cmd):
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(base_cmd + ["--setup-only"],
                             stdout=subprocess.PIPE, text=True, check=True,
                             timeout=60).stdout
        key, value = out.split()
        if key != "setup_s":
            raise RuntimeError(f"unexpected set-up probe output: {out!r}")
        samples.append(value)
    return samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--golden-dir", os.path.join(HERE, "golden")]
    try:
        if args.trace == 0:
            cmd = base + ["--seconds", str(args.seconds), "--trace", "0",
                          "--setup-samples", ",".join(setup_samples(base))]
        else:
            trace_out = os.path.join(
                build_dir, f"perfbench-{args.workload}.trace.json")
            cmd = base + ["--seconds", str(args.seconds), "--trace", "1",
                          "--trace-out", trace_out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(f"run failed: {e}")
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
