#!/usr/bin/env python3
"""Runs one workload of the multihonest benchmark and prints its result.

    python3 perfbench/run.py --workload <table1|campaign|horizon|forkflow> \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. It builds `perfbench/` (a cargo
package of its own that links the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload in its own
process, and prints a record line (machine, source revision, sample
counts and deterministic work counts) followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are BENCHMARK.json's `end_to_end` metrics of
the named workload, measured with tracing off. With `--trace 1` they are
all of its `per_layer` metrics: the traced breakdown of every workload,
each in its own process, whichever workload is named. WAL and checkpoint
files live in a fresh directory under `.bench_build/` that is removed
afterwards; traces are kept in `.bench_build/perfbench-traces/`.

The default seed is 1; seed 2 is held out for confirming later claims.
README.md says why each workload exists and what each metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("table1", "campaign", "horizon", "forkflow")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
# A workload process must end well inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target / "release" / "perfbench"


def run_workload(binary, workload, seed, seconds, trace, workdir):
    """Runs one workload process and returns its parsed outcome."""
    cmd = [str(binary), workload, "--seed", str(seed), "--seconds",
           repr(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=PROCESS_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload} did not finish: {e}")
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(f"{workload} printed no outcome: {e}")


def source_revision():
    """The git revision, or a digest of the sources outside git."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        top, head = (rev.stdout.split() + ["", ""])[:2]
        if rev.returncode == 0 and Path(top).resolve() == ROOT:
            return {"git_rev": head}
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and "target" not in p.parts]
    for path in sorted(files):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_rev": None, "source_sha256": digest.hexdigest()}


def machine():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True,
                               text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "rustc": rustc}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; seed "
                        f"{HELD_OUT_SEED} is held out for confirming claims)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        parser.error("--seconds must be at least 1")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    binary = build()
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-run-", dir=scratch))
    try:
        if args.trace:
            # Every per-layer metric belongs to one workload, so the traced
            # run breaks down all four, splitting the time between them.
            names = WORKLOADS
        else:
            names = (args.workload,)
        outcomes = {w: run_workload(binary, w, args.seed,
                                    seconds / len(names), bool(args.trace),
                                    workdir) for w in names}
        traces = scratch / "perfbench-traces"
        for trace in workdir.glob("trace-*.json"):
            traces.mkdir(exist_ok=True)
            shutil.move(str(trace), traces / trace.name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, samples = {}, {}
    for o in outcomes.values():
        metrics.update(o["metrics"])
        samples.update(o["samples"])
    counts = {w: o["counts"] for w, o in outcomes.items()}
    peak_rss_mb = {w: o["peak_rss_mb"] for w, o in outcomes.items()}
    if set(metrics) != set(expected):
        fail(f"metrics {sorted(set(metrics) ^ set(expected))} do not match "
             "BENCHMARK.json")
    for name, m in metrics.items():
        if m["unit"] != expected[name] or not isinstance(m["value"], (int, float)):
            fail(f"metric {name} is malformed: {m}")

    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": seconds, **machine(),
              **source_revision(), "samples": samples, "counts": counts,
              "peak_rss_mb": peak_rss_mb}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
