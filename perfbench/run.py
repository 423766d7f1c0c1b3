#!/usr/bin/env python3
"""Seeded macro benchmark for the CXL.cache model checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the `perfbench` harness
(`perfbench/Cargo.toml`, into `$CARGO_TARGET_DIR`, default `.bench_build`),
then runs one workload as a closed loop: one exploration per process, the
next process starting only after the previous one ended.

Each run explores two generated inputs:

* the workload's recorded default input (seed 0), explored again and
  again for `--seconds` seconds; every figure reported comes from these
  explorations, so two commits are always timed on the same input;
* the input drawn from `--seed` (store values and device order), explored
  once as a held-out check of the recorded expectations.

Every exploration's verdict, state, transition, depth and terminal counts
(and, on `reduced_n4`, the ample-step counts) are checked against the
workload's expectations; a run that differs, truncates or quarantines a
state counts as wrong. Any wrong run makes the command exit 1.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
alternates traced and untraced explorations and reports the per-layer
metrics. Human-readable lines come first; the last line of stdout is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 0
MIN_SAMPLES = 3
MIN_TRACED_PAIRS = 2
PROCESS_TIMEOUT_S = 120

# Store values are written `Sa`..`Sd` and drawn per seed; every workload
# runs the strict protocol configuration over N = 4 devices.
WORKLOADS = {
    "unreduced_n4": {
        "programs": ["Sa,L", "Sb,L", "L,L", "L"],
        "flags": ["--threads", "1"],
        "expect": {
            "states": 515220,
            "transitions": 1717048,
            "depth": 40,
            "terminals": 1298,
        },
    },
    "reduced_n4": {
        "programs": ["Sa,L,E", "Sb,L", "Sc,L", "Sd,L"],
        "flags": ["--reduce", "--threads", "2"],
        "expect": {
            "states": 285343,
            "transitions": 655614,
            "depth": 46,
            "terminals": 1065,
            "ample_local": 21979,
            "ample_diamond": 22936,
            "ample_host_drain": 8385,
            "canon": "refine",
        },
    },
    "beyond_ram_n4": {
        "programs": ["Sa,L", "Sb", "L", "L"],
        "flags": ["--cold-store", "--threads", "2"],
        "expect": {
            "states": 130693,
            "transitions": 410322,
            "depth": 33,
            "terminals": 532,
        },
    },
}

# Every workload's verdict: clean, complete coverage.
CLEAN = {"violations": 0, "deadlocks": 0, "truncated": False, "quarantined": 0}


def idle_layers(name):
    """Per-layer metrics `name` does not exercise, with the reason."""
    flags = WORKLOADS[name]["flags"]
    idle = {}
    if "--reduce" not in flags:
        for m in ("canon_ns", "canon_calls", "canon_changed_ratio", "ample_ns",
                  "ample_hit_ratio"):
            idle[f"reduce.{m}"] = "no reducer installed on this workload"
    if "--cold-store" not in flags:
        for m in ("extents_sealed", "extents_faulted", "bytes_on_disk"):
            idle[f"spill.{m}"] = "spill is not armed on this workload"
        idle["checker.spill_s"] = "spill is not armed on this workload"
        for m in ("writes", "bytes", "read_s"):
            idle[f"checkpoint.{m}"] = "checkpoints are off on this workload"
        idle["checker.checkpoint_s"] = "checkpoints are off on this workload"
        idle["codec.delta_decode_ns"] = "delta encoding is off on this workload"
        idle["codec.delta_ratio"] = "delta encoding is off (ratio 1 by definition)"
    if flags[flags.index("--threads") + 1] == "1":
        reason = "threads 1 runs the sequential driver: no shards, no routing"
        idle["checker.routed_messages"] = reason
        idle["checker.shard_imbalance_pct"] = reason
        idle["checker.merge_s"] = ("the sequential driver times its fused "
                                   "expand+merge loop under expand")
    return idle


class BenchError(Exception):
    pass


def programs_for(name, seed):
    """The four device programs of `name` for `seed`: seed 0 stores
    1, 2, 3, 4 in program order on devices in listed order; any other seed
    draws distinct values and a device order."""
    if seed == DEFAULT_SEED:
        values, order = [1, 2, 3, 4], [0, 1, 2, 3]
    else:
        rng = random.Random(f"{name}/{seed}")
        values = rng.sample(range(1, 64), 4)
        order = rng.sample(range(4), 4)
    names = {f"S{c}": f"S{v}" for c, v in zip("abcd", values)}
    programs = [
        ",".join(names.get(tok, tok) for tok in p.split(","))
        for p in WORKLOADS[name]["programs"]
    ]
    return [programs[i] for i in order]


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    binary = target / "release" / "perfbench"
    if proc.returncode != 0 or not binary.is_file():
        raise BenchError("building the perfbench harness failed")
    return binary, target / "perfbench-work"


class Runner:
    def __init__(self, binary, work_root, name):
        self.binary = binary
        self.work_root = work_root
        self.name = name
        self.runs = 0
        self.wrong = []

    def explore(self, seed, traced):
        """One exploration in a fresh process and a fresh work directory,
        removed afterwards; returns its measurements after checking them."""
        self.runs += 1
        work = self.work_root / f"{self.name}-{os.getpid()}-{self.runs}"
        progs = programs_for(self.name, seed)
        cmd = [str(self.binary)]
        for i, p in enumerate(progs, 1):
            cmd += [f"--p{i}", p]
        cmd += WORKLOADS[self.name]["flags"]
        cmd += ["--work-dir", str(work)]
        if traced:
            cmd.append("--trace")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"exploration timed out: {' '.join(cmd)}") from e
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"exploration failed ({proc.returncode}): "
                             f"{' '.join(cmd)}\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        expect = dict(CLEAN, **WORKLOADS[self.name]["expect"])
        diffs = [f"{k} = {sample.get(k)!r}, expected {v!r}"
                 for k, v in expect.items() if sample.get(k) != v]
        tag = "traced" if traced else "untraced"
        status = "ok" if not diffs else "WRONG: " + "; ".join(diffs)
        print(f"  run {self.runs} seed {seed} {tag}: verdict_s "
              f"{sample['verdict_s']:.4f}  states {sample['states']}  {status}")
        if diffs:
            self.wrong.append((seed, diffs))
        return sample


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def end_to_end(samples):
    return {
        "verdict_s": [s["verdict_s"] for s in samples],
        "states_per_s": [s["states"] / s["verdict_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "bytes_per_state": [s["memory_bytes"] / s["states"] for s in samples],
    }


def per_layer(traced, untraced):
    per = {}
    for key in traced[0]:
        if "." in key:
            per[key] = [s[key] for s in traced]
    per["trace.explained_pct"] = [
        100.0 * s["checker.phases_s"] / s["verdict_s"] for s in traced]
    t = statistics.median(s["verdict_s"] for s in traced)
    u = statistics.median(s["verdict_s"] for s in untraced)
    per["trace.overhead_pct"] = [100.0 * (t - u) / u]
    return per


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary, work_root = build()
    work_root.mkdir(parents=True, exist_ok=True)
    runner = Runner(binary, work_root, args.workload)
    print(f"perfbench {args.workload}: timed input (seed {DEFAULT_SEED}) "
          f"{programs_for(args.workload, DEFAULT_SEED)}, held-out input "
          f"(seed {args.seed}) {programs_for(args.workload, args.seed)}")

    start = time.monotonic()
    untraced, traced = [], []
    if args.trace:
        while (len(traced) < MIN_TRACED_PAIRS
               or time.monotonic() - start < args.seconds):
            untraced.append(runner.explore(DEFAULT_SEED, traced=False))
            traced.append(runner.explore(DEFAULT_SEED, traced=True))
        values = per_layer(traced, untraced)
    else:
        while (len(untraced) < MIN_SAMPLES
               or time.monotonic() - start < args.seconds):
            untraced.append(runner.explore(DEFAULT_SEED, traced=False))
        values = end_to_end(untraced)
    runner.explore(args.seed, traced=False)
    try:
        work_root.rmdir()
    except OSError:
        pass

    idle = idle_layers(args.workload) if args.trace else {}
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        xs = values[name]
        med = statistics.median(xs)
        q1, q3 = quartiles(xs)
        metrics[name] = {"value": med, "unit": unit}
        note = f"  ({idle[name]})" if name in idle else ""
        print(f"{name:32} {med:16.6g} {unit:6} median of {len(xs)}, "
              f"q1 {q1:.6g}, q3 {q3:.6g}{note}")
    attempted, failed = runner.runs, len(runner.wrong)
    print(f"{'error_rate':32} {failed / attempted:16.6g} {'ratio':6} "
          f"{failed} wrong of {attempted} explorations")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
