#!/usr/bin/env python3
"""Builds and runs the TailGuard benchmark.

    python3 tgbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the benchmark package (tgbench/Cargo.toml) against the repository's
crates, runs one workload in one process, and passes its output through:
the last line is the JSON result. Run it from the repository root.

    python3 tgbench/run.py --steadiness [--runs 10]

runs two alternated sets of every workload in BENCHMARK.json (A, B, A,
B, ...; run i of both sets uses seed 1 + i, and every run lasts
run_seconds) and prints, for each end-to-end metric, each set's median
and quartiles, the spread (quartile distance over median) and the gap
between the medians, against the bound in BENCHMARK.json, plus each
set's share of failed operations.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"tgbench: {msg}", file=sys.stderr)
    sys.exit(3)


def build():
    """Builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail(f"no TailGuard crates under {ROOT}; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed ({done.returncode})")
    binary = os.path.join(target, "release", "tgbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def run_once(binary, args, capture):
    """Runs the benchmark binary once; returns (exit code, stdout)."""
    try:
        done = subprocess.run(
            [binary] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE if capture else None,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run {args} exceeded {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def steadiness(argv):
    if len(argv) not in (0, 2) or argv[:1] not in ([], ["--runs"]):
        fail("usage: run.py --steadiness [--runs N]")
    runs = int(argv[1]) if argv else 10
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    binary = build()
    sets = {w: ([], []) for w in workloads}
    for i in range(runs):
        for w in workloads:
            for s in (0, 1):
                args = ["--workload", w, "--seed", str(1 + i),
                        "--seconds", seconds, "--trace", "0"]
                code, out = run_once(binary, args, capture=True)
                if code != 0:
                    fail(f"{w} seed {1 + i} exited {code}")
                result = json.loads(out.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"{w} seed {1 + i}: INCORRECT", flush=True)
                sets[w][s].append(result)
        print(f"pair {i + 1}/{runs} done", file=sys.stderr, flush=True)
    all_ok = True
    for w in workloads:
        a, b = sets[w]
        share = [sum(r["failed"] for r in x) / sum(r["attempted"] for r in x) for x in (a, b)]
        print(f"\n{w}: failed share A {share[0]:.9f} B {share[1]:.9f}"
              f"{'' if share[0] == share[1] else '  DIFFERENT'}")
        print(f"  {'metric':18s} {'median A':>12s} {'q1..q3 A':>23s} {'spread A':>9s}"
              f" {'median B':>12s} {'spread B':>9s} {'gap':>8s} {'bound':>6s}")
        for name, spec in bounds.items():
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            (qa1, qa3), (qb1, qb3) = quartiles(va), quartiles(vb)
            sa, sb = (qa3 - qa1) / ma, (qb3 - qb1) / mb
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            bound = spec["bound"]
            ok = worse <= bound and max(sa, sb) <= bound
            steady = max(sa, sb) < bound / 3
            all_ok = all_ok and ok
            flag = "" if ok and steady else ("  OVER BOUND" if not ok else "  above bound/3")
            print(f"  {name:18s} {ma:12.6g} {qa1:11.5g}..{qa3:<11.5g} {sa:9.4f}"
                  f" {mb:12.6g} {sb:9.4f} {worse:+8.4f} {bound:6.3f}{flag}")
    return 0 if all_ok else 1


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--steadiness"]:
        sys.exit(steadiness(argv[1:]))
    binary = build()
    code, _ = run_once(binary, argv, capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
