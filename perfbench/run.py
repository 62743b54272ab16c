#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --sweep --workloads a,b --seeds 1-10 --out runs.jsonl
    python3 perfbench/run.py --diff OLD.jsonl NEW.jsonl
    python3 perfbench/run.py --self-test

A run builds the `perfbench` package (with the release `xqd-server`) from
the checkout's sources into `$CARGO_TARGET_DIR` (default `.bench_build`),
then runs one workload; the last line of its output is the result JSON.
`--sweep` repeats runs over seeds and records their results as JSON lines,
with each metric's median and spread; `--diff` compares two such records
metric by metric against the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the benchmark and the server; return (bench, server) paths."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "perfbench", "-p", "service",
        "--bin", "perfbench", "--bin", "xqd-server",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "xqd-server")


def run_once(bench, server, workload, seed, seconds, trace, quiet=False):
    """Run one workload; return (result JSON, wall seconds)."""
    out_dir = os.path.join(target_dir(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server-bin", server, "--out-dir", out_dir]
    start = time.monotonic()
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if not quiet:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    if r.returncode != 0:
        sys.exit(f"perfbench: {workload} seed {seed} exited with {r.returncode}")
    last = r.stdout.strip().splitlines()[-1]
    return json.loads(last), wall


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_metric(records, trace=0):
    """{(workload, metric): [values]} over the records of one trace mode."""
    out = {}
    for rec in records:
        if rec["trace"] != trace:
            continue
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def sweep(args):
    bench, server = build()
    s = spec()
    seconds = args.seconds or s["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    records = []
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in seeds_of(args.seeds):
                result, wall = run_once(bench, server, workload, seed, seconds, args.trace, quiet=True)
                rec = {"workload": workload, "seed": seed, "trace": args.trace,
                       "seconds": seconds, "wall_s": round(wall, 2), "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                records.append(rec)
                print(f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
    if args.trace:
        return
    bounds = {m["name"]: m for m in s["end_to_end"]}
    print(f"\n{'workload':<18}{'metric':<26}{'median':>12}{'spread':>9}{'bound':>7}  status")
    for (workload, name), values in sorted(by_metric(records).items()):
        b = bounds[name]["bound"]
        sp = spread(values)
        status = "ok" if sp < b / 3 else ("within bound" if sp <= b else "TOO NOISY")
        if name == "setup_s":
            status += " (setup spread is not gated)"
        print(f"{workload:<18}{name:<26}{statistics.median(values):>12.4f}{sp:>9.3f}{b:>7}  {status}")


def diff(args):
    """Noise-aware comparison of two result records, per (workload, metric)."""
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    old, new = by_metric(load_records(args.diff[0])), by_metric(load_records(args.diff[1]))
    print(f"{'workload':<18}{'metric':<26}{'old median [q1, q3]':>34}{'new median [q1, q3]':>34}  verdict")
    for key in sorted(set(old) & set(new)):
        workload, name = key
        m = bounds.get(name)
        if m is None:
            continue
        o, n = quartiles(old[key]), quartiles(new[key])
        base = abs(o[1]) or 1.0
        # Positive `worse` means the new side is worse, as a share of the old median.
        worse = (n[1] - o[1]) / base if m["better"] == "lower" else (o[1] - n[1]) / base
        if worse > m["bound"]:
            verdict = "worse"
        elif -worse > max(m["bound"], spread(old[key]), spread(new[key])):
            verdict = "better"
        else:
            verdict = "unresolved"
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{workload:<18}{name:<26}{fmt(o):>34}{fmt(n):>34}  {verdict} ({-worse:+.1%} vs bound {m['bound']})")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--workloads")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default="perfbench-runs.jsonl")
    p.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.diff:
        diff(args)
    elif args.sweep:
        sweep(args)
    elif args.self_test:
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
        cmd = ["cargo", "test", "--release", "--offline",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
        sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)
    elif args.workload:
        bench, server = build()
        run_once(bench, server, args.workload, args.seed, args.seconds or spec()["run_seconds"], args.trace)
    else:
        p.error("give --workload, --sweep, --diff or --self-test")


if __name__ == "__main__":
    main()
