#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs the benchmark once per seed on each workload (untraced), the way the
contract in BENCHMARK.json describes, and reports for every end-to-end
metric its median, first and third quartile (statistics.quantiles, n=4)
and the spread (q3 - q1) / median next to the metric's bound. A spread
must stay under a third of the bound.

    # one set of runs, saved for a later comparison
    python3 perfbench/tools/steadiness.py --seeds 1-10 --out set_a.json
    # both sets and their medians against each other, both ways
    python3 perfbench/tools/steadiness.py --compare set_a.json set_b.json

Run from the root of a checkout; each run goes through perfbench/run.py.
"""

import argparse
import json
import statistics
import subprocess
import sys

SPEC = "BENCHMARK.json"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(spec, workload, seed, seconds):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(last)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def collect(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in seeds:
            metrics = run_once(spec, workload, seed, args.seconds)
            runs[workload].append(metrics)
            print(f"{workload} seed {seed}: " +
                  ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                  flush=True)
    report = {"seeds": seeds, "seconds": args.seconds, "runs": runs,
              "summary": {}}
    worst = 0.0
    for workload, samples in runs.items():
        report["summary"][workload] = {}
        for name, bound in bounds.items():
            stats = summarize([s[name] for s in samples])
            report["summary"][workload][name] = stats
            ok = name == "setup_s" or stats["spread"] < bound / 3
            worst = max(worst, 0 if name == "setup_s" else stats["spread"] / bound)
            print(f"{workload:14s} {name:12s} median {stats['median']:.6g} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread "
                  f"{stats['spread']:.4f} (bound {bound}) "
                  f"{'ok' if ok else 'TOO NOISY'}")
    if args.out:
        with open(args.out, "w") as out:
            json.dump(report, out, indent=1)
    return 0 if worst < 1 / 3 else 1


def compare(paths, spec):
    """Prints both sets and the set-to-set deltas of each median, as a
    markdown table. Either set may be the parent, so the check runs both
    ways: it fails when either median is worse than the other by more than
    the metric's bound (2/1 is set 2 against set 1, 1/2 the reverse), or
    when a spread other than setup_s's is over the bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first, second = (json.load(open(p)) for p in paths)
    failed = False
    print("| workload | metric | bound | set 1 median [q1, q3] | spread "
          "| set 2 median [q1, q3] | spread | 2/1 | 1/2 |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload, metrics in first["summary"].items():
        for name, bound in bounds.items():
            a = metrics[name]
            b = second["summary"][workload][name]
            forward = b["median"] / a["median"] - 1
            backward = a["median"] / b["median"] - 1
            failed |= max(forward, backward) > bound
            if name != "setup_s":
                failed |= max(a["spread"], b["spread"]) > bound
            print(f"| {workload} | {name} | {bound} | {a['median']:.4g} "
                  f"[{a['q1']:.4g}, {a['q3']:.4g}] | {a['spread']:.3f} | "
                  f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] | "
                  f"{b['spread']:.3f} | {forward:+.3f} | {backward:+.3f} |")
    print("verdict:", "FAIL" if failed else "ok")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    spec = json.load(open(SPEC))
    if args.compare:
        return compare(args.compare, spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return collect(args, spec)


if __name__ == "__main__":
    sys.exit(main())
