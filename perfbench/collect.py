#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises the spread.

For every workload of BENCHMARK.json, runs `--runs` untraced runs of
its command, `run_seconds` long, with seeds `--seed0 .. --seed0 + runs
- 1`. For each end-to-end metric it reports the median, the quartiles
(Python's statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound. With `--traced`, also runs one traced run
per workload on seed `--seed0` and prints its per-layer table. `--json
FILE` writes everything as JSON, `--md FILE` as Markdown tables.

Run from the repository root. The baseline:

    python3 perfbench/collect.py --runs 10 --traced \\
        --json perfbench/baseline.json --md perfbench/BASELINE.md

A re-check on the held-out seeds 1009..1018:

    python3 perfbench/collect.py --runs 10 --seed0 1009 --traced
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(cmd, workload, seed, seconds, trace):
    """The run's result line, with its wall time added as `wall_s`."""
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def markdown(report, bounds):
    """End-to-end quartiles per workload, then the traced per-layer
    values of every workload side by side."""
    seeds = report["seeds"]
    out = [f"Runs of {report['seconds']} s, seeds {seeds[0]}..{seeds[-1]}.", ""]
    for workload, entry in report["workloads"].items():
        out += [f"### {workload}", "",
                "| metric | unit | median | q1 | q3 | spread | bound |",
                "|---|---|---:|---:|---:|---:|---:|"]
        for name, m in entry["end_to_end"].items():
            out.append(f"| {name} | {m['unit']} | {m['median']:.6g} | {m['q1']:.6g} | "
                       f"{m['q3']:.6g} | {m['spread']:.3f} | {bounds[name]} |")
        out.append("")
    traced = [w for w, e in report["workloads"].items() if "per_layer" in e]
    if traced:
        out += [f"### Per-layer (traced run, seed {seeds[0]})", "",
                "| metric | unit | " + " | ".join(traced) + " |",
                "|---|---|" + "---:|" * len(traced)]
        for name, m in report["workloads"][traced[0]]["per_layer"].items():
            cells = [f"{report['workloads'][w]['per_layer'][name]['value']:.6g}" for w in traced]
            out.append(f"| {name} | {m['unit']} | " + " | ".join(cells) + " |")
        out.append("")
    return "\n".join(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--json", default=None)
    parser.add_argument("--md", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    report = {"seconds": seconds, "seeds": [args.seed0 + i for i in range(args.runs)],
              "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(cmd, workload, seed, seconds, 0) for seed in report["seeds"]]
        assert all(r["correct"] for r in runs), f"{workload}: incorrect run"
        metrics = {}
        print(f"\n{workload} ({args.runs} runs, {seconds} s each)")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = s
            over = name != "setup_s" and s["spread"] > bounds[name] / 3
            if name != "setup_s":
                worst = max(worst, s["spread"] / bounds[name])
            print(f"  {name:<16} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
                  f"{s['spread']:>8.4f} {bounds[name]:>6}" + ("  <-- over bound/3" if over else ""))
        walls = [r["wall_s"] for r in runs]
        print(f"  wall time per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        entry = {"end_to_end": metrics, "wall_s": walls}
        if args.traced:
            traced = run_once(cmd, workload, args.seed0, seconds, 1)
            entry["per_layer"] = traced["metrics"]
            entry["per_layer_correct"] = traced["correct"]
            print(f"  per-layer (traced, seed {args.seed0}, correct={traced['correct']})")
            for name, m in traced["metrics"].items():
                print(f"    {name:<32} {m['value']:>16.6g} {m['unit']}")
        report["workloads"][workload] = entry
    print(f"\nworst spread / bound (excluding setup_s): {worst:.3f}")
    if args.json:
        with open(os.path.join(ROOT, args.json), "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if args.md:
        with open(os.path.join(ROOT, args.md), "w") as f:
            f.write(markdown(report, bounds))


if __name__ == "__main__":
    main()
