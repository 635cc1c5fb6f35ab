#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, in two sets.

Runs every workload of BENCHMARK.json ten times with seeds 1000..1009,
tracing off, and then does it all again. For each set and each
end-to-end metric it reports the median and the spread: the distance
between the first and third quartile as Python's
statistics.quantiles(values, n=4) gives them, as a share of the median.
It then compares the second set's medians with the first's.

A spread above the metric's bound, or a second median worse than the first
by more than the bound, fails the check (exit status 1). A spread above a
third of the bound is noted.

Run from the repository root:

    python3 perfbench/steady.py --out perfbench/STEADINESS.md
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

RUNS = 10
SEED_BASE = 1000
SETS = 2


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, time.time() - t0


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), statistics.median(values)


def run_set(bench, names, label):
    report = {}
    for w in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        wall = []
        for i in range(RUNS):
            seed = SEED_BASE + i
            res, secs = run_once(bench["command"], w, seed, bench["run_seconds"])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
            for m in values:
                values[m].append(res["metrics"][m]["value"])
            wall.append(secs)
            print(f"{label} {w} seed {seed}: {secs:.1f}s " +
                  " ".join(f"{m}={values[m][-1]:.6g}" for m in values), flush=True)
        report[w] = {"values": values, "wall_s": wall}
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="", help="write a markdown report here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}

    sets = [run_set(bench, names, f"set {k + 1}") for k in range(SETS)]

    failures, notes, out = [], [], []
    for k, report in enumerate(sets):
        out += [f"## Set {k + 1}", "",
                "| workload | metric | unit | median | spread | bound | spread/bound |",
                "|---|---|---|---|---|---|---|"]
        for w, r in report.items():
            for m, vals in r["values"].items():
                s, med = spread(vals)
                bound = specs[m]["bound"]
                out.append(f"| {w} | {m} | {specs[m]['unit']} | {med:.6g} | {s:.4f} | {bound} | {s / bound:.2f} |")
                if s > bound:
                    failures.append(f"set {k + 1} {w} {m}: spread {s:.4f} > bound {bound}")
                elif s > bound / 3:
                    notes.append(f"set {k + 1} {w} {m}: spread {s:.4f} > bound/3 {bound / 3:.4f}")
        out.append("")

    out += ["## Medians, set 2 against set 1", "",
            "Worse is the share by which set 2's median is worse than set 1's "
            "(negative: better).", "",
            "| workload | metric | set 1 median | set 2 median | worse | bound |",
            "|---|---|---|---|---|---|"]
    for w in names:
        for m, spec in specs.items():
            a = statistics.median(sets[0][w]["values"][m])
            b = statistics.median(sets[1][w]["values"][m])
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            out.append(f"| {w} | {m} | {a:.6g} | {b:.6g} | {worse:+.3f} | {spec['bound']} |")
            if worse > spec["bound"]:
                failures.append(f"{w} {m}: set 2 median worse by {worse:.3f} > bound {spec['bound']}")
    out.append("")

    verdict = ["## Verdict", ""]
    verdict += [f"- FAIL {f}" for f in failures] or ["- every spread and median comparison is within its bound"]
    verdict += [f"- NOTE {n}" for n in notes] or ["- every spread is below a third of its bound"]
    print("\n".join(out + verdict))

    if args.out:
        with open(args.out, "w") as f:
            f.write("# Run-to-run spread of the end-to-end metrics\n\n")
            f.write("Produced by `python3 perfbench/steady.py`: two sets, one after the "
                    f"other, each running every workload {RUNS} times with seeds "
                    f"{SEED_BASE}..{SEED_BASE + RUNS - 1}, {bench['run_seconds']} s per run, "
                    "tracing off. Spread is (Q3 - Q1) / median with Python's "
                    "`statistics.quantiles(values, n=4)`.\n\n")
            f.write("\n".join(verdict + [""] + out) + "\n")
            f.write("## Raw values, in seed order\n\n```json\n")
            f.write(json.dumps({f"set {k + 1}": r for k, r in enumerate(sets)}, indent=1) + "\n```\n")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
