#!/usr/bin/env python3
"""Compare two perfbench binaries over alternating parent/change pairs.

Usage, from the repository root:

    python3 scripts/perfbench_ab.py --parent <perfbench> --change <perfbench> \
        --workload mul8cmp_single_m2 --pairs 10 --seconds 25 --seed 101

Pair i runs both binaries on seed `--seed + i` with `--trace 0`; the parent
runs first in even pairs and second in odd ones, so a drift of the host's
speed over the runs lands on both sides. For every end-to-end metric that
BENCHMARK.json names (the file is only read), the report gives each side's
median and quartiles, the ratio change / parent of the medians, and the
number of pairs the change won (ties count for neither side). The verdict
uses the metric's `bound` and `better` direction:

  worse than bound   the change's median is worse than the parent's by more
                     than the bound;
  within bound       it is not;
  unresolved         the parent's interquartile range is wider than the
                     bound (relative to its median), unless every change run
                     reads better than every parent run.

`gain` is "yes" when the change won at least nine tenths of the pairs and
its median is better than the parent's by more than the parent's
interquartile range: the rule a claimed improvement must meet.

Exits 1 when any run is not `"correct": true`, has failed items or prints no
result; 0 otherwise, whatever the verdicts.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600  # one run longer than this counts as failed


def run_once(binary, workload, seed, seconds):
    """One untraced run; returns (result dict or None, error text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S} s"
    except OSError as e:
        return None, str(e)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"last line is not JSON: {lines[-1][:200]}"


def quartiles(xs):
    """(q1, median, q3), linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, bound, lower_is_better):
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    worse_by = (c_med - p_med) / p_med if lower_is_better else (p_med - c_med) / p_med
    if lower_is_better:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if (p_q3 - p_q1) / p_med > bound and not all_better:
        return "unresolved: the parent's IQR is wider than the bound"
    return "worse than bound" if worse_by > bound else "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent perfbench binary")
    ap.add_argument("--change", required=True, help="change perfbench binary")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seed", type=int, default=101, help="seed of pair 0")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics}
              for side in ("parent", "change")}
    ok = True

    print(f"{args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    names = [m["name"] for m in metrics]
    print("pair seed first   " + "  ".join(f"{n:>27}" for n in names))
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        row = {}
        for side in order:
            binary = args.parent if side == "parent" else args.change
            res, err = run_once(binary, args.workload, seed, args.seconds)
            if res is None:
                print(f"  {side} seed {seed}: no result ({err})")
                ok = False
                continue
            if res.get("correct") is not True or res.get("failed", 1) != 0:
                print(f"  {side} seed {seed}: correct={res.get('correct')} "
                      f"failed={res.get('failed')} of {res.get('attempted')}")
                ok = False
            for n in names:
                row.setdefault(n, {})[side] = res["metrics"][n]["value"]
        if all(len(row.get(n, {})) == 2 for n in names):
            for n in names:
                for side in ("parent", "change"):
                    values[side][n].append(row[n][side])
        cells = "  ".join(
            f"{row.get(n, {}).get('parent', float('nan')):>12.5g} ->"
            f"{row.get(n, {}).get('change', float('nan')):>12.5g}"
            for n in names)
        print(f"{i:>4} {seed:>4} {order[0]:<7} {cells}", flush=True)

    print()
    print(f"{'metric':<16}{'parent median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'ratio':>8}{'wins':>7}  gain  verdict")
    for m in metrics:
        n, lower = m["name"], m["better"] == "lower"
        p, c = values["parent"][n], values["change"][n]
        pairs = len(p)
        if pairs == 0:
            print(f"{n:<16} no complete pair")
            continue
        p_q1, p_med, p_q3 = quartiles(p)
        c_q1, c_med, c_q3 = quartiles(c)
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        gap = (p_med - c_med) if lower else (c_med - p_med)
        gain = wins >= 0.9 * pairs and gap > p_q3 - p_q1
        print(f"{n:<16}{p_med:>12.5g} [{p_q1:>9.5g}, {p_q3:>9.5g}]"
              f"{c_med:>12.5g} [{c_q1:>9.5g}, {c_q3:>9.5g}]"
              f"{c_med / p_med:>8.3f}{wins:>4}/{pairs:<2}  "
              f"{'yes' if gain else 'no ':<4}  "
              f"{verdict(p, c, m['bound'], lower)} (bound {m['bound']:g})")
    if not ok:
        print("FAILED: a run was incorrect, had failed items or gave no result")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
