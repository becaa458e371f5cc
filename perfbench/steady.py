#!/usr/bin/env python3
"""Steadiness report: run one workload k times and summarise each metric.

    python3 perfbench/steady.py --workload serve-tiles --runs 10 \\
        --seconds 20 --sets 2
    python3 perfbench/steady.py --workload serve-tiles --runs 10 \\
        --seconds 20 --checkout ../parent --checkout .

Each run is ``perfbench/run.py`` in its own process.  Run ``i`` of
every set uses seed ``first_seed + i``, and the sets alternate run by
run, each pair in the opposite order of the one before, so a slow drift
of the host falls on every set alike.  By default
every set runs this checkout (``--sets N``): a same-code steadiness
check.  With ``--checkout PATH`` (once per set) each set runs the
benchmark and program of its own checkout, which compares two commits.

For every metric the report gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), min and max, and the
spread: the distance between the quartiles as a share of the median.
With ``BENCHMARK.json`` bounds, a spread above the bound is ``WIDE`` (a
change of that size cannot be told from noise: report the metric as
unresolved) and one above a third of the bound is ``watch``.

With two or more sets, each set's median is compared with the first's,
as a signed share of the first.  Same code: ``FAIL`` when the size of
the change exceeds the bound, in either direction.  Two checkouts: a
change inside the wider of the two sets' spreads is ``unresolved``,
otherwise ``better`` or ``worse``; the pairs (same seed) the second
checkout won are counted too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_bounds() -> dict:
    """``{metric: (bound or None, better)}`` from ``BENCHMARK.json``."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: (m.get("bound"), m["better"])
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def one_run(root: Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"run with seed {seed} in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])["report"]
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else float("inf")}


def verdict(spread: float, bound) -> str:
    if bound is None:
        return ""
    if spread > bound:
        return "WIDE"
    return "watch" if spread > bound / 3 else "ok"


def compare(first: dict, other: dict, bound, better: str,
            same_code: bool) -> tuple:
    """``(signed change of the median as a share of the first, verdict)``."""
    a, b = first["median"], other["median"]
    change = (b - a) / a if a else 0.0
    if same_code:
        return change, "" if bound is None else (
            "FAIL" if abs(change) > bound else "ok")
    if abs(change) <= max(first["spread"], other["spread"]):
        return change, "unresolved"
    return change, "better" if (change < 0) == (better == "lower") \
        else "worse"


def pairs_won(first: list, other: list, name: str, better: str) -> int:
    """Pairs (same seed) in which *other*'s run read strictly better."""
    won = 0
    for a, b in zip(first, other):
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        won += y < x if better == "lower" else y > x
    return won


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--checkout", action="append", type=Path,
                        help="a checkout whose benchmark runs one set")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    roots = ([path.resolve() for path in args.checkout] if args.checkout
             else [ROOT] * args.sets)
    same_code = not args.checkout
    bounds = load_bounds()
    results = [[] for _ in roots]
    for i in range(args.runs):
        seed = args.first_seed + i
        order = list(enumerate(roots))
        for s, root in order if i % 2 == 0 else order[::-1]:
            result = one_run(root, args.workload, seed, args.seconds,
                             args.trace)
            results[s].append(result)
            values = " ".join(f"{name}={m['value']:.5g}"
                              for name, m in result["metrics"].items())
            report = result["report"]
            if "host_factor" in report:
                values += (f" host_factor={report['host_factor']:.4g} raw "
                           + " ".join(f"{k}={v:.5g}" for k, v
                                      in report["raw_cpu"].items()))
            print(f"set {s} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"{values}", file=sys.stderr, flush=True)
    sets = []
    for runs in results:
        sets.append({name: summarise([r["metrics"][name]["value"]
                                      for r in runs])
                     for name in runs[0]["metrics"]})
        sets[-1]["_failed"] = sum(r["failed"] for r in runs)
    report = {"workload": args.workload, "runs": args.runs,
              "seconds": args.seconds, "roots": [str(r) for r in roots],
              "sets": sets, "change": {}}
    for s, summary in enumerate(sets):
        print(f"{args.workload}: set {s} ({roots[s]}), {args.runs} runs "
              f"of {args.seconds:g} s, failed ops {summary['_failed']}")
        print(f"  {'metric':34s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'min':>11s} {'max':>11s} {'spread':>7s}")
        for name, st in summary.items():
            if name.startswith("_"):
                continue
            bound = bounds.get(name, (None, None))[0]
            print(f"  {name:34s} {st['median']:11.5g} {st['q1']:11.5g} "
                  f"{st['q3']:11.5g} {st['min']:11.5g} {st['max']:11.5g} "
                  f"{st['spread']:7.3f} {verdict(st['spread'], bound)}")
    for s in range(1, len(sets)):
        print(f"  set {s} vs set 0 (signed change of the median)")
        for name in sets[0]:
            if name.startswith("_"):
                continue
            bound, better = bounds.get(name, (None, "lower"))
            change, flag = compare(sets[0][name], sets[s][name], bound,
                                   better, same_code)
            report["change"].setdefault(name, []).append(change)
            if not same_code:
                won = pairs_won(results[0], results[s], name, better)
                flag += f" (won {won} of {args.runs} pairs)"
            print(f"  {name:34s} {change:+.4f} {flag}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
