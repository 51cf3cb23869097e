"""Steadiness tool: run one workload repeatedly and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload paper-inmem --seeds 1-10 --out a.json
    python3 perfbench/steady.py --compare a.json b.json

Runs are made strictly one after another (never concurrently, so they
do not compete for the cores), each with its own ``--seed``.  For every
end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(n=4)``), the quartile spread as a share of the
median, and that spread against the metric's bound in BENCHMARK.json:
``ok`` below a third of the bound, ``wide`` below the bound, ``OVER``
beyond it.  Every run measures ``run_seconds`` of BENCHMARK.json, the
window the bounds are set for.  ``--compare`` checks that a second
set's medians are not worse than a first set's by more than each bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchstats import quartile_spread  # noqa: E402


def parse_seeds(text: str) -> "list[int]":
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=200,
    )
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["elapsed_s"] = elapsed
    return result


def report(runs: "list[dict]", spec: dict) -> bool:
    """Print the spread table; returns whether every spread is within its bound."""
    fine = True
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, mid, q3, spread = quartile_spread(values)
        bound = m["bound"]
        if spread <= bound / 3:
            verdict = "ok"
        elif spread <= bound:
            verdict = "wide"
        else:
            verdict = "OVER"
            fine = False
        print(
            f"{m['name']:<16}{mid:>12.5g}{q1:>12.5g}{q3:>12.5g}"
            f"{spread:>9.3f}{bound:>7.2f}  {verdict}"
        )
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    wall = sum(r["elapsed_s"] for r in runs)
    print(f"failed {failed} of {attempted} checked operations; {wall:.0f} s of runs")
    return fine and failed == 0


def compare(first: "list[dict]", second: "list[dict]", spec: dict) -> bool:
    """Second set's medians against the first's, per metric and bound."""
    fine = True
    for m in spec["end_to_end"]:
        a = quartile_spread([r["metrics"][m["name"]]["value"] for r in first])[1]
        b = quartile_spread([r["metrics"][m["name"]]["value"] for r in second])[1]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= m["bound"] else "WORSE"
        fine &= verdict == "ok"
        print(f"{m['name']:<16}{a:>12.5g}{b:>12.5g}{worse:>+9.3f}{m['bound']:>7.2f}  {verdict}")
    return fine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", type=Path, help="save the runs as JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(first, second, spec) else 1
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    runs = []
    for seed in parse_seeds(args.seeds):
        run = run_once(args.workload, seed, spec["run_seconds"], 0)
        runs.append(run)
        print(
            f"seed {seed}: {run['elapsed_s']:.1f} s, failed {run['failed']}/{run['attempted']}",
            flush=True,
        )
        if args.out:
            args.out.write_text(json.dumps(runs, indent=1))
    return 0 if report(runs, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
