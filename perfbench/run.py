"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-inmem --seed 1 --seconds 20 --trace 0

Steps: generate the seeded inputs (untimed, in this process), start the
timed process fresh on them, wait for it, print every metric that
applies to the workload with its unit, and end with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones (a separate, traced run).  Everything
the run writes lives in a scratch directory under ``.perfbench-work/``
in the checkout, removed at the end; the timed process and anything it
started are stopped (SIGINT, then SIGKILL) before this exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
#: every run must end within this many seconds, the timed process included
RUN_DEADLINE_S = 170.0
#: ``setup_s`` is the median of three import times (a fresh interpreter
#: before the timed process, two after it) plus the median of the timed
#: process's set-ups.  The import probes run here, not in the timed
#: process, to keep them out of its peak RSS.
_IMPORTS = (
    "import time; t = time.perf_counter(); "
    "import numpy, benchstats, layers, reference, tracing, workloads; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", type=Path, help="traced runs: also keep the span list (JSON lines) here"
    )
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def stop_group(proc: subprocess.Popen, grace_s: float = 5.0) -> None:
    """SIGINT the process group, SIGKILL it after ``grace_s``, then reap."""
    for sig in (signal.SIGINT, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        try:
            proc.wait(timeout=grace_s)
            break
        except subprocess.TimeoutExpired:
            continue
    proc.wait()
    try:  # forked helpers may outlive their parent; take them down too
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def timed_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = str(workdir / "tmp")
    return env


def import_time(workdir: Path) -> float:
    """Steady-host import time of the timed process's modules, fresh interpreter."""
    from reference import probe, scaled

    before = probe()
    child = subprocess.run(
        [sys.executable, "-c", _IMPORTS],
        cwd=workdir,
        env=timed_env(workdir),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return scaled(float(child.stdout), before, probe())


def run_timed(workdir: Path, deadline: float) -> int:
    env = timed_env(workdir)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "timed.py"), str(workdir)],
        cwd=workdir,
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("timed process overran its deadline", file=sys.stderr)
        return 1
    finally:
        stop_group(proc)


def describe(result: dict, workload: str) -> "list[str]":
    """Human-readable metric lines, including workload-only figures."""
    lines = [f"workload {workload}: {result['units']} timed units in {result['window_s']:.1f} s"]
    info = result.get("info", {})
    if "replay_p50_ms" in info:
        p90, beyond, total = info["latency_p90_ms"]
        lines.append(f"  upload_p50_ms {info['upload_p50_ms']:.1f} ms")
        lines.append(f"  replay_p50_ms {info['replay_p50_ms']:.1f} ms")
        if beyond >= 10:
            lines.append(f"  latency_p90_ms {p90:.1f} ms ({beyond} of {total} beyond)")
        else:
            lines.append(f"  latency_p90_ms not reported: {beyond} of {total} beyond p90")
    lines.append(
        f"  host slowdown {info['host_slowdown']:.3f} (median reference probe over its steady time)"
    )
    if "boundary_fraction" in info:
        lines.append(f"  boundary_fraction {info['boundary_fraction']:.3f}")
    for reason in result.get("reasons", []):
        lines.append(f"  FAILED: {reason}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from benchstats import median
    from inputs import WORKLOAD_INPUTS, generate

    if args.workload not in WORKLOAD_INPUTS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    (workdir / "tmp").mkdir()
    try:
        generate(args.workload, args.seed, workdir / "inputs")
        config = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "workdir": str(workdir),
            "inputs": str(workdir / "inputs"),
        }
        (workdir / "config.json").write_text(json.dumps(config))
        imports = [import_time(workdir)]
        if run_timed(workdir, deadline) != 0:
            return 1
        result = json.loads((workdir / "result.json").read_text())
        imports += [import_time(workdir), import_time(workdir)]
        result["metrics"]["setup_s"] = median(imports) + median(result["setup_reps_s"])
        if args.trace and args.spans:
            shutil.copyfile(workdir / "spans.jsonl", args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    values = result["layers"] if args.trace else result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run produced no value for {missing}", file=sys.stderr)
        return 1
    for line in describe(result, args.workload):
        print(line)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
