"""The timed process: set up one workload, run it for the window, report.

Started fresh by ``run.py`` for every run, with the generated inputs
already on disk.  It reports the steady-host times of several complete
set-ups, one before the measured window and the rest after it, so that
they sample the host at moments half a minute apart; ``run.py`` adds
the import time to their median for ``setup_s``.  Writes
``result.json`` (and, for a traced run, ``spans.jsonl``) into the work
directory given as the only argument.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import traceback
from pathlib import Path

from layers import layer_metrics
from benchstats import median
from reference import REFERENCE_S, scaled
from tracing import Tracer, instrument
from workloads import WORKLOADS, peak_rss_mb

#: complete set-ups per run (the first before the window, the rest
#: after it); ``setup_s`` counts their median
SETUP_REPS = 3


def _checked(check) -> "list[str]":
    """Run a once-per-run check; a raised check counts as a failed one."""
    try:
        return check()
    except Exception as exc:  # noqa: BLE001 - reported, never fatal
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]


def run(config: dict) -> dict:
    workdir = Path(config["workdir"])
    inputs = Path(config["inputs"])
    manifest = json.loads((inputs / "inputs.json").read_text())
    trace = bool(config["trace"])
    tracer = Tracer()
    if trace:
        instrument(tracer)
    workload = WORKLOADS[config["workload"]](manifest, inputs, workdir, tracer)
    setup_times = []

    def set_up(rep: int) -> None:
        # Tear the previous set-up down and collect its garbage untimed:
        # after the window it has served load, and stopping it is not
        # set-up time.
        workload.close()
        gc.collect()
        before = workload.probe()
        tracer.enabled = True
        with tracer.span("setup", rep=rep):
            t0 = time.perf_counter()
            workload.setup(rep)
            elapsed = time.perf_counter() - t0
        tracer.enabled = False
        setup_times.append(scaled(elapsed, before, workload.probe()))

    try:
        set_up(0)
        # Only set-up and the window are traced: the checks, warm-up and
        # quality evaluation call the same layers and would skew them.
        workload.failures.record(_checked(workload.after_setup))
        for i in range(workload.warmup_units):
            workload.run_unit(i, traced=False)
        first = 0 if workload.restart_after_warmup else workload.warmup_units
        samples, wall_s = workload.run_window(config["seconds"], trace, first)
        tracer.enabled = False
        rss = peak_rss_mb(workload.helper_pids())
        workload.failures.record(_checked(workload.once_checks))
        if not samples:
            raise RuntimeError(f"no timed unit completed: {workload.failures.reasons[:3]}")
        metrics = workload.metrics(samples, wall_s)
        for rep in range(1, SETUP_REPS):
            set_up(rep)
        metrics["peak_rss_mb"] = rss
        metrics["throughput_rps"] = workload.throughput(samples)
        layers = {}
        if trace:
            tracer.unpatch()
            overhead = [s for s in samples if s.get("kind", "replay") == "replay"]
            key = "steady_latency_s" if "latency_s" in samples[0] else "solve_s"
            layers = layer_metrics(tracer.spans, samples, workload.info, overhead, key)
            tracer.write(workdir / "spans.jsonl")
    finally:
        workload.close()
    return {
        "correct": workload.failures.correct,
        "attempted": workload.failures.attempted,
        "failed": workload.failures.failed,
        "reasons": workload.failures.reasons,
        "metrics": metrics,
        "setup_reps_s": setup_times,
        "layers": layers,
        "info": dict(workload.info, host_slowdown=median(workload.probes) / REFERENCE_S),
        "units": len(samples),
        "window_s": wall_s,
    }


def main() -> int:
    workdir = Path(sys.argv[1])
    config = json.loads((workdir / "config.json").read_text())
    try:
        result = run(config)
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        return 1
    (workdir / "result.json").write_text(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
