"""The four workloads, run inside the timed process.

Every workload shares one world: a 2-node ARCHER-like job with 48
compute units, ring-profiled the way ``ExperimentRunner.make_jobs``
does it, with blind partitions mapped to ranks the way
``ExperimentRunner._map_to_ranks`` does.  A workload sets itself up
(several times, for a steady ``setup_s``), runs warm-up units that are
discarded, then timed units for the measured window, checking every
output as it goes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

import repro.streaming.reader as reader
from benchstats import (
    FailureCount,
    geometric_mean,
    median,
    sum_of_group_medians,
    tail_percentile,
)
from repro.architecture.bandwidth import archer_like_bandwidth
from repro.architecture.cost import cost_matrix_from_bandwidth
from repro.architecture.topology import archer_like_topology
from repro.bench.runner import ExperimentRunner
from repro.bench.synthetic import SyntheticBenchmark
from repro.cluster.coordinator import DistributedStreamer
from repro.core.config import HyperPRAWConfig
from repro.core.hyperpraw import HyperPRAW
from repro.core.metrics import evaluate_partition
from repro.hypergraph.io import read_hmetis
from repro.hypergraph.model import Hypergraph
from repro.partitioning.families import PolishedStreamer
from repro.partitioning.multilevel.driver import MultilevelRB
from repro.service.app import PartitionService
from repro.service.handlers import ServiceConfig
from repro.streaming.chunkstore import cached_stream, open_store
from repro.streaming.onepass import OnePassStreamer
from repro.streaming.sharded import ShardedStreamer
from reference import REFERENCE_S, probe, scaled

__all__ = ["WORKLOADS", "peak_rss_mb"]

NUM_NODES = 2
#: the paper's balance tolerance, shared by HyperPRAW and MultilevelRB
TOLERANCE = 1.1
#: OnePassStreamer's declared hard cap (its default ``balance_slack``)
ONEPASS_BOUND = 1.2


def assignment_digest(assignment) -> str:
    data = np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def check_assignment(assignment, n, k, weights, bound, label) -> "list[str]":
    """Length, range and declared-imbalance checks for one assignment."""
    a = np.asarray(assignment)
    if a.shape != (n,):
        return [f"{label}: assignment shape {a.shape}, expected ({n},)"]
    if n and (a.min() < 0 or a.max() >= k):
        return [f"{label}: part ids outside [0, {k})"]
    loads = np.bincount(a, weights=weights, minlength=k)
    imbalance = float(loads.max() / (loads.sum() / k))
    if imbalance > bound + 1e-9:
        return [f"{label}: imbalance {imbalance:.4f} above its bound {bound:.4f}"]
    return []


def imbalance_of(assignment, k, weights=None) -> float:
    loads = np.bincount(np.asarray(assignment), weights=weights, minlength=k)
    return float(loads.max() / (loads.sum() / k))


def peak_rss_mb(extra_pids=()) -> float:
    """Peak RSS of this process plus its largest reaped child and live helpers."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for pid in extra_pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


class World:
    """The profiled 2-node job(s) a workload partitions for.

    ``num_jobs`` allocations are drawn and ring-profiled exactly as
    ``ExperimentRunner.make_jobs`` does; workloads that replay one store
    use one job, ``paper-inmem`` gives every draw its own allocation.
    """

    def __init__(self, seed: int, num_jobs: int = 1) -> None:
        self.runner = ExperimentRunner(
            archer_like_bandwidth(archer_like_topology(num_nodes=NUM_NODES)),
            num_jobs=num_jobs,
            seed=seed,
        )
        self.jobs = self.runner.make_jobs()
        self.k = self.runner.num_parts
        self.cost = self.jobs[0].cost_matrix
        self._benches: "dict[int, SyntheticBenchmark]" = {}

    def ranks(self, result, instance: str, algorithm: str, job: int = 0) -> np.ndarray:
        return self.runner._map_to_ranks(result, job, instance, algorithm)

    def sim_ms(self, hg, assignment, job: int = 0) -> float:
        bench = self._benches.get(job)
        if bench is None:
            bench = self._benches[job] = SyntheticBenchmark(self.jobs[job].link_model)
        return 1000.0 * bench.run(hg, assignment, self.k).per_step_s


class Workload:
    """Set-up, warm-up and timed units of one workload."""

    warmup_units = 1
    #: start the window at unit 0 again, so warm-up draws are repeated
    #: (and their digests checked) inside the measured window
    restart_after_warmup = False

    def __init__(self, manifest: dict, inputs: Path, workdir: Path, tracer) -> None:
        self.manifest = manifest
        self.inputs = inputs
        self.workdir = workdir
        self.tracer = tracer
        self.seed = int(manifest["seed"])
        self.failures = FailureCount()
        self.info: "dict[str, object]" = {}
        #: every host-speed probe taken, in order (see ``reference.py``)
        self.probes: "list[float]" = []

    # -- hooks -----------------------------------------------------------
    def setup(self, rep: int) -> None:
        """Set up from scratch; a repeat is preceded by :meth:`close`."""
        raise NotImplementedError

    def after_setup(self) -> "list[str]":
        return []

    def unit(self, index: int) -> dict:
        raise NotImplementedError

    def once_checks(self) -> "list[str]":
        return []

    def metrics(self, samples, wall_s: float) -> dict:
        raise NotImplementedError

    def helper_pids(self) -> "list[int]":
        return []

    def traced_unit(self, index: int) -> bool:
        """Traced runs trace every other unit, for the overhead figure."""
        return index % 2 == 0

    def close(self) -> None:
        pass

    # -- shared machinery --------------------------------------------------
    def probe(self) -> float:
        """Time the host-speed reference while nothing else of the run is busy."""
        with self.tracer.span("reference"):
            value = probe()
        self.probes.append(value)
        return value

    def timed(self, name: str, fn):
        """Run ``fn`` as a named top-level step between two probes.

        Returns ``(result, seconds)``, the seconds scaled to the steady
        host (``reference.scaled``).
        """
        before = self.probe()
        span = self.tracer.begin(name)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            self.tracer.end(span)
        return result, scaled(elapsed, before, self.probe())

    def run_unit(self, index: int, traced: bool) -> "dict | None":
        was_enabled, self.tracer.enabled = self.tracer.enabled, traced
        span = self.tracer.begin("unit", index=index)
        first_probe = len(self.probes)
        t0 = time.perf_counter()
        try:
            sample = self.unit(index)
            problems = sample.pop("problems")
        except Exception as exc:  # noqa: BLE001 - a raised unit counts as failed
            sample, problems = None, [f"unit {index}: {type(exc).__name__}: {exc}"]
        finally:
            wall_s = time.perf_counter() - t0
            self.tracer.end(span)
            self.tracer.enabled = was_enabled
        self.failures.record(problems)
        if sample is not None:
            sample["traced"] = traced
            # the unit's wall time on the steady host, scaled by the
            # mean of the probes its timed steps took
            probes = self.probes[first_probe:]
            sample["steady_wall_s"] = wall_s * REFERENCE_S * len(probes) / sum(probes)
        return sample

    def throughput(self, samples) -> float:
        """Timed units per steady-host second."""
        return len(samples) / sum(s["steady_wall_s"] for s in samples)

    def run_window(self, seconds: float, trace: bool, first_index: int):
        """Timed units until ``seconds`` have passed; traced runs alternate."""
        samples = []
        t0 = time.perf_counter()
        for i in itertools.count(first_index):
            if time.perf_counter() - t0 >= seconds:
                break
            sample = self.run_unit(i, traced=trace and self.traced_unit(i))
            if sample is not None:
                samples.append(sample)
        return samples, time.perf_counter() - t0


# ----------------------------------------------------------------------
# paper-inmem
# ----------------------------------------------------------------------
class PaperInMem(Workload):
    """HyperPRAW-aware against MultilevelRB on rotating in-memory stand-ins."""

    warmup_units = 3  # one per shape
    restart_after_warmup = True
    #: MultilevelRB costs several HyperPRAW runs, so it partitions every
    #: 4th unit: 4 is coprime with the 3 shapes, and as it divides the
    #: 36 draws, the same 9 draws (3 per shape) come back every cycle
    BASELINE_EVERY = 4
    #: allocations per run; draw ``d`` is partitioned for job ``d % JOBS``
    JOBS = 24

    def setup(self, rep: int) -> None:
        self.world = World(self.seed, num_jobs=self.JOBS)
        self.draws = []
        with np.load(self.inputs / self.manifest["arrays"]) as arrays:
            for i, entry in enumerate(self.manifest["draws"]):
                hg = Hypergraph.from_csr_arrays(
                    entry["num_vertices"],
                    arrays[f"edge_ptr_{i}"],
                    arrays[f"edge_pins_{i}"],
                    vertex_weights=arrays[f"vertex_weights_{i}"],
                    edge_weights=arrays[f"edge_weights_{i}"],
                    name=entry["shape"],
                )
                self.draws.append((entry, hg))
        self.config = HyperPRAWConfig(imbalance_tolerance=TOLERANCE, max_iterations=100)
        self.seen: "dict[tuple, str]" = {}
        self.quality: "dict[int, tuple]" = {}

    def traced_unit(self, index: int) -> bool:
        # 36 draws are even: flip parity each cycle, so each draw is
        # traced once and untraced once
        return (index + index // len(self.draws)) % 2 == 0

    def unit(self, index: int) -> dict:
        d = index % len(self.draws)
        entry, hg = self.draws[d]
        w, k = self.world, self.world.k
        seed, instance = entry["seed"], f"{entry['shape']}#{d}"
        job = d % self.JOBS
        cost = w.jobs[job].cost_matrix
        aware, solve_s = self.timed(
            "product",
            lambda: HyperPRAW.aware(self.config).partition(
                hg, k, cost_matrix=cost, seed=seed
            ),
        )
        with self.tracer.span("simulate"):
            sim_a = w.sim_ms(hg, aware.assignment, job)
        sample = {
            "shape": entry["shape"],
            "draw": d,
            "solve_s": solve_s,
            "sim_ms": sim_a,
            "imbalance": imbalance_of(aware.assignment, k, hg.vertex_weights),
        }
        outputs = [("aware", aware, TOLERANCE)]
        if index % self.BASELINE_EVERY == 0:
            blind, sample["base_solve_s"] = self.timed(
                "baseline",
                lambda: MultilevelRB(imbalance_tolerance=TOLERANCE).partition(
                    hg, k, cost_matrix=cost, seed=seed
                ),
            )
            with self.tracer.span("simulate"):
                sim_b = w.sim_ms(hg, w.ranks(blind, instance, "multilevel-rb", job), job)
            sample["speedup"] = sim_b / sim_a
            # recursive bisection amortises the tolerance over its depth
            depth = int(np.ceil(np.log2(k)))
            outputs.append(
                ("multilevel", blind, max(TOLERANCE, blind.metadata["bisection_slack"] ** depth))
            )
        with self.tracer.span("checks"):
            problems = []
            for label, result, bound in outputs:
                problems += check_assignment(
                    result.assignment, hg.num_vertices, k, hg.vertex_weights, bound,
                    f"{label} {instance}",
                )
                digest = assignment_digest(result.assignment)
                if self.seen.setdefault((d, label), digest) != digest:
                    problems.append(f"{label} {instance}: repeated draw gave a different assignment")
        self.quality.setdefault(d, (hg, aware.assignment))
        sample["problems"] = problems
        return sample

    def metrics(self, samples, wall_s: float) -> dict:
        k = self.world.k
        pcs, conns = [], []
        for d, (hg, assignment) in self.quality.items():
            q = evaluate_partition(hg, assignment, k, self.world.jobs[d % self.JOBS].cost_matrix)
            shape = self.draws[d][0]["shape"]
            pcs.append((shape, q.pc_cost))
            conns.append((shape, q.connectivity_minus_one))

        def per_draw(key, figure) -> "dict[str, list[float]]":
            """Each draw's figure over its repeats, grouped by shape."""
            draws: "dict[tuple, list[float]]" = {}
            for s in samples:
                if key in s:
                    draws.setdefault((s["shape"], s["draw"]), []).append(s[key])
            by_shape: "dict[str, list[float]]" = {}
            for (shape, _), values in draws.items():
                by_shape.setdefault(shape, []).append(figure(values))
            return by_shape

        def summed(by_shape) -> float:
            # The mean over a shape's draws, not the median: pass counts
            # fall in two modes (sparsine: 12-15 or 21-26 passes), and a
            # median over a dozen draws flips between them from seed to seed.
            return sum(statistics.fmean(v) for v in by_shape.values())

        return {
            "solve_s": summed(per_draw("solve_s", median)),
            "base_solve_s": summed(per_draw("base_solve_s", median)),
            "sim_step_ms": summed(per_draw("sim_ms", median)),
            "sim_speedup": geometric_mean(
                median(v) for v in per_draw("speedup", median).values()
            ),
            "pc_cost": sum_of_group_medians(pcs),
            "connectivity": sum_of_group_medians(conns),
            "imbalance_max": max(s["imbalance"] for s in samples),
        }


# ----------------------------------------------------------------------
# shard-powerlaw
# ----------------------------------------------------------------------
class _StoreWorkload(Workload):
    """Shared set-up for workloads replaying one parsed chunk store."""

    #: profiled allocations the store is partitioned for
    JOBS = 1

    def parse_store(self, rep: int):
        path = self.inputs / self.manifest["input"]["path"]
        store, hit = cached_stream(
            path, self.workdir / f"stores-{rep}", opener=reader.stream_hmetis
        )
        if hit:
            raise RuntimeError("a fresh cache directory reported a hit")
        self.store = store
        self.world = World(self.seed, num_jobs=self.JOBS)

    def partition(self, streamer, job: int = 0):
        return streamer.partition_stream(
            self.store, self.world.k, cost_matrix=self.world.jobs[job].cost_matrix,
            seed=self.seed,
        )

    def store_checks(self, result, bound, label) -> "list[str]":
        return check_assignment(
            result.assignment,
            self.store.num_vertices,
            self.world.k,
            np.asarray(self.store.vertex_weights),
            bound,
            label,
        )

    def same_as_first(self, key: str, assignment) -> "list[str]":
        digest = assignment_digest(assignment)
        first = self.first_digests.setdefault(key, digest)
        return [] if first == digest else [f"{key}: repeated run gave a different assignment"]

    def close(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            store.close()

    def store_quality(self, results) -> dict:
        """Product quality against the baseline, loaded after RSS is read.

        ``results`` maps a job to its ``(product, baseline)`` pair; each
        figure is the median over the jobs.
        """
        hg = read_hmetis(self.inputs / self.manifest["input"]["path"])
        w = self.world
        name = self.manifest["input"]["shape"]
        rows = []
        for job, (product, baseline) in sorted(results.items()):
            q = evaluate_partition(hg, product.assignment, w.k, w.jobs[job].cost_matrix)
            sim_p = w.sim_ms(hg, w.ranks(product, name, product.algorithm, job), job)
            sim_b = w.sim_ms(hg, w.ranks(baseline, name, baseline.algorithm, job), job)
            rows.append((sim_p, sim_b / sim_p, q.pc_cost, q.connectivity_minus_one))
        keys = ("sim_step_ms", "sim_speedup", "pc_cost", "connectivity")
        return {key: median(row[i] for row in rows) for i, key in enumerate(keys)}


class ShardPowerlaw(_StoreWorkload):
    """Forked 2-worker sharding against 1 worker on a power-law store."""

    #: the 1-worker baseline is a ninth of the 2-worker time: time it
    #: twice a unit, for more samples of it than of the product
    BASELINE_REPEATS = 2
    #: the 2-worker partition's simulated step swings by 1.4x from one
    #: allocation to the next, so units rotate over three allocations
    #: and quality is the median over them.  The warm-up unit takes the
    #: last job and the window starts at job 0, so quality covers all
    #: three once the window has run two units, however slow the host;
    #: a third unit repeats the warm-up's job and checks its digest.
    JOBS = 3
    restart_after_warmup = True

    def setup(self, rep: int) -> None:
        self.parse_store(rep)
        self.first_digests: "dict[str, str]" = {}
        self.results: "dict[int, tuple]" = {}
        self.warmed_up = False

    def sharded(self, workers: int, job: int):
        return self.partition(ShardedStreamer(OnePassStreamer(), workers=workers), job)

    def unit(self, index: int) -> dict:
        job = index % self.JOBS if self.warmed_up else self.JOBS - 1
        self.warmed_up = True
        product, solve_s = self.timed("product", lambda: self.sharded(2, job))
        problems, base_s = [], []
        for _ in range(self.BASELINE_REPEATS):
            baseline, seconds = self.timed("baseline", lambda: self.sharded(1, job))
            base_s.append(seconds)
            problems += self.same_as_first(f"workers=1 job {job}", baseline.assignment)
        with self.tracer.span("checks"):
            problems += (
                self.store_checks(product, ONEPASS_BOUND, "workers=2")
                + self.store_checks(baseline, ONEPASS_BOUND, "workers=1")
                + self.same_as_first(f"workers=2 job {job}", product.assignment)
            )
        self.results[job] = (product, baseline)
        meta = product.metadata
        self.info["boundary_fraction"] = meta["boundary_vertices"] / self.store.num_vertices
        self.info["boundary_iterations"] = meta["boundary_iterations"]
        return {
            "problems": problems,
            "solve_s": solve_s,
            "base_solve_s": base_s,
            "imbalance": imbalance_of(
                product.assignment, self.world.k, np.asarray(self.store.vertex_weights)
            ),
        }

    def metrics(self, samples, wall_s: float) -> dict:
        out = {
            "solve_s": median(s["solve_s"] for s in samples),
            "base_solve_s": median(t for s in samples for t in s["base_solve_s"]),
            "imbalance_max": max(s["imbalance"] for s in samples),
        }
        out.update(self.store_quality(self.results))
        return out


# ----------------------------------------------------------------------
# cluster-mesh
# ----------------------------------------------------------------------
def stop_processes(procs, grace_s: float = 5.0) -> None:
    """SIGINT, then SIGKILL after ``grace_s``; always waits for each to end."""
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGINT)
            except OSError:
                pass
    deadline = time.monotonic() + grace_s
    for proc in procs:
        try:
            proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class ClusterMesh(_StoreWorkload):
    """Polished distributed streaming over two loopback workers on a mesh."""

    LISTEN_TIMEOUT_S = 60.0

    def launch_workers(self, rep: int) -> None:
        self.procs, self.hosts = [], []
        logs = []
        for k in range(2):
            log = self.workdir / f"worker-{rep}-{k}.jsonl"
            logs.append(log)
            self.procs.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.experiments.cli",
                        "worker",
                        "--host",
                        "127.0.0.1",
                        "--port",
                        "0",
                        "--seed",
                        str(k),
                        "--log-file",
                        str(log),
                    ],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        deadline = time.monotonic() + self.LISTEN_TIMEOUT_S
        for proc, log in zip(self.procs, logs):
            port = None
            while port is None:
                if proc.poll() is not None:
                    raise RuntimeError(f"worker exited with code {proc.returncode}")
                if time.monotonic() > deadline:
                    raise RuntimeError("worker never reported listening")
                if log.exists():
                    for line in log.read_text().splitlines():
                        try:
                            event = json.loads(line)
                        except ValueError:  # a line still being written
                            continue
                        if event.get("event") == "listening":
                            port = event["port"]
                if port is None:
                    time.sleep(0.01)
            self.hosts.append(f"127.0.0.1:{port}")

    def setup(self, rep: int) -> None:
        self.parse_store(rep)
        with self.tracer.span("cluster.launch"):
            self.launch_workers(rep)
        self.first_digests = {}

    def helper_pids(self) -> "list[int]":
        return [p.pid for p in self.procs if p.poll() is None]

    def run_cluster(self, polish: bool):
        streamer = DistributedStreamer(OnePassStreamer(), hosts=self.hosts)
        if polish:
            streamer = PolishedStreamer(streamer)
        return self.partition(streamer)

    def run_forked(self):
        return self.partition(ShardedStreamer(OnePassStreamer(), workers=2))

    def unit(self, index: int) -> dict:
        product, solve_s = self.timed("product", lambda: self.run_cluster(polish=True))
        baseline, base_s = self.timed("baseline", self.run_forked)
        with self.tracer.span("checks"):
            problems = (
                self.store_checks(product, ONEPASS_BOUND, "cluster+fm")
                + self.store_checks(baseline, ONEPASS_BOUND, "forked")
                + self.same_as_first("cluster+fm", product.assignment)
                + self.same_as_first("forked", baseline.assignment)
            )
            meta = product.metadata
            if meta.get("degraded_shards") or meta.get("reconnected_shards"):
                problems.append(
                    f"cluster lost a worker: degraded {meta.get('degraded_shards')}, "
                    f"reconnected {meta.get('reconnected_shards')}"
                )
        self.last = (product, baseline)
        return {
            "problems": problems,
            "solve_s": solve_s,
            "base_solve_s": base_s,
            "imbalance": imbalance_of(
                product.assignment, self.world.k, np.asarray(self.store.vertex_weights)
            ),
        }

    def once_checks(self) -> "list[str]":
        plain = self.run_cluster(polish=False)
        forked = self.last[1]
        if not np.array_equal(plain.assignment, forked.assignment):
            return ["loopback cluster result differs from forked ShardedStreamer"]
        return []

    def metrics(self, samples, wall_s: float) -> dict:
        out = {
            "solve_s": median(s["solve_s"] for s in samples),
            "base_solve_s": median(s["base_solve_s"] for s in samples),
            "imbalance_max": max(s["imbalance"] for s in samples),
        }
        out.update(self.store_quality({0: self.last}))
        return out

    def close(self) -> None:
        stop_processes(getattr(self, "procs", []))
        super().close()


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
def _request(method: str, url: str, body: "bytes | None" = None):
    """One HTTP call; returns ``(status, payload_bytes)`` (errors included)."""
    req = urllib.request.Request(url, data=body, method=method)
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class ServiceMixed(Workload):
    """Closed-loop sync partition traffic: one upload in four, the rest replays."""

    CLIENTS = 2
    UPLOAD_EVERY = 4
    #: store byte budget as a multiple of the largest body's text size:
    #: room for a few stores, so uploads keep evicting the oldest ones
    BUDGET_BODIES = 6
    #: the window runs in slices of this many seconds; between slices
    #: both clients are idle and the host-speed probe is taken, and
    #: traced runs trace every other slice
    SLICE_S = 2.0
    QUALITY_BODIES_PER_SHAPE = 2

    def setup(self, rep: int) -> None:
        self.world = World(self.seed)
        bodies = self.manifest["bodies"]
        self.bodies = [(self.inputs / b["path"]).read_bytes() for b in bodies]
        budget = self.BUDGET_BODIES * max(len(b) for b in self.bodies)
        self.service = PartitionService(
            ServiceConfig(
                host="127.0.0.1",
                port=0,
                cache_dir=str(self.workdir / f"service-{rep}"),
                workers=2,
                pool="process",
                store_budget_bytes=budget,
            )
        ).start()
        self.base = (
            f"{self.service.url}/v1/partitions?partitioner=onepass"
            f"&k={self.world.k}&cost=archer&sync=1&seed={self.seed}"
        )
        # Preload: the first upload, so replays have a digest from the start.
        self.lock = threading.Lock()
        self.next_body = 0
        self.recent: "tuple[str, int] | None" = None
        self.served: "dict[int, str]" = {}
        self.assignments: "dict[int, np.ndarray]" = {}
        sample = self.request(upload=True)
        if sample["problems"]:
            raise RuntimeError(f"preload failed: {sample['problems']}")

    def after_setup(self) -> "list[str]":
        """One HTTP-served assignment against an in-process partition."""
        digest, body = self.recent
        store = open_store(self.service.api.store_dir(digest))
        with store:
            topo = archer_like_topology(num_nodes=NUM_NODES)
            bw, _ = archer_like_bandwidth(topo).matrices(seed=self.seed)
            cost = cost_matrix_from_bandwidth(bw[: self.world.k, : self.world.k])
            local = OnePassStreamer().partition_stream(
                store, self.world.k, cost_matrix=cost, seed=self.seed
            )
        if not np.array_equal(local.assignment, self.assignments[body]):
            return ["HTTP-served assignment differs from the in-process partition"]
        return []

    def healthz(self) -> dict:
        status, payload = _request("GET", f"{self.service.url}/v1/healthz")
        if status != 200:
            raise RuntimeError(f"healthz answered {status}")
        return json.loads(payload)["stats"]

    def request(self, upload: bool) -> dict:
        """One closed-loop request plus the fetch and checks of its result."""
        with self.lock:
            if upload:
                body_index = self.next_body % len(self.bodies)
                self.next_body += 1
                url, data = self.base, self.bodies[body_index]
            else:
                digest, body_index = self.recent
                url, data = f"{self.base}&store={digest}", None
        problems = []
        t0 = time.perf_counter()
        status, payload = _request("POST", url, data)
        latency = time.perf_counter() - t0
        if status != 200:
            return {"problems": [f"POST answered {status}: {payload[:200]!r}"]}
        job = json.loads(payload)
        if job.get("status") != "done":
            return {"problems": [f"job {job.get('id')} ended {job.get('status')}"]}
        status, text = _request("GET", f"{self.service.url}{job['links']['assignment']}")
        if status != 200:
            return {"problems": [f"assignment fetch answered {status}"]}
        assignment = np.array(text.split(), dtype=np.int64)
        n = int(job["metrics"]["num_vertices"])
        problems += check_assignment(
            assignment, n, self.world.k, None, ONEPASS_BOUND, f"body {body_index}"
        )
        digest = assignment_digest(assignment)
        with self.lock:
            first = self.served.setdefault(body_index, digest)
            self.assignments.setdefault(body_index, assignment)
            if upload:
                self.recent = (job["digest"], body_index)
        if first != digest:
            problems.append(f"body {body_index}: replay served a different assignment")
        return {
            "problems": problems,
            "kind": "upload" if upload else "replay",
            "shape": self.manifest["bodies"][body_index]["shape"],
            "latency_s": latency,
            "job_id": job["id"],
            "imbalance": imbalance_of(assignment, self.world.k),
        }

    def run_unit(self, index: int, traced: bool) -> "dict | None":
        """One request; whether it is traced follows the window's time slices."""
        upload = index % self.UPLOAD_EVERY == 0
        span = self.tracer.begin("unit", index=index)
        try:
            sample = self.request(upload)
            problems = sample.pop("problems")
        except Exception as exc:  # noqa: BLE001 - a raised request counts as failed
            sample, problems = None, [f"request {index}: {type(exc).__name__}: {exc}"]
        finally:
            self.tracer.end(span)
        with self.lock:
            self.failures.record(problems)
        if sample is not None:
            sample["traced"] = span is not None
        return sample

    def run_window(self, seconds: float, trace: bool, first_index: int):
        """Closed-loop slices until ``seconds`` have passed.

        Each slice's latencies and wall time are scaled to the steady
        host by the probes on either side of it.
        """
        samples = []
        counter = itertools.count(first_index)
        before_stats = self.healthz()
        self.steady_wall_s = 0.0
        t0 = time.perf_counter()
        before = self.probe()
        for slice_index in itertools.count():
            if time.perf_counter() - t0 >= seconds:
                break
            done = []
            s0 = time.perf_counter()
            end = s0 + self.SLICE_S

            def client():
                while time.perf_counter() < end:
                    sample = self.run_unit(next(counter), traced=trace)
                    if sample is not None and "kind" in sample:
                        with self.lock:
                            done.append(sample)

            self.tracer.enabled = trace and slice_index % 2 == 0
            threads = [threading.Thread(target=client) for _ in range(self.CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            self.tracer.enabled = False
            raw_s = time.perf_counter() - s0
            after = self.probe()
            for sample in done:
                sample["steady_latency_s"] = scaled(sample["latency_s"], before, after)
            self.steady_wall_s += scaled(raw_s, before, after)
            samples += done
            before = after
        wall = time.perf_counter() - t0
        after_stats = self.healthz()
        self.info["counters"] = {
            key: after_stats.get(key, 0) - before_stats.get(key, 0)
            for key in ("evictions", "text_ingests", "store_replays")
        }
        return samples, wall

    def throughput(self, samples) -> float:
        """Completed requests per steady-host second."""
        return len(samples) / self.steady_wall_s

    def metrics(self, samples, wall_s: float) -> dict:
        def latencies(kind):
            return [s["steady_latency_s"] for s in samples if s["kind"] == kind]

        def per_shape_p50(kind) -> float:
            """Mean over shapes of each shape's median latency.

            The four shapes cost different amounts, and the overall p50
            lands between their modes wherever a seed's bodies put it.
            """
            by_shape: "dict[str, list[float]]" = {}
            for s in samples:
                if s["kind"] == kind:
                    by_shape.setdefault(s["shape"], []).append(s["steady_latency_s"])
            return statistics.fmean(median(v) for v in by_shape.values())

        everything = [s["steady_latency_s"] for s in samples]
        p90, beyond = tail_percentile(everything, 90)
        self.info["latency_p90_ms"] = (1000 * p90, beyond, len(everything))
        self.info["upload_p50_ms"] = 1000 * median(latencies("upload"))
        self.info["replay_p50_ms"] = 1000 * median(latencies("replay"))
        out = {
            "solve_s": per_shape_p50("replay"),
            "base_solve_s": per_shape_p50("upload"),
            "imbalance_max": max(s["imbalance"] for s in samples),
        }
        out.update(self.served_quality())
        return out

    def served_quality(self) -> dict:
        """Quality of served partitions, with an architecture-blind baseline."""
        w = self.world
        per_shape: "dict[str, int]" = {}
        sims, speedups, pcs, conns = [], [], [], []
        for body_index in sorted(self.assignments):
            entry = self.manifest["bodies"][body_index]
            shape = entry["shape"]
            if per_shape.get(shape, 0) >= self.QUALITY_BODIES_PER_SHAPE:
                continue
            per_shape[shape] = per_shape.get(shape, 0) + 1
            hg = read_hmetis(self.inputs / entry["path"])
            served = self.assignments[body_index]
            q = evaluate_partition(hg, served, w.k, w.cost)
            blind = OnePassStreamer().partition(hg, w.k, cost_matrix=None, seed=self.seed)
            sim = w.sim_ms(hg, served)
            blind_sim = w.sim_ms(hg, w.ranks(blind, f"{shape}#{body_index}", "onepass-blind"))
            sims.append((shape, sim))
            speedups.append((shape, blind_sim / sim))
            pcs.append((shape, q.pc_cost))
            conns.append((shape, q.connectivity_minus_one))
        by_shape: "dict[str, list[float]]" = {}
        for shape, ratio in speedups:
            by_shape.setdefault(shape, []).append(ratio)
        return {
            "sim_step_ms": sum_of_group_medians(sims),
            "sim_speedup": geometric_mean(median(v) for v in by_shape.values()),
            "pc_cost": sum_of_group_medians(pcs),
            "connectivity": sum_of_group_medians(conns),
        }

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()


WORKLOADS = {
    "paper-inmem": PaperInMem,
    "shard-powerlaw": ShardPowerlaw,
    "cluster-mesh": ClusterMesh,
    "service-mixed": ServiceMixed,
}
