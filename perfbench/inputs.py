"""Seeded input generation, run before (and outside) the timed process.

Every input is a suite stand-in drawn with a seed derived from the
workload seed and written to disk — an hMetis file for the streamed and
served inputs, CSR arrays in one ``.npz`` for the in-memory ones; the
timed process only ever sees these files.  The same seed gives the same
files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.hypergraph.io import write_hmetis
from repro.hypergraph.suite import load_instance
from repro.utils.rng import derive_seed

__all__ = ["WORKLOAD_INPUTS", "generate"]

#: paper-inmem rotates over a mesh, a SAT-primal and a dense random
#: shape.  Scales keep |V| / 48 parts coarse enough for the 1.1 balance
#: tolerance to be reachable.  HyperPRAW's pass count moves a lot from
#: draw to draw, so a run covers many distinct draws per shape, and few
#: enough that every run partitions most of them twice.
PAPER_SHAPES = (
    ("ABACUS_shell_hd", 0.1),
    ("sat14_10pipe_q0_k_primal", 0.3),
    ("sparsine", 0.3),
)
PAPER_DRAWS = 12

#: the power-law streaming instance (hubs put nearly every vertex on
#: the shard boundary) and a hub-free FEM mesh for the cluster.
POWERLAW = ("stream_powerlaw_xl", 0.3)
MESH = ("ABACUS_shell_hd", 2.0)

#: service traffic: four ~2k-vertex shapes (mesh, sphere mesh, random,
#: power-law web graph); ``SERVICE_BODIES`` fresh draws per shape feed
#: the upload requests.
SERVICE_SHAPES = (
    ("ABACUS_shell_hd", 0.85),
    ("2cubes_sphere", 1.0),
    ("sparsine", 1.2),
    ("webbase-1M", 0.2),
)
SERVICE_BODIES = 12


def _draw(name: str, scale: float, seed: int, tag, index: int, path: Path) -> dict:
    draw_seed = derive_seed(seed, "perfbench", tag, name, index)
    hg = load_instance(name, scale=scale, seed=draw_seed)
    write_hmetis(hg, path)
    return {
        "shape": name,
        "scale": scale,
        "seed": int(draw_seed),
        "path": path.name,
        "num_vertices": int(hg.num_vertices),
        "num_pins": int(hg.num_pins),
    }


def _paper(seed: int, out: Path) -> dict:
    """In-memory stand-ins, saved as CSR arrays in one ``.npz``."""
    draws, arrays = [], {}
    # Interleave shapes so any prefix of the list covers all three.
    for d in range(PAPER_DRAWS):
        for name, scale in PAPER_SHAPES:
            draw_seed = derive_seed(seed, "perfbench", "paper", name, d)
            hg = load_instance(name, scale=scale, seed=draw_seed)
            i = len(draws)
            arrays[f"edge_ptr_{i}"] = hg.edge_ptr
            arrays[f"edge_pins_{i}"] = hg.edge_pins
            arrays[f"vertex_weights_{i}"] = hg.vertex_weights
            arrays[f"edge_weights_{i}"] = hg.edge_weights
            draws.append(
                {
                    "shape": name,
                    "scale": scale,
                    "seed": int(draw_seed),
                    "num_vertices": int(hg.num_vertices),
                    "num_pins": int(hg.num_pins),
                }
            )
    np.savez(out / "paper.npz", **arrays)
    return {"draws": draws, "arrays": "paper.npz"}


def _single(shape, tag):
    def make(seed: int, out: Path) -> dict:
        name, scale = shape
        return {"input": _draw(name, scale, seed, tag, 0, out / f"{tag}.hgr")}

    return make


def _service(seed: int, out: Path) -> dict:
    bodies = []
    for d in range(SERVICE_BODIES):
        for name, scale in SERVICE_SHAPES:
            path = out / f"body_{len(bodies):03d}.hgr"
            bodies.append(_draw(name, scale, seed, "service", d, path))
    return {"bodies": bodies}


WORKLOAD_INPUTS = {
    "paper-inmem": _paper,
    "shard-powerlaw": _single(POWERLAW, "powerlaw"),
    "cluster-mesh": _single(MESH, "mesh"),
    "service-mixed": _service,
}


def generate(workload: str, seed: int, out: Path) -> Path:
    """Write ``workload``'s inputs for ``seed`` under ``out``; returns the manifest."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": int(seed)}
    manifest.update(WORKLOAD_INPUTS[workload](int(seed), out))
    path = out / "inputs.json"
    path.write_text(json.dumps(manifest, indent=1))
    return path
