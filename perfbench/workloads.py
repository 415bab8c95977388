"""The benchmark's workloads: campaign documents generated from a seed.

Each workload writes its own campaign file (JSON, which the campaign
loader accepts like TOML), so editing a bundled campaign under
``src/repro/campaign/data/`` never changes what the benchmark measures.
The seed picks the trace/pattern seeds of the grid; everything else is
fixed here.  ``small=True`` shrinks each grid to a handful of cells for
the self-test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 1

PAPER_ALLOCATORS = [
    "mc",
    "mc1x1",
    "gen-alg",
    "s-curve",
    "s-curve+bf",
    "hilbert",
    "hilbert+bf",
    "h-indexing",
    "h-indexing+bf",
]


def _seeds(workload: str, seed: int, n: int) -> list[int]:
    """``n`` distinct trace seeds derived from the benchmark seed.

    ``random.Random`` seeded with a string hashes it with SHA-512, so the
    draw is the same on every platform and Python 3 release.
    """
    return random.Random(f"{workload}:{seed}").sample(range(1, 2**31), n)


def _trace_per_group(workload: str, seed: int, groups: list[dict]) -> list[dict]:
    """``[[override]]`` blocks giving each group of cells a trace of its own.

    The allocators compared within a group share its trace, as in the
    paper; separate groups draw separate traces, so a run averages over
    many traces and its cost varies little with the benchmark seed.
    """
    return [
        {"when": when, "set": {"seed": s}}
        for when, s in zip(groups, _seeds(workload, seed, len(groups)))
    ]


def mesh_sweep(seed: int, small: bool = False) -> dict:
    """The paper's Fig 7 grid on the 16x22 mesh, two traces per pattern x load.

    The ``seed`` axis holds every group's two trace seeds, and one
    ``[[include]]`` filter per pattern x load keeps only that group's two,
    so a run averages over 18 traces (162 cells) rather than nine.
    """
    patterns = ["all-to-all"] if small else ["all-to-all", "n-body", "random"]
    loads = [1.0] if small else [1.0, 0.6, 0.2]
    per_group = 1 if small else 2
    groups = [(p, x) for p in patterns for x in loads]
    seeds = _seeds("mesh-sweep", seed, per_group * len(groups))
    return {
        "campaign": {"name": "perfbench-mesh-sweep"},
        "defaults": {"n_jobs": 8 if small else 24, "runtime_scale": 0.01},
        "axes": {
            "mesh": ["16x22"],
            "pattern": patterns,
            "load": loads,
            "allocator": ["mc", "hilbert+bf", "s-curve"] if small else PAPER_ALLOCATORS,
            "seed": seeds,
        },
        "include": [
            {"pattern": p, "load": x, "seed": seeds[per_group * i:per_group * (i + 1)]}
            for i, (p, x) in enumerate(groups)
        ],
    }


def fabric_drain(seed: int, small: bool = False) -> dict:
    """A congested multi-fabric grid with tenants and three disciplines.

    ``link_capacity = 16`` (the default derives ~213 flits/s) is low
    enough that the max-min waterfill binds on most rate refreshes.
    """
    fabrics = ["16x22", "fattree:k=8"]
    if not small:
        fabrics += ["leafspine:40x16", "dragonfly:9x4x2"]
    clos = [f for f in fabrics if f != "16x22"]
    patterns = ["all-to-all"] if small else ["all-to-all", "random"]
    loads = [1.0] if small else [1.0, 0.5]
    schedulers = ["easy", "drr"] if small else ["fcfs", "easy", "drr"]
    groups = [
        {"topology": t, "pattern": p, "load": x, "scheduler": sch}
        for t in fabrics
        for p in patterns
        for x in loads
        for sch in schedulers
    ]
    return {
        "campaign": {"name": "perfbench-fabric-drain"},
        "defaults": {
            "n_jobs": 8 if small else 20,
            "runtime_scale": 0.01,
            "n_users": 6,
            "priority": "user:3",
            "network": {"link_capacity": 16.0},
        },
        "axes": {
            "topology": fabrics,
            "pattern": patterns,
            "load": loads,
            "allocator": ["mc", "random", "rack-aware"],
            "scheduler": schedulers,
        },
        "exclude": [
            {"topology": clos, "allocator": "mc"},
            {"topology": "16x22", "allocator": "rack-aware"},
        ],
        "override": _trace_per_group("fabric-drain", seed, groups),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``run`` (cold ``campaign run --jobs 1``) or ``drain`` (cold
    #: ``campaign drain --runners 2``).
    mode: str
    campaign: Callable[[int, bool], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mesh-sweep",
            "the paper's Fig 7 grid, cold: nearly all time is inside cells "
            "(allocation, closed-form traffic, event loop); the waterfill never runs",
            "run",
            mesh_sweep,
        ),
        Workload(
            "fabric-drain",
            "congested Clos and mesh fabrics drained by two runners: graph "
            "routes, a binding waterfill, EASY and DRR, leases and merged flushes",
            "drain",
            fabric_drain,
        ),
    )
}
