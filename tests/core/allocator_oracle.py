"""Reference MC / MC1x1 and Gen-Alg scorers, frozen test-side.

These are the dense ``(n_free, n_free)`` formulations that
``repro.core.mc`` and ``repro.core.genalg`` used before they scored
placements from free-processor counts.  They are kept here, and only
here, as the oracle the counting scorers must match bit for bit: the same
nodes in the same rank order.  ``benchmarks/test_micro_bench.py`` times
the library against them in the same run.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Request
from repro.core.mc import infer_shape, shell_map
from repro.mesh.machine import Machine

__all__ = [
    "reference_genalg_nodes",
    "reference_mc_anchor_costs",
    "reference_mc_nodes",
]


def reference_mc_nodes(request: Request, machine: Machine, shaped: bool) -> np.ndarray:
    """Nodes MC (``shaped``) or MC1x1 picks, by per-anchor shell matrices."""
    mesh = machine.mesh
    k = request.size
    free = machine.free_nodes()
    fx = mesh.xs(free)
    fy = mesh.ys(free)
    a, b = (request.shape or infer_shape(k, mesh)) if shaped else (1, 1)
    anchor_x = np.clip(fx - (a - 1) // 2, 0, mesh.width - a)
    anchor_y = np.clip(fy - (b - 1) // 2, 0, mesh.height - b)
    dx = np.maximum(
        np.maximum(anchor_x[:, None] - fx[None, :], 0),
        fx[None, :] - (anchor_x[:, None] + a - 1),
    )
    dy = np.maximum(
        np.maximum(anchor_y[:, None] - fy[None, :], 0),
        fy[None, :] - (anchor_y[:, None] + b - 1),
    )
    shells = np.maximum(dx, dy)
    costs = np.partition(shells, k - 1, axis=1)[:, :k].sum(axis=1)
    best_anchor = int(np.argmin(costs))
    order = np.lexsort((free, shells[best_anchor]))
    return free[order[:k]]


def reference_mc_anchor_costs(
    machine: Machine, k: int, shape: tuple[int, int]
) -> dict[tuple[int, int], int]:
    """Cost of every in-mesh anchor, one shell map at a time."""
    mesh = machine.mesh
    a, b = shape
    free = machine.free_nodes()
    out: dict[tuple[int, int], int] = {}
    for x in range(mesh.width - a + 1):
        for y in range(mesh.height - b + 1):
            sm = shell_map(mesh, x, y, shape)[free]
            out[(x, y)] = int(np.partition(sm, k - 1)[:k].sum())
    return out


def _reference_axis_pairwise_sums(coords: np.ndarray) -> np.ndarray:
    k = coords.shape[1]
    c = np.sort(coords, axis=1)
    weight = 2 * np.arange(k, dtype=np.int64) - k + 1
    return (c * weight).sum(axis=1)


def _reference_order_by_medoid(mesh, members: np.ndarray) -> np.ndarray:
    members = np.asarray(members, dtype=np.int64)
    if len(members) == 1:
        return members.copy()
    dm = mesh.pairwise_manhattan(members)
    medoid = int(np.argmin(dm.sum(axis=1)))
    order = np.lexsort((members, dm[medoid]))
    return members[order]


def reference_genalg_nodes(request: Request, machine: Machine) -> np.ndarray:
    """Nodes Gen-Alg picks, by per-call distance matrices and sorts."""
    mesh = machine.mesh
    free = machine.free_nodes()
    k = request.size
    if k == len(free):
        return _reference_order_by_medoid(mesh, free)
    dist = mesh.pairwise_manhattan(free)
    key = dist.astype(np.int64) * mesh.n_nodes + free[None, :]
    near = np.argpartition(key, k - 1, axis=1)[:, :k]
    totals = _reference_axis_pairwise_sums(
        mesh.xs(free)[near]
    ) + _reference_axis_pairwise_sums(mesh.ys(free)[near])
    centre = int(np.argmin(totals))
    return _reference_order_by_medoid(mesh, free[near[centre]])
