"""Gen-Alg: Krumke et al.'s approximation for compact location (Section 2.2).

    For each possible point p:
        1. take the k - 1 points closest to p,
        2. compute the total pairwise distance of all k points;
    return the k-point set with the smallest total pairwise distance.

Krumke et al. prove this is a (2 - 2/k)-approximation for minimising the
average pairwise distance of the selected set, for any metric obeying the
triangle inequality.  Here the candidate points are the free processors and
the metric is Manhattan distance.

Implementation notes (this runs for every allocation in the trace sweeps):
each candidate set is a free centre plus its k - 1 nearest free nodes,
picked for all centres at once by one batched ``np.argpartition`` over the
keys ``dist * N + id`` (ties in distance break toward lower node id).  The
``(N, N)`` key matrix depends only on the mesh, so it is built once per mesh
(torus-aware, like ``pairwise_manhattan``) and sliced to the free
processors' rows and columns.  The Manhattan pairwise-distance sum decomposes
per axis; on one axis, with ``L_g`` the number of the set's k coordinates
``<= g``, every gap ``g -> g + 1`` is crossed by ``L_g * (k - L_g)`` pairs,
so

    sum_{i<j} |c_i - c_j| = sum_g L_g * (k - L_g),

which one ``np.bincount`` over ``(candidate, coordinate)`` and a
``cumsum`` give for every candidate at once, in exact integers.  Ties
between centres break toward the lower centre id, making the allocator
fully deterministic.  The axis sums use linear coordinates on tori too.

Rank order depends on member order.  ``argpartition`` returns each
candidate's members in an unspecified (but deterministic) order, and
:meth:`GenAlgAllocator._order_by_medoid` takes the *first* medoid in that
order when several members tie for it.  Sorting the members first (by id,
say) changes the returned rank order of many allocations, and so the
simulated traffic; ``tests/core/test_genalg.py`` pins a tie case.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Allocation, Allocator, Request
from repro.mesh.machine import Machine

__all__ = ["GenAlgAllocator"]


def _axis_pairwise_sums(coords: np.ndarray, extent: int | None = None) -> np.ndarray:
    """Row-wise sum over pairs ``|c_i - c_j|`` (i < j) for a 2-D array.

    ``coords`` holds non-negative integer coordinates below ``extent``
    (default: one past the largest).
    """
    n, k = coords.shape
    if extent is None:
        extent = int(coords.max(initial=0)) + 1
    rows = np.arange(n, dtype=np.int64)[:, None] * extent
    hist = np.bincount((rows + coords).ravel(), minlength=n * extent)
    below = np.cumsum(hist.reshape(n, extent), axis=1)[:, :-1]
    return (below * (k - below)).sum(axis=1)


class GenAlgAllocator(Allocator):
    """The Gen-Alg allocator of Fig 3."""

    name = "gen-alg"

    def __init__(self) -> None:
        self._key_cache: dict[tuple, np.ndarray] = {}

    def _keys(self, mesh) -> np.ndarray:
        """``(N, N)`` matrix ``dist(i, j) * N + j`` for ``mesh``, memoised."""
        cache_key = (tuple(mesh.shape), mesh.torus)
        keys = self._key_cache.get(cache_key)
        if keys is None:
            ids = mesh.all_nodes()
            keys = mesh.pairwise_manhattan(ids).astype(np.int64) * mesh.n_nodes
            keys += ids[None, :]
            self._key_cache[cache_key] = keys
        return keys

    def allocate(self, request: Request, machine: Machine) -> Allocation | None:
        self._require_2d(machine)
        if not self._feasible(request, machine):
            return None
        mesh = machine.mesh
        free = machine.free_nodes()
        k = request.size
        keys = self._keys(mesh)
        if k == len(free):
            return Allocation(
                job_id=request.job_id, nodes=self._order_by_medoid(mesh, keys, free)
            )

        # Candidate sets: each free centre plus its k-1 nearest free nodes.
        free_keys = keys.take(free, axis=0).take(free, axis=1)
        near = np.argpartition(free_keys, k - 1, axis=1)[:, :k]
        totals = _axis_pairwise_sums(mesh.xs(free).take(near), mesh.width)
        totals += _axis_pairwise_sums(mesh.ys(free).take(near), mesh.height)
        centre = int(np.argmin(totals))  # first minimum = lowest centre id
        members = free[near[centre]]
        return Allocation(
            job_id=request.job_id, nodes=self._order_by_medoid(mesh, keys, members)
        )

    @staticmethod
    def _order_by_medoid(mesh, keys: np.ndarray, members: np.ndarray) -> np.ndarray:
        """Rank order: distance from the set's medoid, ties by node id.

        The medoid (member minimising total distance to the others; the
        first such in ``members`` order) anchors the order so the job's
        virtual ring stays geographically coherent; the paper does not
        specify a rank order for MC/Gen-Alg allocations, see DESIGN.md
        substitution #5.
        """
        members = np.asarray(members, dtype=np.int64)
        if len(members) == 1:
            return members.copy()
        dm = keys.take(members, axis=0).take(members, axis=1) // mesh.n_nodes
        medoid = int(np.argmin(dm.sum(axis=1)))
        order = np.lexsort((members, dm[medoid]))
        return members[order]
