"""MC and MC1x1 shell-cost allocators (Section 2.3, Fig 4).

MC (Mache, Lo & Windisch) assumes jobs request a submesh shape such as
4 x 6.  Every candidate placement is scored by looking at the requested
submesh ("shell 0") and the rectangular rings ("shells") around it:
free processors are weighted by their shell number -- 0 inside the
submesh, 1 in the first ring, 2 in the second, and so on -- and the
allocation's cost is the summed weight of the k free processors it would
actually take, innermost shells first.  The placement with the lowest cost
wins; a perfectly free submesh costs 0.

MC1x1 is the Cplant-deployable variant: shell 0 is a single processor and
shells grow the same way (Chebyshev rings), so no shape is needed.  Krumke
et al.'s result implies MC1x1 is a (4 - 4/k)-approximation for average
pairwise distance.

Because Cplant jobs carry no shape, our MC infers one: the most-square
rectangle ``a x b`` with ``a * b >= k`` and minimal perimeter (then minimal
area), the natural reading of "users request an allocation with dimensions
that can fit the job".  An explicitly provided :attr:`Request.shape`
overrides the inference.

Conventions the paper leaves open (DESIGN.md substitution #5): candidate
placements are all anchor positions where the submesh lies inside the mesh
(every free processor for MC1x1); shells are clipped at mesh boundaries;
within a tied shell processors are taken in row-major order; tied anchors
resolve to the lowest row-major anchor.  Returned rank order is
(shell, row-major) -- innermost first.

Implementation notes (this runs for every MC/MC1x1 allocation in the trace
sweeps): no per-anchor shell matrix is built.  The free processors with
shell <= s around an ``a x b`` anchor at ``(ax, ay)`` are exactly those in
the clipped rectangle ``[ax-s, ax+a-1+s] x [ay-s, ay+b-1+s]``, so with one
summed-area table of the free mask each count ``count_s`` is four table
lookups, for every candidate anchor and every shell ``s < max(W, H)`` at
once.  The sum of the k smallest shell numbers is then

    cost = sum_s max(0, k - count_s)

because the j-th smallest shell number is the number of shells ``s`` with
fewer than j free processors at shell <= s.  Every term is an integer, so
the costs (and the first-minimum tie rule) are exactly those of sorting
each anchor's shells.  Only the winning anchor's shells are computed.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import Allocation, Allocator, Request
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh2D

__all__ = ["MCAllocator", "infer_shape", "shell_map"]


def infer_shape(k: int, mesh: Mesh2D) -> tuple[int, int]:
    """Most-square covering rectangle for ``k`` processors that fits ``mesh``.

    Minimises (perimeter, area, width) over rectangles with ``a * b >= k``
    clipped to the mesh dimensions; e.g. 12 -> 4x3, 7 -> 3x3 (not 1x7).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > mesh.n_nodes:
        raise ValueError(f"shape for {k} cannot fit mesh {mesh.shape}")
    best: tuple[int, int, int, tuple[int, int]] | None = None
    for a in range(1, mesh.width + 1):
        b = -(-k // a)  # ceil(k / a)
        if b > mesh.height:
            continue
        cand = (2 * (a + b), a * b, a, (a, b))
        if best is None or cand < best:
            best = cand
    if best is None:
        raise ValueError(f"no {k}-processor rectangle fits mesh {mesh.shape}")
    return best[3]


def shell_map(mesh: Mesh2D, anchor_x: int, anchor_y: int, shape: tuple[int, int]) -> np.ndarray:
    """Shell number of every node for a submesh anchored at (anchor_x, anchor_y).

    Shell 0 is the ``a x b`` submesh whose lower-left corner sits at the
    anchor; shell i is the rectangular ring at Chebyshev distance i from it
    (Fig 4).  Returns an ``(n_nodes,)`` int array.
    """
    a, b = shape
    xs = mesh.xs()
    ys = mesh.ys()
    dx = np.maximum(np.maximum(anchor_x - xs, 0), xs - (anchor_x + a - 1))
    dy = np.maximum(np.maximum(anchor_y - ys, 0), ys - (anchor_y + b - 1))
    return np.maximum(dx, dy)


def _anchor_costs(
    machine: Machine,
    k: int,
    shape: tuple[int, int],
    anchor_x: np.ndarray,
    anchor_y: np.ndarray,
) -> np.ndarray:
    """MC cost of the ``a x b`` submesh at each in-mesh anchor ``(x, y)``.

    The cost is the sum of the k smallest shell numbers of the free
    processors, computed as ``sum_s max(0, k - count_s)`` from a
    summed-area table (see the module docstring).
    """
    w, h = machine.mesh.width, machine.mesh.height
    a, b = shape
    # table[y, x] = free processors in rows < y and columns < x, flattened.
    table = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(machine.free_mask.reshape(h, w), axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    table = table.ravel()
    # Half-open bounds of each anchor's clipped shell-<=s rectangle, one
    # row per shell s; row bounds are scaled to flat table offsets.
    s = np.arange(max(w, h))[:, None]
    x0 = np.maximum(anchor_x - s, 0)
    x1 = np.minimum(anchor_x + a + s, w)
    y0 = np.maximum(anchor_y - s, 0) * (w + 1)
    y1 = np.minimum(anchor_y + b + s, h) * (w + 1)
    counts = (
        table.take(y1 + x1)
        - table.take(y0 + x1)
        - table.take(y1 + x0)
        + table.take(y0 + x0)
    )
    return np.maximum(k - counts, 0).sum(axis=0)


class MCAllocator(Allocator):
    """MC (shaped shells) or MC1x1 (point shells) allocator.

    Parameters
    ----------
    shaped:
        True for MC (infer/accept a submesh shape); False for MC1x1.
    """

    def __init__(self, shaped: bool = True):
        self.shaped = shaped
        self.name = "mc" if shaped else "mc1x1"

    def allocate(self, request: Request, machine: Machine) -> Allocation | None:
        self._require_2d(machine)
        if not self._feasible(request, machine):
            return None
        mesh = machine.mesh
        k = request.size
        free = machine.free_nodes()
        fx = mesh.xs(free)
        fy = mesh.ys(free)

        if self.shaped:
            shape = request.shape or infer_shape(k, mesh)
        else:
            shape = (1, 1)
        a, b = shape
        if a > mesh.width or b > mesh.height:
            raise ValueError(f"shape {shape} does not fit mesh {mesh.shape}")

        # "Each free processor evaluates the quality of an allocation
        # centered on itself": one candidate submesh per free processor,
        # clamped so the a x b rectangle stays inside the mesh.  Free
        # processors are in ascending node id, so cost ties resolve to the
        # lowest row-major centre.
        anchor_x = np.minimum(np.maximum(fx - (a - 1) // 2, 0), mesh.width - a)
        anchor_y = np.minimum(np.maximum(fy - (b - 1) // 2, 0), mesh.height - b)
        costs = _anchor_costs(machine, k, shape, anchor_x, anchor_y)
        best = int(np.argmin(costs))  # first min = lowest anchor

        # Select the k free nodes for that anchor: by (shell, row-major id).
        shells = shell_map(mesh, int(anchor_x[best]), int(anchor_y[best]), shape)
        order = np.lexsort((free, shells[free]))
        nodes = free[order[:k]]
        return Allocation(job_id=request.job_id, nodes=nodes)

    @staticmethod
    def anchor_costs(
        machine: Machine, k: int, shape: tuple[int, int]
    ) -> dict[tuple[int, int], int]:
        """Cost of every anchor position (introspection/visualisation aid)."""
        if machine.n_free < k:
            raise ValueError("not enough free processors")
        mesh = machine.mesh
        a, b = shape
        if a > mesh.width or b > mesh.height:
            return {}
        xs = np.repeat(np.arange(mesh.width - a + 1), mesh.height - b + 1)
        ys = np.tile(np.arange(mesh.height - b + 1), mesh.width - a + 1)
        costs = _anchor_costs(machine, k, shape, xs, ys)
        return {(int(x), int(y)): int(c) for x, y, c in zip(xs, ys, costs)}
