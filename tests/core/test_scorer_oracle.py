"""MC, MC1x1 and Gen-Alg score placements exactly as the dense oracle does.

``allocator_oracle`` holds the frozen ``(n_free, n_free)`` scorers; the
library's counting scorers (summed-area shell counts for MC, a memoised key
matrix and coordinate histograms for Gen-Alg) must return the same nodes in
the same rank order on every free mask, mesh shape and request size.
"""

import numpy as np
import pytest
from allocator_oracle import (
    reference_genalg_nodes,
    reference_mc_anchor_costs,
    reference_mc_nodes,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import Request
from repro.core.genalg import GenAlgAllocator
from repro.core.mc import MCAllocator
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh2D

MESHES = [
    Mesh2D(1, 13),
    Mesh2D(13, 1),
    Mesh2D(8, 8),
    Mesh2D(16, 22),
    Mesh2D(8, 8, torus=True),
    Mesh2D(16, 22, torus=True),
]
#: Meshes this small are checked at every k from 1 to n_free.
EVERY_K_NODES = 64


def _machine(mesh, seed, occupancy):
    machine = Machine(mesh)
    rng = np.random.default_rng(seed)
    n_busy = min(int(occupancy * mesh.n_nodes), mesh.n_nodes - 1)
    machine.allocate(rng.choice(mesh.n_nodes, size=n_busy, replace=False), job_id=9)
    return machine


def _assert_same(got, want):
    assert got is not None
    assert np.array_equal(got.nodes, want), (got.nodes.tolist(), want.tolist())


@given(
    mesh=st.sampled_from(MESHES),
    seed=st.integers(0, 2**16),
    occupancy=st.floats(0.0, 0.95),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_counting_scorers_match_dense_oracle(mesh, seed, occupancy, data):
    machine = _machine(mesh, seed, occupancy)
    n_free = machine.n_free
    if mesh.n_nodes <= EVERY_K_NODES:
        ks = range(1, n_free + 1)
    else:
        drawn = data.draw(st.sets(st.integers(1, n_free), max_size=3))
        ks = sorted(drawn | {1, n_free})
    mc, mc1x1, genalg = MCAllocator(True), MCAllocator(False), GenAlgAllocator()
    for k in ks:
        request = Request(size=k, job_id=1)
        _assert_same(
            mc.allocate(request, machine), reference_mc_nodes(request, machine, True)
        )
        _assert_same(
            mc1x1.allocate(request, machine),
            reference_mc_nodes(request, machine, False),
        )
        _assert_same(
            genalg.allocate(request, machine), reference_genalg_nodes(request, machine)
        )

        a = data.draw(st.one_of(st.just(mesh.width), st.integers(1, mesh.width)))
        b = data.draw(st.one_of(st.just(mesh.height), st.integers(1, mesh.height)))
        shaped = Request(size=k, job_id=1, shape=(a, b))
        _assert_same(
            mc.allocate(shaped, machine), reference_mc_nodes(shaped, machine, True)
        )
        got = MCAllocator.anchor_costs(machine, k, (a, b))
        want = reference_mc_anchor_costs(machine, k, (a, b))
        assert list(got.items()) == list(want.items())


def _mesh_id(mesh):
    return f"{mesh.width}x{mesh.height}{'t' if mesh.torus else ''}"


@pytest.mark.parametrize("mesh", MESHES, ids=_mesh_id)
@pytest.mark.parametrize(
    "shape_of",
    [
        lambda m, k: (m.width, 1),  # a whole row
        lambda m, k: (1, m.height),  # a whole column
        lambda m, k: (m.width, m.height),  # the whole mesh, a * b >= k
        lambda m, k: (min(m.width, k + 1), min(m.height, 2)),  # a * b > k
    ],
    ids=["row", "column", "whole", "oversized"],
)
def test_explicit_shapes_match_dense_oracle(mesh, shape_of):
    machine = _machine(mesh, seed=3, occupancy=0.4)
    mc = MCAllocator(True)
    for k in sorted({1, 2, machine.n_free // 2 or 1, machine.n_free}):
        request = Request(size=k, job_id=1, shape=shape_of(mesh, k))
        _assert_same(
            mc.allocate(request, machine), reference_mc_nodes(request, machine, True)
        )


@pytest.mark.parametrize(
    "mesh", [Mesh2D(16, 22), Mesh2D(16, 22, torus=True)], ids=_mesh_id
)
def test_every_k_on_half_full_16x22(mesh):
    machine = _machine(mesh, seed=11, occupancy=0.5)
    mc, mc1x1, genalg = MCAllocator(True), MCAllocator(False), GenAlgAllocator()
    for k in range(1, machine.n_free + 1):
        request = Request(size=k, job_id=1)
        _assert_same(
            mc.allocate(request, machine), reference_mc_nodes(request, machine, True)
        )
        _assert_same(
            mc1x1.allocate(request, machine),
            reference_mc_nodes(request, machine, False),
        )
        _assert_same(
            genalg.allocate(request, machine), reference_genalg_nodes(request, machine)
        )
