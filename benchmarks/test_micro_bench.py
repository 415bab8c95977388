"""Micro-benchmarks of the hot paths (profiling-driven, per the
hpc-parallel guide: measure before optimising).

These are true repeated-timing benchmarks: allocator decision latency on a
half-fragmented machine, curve construction, vectorised link-load
accumulation, the max-min water-filling solver, and flit-engine event
throughput.  The MC / MC1x1 / Gen-Alg scorers are also timed against the
frozen dense scorers of ``tests/core/allocator_oracle.py`` in the same
run, so their floors are ratios that hold on slow and fast hosts alike.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.base import Request
from repro.core.curves import _CACHE, get_curve, hilbert_points
from repro.core.registry import make_allocator
from repro.mesh.machine import Machine
from repro.mesh.topology import Mesh2D
from repro.network.flit import FlitNetwork, FlitParams
from repro.network.fluid import max_min_rates
from repro.network.links import LinkSpace
from repro.patterns import AllToAll

_ORACLE_PATH = Path(__file__).parents[1] / "tests" / "core" / "allocator_oracle.py"
_spec = importlib.util.spec_from_file_location("allocator_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


@pytest.fixture()
def fragmented_machine():
    """16x22 machine at ~50% occupancy with scattered holes."""
    mesh = Mesh2D(16, 22)
    machine = Machine(mesh)
    rng = np.random.default_rng(42)
    busy = rng.choice(mesh.n_nodes, size=176, replace=False)
    machine.allocate(busy, job_id=999)
    return machine


@pytest.mark.parametrize(
    "name",
    ["hilbert+bf", "hilbert", "s-curve+ff", "h-indexing+ss", "mc", "mc1x1", "gen-alg"],
)
def test_allocator_decision_latency(benchmark, fragmented_machine, name):
    """Single allocation decision on a realistic half-full machine."""
    allocator = make_allocator(name)
    request = Request(size=24, job_id=1)
    allocator.allocate(request, fragmented_machine)  # warm caches
    result = benchmark(allocator.allocate, request, fragmented_machine)
    assert result is not None and len(result.nodes) == 24


def _best_of(fn, repeats):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _fragmented_16x22_cases(n=60, seed=2024):
    """Fixed seeded 16x22 machines at 10-90% occupancy, k from 1 to 320."""
    mesh = Mesh2D(16, 22)
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        machine = Machine(mesh)
        n_busy = int(rng.uniform(0.1, 0.9) * mesh.n_nodes)
        machine.allocate(rng.choice(mesh.n_nodes, n_busy, replace=False), job_id=9)
        k = int(rng.integers(1, min(320, machine.n_free) + 1))
        cases.append((Request(size=k, job_id=1), machine))
    return cases


@pytest.mark.parametrize(
    ("name", "floor", "reference"),
    [
        ("mc", 2.5, lambda r, m: oracle.reference_mc_nodes(r, m, shaped=True)),
        ("mc1x1", 2.5, lambda r, m: oracle.reference_mc_nodes(r, m, shaped=False)),
        ("gen-alg", 1.15, oracle.reference_genalg_nodes),
    ],
    ids=["mc", "mc1x1", "gen-alg"],
)
def test_counting_scorer_beats_dense_oracle(benchmark, name, floor, reference):
    """Library scorer vs the dense oracle on the same machines, min of 7."""
    allocator = make_allocator(name)
    cases = _fragmented_16x22_cases()

    def library():
        return [allocator.allocate(r, m).nodes for r, m in cases]

    def dense():
        return [reference(r, m) for r, m in cases]

    library()  # warm the per-mesh caches
    t_fast, fast = _best_of(library, repeats=7)
    t_ref, ref = _best_of(dense, repeats=7)
    for got, want in zip(fast, ref):
        assert np.array_equal(got, want)
    speedup = t_ref / t_fast
    benchmark.extra_info[f"{name}_scorer_speedup"] = round(speedup, 2)
    print(
        f"\n[{name} on 16x22, {len(cases)} machines] library {t_fast * 1e3:.1f} ms, "
        f"dense oracle {t_ref * 1e3:.1f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= floor, (
        f"{name} scorer only {speedup:.2f}x the dense oracle (floor {floor}x)"
    )
    benchmark.pedantic(library, rounds=1, iterations=1)


def test_hilbert_point_generation(benchmark):
    """Raw 64x64 Hilbert index -> coordinate conversion."""
    pts = benchmark(hilbert_points, 6)
    assert len(pts) == 4096


def test_curve_construction_uncached(benchmark):
    """Full Curve build for the 16x22 mesh (truncation included)."""

    def build():
        _CACHE.clear()
        return get_curve("hilbert", Mesh2D(16, 22))

    curve = benchmark(build)
    assert curve.n_nodes == 352


def test_link_load_accumulation(benchmark):
    """Vectorised per-link loads for a 128-proc all-to-all cycle."""
    mesh = Mesh2D(16, 22)
    space = LinkSpace.for_mesh(mesh)
    rng = np.random.default_rng(0)
    nodes = rng.choice(mesh.n_nodes, size=128, replace=False)
    pairs = AllToAll().cycle(128)
    src = nodes[pairs[:, 0]]
    dst = nodes[pairs[:, 1]]
    loads = benchmark(space.accumulate_route_loads, src, dst)
    assert loads.sum() > 0


def test_max_min_solver(benchmark):
    """Water-filling over 40 flows x 1332 links (16x22 link count)."""
    rng = np.random.default_rng(1)
    weights = rng.random((40, 1332)) * (rng.random((40, 1332)) < 0.05)
    capacities = np.full(1332, 200.0)
    caps = np.ones(40)
    rates = benchmark(max_min_rates, weights, capacities, caps)
    assert len(rates) == 40


def test_flit_engine_event_rate(benchmark):
    """Deliver a contended 400-message batch on an 8x8 mesh."""
    mesh = Mesh2D(8, 8)
    net = FlitNetwork(mesh, FlitParams(flit_time=0.1, router_delay=0.1))
    rng = np.random.default_rng(2)
    batch = [
        (0.0, int(s), int(d), 16)
        for s, d in zip(rng.integers(0, 64, 400), rng.integers(0, 64, 400))
    ]
    msgs = benchmark(net.deliver, batch)
    assert all(m.delivered_at >= 0 for m in msgs)
