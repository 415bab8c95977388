"""The vectorised engine is bit-identical to the frozen loop engine.

``Simulation(engine="vector")`` replaced the per-event Python loop with
array state, closed-form traffic profiles and an incremental fluid
network; ``engine="loop"`` (:mod:`repro.sched._loop_reference`) preserves
the original implementation.  Everything the simulator reports -- start,
completion, the hop metrics, component counts, makespan -- must agree
*exactly* (``==``, not approx) across mesh shape, torus wrap, pattern,
allocator and scheduler, or cached artifacts produced before and after
the refactor would diverge.
"""

import pytest

from repro.core.registry import make_allocator
from repro.mesh.clos import Dragonfly, FatTree, LeafSpine
from repro.mesh.topology import Mesh2D, Mesh3D
from repro.patterns.base import get_pattern
from repro.sched.job import Job
from repro.sched.registry import apply_priority
from repro.sched.simulator import Simulation
from repro.trace.synthetic import sdsc_paragon_trace


def _jobs_for(mesh, n_jobs=60, seed=3, runtime_scale=0.02):
    # Tenant-bearing jobs with spread priority classes, so the wfq and
    # drr combos exercise real multi-class/multi-tenant schedules (and
    # fcfs/easy prove they carry the fields through untouched).
    trace = sdsc_paragon_trace(
        seed=seed, n_jobs=n_jobs, runtime_scale=runtime_scale, n_users=5
    )
    return apply_priority(
        [j for j in trace if j.size <= mesh.n_nodes], "user:3"
    )


def _run(mesh, allocator, pattern, scheduler, engine, jobs, seed=7):
    return Simulation(
        mesh,
        make_allocator(allocator),
        get_pattern(pattern),
        jobs,
        seed=seed,
        scheduler=scheduler,
        engine=engine,
    ).run()


COMBOS = [
    pytest.param(Mesh2D(8, 8), "hilbert+bf", "all-to-all", "fcfs", id="2d-a2a-fcfs"),
    pytest.param(Mesh2D(8, 8), "hilbert+bf", "all-to-all", "easy", id="2d-a2a-easy"),
    pytest.param(
        Mesh2D(8, 8, torus=True), "s-curve+ff", "ring", "fcfs", id="2d-torus-ring"
    ),
    pytest.param(Mesh3D(4, 4, 4), "hilbert+bf", "n-body", "easy", id="3d-nbody-easy"),
    pytest.param(
        Mesh3D(2, 4, 8, torus=True),
        "row-major+ff",
        "all-to-all-broadcast",
        "fcfs",
        id="3d-torus-bcast",
    ),
    pytest.param(Mesh2D(16, 16), "contiguous", "random", "fcfs", id="2d-contig-random"),
    pytest.param(Mesh2D(8, 8), "gen-alg", "cplant-test-suite", "fcfs", id="2d-cplant"),
    pytest.param(Mesh2D(8, 8), "mc", "all-to-all", "easy", id="2d-mc-easy"),
    # The fair queueing disciplines share the same policy object between
    # engines, so structural bit-identity must hold for them too.
    pytest.param(Mesh2D(8, 8), "hilbert+bf", "all-to-all", "wfq", id="2d-a2a-wfq"),
    pytest.param(Mesh2D(8, 8), "mc", "all-to-all", "drr", id="2d-mc-drr"),
    pytest.param(
        Mesh3D(4, 4, 4), "hilbert+bf", "n-body", "drr", id="3d-nbody-drr"
    ),
    # Switched fabrics route through GraphLinkSpace in both engines.
    pytest.param(FatTree(4), "rack-aware", "all-to-all", "fcfs", id="fattree-rack"),
    pytest.param(FatTree(4), "rack-aware", "ring", "wfq", id="fattree-wfq"),
    pytest.param(LeafSpine(6, 3), "pod-local", "ring", "easy", id="leafspine-pod"),
    pytest.param(
        Dragonfly(5, 3, 2), "random", "n-body", "fcfs", id="dragonfly-random"
    ),
    # Every discipline on at least one Clos fabric and one torus.
    pytest.param(
        Mesh2D(8, 8, torus=True), "s-curve+ff", "ring", "easy", id="2d-torus-easy"
    ),
    pytest.param(
        Mesh2D(8, 8, torus=True), "s-curve+ff", "ring", "wfq", id="2d-torus-wfq"
    ),
    pytest.param(
        Mesh3D(2, 4, 8, torus=True),
        "row-major+ff",
        "all-to-all-broadcast",
        "drr",
        id="3d-torus-drr",
    ),
    pytest.param(FatTree(4), "rack-aware", "all-to-all", "easy", id="fattree-easy"),
    pytest.param(Dragonfly(5, 3, 2), "random", "n-body", "easy", id="dragonfly-easy"),
    pytest.param(Dragonfly(5, 3, 2), "random", "n-body", "drr", id="dragonfly-drr"),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("mesh, allocator, pattern, scheduler", COMBOS)
    def test_engines_bit_identical(self, mesh, allocator, pattern, scheduler):
        jobs = _jobs_for(mesh)
        vector = _run(mesh, allocator, pattern, scheduler, "vector", jobs)
        loop = _run(mesh, allocator, pattern, scheduler, "loop", jobs)
        assert vector.makespan == loop.makespan
        assert len(vector.jobs) == len(jobs)
        # Dataclass equality covers every recorded field, including the
        # new held count and both exact-ratio hop metrics.
        assert vector.jobs == loop.jobs
        assert vector.scheduler == loop.scheduler
        assert vector.allocator == loop.allocator

    def test_engine_choice_validated(self):
        with pytest.raises(ValueError):
            _run(Mesh2D(4, 4), "hilbert+bf", "ring", "fcfs", "turbo", [])

    def test_stochastic_pattern_same_per_job_seeds(self):
        """The random pattern draws per-job cycles from the same seeds in
        both engines (seed spawning is keyed by job id, not start order)."""
        mesh = Mesh2D(8, 8)
        jobs = [Job(i, float(5 * i), 4 + i, 20.0) for i in range(8)]
        vector = _run(mesh, "hilbert+bf", "random", "fcfs", "vector", jobs, seed=11)
        loop = _run(mesh, "hilbert+bf", "random", "fcfs", "loop", jobs, seed=11)
        assert vector.jobs == loop.jobs
