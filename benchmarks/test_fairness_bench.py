"""Benchmarks for the multi-tenant fairness subsystem.

Two claims:

* computing fairness metrics over an already-warm sweep is accounting,
  not simulation -- adding per-tenant slowdown summaries to a warm
  ``run_many`` pass costs <= 5% extra wall time,
* the fair queueing disciplines stay in the same performance class as
  the plain FIFO: ``wfq`` and ``drr`` each hold >= half the
  ``fcfs`` cells/second on the fig07 all-to-all slice (their policy
  objects are plain deque bookkeeping on the scheduling path, far off
  the simulation's network-dominated critical path).
"""

from __future__ import annotations

import time

from repro.analysis.fairness import fairness_summary
from repro.core.registry import make_allocator
from repro.mesh.topology import Mesh2D
from repro.patterns.base import get_pattern
from repro.runner import ExperimentSpec, ResultCache, run_many
from repro.sched.registry import apply_priority
from repro.sched.simulator import Simulation
from repro.trace.synthetic import drop_oversized, sdsc_paragon_trace

#: Sized so the warm pass is decode-dominated (hundreds of jobs per
#: artifact), making the relative overhead bound meaningful rather than
#: a race against timer resolution.
GRID = [
    ExperimentSpec(
        mesh_shape=(16, 16),
        pattern="all-to-all",
        allocator=allocator,
        load=load,
        seed=3,
        n_jobs=250,
        runtime_scale=0.01,
        n_users=6,
        priority="user:3",
    )
    for allocator in ("hilbert+bf", "mc1x1", "s-curve+bf", "row-major")
    for load in (1.0, 0.6)
]


def _min_of(n, fn):
    """Best-of-n wall time: the standard cure for timer noise."""
    best = float("inf")
    result = None
    for _ in range(n):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


class TestFairnessAccountingOverhead:
    def test_warm_sweep_overhead_within_5_percent(self, tmp_path):
        cache = ResultCache(tmp_path / "bench-cache")
        run_many(GRID, cache=cache)  # cold pass: fill the cache

        warm_s, cells = _min_of(5, lambda: run_many(GRID, cache=cache))
        assert all(c.cached for c in cells)

        def warm_with_fairness():
            cells = run_many(GRID, cache=cache)
            return [fairness_summary(c.jobs) for c in cells]

        fair_s, summaries = _min_of(5, warm_with_fairness)
        assert len(summaries) == len(GRID)
        assert all(s.n_tenants >= 2 for s in summaries)

        overhead = fair_s / warm_s - 1.0
        print(
            f"\nwarm sweep {warm_s * 1e3:.1f} ms -> with fairness "
            f"{fair_s * 1e3:.1f} ms ({overhead * 100:+.1f}%)"
        )
        # 5% relative, plus a small absolute slack so a sub-100ms warm
        # pass on a noisy shared runner cannot fail on timer jitter.
        assert fair_s <= warm_s * 1.05 + 0.010, (
            f"fairness accounting too expensive: warm {warm_s:.3f}s vs "
            f"with-fairness {fair_s:.3f}s"
        )


class TestDisciplineThroughput:
    def _cells_per_second(self, scheduler, jobs, mesh):
        def sweep():
            for allocator in ("hilbert+bf", "mc"):
                Simulation(
                    mesh,
                    make_allocator(allocator),
                    get_pattern("all-to-all"),
                    jobs,
                    seed=3,
                    scheduler=scheduler,
                ).run()

        elapsed, _ = _min_of(3, sweep)
        return 2 / elapsed

    def test_wfq_drr_within_2x_of_fcfs(self):
        """Fig07 slice: the fair disciplines hold >= half fcfs throughput."""
        mesh = Mesh2D(16, 16)
        jobs = apply_priority(
            drop_oversized(
                sdsc_paragon_trace(seed=3, n_jobs=60, runtime_scale=0.01, n_users=6),
                mesh.n_nodes,
            ),
            "user:3",
        )
        rates = {
            s: self._cells_per_second(s, jobs, mesh) for s in ("fcfs", "wfq", "drr")
        }
        print(
            "\n"
            + "  ".join(f"{s}: {rate:.1f} cells/s" for s, rate in rates.items())
        )
        for scheduler in ("wfq", "drr"):
            slowdown = rates["fcfs"] / rates[scheduler]
            assert slowdown <= 2.0, (
                f"{scheduler} is {slowdown:.2f}x slower than fcfs "
                f"({rates[scheduler]:.1f} vs {rates['fcfs']:.1f} cells/s)"
            )
