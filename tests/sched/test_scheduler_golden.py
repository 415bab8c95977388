"""Golden-snapshot regression test for every queueing discipline.

For each distinct (topology, allocator, pattern) in the engine-equivalence
suite's ``COMBOS`` and each registered scheduler, pins the vector
engine's job start order (job ids sorted by start time, exact integers),
makespan and mean response time against a checked-in JSON snapshot.  The
equivalence suite only proves the two engines agree with each other; this
snapshot proves the shared scheduling code keeps producing the same
schedules, EASY's backfilling included.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/sched/test_scheduler_golden.py --regen
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.mesh.clos import topology_label
from repro.sched.registry import scheduler_names

GOLDEN_PATH = Path(__file__).parent / "data" / "scheduler_golden.json"
EQUIVALENCE_PATH = (
    Path(__file__).parents[1] / "integration" / "test_engine_equivalence.py"
)

#: Relative tolerance for float noise; the run itself is deterministic.
RTOL = 1e-6


def _equivalence_suite():
    spec = importlib.util.spec_from_file_location(
        "_scheduler_golden_combos", EQUIVALENCE_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SUITE = _equivalence_suite()


def _cases() -> dict[str, tuple]:
    """``"topology|allocator|pattern|scheduler"`` -> run arguments."""
    cases = {}
    for param in _SUITE.COMBOS:
        mesh, allocator, pattern, _ = param.values
        for scheduler in scheduler_names():
            key = f"{topology_label(mesh)}|{allocator}|{pattern}|{scheduler}"
            cases.setdefault(key, (mesh, allocator, pattern, scheduler))
    return cases


CASES = _cases()


def compute_case(mesh, allocator, pattern, scheduler) -> dict:
    jobs = _SUITE._jobs_for(mesh)
    result = _SUITE._run(mesh, allocator, pattern, scheduler, "vector", jobs)
    order = sorted(result.jobs, key=lambda r: (r.start, r.job_id))
    return {
        "start_order": [r.job_id for r in order],
        "makespan": result.makespan,
        "mean_response": result.mean_response(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


def test_snapshot_covers_every_case(golden):
    assert set(golden) == set(CASES), "case grid changed shape (regenerate?)"


def test_easy_backfills_somewhere(golden):
    """Sanity: the snapshot pins real backfilling, not FCFS twice."""
    differs = [
        key
        for key in golden
        if key.endswith("|easy")
        and golden[key]["start_order"]
        != golden[key[: -len("easy")] + "fcfs"]["start_order"]
    ]
    assert differs


@pytest.mark.parametrize("key", sorted(CASES))
def test_schedule_matches_golden(key, golden):
    actual = compute_case(*CASES[key])
    expected = golden[key]
    assert actual["start_order"] == expected["start_order"]
    for metric in ("makespan", "mean_response"):
        assert actual[metric] == pytest.approx(expected[metric], rel=RTOL), metric


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    # One case per line keeps the snapshot reviewable as a diff.
    cases = ",\n".join(
        f"    {json.dumps(key)}: {json.dumps(compute_case(*args), sort_keys=True)}"
        for key, args in sorted(CASES.items())
    )
    GOLDEN_PATH.write_text(
        '{\n  "engine": "vector",\n'
        f'  "schedulers": {json.dumps(list(scheduler_names()))},\n'
        f'  "cases": {{\n{cases}\n  }}\n}}\n'
    )
    print(f"wrote {GOLDEN_PATH} ({len(CASES)} cases)")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to regenerate without --regen")
    _regenerate()
