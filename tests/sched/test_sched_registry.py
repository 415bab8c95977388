"""Tests for repro.sched.registry: disciplines and priority policies."""

import pytest

from repro.core.registry import make_allocator
from repro.mesh.topology import Mesh2D
from repro.patterns.base import get_pattern
from repro.sched.job import Job
from repro.sched.registry import (
    DRRQueue,
    EASYQueue,
    FCFSQueue,
    WFQQueue,
    apply_priority,
    class_weight,
    make_discipline,
    scheduler_names,
    validate_priority,
    validate_scheduler,
)
from repro.sched.simulator import Simulation


def run_sim(jobs, scheduler, engine="vector"):
    return Simulation(
        Mesh2D(8, 8),
        make_allocator("hilbert+bf"),
        get_pattern("all-to-all"),
        jobs,
        seed=7,
        scheduler=scheduler,
        engine=engine,
    ).run()


class TestRegistry:
    def test_scheduler_names(self):
        assert scheduler_names() == ("fcfs", "easy", "wfq", "drr")

    def test_validate_known(self):
        for name in scheduler_names():
            assert validate_scheduler(name) == name

    def test_validate_unknown_names_every_discipline(self):
        with pytest.raises(ValueError) as err:
            validate_scheduler("sjf")
        for name in scheduler_names():
            assert repr(name) in str(err.value)
        assert "'sjf'" in str(err.value)

    def test_make_discipline(self):
        fcfs = make_discipline("fcfs", [])
        assert isinstance(fcfs, FCFSQueue) and not isinstance(fcfs, EASYQueue)
        assert isinstance(make_discipline("easy", []), EASYQueue)
        assert isinstance(make_discipline("wfq", []), WFQQueue)
        assert isinstance(make_discipline("drr", []), DRRQueue)

    def test_simulation_error_derived_from_registry(self):
        """Satellite: the Simulation validation message names wfq/drr."""
        with pytest.raises(ValueError, match="'wfq'"):
            run_sim([], "bogus")

    def test_class_weight_linear(self):
        assert class_weight(0) == 1.0
        assert class_weight(3) == 4.0


class TestPriorityPolicies:
    def test_validate_accepts_none_and_good_forms(self):
        assert validate_priority(None) is None
        assert validate_priority("user:3") == "user:3"
        assert validate_priority("rr:1") == "rr:1"

    @pytest.mark.parametrize(
        "bad", ["user", "user:", "user:x", "user:0", "rr:-2", "lifo:3", "3"]
    )
    def test_validate_rejects_bad_forms(self, bad):
        with pytest.raises(ValueError):
            validate_priority(bad)

    def test_apply_user_policy(self):
        jobs = [Job(i, 0.0, 1, 1.0, user_id=u) for i, u in enumerate([0, 1, 4, -1])]
        classes = [j.priority_class for j in apply_priority(jobs, "user:3")]
        # Known tenants map onto user_id % k; the sentinel stays class 0.
        assert classes == [0, 1, 1, 0]

    def test_apply_rr_policy_ignores_tenancy(self):
        jobs = [Job(i, 0.0, 1, 1.0, user_id=-1) for i in range(5)]
        classes = [j.priority_class for j in apply_priority(jobs, "rr:2")]
        assert classes == [0, 1, 0, 1, 0]

    def test_apply_none_is_identity(self):
        jobs = [Job(0, 0.0, 1, 1.0, priority_class=2)]
        assert apply_priority(jobs, None) == jobs


class TestFCFSQueue:
    def test_fifo_order(self):
        q = FCFSQueue()
        jobs = [Job(i, float(i), 1, 1.0) for i in range(3)]
        for j in jobs:
            q.submit(j)
        assert q.head() is jobs[0]
        order = []
        assert q.start_jobs(lambda j: order.append(j) or True) is True
        assert order == jobs
        assert q.head() is None

    def test_head_blocks_later_jobs(self):
        q = FCFSQueue()
        blocked, small = Job(0, 0.0, 64, 10.0), Job(1, 0.0, 1, 10.0)
        q.submit(blocked)
        q.submit(small)
        tried = []
        assert q.start_jobs(lambda j: tried.append(j) or j.size <= 1) is False
        assert tried == [blocked]
        assert q.head() is blocked and len(q) == 2

    def test_empty(self):
        q = FCFSQueue()
        assert q.head() is None
        assert not q
        assert len(q) == 0


def _no_reservation():
    raise AssertionError("reservation() needs a blocked head")


class TestEASYQueue:
    """EASY driven without an engine: a fake ``reservation()`` reports the
    machine, a scripted ``try_start`` stands in for the allocator."""

    HEAD = Job(0, 0.0, 64, 10.0)  # never fits: always the blocked head

    def _queue(self, *behind):
        q = EASYQueue()
        for job in (self.HEAD, *behind):
            q.submit(job)
        return q

    @staticmethod
    def _reservation(*answers):
        """Answer successive calls with ``answers`` (the last repeats)."""
        calls = []

        def reservation():
            calls.append(len(calls))
            return answers[min(len(calls), len(answers)) - 1]

        return reservation, calls

    @staticmethod
    def _try_start(log):
        def try_start(job):
            log.append(job.job_id)
            return job.size < 64

        return try_start

    def test_unblocked_queue_never_asks_for_reservation(self):
        q = EASYQueue()
        q.submit(Job(0, 0.0, 4, 10.0))
        assert q.start_jobs(lambda j: True, _no_reservation) is True
        assert not q

    def test_blocked_head_stays_first(self):
        """The head is offered first, and stays at the front after a
        job behind it backfills."""
        short = Job(1, 0.0, 2, 10.0)
        q = self._queue(short)
        # Head needs 64: 4 free now, 60 more released at t=100.
        reservation, _ = self._reservation((0.0, 4, [(100.0, 60)]))
        log = []
        assert q.start_jobs(self._try_start(log), reservation) is True
        assert log == [0, 1]
        assert q.head() is self.HEAD and len(q) == 1

    def test_backfills_through_time_window(self):
        """No spare processors, but the job ends before the shadow time."""
        job = Job(1, 0.0, 8, 50.0)
        q = self._queue(job)
        reservation, _ = self._reservation((0.0, 8, [(100.0, 56)]))
        log = []
        assert q.start_jobs(self._try_start(log), reservation) is True
        assert log == [0, 1]

    def test_backfills_through_spare_processors(self):
        """A job longer than the window starts on processors the head will
        not need; once the spare is used up the next one is held back."""
        first, second = Job(1, 0.0, 4, 500.0), Job(2, 0.0, 4, 500.0)
        q = self._queue(first, second)
        # At t=100, 68 processors are free: the head leaves 4 spare.
        # After `first` starts, the engine reports no spare.
        reservation, calls = self._reservation(
            (0.0, 8, [(100.0, 60)]), (0.0, 4, [(100.0, 60)])
        )
        log = []
        assert q.start_jobs(self._try_start(log), reservation) is True
        assert log == [0, 1]
        assert len(calls) == 2  # re-reserved after the backfill start
        assert [q.head(), len(q)] == [self.HEAD, 2]

    def test_job_fitting_neither_is_never_tried(self):
        long_wide = Job(1, 0.0, 8, 500.0)
        q = self._queue(long_wide)
        reservation, _ = self._reservation((0.0, 8, [(100.0, 56)]))
        log = []
        assert q.start_jobs(self._try_start(log), reservation) is False
        assert log == [0]
        assert len(q) == 2


class TestWFQQueue:
    def test_weighted_tags_favor_higher_class(self):
        """Equal quotas: the heavier class finishes its virtual service
        first and is offered ahead of an earlier class-0 arrival."""
        queue = WFQQueue()
        first = Job(0, 0.0, 4, 10.0, priority_class=0)
        second = Job(1, 0.0, 4, 10.0, priority_class=3)
        queue.submit(first)
        queue.submit(second)
        assert queue.head() is second

    def test_single_class_is_fifo(self):
        queue = WFQQueue()
        jobs = [Job(i, 0.0, 2, 5.0) for i in range(4)]
        for job in jobs:
            queue.submit(job)
        order = []
        queue.start_jobs(lambda j: order.append(j) or True)
        assert order == jobs

    def test_strict_head_blocking(self):
        """A head that cannot place blocks everything behind it."""
        queue = WFQQueue()
        blocked = Job(0, 0.0, 64, 10.0)
        small = Job(1, 0.0, 1, 10.0)
        queue.submit(blocked)
        queue.submit(small)
        started = queue.start_jobs(lambda j: j.size <= 1)
        assert started is False
        assert len(queue) == 2

    def test_len_and_bool(self):
        queue = WFQQueue()
        assert not queue and len(queue) == 0
        queue.submit(Job(0, 0.0, 1, 1.0))
        assert queue and len(queue) == 1


class TestDRRQueue:
    def test_round_robin_interleaves_tenants(self):
        """Tenants with equal-quota backlogs are served one job per visit."""
        jobs = [Job(i, 0.0, 4, 10.0, user_id=i % 2) for i in range(6)]
        queue = DRRQueue(jobs)
        for job in jobs:
            queue.submit(job)
        order = []
        queue.start_jobs(lambda j: order.append(j.job_id) or True)
        assert order == [0, 1, 2, 3, 4, 5]

    def test_quantum_covers_largest_quota(self):
        """The largest job starts on its tenant's first visit."""
        big = Job(0, 0.0, 60, 10.0, user_id=0)
        queue = DRRQueue([big])
        queue.submit(big)
        started = queue.start_jobs(lambda j: True)
        assert started is True
        assert len(queue) == 0

    def test_blocked_tenant_forfeits_visit(self):
        jobs = [
            Job(0, 0.0, 64, 10.0, user_id=0),
            Job(1, 0.0, 1, 10.0, user_id=1),
        ]
        queue = DRRQueue(jobs)
        for job in jobs:
            queue.submit(job)
        order = []
        queue.start_jobs(lambda j: j.size <= 1 and (order.append(j.job_id) or True))
        # Tenant 0's head cannot place; tenant 1 still gets its visit.
        assert order == [1]
        assert len(queue) == 1

    def test_head_follows_cursor(self):
        jobs = [Job(i, 0.0, 1, 1.0, user_id=i) for i in range(3)]
        queue = DRRQueue(jobs)
        for job in jobs:
            queue.submit(job)
        assert queue.head() is jobs[0]


class TestDegenerateEquivalence:
    """With one class (wfq) or one tenant (drr) the fair disciplines
    collapse to strict FCFS -- bit-identical schedules, not just similar.
    """

    def _trace(self, user_id=-1):
        return [
            Job(i, float(3 * i), 4 + 7 * (i % 5), 15.0, user_id=user_id)
            for i in range(24)
        ]

    @pytest.mark.parametrize("engine", ["vector", "loop"])
    def test_wfq_single_class_matches_fcfs(self, engine):
        jobs = self._trace()
        assert all(j.priority_class == 0 for j in jobs)
        fcfs = run_sim(jobs, "fcfs", engine)
        wfq = run_sim(jobs, "wfq", engine)
        assert wfq.jobs == fcfs.jobs
        assert wfq.makespan == fcfs.makespan

    @pytest.mark.parametrize("engine", ["vector", "loop"])
    def test_drr_single_tenant_matches_fcfs(self, engine):
        jobs = self._trace(user_id=5)
        fcfs = run_sim(jobs, "fcfs", engine)
        drr = run_sim(jobs, "drr", engine)
        assert drr.jobs == fcfs.jobs
        assert drr.makespan == fcfs.makespan

    def test_wfq_reorders_with_classes(self):
        """Sanity: with real classes wfq is *not* fcfs (the subsystem
        actually changes schedules, not just labels)."""
        jobs = apply_priority(
            [Job(i, float(i), 16, 30.0, user_id=i) for i in range(16)], "user:3"
        )
        fcfs = run_sim(jobs, "fcfs")
        wfq = run_sim(jobs, "wfq")
        assert wfq.jobs != fcfs.jobs
