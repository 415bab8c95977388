"""Registry of queueing disciplines and priority policies.

The paper schedules FCFS only ("our focus is on allocation rather than
scheduling"); EASY backfilling and the fairness disciplines widen the
question to *who* waits under contention.  This module is the single
source of truth for which disciplines exist and how each one picks the
jobs to start:

``fcfs``
    The paper's strict FIFO: the head blocks every later job until it
    can be placed.
``easy``
    EASY backfilling on top of the FIFO: a job behind a blocked head may
    start when, under the optimistic quota-seconds runtime estimate, it
    cannot delay the head's capacity reservation.
``wfq``
    Weighted fair queueing over priority classes (self-clocked fair
    queueing): each class keeps a FIFO of its jobs; a job arriving in
    class ``c`` is stamped with a virtual finish tag
    ``max(V, F_c) + quota / class_weight(c)`` and the discipline always
    offers the pending job with the smallest ``(finish_tag, class)``.
    Like FCFS the selected head blocks: nothing later starts until it
    fits.
``drr``
    Deficit round-robin across *tenant* queues (one FIFO per
    ``user_id``).  A persistent cursor visits tenants in first-seen
    order; each visit grants one quantum (the maximum quota in the
    trace, so every head is eligible on its first visit) and starts
    jobs while the tenant's deficit covers their quota and the machine
    can place them.  A tenant that cannot start its head forfeits the
    visit; the pass ends after a full silent lap.

Every discipline is a plain-Python policy object shared verbatim by the
vector and loop engines, which is what keeps the two engines
bit-identical: the decision sequence is computed by the *same* object at
the *same* call sites.  The engines drive them through one contract,
``start_jobs(try_start, reservation)``:

``try_start(job) -> bool``
    Place and start ``job`` now, or return False without side effects.
``reservation() -> (now, free, completions)``
    Refresh rates, then report the clock, the free-processor count and
    the running jobs' predicted ``(completion time, held processors)``
    pairs in ascending order.  Only ``easy`` asks for it.

Priority policies (:func:`apply_priority`) assign ``priority_class`` to
jobs at spec-build time:

``"user:<k>"``
    Class ``user_id % k`` (tenants with unknown user stay class 0).
``"rr:<k>"``
    Class ``job_id % k`` -- a tenant-free way to exercise classes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import replace

from repro.sched.job import Job

__all__ = [
    "SCHEDULERS",
    "DEFAULT_SCHEDULER",
    "scheduler_names",
    "validate_scheduler",
    "make_discipline",
    "class_weight",
    "validate_priority",
    "apply_priority",
    "FCFSQueue",
    "EASYQueue",
    "WFQQueue",
    "DRRQueue",
]


#: Slack on EASY's shadow-time comparison (absorbs float noise).
_EPS = 1e-9


class FCFSQueue:
    """Strict first-come-first-serve: the head blocks all later jobs.

    There is no backfilling, matching the paper's setup.  (Because all of
    the paper's allocators are noncontiguous, the head fits exactly when
    enough processors are free; page sizes > 0 can additionally block on
    page fragmentation.)
    """

    name = "fcfs"

    def __init__(self, jobs: Sequence[Job] = ()) -> None:
        self._queue: deque[Job] = deque()

    def submit(self, job: Job) -> None:
        """Append an arriving job."""
        self._queue.append(job)

    def head(self) -> Job | None:
        """The blocking job at the front (None when empty)."""
        return self._queue[0] if self._queue else None

    def start_jobs(self, try_start, reservation=None) -> bool:
        """Start jobs from the front until the head fails to place."""
        queue = self._queue
        started = False
        while queue and try_start(queue[0]):
            queue.popleft()
            started = True
        return started

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)


class EASYQueue(FCFSQueue):
    """FCFS plus EASY backfilling behind a blocked head."""

    name = "easy"

    def start_jobs(self, try_start, reservation) -> bool:
        """Start the FIFO front, then backfill jobs that cannot delay it."""
        started = super().start_jobs(try_start)
        if not self._queue:
            return started
        head = self._queue[0]
        now, shadow, spare = self._reserve(head, reservation)
        for job in list(self._queue)[1:]:
            # Optimistic estimate: quota seconds (1 msg/s issue floor).
            fits_window = now + job.quota <= shadow + _EPS
            fits_spare = job.size <= spare
            if (fits_window or fits_spare) and try_start(job):
                self._queue.remove(job)
                started = True
                now, shadow, spare = self._reserve(head, reservation)
        return started

    @staticmethod
    def _reserve(head: Job, reservation) -> tuple[float, float, int]:
        """(now, shadow time, spare processors) of the blocked head.

        Walks predicted completions until enough held processors have
        been released for the head; capacity-based reservation is exact
        for the paper's noncontiguous allocators, which start whenever
        enough processors are free.  The engine refreshes rates before
        predicting: jobs started earlier in the same event would
        otherwise still carry rate 0.0 and push the shadow time to
        infinity -- disabling the window guard exactly when the head
        needs it.
        """
        now, free, completions = reservation()
        for t, released in completions:
            free += released
            if free >= head.size:
                return now, t, free - head.size
        return now, float("inf"), 0


def class_weight(priority_class: int) -> float:
    """Service weight of a priority class (class 0 -> 1.0, linear).

    Higher classes finish their virtual service faster, so under ``wfq``
    a class-1 job of quota ``q`` is tagged as if it were a class-0 job
    of quota ``q / 2``.
    """
    return 1.0 + priority_class


class WFQQueue:
    """Self-clocked weighted fair queueing over priority classes."""

    name = "wfq"

    def __init__(self, jobs: Sequence[Job] = ()) -> None:
        self._queues: dict[int, deque[tuple[float, Job]]] = {}
        self._last_finish: dict[int, float] = {}
        self._virtual = 0.0
        self._n = 0

    def submit(self, job: Job) -> None:
        """Stamp an arriving job with its virtual finish tag."""
        cls = job.priority_class
        queue = self._queues.get(cls)
        if queue is None:
            queue = self._queues[cls] = deque()
        start = max(self._virtual, self._last_finish.get(cls, 0.0))
        finish = start + job.quota / class_weight(cls)
        self._last_finish[cls] = finish
        queue.append((finish, job))
        self._n += 1

    def _select(self) -> tuple[int, deque[tuple[float, Job]]] | None:
        best_key = None
        best_queue = None
        for cls, queue in self._queues.items():
            if not queue:
                continue
            key = (queue[0][0], cls)
            if best_key is None or key < best_key:
                best_key, best_queue = key, queue
        return None if best_queue is None else (best_key[1], best_queue)

    def head(self) -> Job | None:
        """The pending job with the smallest (finish tag, class)."""
        selected = self._select()
        return None if selected is None else selected[1][0][1]

    def start_jobs(self, try_start, reservation=None) -> bool:
        """Start minimum-tag heads until one fails to place (strict)."""
        started = False
        while self._n:
            _, queue = self._select()
            finish, job = queue[0]
            if not try_start(job):
                break
            queue.popleft()
            self._n -= 1
            self._virtual = finish
            started = True
        return started

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0


class DRRQueue:
    """Deficit round-robin across per-tenant FIFO queues."""

    name = "drr"

    def __init__(self, jobs: Sequence[Job] = ()) -> None:
        # The quantum must cover the largest quota or that job's tenant
        # would need several silent visits to accumulate eligibility (the
        # classical DRR livelock guard).
        self._quantum = max((job.quota for job in jobs), default=1)
        self._queues: dict[int, deque[Job]] = {}
        self._deficit: dict[int, int] = {}
        self._ring: list[int] = []
        self._cursor = 0
        self._n = 0

    def submit(self, job: Job) -> None:
        """Append an arriving job to its tenant's queue."""
        tenant = job.user_id
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._deficit[tenant] = 0
            self._ring.append(tenant)
        queue.append(job)
        self._n += 1

    def head(self) -> Job | None:
        """The next job the cursor would offer (None when empty)."""
        for i in range(len(self._ring)):
            queue = self._queues[self._ring[(self._cursor + i) % len(self._ring)]]
            if queue:
                return queue[0]
        return None

    def start_jobs(self, try_start, reservation=None) -> bool:
        """One DRR pass: visit tenants until a full lap starts nothing."""
        started = False
        idle_visits = 0
        while self._n and idle_visits < len(self._ring):
            tenant = self._ring[self._cursor]
            self._cursor = (self._cursor + 1) % len(self._ring)
            queue = self._queues[tenant]
            if not queue:
                idle_visits += 1
                continue
            self._deficit[tenant] += self._quantum
            progressed = False
            while queue and self._deficit[tenant] >= queue[0].quota:
                if not try_start(queue[0]):
                    break
                job = queue.popleft()
                self._n -= 1
                self._deficit[tenant] -= job.quota
                progressed = started = True
            if not queue:
                # An idle tenant must not bank credit (standard DRR).
                self._deficit[tenant] = 0
            idle_visits = 0 if progressed else idle_visits + 1
        return started

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0


#: name -> discipline class, in registration order.
SCHEDULERS: dict[str, type] = {
    "fcfs": FCFSQueue,
    "easy": EASYQueue,
    "wfq": WFQQueue,
    "drr": DRRQueue,
}


#: The paper's discipline, used when a run names none.
DEFAULT_SCHEDULER = "fcfs"


def scheduler_names() -> tuple[str, ...]:
    """Registered discipline names, in registration order."""
    return tuple(SCHEDULERS)


def validate_scheduler(scheduler: str) -> str:
    """Return ``scheduler`` or raise ValueError naming every known one."""
    if scheduler not in SCHEDULERS:
        known = ", ".join(repr(name) for name in SCHEDULERS)
        raise ValueError(f"scheduler must be one of {known}, got {scheduler!r}")
    return scheduler


def make_discipline(scheduler: str, jobs: Sequence[Job]):
    """A fresh policy object for ``scheduler``.

    ``jobs`` is the full sorted trace -- disciplines may precompute
    trace-wide constants from it (DRR sizes its quantum to the largest
    quota) but must not assume arrival order beyond what ``submit``
    delivers.
    """
    return SCHEDULERS[validate_scheduler(scheduler)](jobs)


def _parse_priority(policy: str) -> tuple[str, int]:
    kind, sep, arg = policy.partition(":")
    if kind not in ("user", "rr") or not sep:
        raise ValueError(
            f"priority policy must be 'user:<k>' or 'rr:<k>', got {policy!r}"
        )
    try:
        k = int(arg)
    except ValueError:
        raise ValueError(f"priority policy {policy!r}: class count {arg!r} is not an integer") from None
    if k < 1:
        raise ValueError(f"priority policy {policy!r}: class count must be >= 1")
    return kind, k


def validate_priority(policy: str | None) -> str | None:
    """Return ``policy`` or raise ValueError describing the grammar."""
    if policy is not None:
        _parse_priority(policy)
    return policy


def apply_priority(jobs: Iterable[Job], policy: str | None) -> list[Job]:
    """Jobs with ``priority_class`` assigned by ``policy``.

    ``None`` leaves the trace's own classes untouched.  ``"user:<k>"``
    maps known tenants onto ``user_id % k`` (unknown tenants stay class
    0); ``"rr:<k>"`` round-robins classes by job id regardless of
    tenancy.
    """
    jobs = list(jobs)
    if policy is None:
        return jobs
    kind, k = _parse_priority(policy)
    out = []
    for job in jobs:
        if kind == "user":
            cls = job.user_id % k if job.user_id >= 0 else 0
        else:
            cls = job.job_id % k
        out.append(job if cls == job.priority_class else replace(job, priority_class=cls))
    return out
