"""Tests for repro.sched.job."""

import pytest

from repro.sched.job import Job, JobResult


class TestJob:
    def test_quota_rounds_runtime(self):
        assert Job(0, 0.0, 4, 10.4).quota == 10
        assert Job(0, 0.0, 4, 10.6).quota == 11

    def test_quota_minimum_one(self):
        assert Job(0, 0.0, 4, 0.0).quota == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Job(0, 0.0, 0, 10.0)
        with pytest.raises(ValueError):
            Job(0, -1.0, 4, 10.0)
        with pytest.raises(ValueError):
            Job(0, 0.0, 4, -5.0)

    def test_frozen(self):
        job = Job(0, 0.0, 4, 10.0)
        with pytest.raises(AttributeError):
            job.size = 8


class TestJobResult:
    def test_derived_metrics(self):
        r = JobResult(
            job_id=1,
            arrival=10.0,
            start=15.0,
            completion=40.0,
            size=8,
            quota=20,
            pairwise_hops=2.0,
            message_hops=1.5,
            n_components=2,
        )
        assert r.response == 30.0
        assert r.wait == 5.0
        assert r.duration == 25.0
        assert not r.contiguous

    def test_contiguous(self):
        r = JobResult(1, 0, 0, 1, 1, 1, 0.0, 0.0, n_components=1)
        assert r.contiguous

