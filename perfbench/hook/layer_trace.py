"""Layer spans for the benchmark's traced runs, recorded from outside ``src/``.

:func:`install` replaces the module and class attributes the program
looks up at call time -- ``repro.sched.simulator.pattern_flow_profile``,
``FluidNetwork.rates_vector``, ``ResultCache.get`` and so on -- with
wrappers that record one span per call: its name, start, end, parent
span and up to two integer attributes (bytes written, jobs simulated,
whether ``allocate`` returned ``None`` ...).  Allocators are timed
through a proxy returned by the wrapped ``make_allocator``; the drain
loop's poll sleeps through a proxy for the ``time`` module it imported.

Spans stay in memory (compact ``array`` columns) and are written to
``<trace dir>/spans-<pid>.npz`` when the process exits, one file per
process, so a multi-runner drain yields one file per runner.
:func:`span_totals` merges those files and :func:`layer_metrics` turns
the totals into the per-layer metrics.
Only the main thread records; helper threads (lease heartbeats) call
through untimed.
"""

from __future__ import annotations

import atexit
import functools
import os
import sys
import threading
import time
from array import array
from pathlib import Path

#: Span names, one per layer boundary; a span file stores indices into it.
SPAN_NAMES = (
    "core.allocate",
    "network.traffic.flow_profile",
    "network.fluid.rates",
    "network.fluid.waterfill",
    "network.fluid.flows",
    "mesh.machine",
    "core.metrics",
    "sched.simulator",
    "runner.engine.run_cell",
    "trace.build_jobs",
    "runner.cache.get",
    "runner.cache.put",
    "campaign.manifest.flush",
    "campaign.lease.claim",
    "campaign.lease.wait",
    "campaign.expand",
    "campaign.report",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


class _Recorder:
    """Span columns of one process plus the open-span stack."""

    def __init__(self, out_dir: str):
        self.out_dir = Path(out_dir)
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.a = array("q")
        self.b = array("q")
        self.stack: list[int] = []
        self.main = threading.main_thread().ident

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a ``name`` span per main-thread call.

        ``attrs(result, args)`` returns the span's two integer attributes.
        """
        nid = _ID[name]
        now = time.perf_counter_ns
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != self.main:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.a.append(0)
            self.b.append(0)
            self.start.append(0)
            self.end.append(0)
            self.stack.append(idx)
            t0 = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = now()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if attrs is not None:
                self.a[idx], self.b[idx] = attrs(out, args)
            return out

        return traced

    def dump(self) -> None:
        import numpy as np

        self.out_dir.mkdir(parents=True, exist_ok=True)
        np.savez(
            self.out_dir / f"spans-{os.getpid()}.npz",
            name=np.frombuffer(self.name, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            a=np.frombuffer(self.a, dtype=np.int64),
            b=np.frombuffer(self.b, dtype=np.int64),
            names=np.array(SPAN_NAMES),
        )


class _TimedAllocator:
    """An allocator whose ``allocate`` records ``core.allocate`` spans."""

    def __init__(self, inner, rec: _Recorder):
        self._inner = inner
        self.allocate = rec.wrap(
            "core.allocate", inner.allocate, lambda out, args: (out is None, 0)
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _TimedSleep:
    """The ``time`` module as the drain loop sees it, ``sleep`` traced."""

    def __init__(self, rec: _Recorder):
        self.sleep = rec.wrap("campaign.lease.wait", time.sleep)

    def __getattr__(self, name):
        return getattr(time, name)


def _patch(owner, attr: str, wrapped) -> None:
    if not hasattr(owner, attr):
        raise AttributeError(f"{owner!r} has no attribute {attr!r} to trace")
    setattr(owner, attr, wrapped)


def install(out_dir: str) -> None:
    """Wrap every traced layer boundary in this process; dump at exit."""
    import repro.campaign.runner as campaign_runner
    import repro.mesh.machine as machine
    import repro.network.fluid as fluid
    import repro.runner.engine as engine
    import repro.sched.simulator as simulator
    from repro.campaign.lease import LeaseDir
    from repro.campaign.manifest import CampaignManifest
    from repro.runner.cache import ResultCache
    from repro.runner.spec import ExperimentSpec

    # ``repro.campaign`` re-exports the function ``expand`` under the
    # submodule's name, so reach the submodules through sys.modules.
    expand_mod = sys.modules["repro.campaign.expand"]
    report_mod = sys.modules["repro.campaign.report"]

    rec = _Recorder(out_dir)
    w = rec.wrap

    make_allocator = engine.make_allocator
    _patch(engine, "make_allocator", lambda *a, **k: _TimedAllocator(make_allocator(*a, **k), rec))
    _patch(engine, "run_cell", w("runner.engine.run_cell", engine.run_cell))

    sim = simulator.Simulation
    _patch(sim, "run", w("sched.simulator", sim.run, lambda out, args: (len(args[0].jobs), 0)))
    _patch(simulator, "pattern_flow_profile",
           w("network.traffic.flow_profile", simulator.pattern_flow_profile))
    for name in ("average_pairwise_hops", "n_components"):
        _patch(simulator, name, w("core.metrics", getattr(simulator, name)))

    net = fluid.FluidNetwork
    _patch(net, "rates_vector", w("network.fluid.rates", net.rates_vector))
    _patch(fluid, "max_min_rates", w("network.fluid.waterfill", fluid.max_min_rates))
    for name in ("add_flow", "remove_flow"):
        _patch(net, name, w("network.fluid.flows", getattr(net, name)))
    for name in ("allocate", "release"):
        _patch(machine.Machine, name, w("mesh.machine", getattr(machine.Machine, name)))

    _patch(ExperimentSpec, "build_jobs", w("trace.build_jobs", ExperimentSpec.build_jobs))
    _patch(ResultCache, "get", w("runner.cache.get", ResultCache.get,
                                 lambda out, args: (out is not None, 0)))
    _patch(ResultCache, "put", w("runner.cache.put", ResultCache.put,
                                 lambda out, args: (os.path.getsize(out), 0)))

    def flushed_bytes(out, args):
        path = args[0].path
        return (path.stat().st_size if path is not None else 0), 0

    _patch(CampaignManifest, "flush",
           w("campaign.manifest.flush", CampaignManifest.flush, flushed_bytes))
    _patch(LeaseDir, "claim_batch", w(
        "campaign.lease.claim", LeaseDir.claim_batch,
        lambda out, args: (len(out[0]) + len(out[1]), len(out[1])),
    ))
    _patch(campaign_runner, "time", _TimedSleep(rec))

    # The CLI module runs as __main__ and imports these names only after
    # this hook, so patching their home modules reaches it; the runner
    # module bound ``expand`` at import time and is patched directly.
    traced_expand = w("campaign.expand", expand_mod.expand)
    _patch(expand_mod, "expand", traced_expand)
    _patch(campaign_runner, "expand", traced_expand)
    _patch(report_mod, "format_campaign_report",
           w("campaign.report", report_mod.format_campaign_report))

    atexit.register(rec.dump)


# ----------------------------------------------------------------------
# Reading spans back (benchmark side)
# ----------------------------------------------------------------------

def load_spans(dirs) -> list[dict]:
    """Every span file under ``dirs``, one dict of columns per process."""
    import numpy as np

    out = []
    for d in dirs:
        for path in sorted(Path(d).glob("spans-*.npz")):
            with np.load(path) as data:
                if tuple(data["names"].tolist()) != SPAN_NAMES:
                    raise ValueError(f"{path}: span names differ from this tracer's")
                out.append({k: data[k] for k in data.files})
    return out


def span_totals(dirs) -> dict:
    """Per-span-name totals over every process's spans in ``dirs``.

    Arrays indexed like :data:`SPAN_NAMES`: ``calls``, ``dur_ns``,
    ``self_ns``, the attribute sums ``a``/``b`` and ``a_zero`` (calls
    whose first attribute is 0).  A span's self time is its duration
    minus the durations of the spans directly nested in it (their own
    children are already inside them).
    """
    import numpy as np

    k = len(SPAN_NAMES)
    tot = {key: np.zeros(k) for key in ("calls", "dur_ns", "self_ns", "a", "b", "a_zero")}
    for cols in load_spans(dirs):
        name = cols["name"].astype(np.int64)
        dur = (cols["end"] - cols["start"]).astype(np.float64)
        parent = cols["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        tot["calls"] += np.bincount(name, minlength=k)
        tot["dur_ns"] += np.bincount(name, weights=dur, minlength=k)
        tot["self_ns"] += np.bincount(name, weights=dur - child, minlength=k)
        tot["a"] += np.bincount(name, weights=cols["a"].astype(np.float64), minlength=k)
        tot["b"] += np.bincount(name, weights=cols["b"].astype(np.float64), minlength=k)
        tot["a_zero"] += np.bincount(name[cols["a"] == 0], minlength=k)
    return tot


def layer_metrics(tot: dict) -> dict[str, tuple[float, str]]:
    """``{metric: (value, unit)}`` from :func:`span_totals`."""

    def get(key, span):
        return float(tot[key][_ID[span]])

    def n(span):
        return int(get("calls", span))

    def s(span):
        return get("self_ns", span) / 1e9

    def frac(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["core.allocate.calls"] = (n("core.allocate"), "count")
    m["core.allocate.self_s"] = (s("core.allocate"), "s")
    m["core.allocate.null_frac"] = (frac(get("a", "core.allocate"), n("core.allocate")), "ratio")
    for span in ("network.traffic.flow_profile", "network.fluid.rates", "network.fluid.waterfill"):
        m[f"{span}.calls"] = (n(span), "count")
        m[f"{span}.self_s"] = (s(span), "s")
    m["network.fluid.gate_skip_frac"] = (
        1.0 - frac(n("network.fluid.waterfill"), n("network.fluid.rates")), "ratio"
    )
    for span in ("network.fluid.flows", "mesh.machine", "core.metrics"):
        m[f"{span}.self_s"] = (s(span), "s")
    m["sched.simulator.jobs"] = (int(get("a", "sched.simulator")), "count")
    m["sched.simulator.self_s"] = (s("sched.simulator"), "s")
    m["runner.engine.run_cell.self_s"] = (s("runner.engine.run_cell"), "s")
    m["trace.build_jobs.calls"] = (n("trace.build_jobs"), "count")
    m["trace.build_jobs.self_s"] = (s("trace.build_jobs"), "s")
    m["runner.cache.get.calls"] = (n("runner.cache.get"), "count")
    m["runner.cache.get.self_s"] = (s("runner.cache.get"), "s")
    m["runner.cache.hit_frac"] = (frac(get("a", "runner.cache.get"), n("runner.cache.get")), "ratio")
    for span in ("runner.cache.put", "campaign.manifest.flush"):
        m[f"{span}.calls"] = (n(span), "count")
        m[f"{span}.self_s"] = (s(span), "s")
        m[f"{span}.bytes"] = (int(get("a", span)), "bytes")
    m["campaign.lease.claim.calls"] = (n("campaign.lease.claim"), "count")
    m["campaign.lease.claim.self_s"] = (s("campaign.lease.claim"), "s")
    m["campaign.lease.empty_claim_frac"] = (
        frac(get("a_zero", "campaign.lease.claim"), n("campaign.lease.claim")), "ratio"
    )
    m["campaign.lease.wait_s"] = (get("dur_ns", "campaign.lease.wait") / 1e9, "s")
    m["campaign.lease.stolen"] = (int(get("b", "campaign.lease.claim")), "count")
    m["campaign.expand.self_s"] = (s("campaign.expand"), "s")
    m["campaign.report.self_s"] = (s("campaign.report"), "s")
    return m


def self_shares(tot: dict) -> list[tuple[str, float, float]]:
    """``(span, self seconds, share of all traced self time)``, largest first."""
    self_ns = tot["self_ns"]
    total = float(self_ns.sum()) or 1.0
    rows = [(name, float(self_ns[j]) / 1e9, float(self_ns[j]) / total)
            for j, name in enumerate(SPAN_NAMES)]
    return sorted(rows, key=lambda r: -r[1])
