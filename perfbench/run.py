"""Benchmark: the campaign CLI end to end on fixed, seed-generated workloads.

::

    python3 perfbench/run.py --workload mesh-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload fabric-drain --trace 1   # per-layer run

Run from the repository root.  Each workload (``perfbench/workloads.py``)
writes its own campaign file from ``--seed`` and drives the real
``python -m repro.campaign`` CLI in fresh processes, closed loop: the
next repetition starts when the previous one ends, for ``--seconds``.
One benchmark process drives it; it never runs more than two worker
processes at a time.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of one extra traced repetition (wrappers installed
from ``perfbench/hook/`` into every CLI process, nothing under ``src/``
changes) plus the tracing overhead.  Every repetition's results are
checked: every cell done, a digest over the decoded per-cell summaries
and per-job results equal across repetitions (and to the committed
digest for the default seed), no cell computed twice, a sample of cells
re-simulated by the frozen loop engine, for ``fabric-drain`` the same
digest as one runner computing the grid, and for the traced
``mesh-sweep`` run a report that agrees with the decoded cells.  A
failed check fails every cell of its repetition.  The last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOOK = HERE / "hook"
DIGESTS = HERE / "digests.json"

#: Set-ups timed per run; setup_s is their median.
SETUPS = 5
#: Measured repetitions per run at the least, however long they take.
MIN_REPS = 2
#: Cells re-simulated by the loop engine per run.
ORACLE_CELLS = 2
#: Every run must end well inside the 180 s a run may take.
RUN_BUDGET_S = 165.0


# ----------------------------------------------------------------------
# Host facts
# ----------------------------------------------------------------------

_SPIN = (
    "import time\n"
    "t = time.perf_counter()\n"
    "x = 0\n"
    "for i in range(3_000_000):\n"
    "    x += i * i\n"
    "print(time.perf_counter() - t)\n"
)


def _spin(n_procs: int) -> float:
    """Slowest loop time of ``n_procs`` concurrent copies of a fixed loop."""
    procs = [
        subprocess.Popen([sys.executable, "-c", _SPIN], stdout=subprocess.PIPE, text=True)
        for _ in range(n_procs)
    ]
    return max(float(p.communicate()[0]) for p in procs)


def host_facts() -> dict:
    """nproc, CPU model, versions and measured 2-process parallel efficiency.

    Efficiency is the one-process loop time over the slower of two
    concurrent copies: 1.0 means two processes run as fast as one.
    """
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    one = _spin(1)
    two = _spin(2)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "parallel_efficiency_2p": round(one / two, 4),
    }


# ----------------------------------------------------------------------
# Running the CLI
# ----------------------------------------------------------------------

class TreeRss:
    """Samples the peak resident set of a process tree every 100 ms.

    Each process's ``VmHWM`` (its own peak) is kept; the tree's figure is
    their sum, so two runners count twice.  The root's exact peak from
    ``wait4`` is the floor.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.peak_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _tree(self) -> list[int]:
        pids, todo = [], [self.pid]
        while todo:
            pid = todo.pop()
            pids.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as fh:
                        todo.extend(int(c) for c in fh.read().split())
            except OSError:
                continue
        return pids

    def _loop(self) -> None:
        while not self._stop.wait(0.1):
            for pid in self._tree():
                try:
                    with open(f"/proc/{pid}/status") as fh:
                        for line in fh:
                            if line.startswith("VmHWM:"):
                                kb = int(line.split()[1])
                                self.peak_kb[pid] = max(self.peak_kb.get(pid, 0), kb)
                                break
                except (OSError, ValueError):
                    continue

    def stop(self, root_maxrss_kb: int) -> float:
        self._stop.set()
        self._thread.join()
        self.peak_kb[self.pid] = max(self.peak_kb.get(self.pid, 0), root_maxrss_kb)
        return sum(self.peak_kb.values()) / 1024.0


@dataclass
class CliRun:
    wall: float
    code: int
    rss_mb: float
    stdout: str = ""  # only when captured


def _kill_tree(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(
    argv: list[str], env: dict, log: Path, timeout: float, capture: Path | None = None
) -> CliRun:
    """Run ``python -m repro.campaign ARGV`` to completion, timed.

    The wall clock spans process start to reap.  The process gets its
    own session so a timeout can kill the whole tree.  Its output goes to
    ``log``; with ``capture``, stdout goes to that file instead and is
    returned in the result.
    """
    cmd = [sys.executable, "-m", "repro.campaign", *argv]
    with open(log, "ab") as out, open(capture or os.devnull, "wb") as cap:
        out.write(("$ " + " ".join(cmd[1:]) + "\n").encode())
        out.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdout=cap if capture else out,
            stderr=subprocess.STDOUT if capture is None else out,
            start_new_session=True,
        )
        rss = TreeRss(proc.pid)
        killer = threading.Timer(timeout, _kill_tree, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    text = capture.read_text() if capture else ""
    return CliRun(wall, proc.returncode, rss.stop(usage.ru_maxrss), text)


# ----------------------------------------------------------------------
# Reading and checking results
# ----------------------------------------------------------------------

def expand_cells(campaign_path: Path, cache_root: Path):
    """The campaign's cells, expanded against the cache's workload store."""
    from repro.campaign.expand import expand
    from repro.campaign.model import load_campaign
    from repro.runner import ResultCache

    cache = ResultCache(cache_root)
    return list(expand(load_campaign(campaign_path), store=cache.traces).cells), cache


def results_digest(cells, results) -> str:
    """SHA-256 over each cell's decoded summary and per-job results.

    Decoded values, not artifact bytes: gzip output depends on the zlib
    build, the simulated numbers do not.
    """
    h = hashlib.sha256()
    for cell, res in zip(cells, results):
        row = [
            cell.digest,
            dataclasses.asdict(res.summary),
            [dataclasses.astuple(job) for job in res.jobs],
        ]
        h.update(json.dumps(row, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def jobs_consistent(res) -> bool:
    """Causality of every job and a job count matching the summary."""
    tol = 1e-9
    return len(res.jobs) == res.summary.n_jobs and all(
        j.start >= j.arrival - tol * max(1.0, abs(j.arrival))
        and j.completion >= j.start
        for j in res.jobs
    )


def report_problems(text: str, cells, results) -> list[str]:
    """Where ``campaign report``'s tables disagree with the decoded cells.

    The default report groups by mesh and pivots allocator x load over
    the mean ``mean_response`` of the cells in each entry.  Every entry
    is recomputed here from ``results`` and must match to the two
    decimals printed, and the report must cover every cell.
    """
    want: dict[tuple, list[float]] = {}
    for cell, res in zip(cells, results):
        c = cell.coords
        key = (c["mesh"], c["allocator"], f"load {c['load']:g}")
        want.setdefault(key, []).append(res.summary.mean_response)
    got: dict[tuple, float] = {}
    lines = text.splitlines()
    problems = []
    if f"report over {len(cells)} completed cells" not in lines:
        problems.append(f"report does not cover all {len(cells)} cells")
    for i, line in enumerate(lines):
        if not line.startswith("mean_response -- mesh = ") or i + 1 >= len(lines):
            continue
        mesh = line.split(" = ", 1)[1]
        columns = re.split(r"\s{2,}", lines[i + 1].strip())[1:]
        for row in lines[i + 3:]:
            if not row.strip():
                break
            name, *values = row.split()
            for col, value in zip(columns, values):
                try:
                    got[(mesh, name, col)] = float(value)
                except ValueError:
                    problems.append(f"report entry {mesh}/{name}/{col} reads {value!r}")
    if set(got) != set(want):
        problems.append(f"report has {len(got)} table entries, expected {len(want)}")
    bad = [
        k for k in want.keys() & got.keys()
        if abs(got[k] - sum(want[k]) / len(want[k])) > 0.0051
    ]
    if bad:
        problems.append(f"{len(bad)} report entries disagree with the cells, e.g. {bad[0]}")
    return problems


def read_manifest(cache_root: Path) -> dict:
    paths = sorted((cache_root / "campaigns").glob("*.json"))
    if len(paths) != 1:
        raise FileNotFoundError(f"expected one manifest under {cache_root}, found {len(paths)}")
    return json.loads(paths[0].read_text())


@dataclass
class Rep:
    """One checked invocation of the measured CLI command(s)."""

    wall: float
    rss_mb: float
    cells: int
    failed: int = 0
    digest: str | None = None
    elapsed: list = field(default_factory=list)  # computed cells' seconds
    jobs: int = 0  # jobs simulated by the computed cells
    dup: int = 0
    problems: list = field(default_factory=list)


def fail(rep: Rep, why: str) -> None:
    rep.problems.append(why)
    rep.failed = rep.cells


def inspect_rep(
    runs: list[CliRun], campaign_path: Path, cache_root: Path, runs_before: int, cold: bool
) -> tuple[Rep, list]:
    """Check one repetition's outputs; returns it and the decoded results.

    ``runs_before`` is the number of run records the manifest held before
    the repetition.  A ``cold`` repetition computed every cell into a
    fresh cache: its artifacts are decoded, checked and digested.  A warm
    one must have computed nothing; it rewrites no artifact, so only the
    manifest is checked.
    """
    cells, cache = expand_cells(campaign_path, cache_root)
    rep = Rep(
        wall=sum(r.wall for r in runs),
        rss_mb=max(r.rss_mb for r in runs),
        cells=len(cells),
    )
    results: list = []
    if any(r.code != 0 for r in runs):
        fail(rep, f"CLI exit codes {[r.code for r in runs]}")
        return rep, results
    manifest = read_manifest(cache_root)
    records = manifest.get("cells", {})
    missing = sum(records.get(c.digest, {}).get("status") != "done" for c in cells)
    if missing:
        fail(rep, f"{missing} cells missing from the manifest")
    # Cells computed more than once: the repetition's cache misses minus
    # the cells that had to compute (every cell when cold, none when warm).
    misses = sum(int(r.get("misses", 0)) for r in manifest.get("runs", [])[runs_before:])
    rep.dup = misses - (len(cells) if cold else 0)
    if rep.dup != 0:
        fail(rep, f"duplicate compute: dup_cells = {rep.dup}")
    if not cold or missing:
        return rep, results
    results = [cache.get(c.spec) for c in cells]
    if any(r is None for r in results):
        fail(rep, f"{sum(r is None for r in results)} cells undecodable")
    elif not all(jobs_consistent(r) for r in results):
        fail(rep, "a job starts before it arrives or ends before it starts")
    else:
        rep.digest = results_digest(cells, results)
        rep.elapsed = [float(records[c.digest]["elapsed"]) for c in cells]
        rep.jobs = sum(len(r.jobs) for r in results)
    return rep, results


def check_digests(reps: list[Rep], expected: str | None) -> bool:
    """Fail each repetition whose digest differs from the first one's, and
    every repetition when the first differs from ``expected`` (returns
    whether it matched).  Repetitions with no digest (failed ones) are
    skipped."""
    base = reps[0].digest
    for rep in reps[1:]:
        if rep.digest is not None and rep.digest != base:
            fail(rep, "results digest differs from the first repetition's")
    if expected is None or base == expected:
        return True
    for rep in reps:
        fail(rep, "results digest differs from the committed digest")
    return False


def loop_engine_result(spec, store):
    """Re-simulate one cell with the frozen per-event reference engine."""
    from repro.core.registry import make_allocator
    from repro.patterns.base import get_pattern
    from repro.sched.simulator import Simulation
    from repro.sched.stats import summarize

    result = Simulation(
        spec.build_machine_topology(),
        make_allocator(spec.allocator),
        get_pattern(spec.pattern),
        spec.build_jobs(store),
        params=spec.network_params(),
        seed=spec.seed,
        load_factor=spec.load,
        scheduler=spec.scheduler,
        engine="loop",
    ).run()
    return summarize(result), result.jobs


def single_runner_digest(campaign_path: Path, scratch: Path) -> str:
    """Digest of the grid computed by one in-process runner, no cache."""
    from repro.runner import run_many

    cells, cache = expand_cells(campaign_path, scratch)
    results = run_many([c.spec for c in cells], jobs=1, cache=None, store=cache.traces)
    return results_digest(cells, results)


def committed_digest(workload: str, small: bool, seed: int) -> tuple[str | None, str, bool]:
    """(digest, note, degraded) committed for this workload here.

    Digests are committed for the default seed only.  ``degraded`` is
    true when the default seed has none usable in this environment, so
    results that change the same way in every repetition go unnoticed.
    """
    import numpy

    if seed != DEFAULT_SEED:
        return None, f"none committed for seed {seed}", False
    if not DIGESTS.is_file():
        return None, f"{DIGESTS.name} missing", True
    data = json.loads(DIGESTS.read_text())
    if data["numpy"] != numpy.__version__ or data["python"] != platform.python_version():
        return None, (
            f"committed for python {data['python']} / numpy {data['numpy']}, "
            "not this environment"
        ), True
    key = workload + ("/small" if small else "")
    if key not in data["digests"]:
        return None, f"none committed for {key}", True
    return data["digests"][key], "matches the committed digest", False


# ----------------------------------------------------------------------
# One benchmark run
# ----------------------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, small: bool):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.small = small
        self.t_start = time.perf_counter()
        self.work = ROOT / ".perfbench" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.log = self.work / "cli.log"
        self.env = self.child_env(self.work)
        # The checks below run the library in this process too: keep its
        # default cache and temp files inside the work directory as well.
        for key in ("TMPDIR", "REPRO_CACHE_DIR"):
            os.environ[key] = self.env[key]
        self.doc = self.w.campaign(seed, small)
        self.n_roots = 0
        self.reps: list[Rep] = []  # measured, untraced
        self.checked: list[Rep] = []  # every checked invocation
        self.campaign_path: Path | None = None

    # -- helpers --------------------------------------------------------
    @staticmethod
    def child_env(work: Path) -> dict:
        """Environment of the CLI processes: sources from ``src/``, every
        file they write (temp files, a default cache) under ``work``."""
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            TMPDIR=str(work / "tmp"),
            REPRO_CACHE_DIR=str(work / "default-cache"),
        )
        env.pop("PERFBENCH_TRACE_DIR", None)
        return env

    def fresh_root(self) -> Path:
        self.n_roots += 1
        return self.work / f"cache{self.n_roots}"

    def write_campaign(self, k: int) -> Path:
        path = self.work / f"campaign{k}.json"
        path.write_text(json.dumps(self.doc, indent=1))
        return path

    def left(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.t_start)

    def cli(
        self, argv: list[str], root: Path, env: dict | None = None, capture: bool = False
    ) -> CliRun:
        return run_cli(
            [*argv, "--cache-dir", str(root)],
            env or self.env,
            self.log,
            timeout=max(10.0, self.left()),
            capture=self.work / "stdout.txt" if capture else None,
        )

    def traced_env(self, spans: Path) -> dict:
        env = dict(self.env)
        env["PYTHONPATH"] = f"{HOOK}{os.pathsep}{SRC}"
        env["PERFBENCH_TRACE_DIR"] = str(spans)
        return env

    # -- phases -----------------------------------------------------------
    def run_measured(self, root: Path, env: dict | None = None) -> CliRun:
        """One repetition of the measured command on a fresh cache ``root``."""
        path = str(self.campaign_path)
        if self.w.mode == "drain":
            return self.cli(["drain", path, "--runners", "2", "--quiet"], root, env)
        return self.cli(["run", path, "--jobs", "1", "--quiet"], root, env)

    def measure(self) -> dict:
        # Outputs are decoded and checked only after all timing ends.  On
        # Linux a child's ru_maxrss starts from the peak of the process
        # that spawned it, so this process stays small while it times.
        out: dict = {"setups": []}
        # A set-up is a fresh cache root, the generated campaign file and a
        # CLI ``expand`` into that root (which also warms the bytecode and
        # page caches before the first timed repetition).
        for k in range(SETUPS):
            t0 = time.perf_counter()
            root = self.fresh_root()
            path = self.write_campaign(k)
            run = self.cli(["expand", str(path)], root)
            out["setups"].append(time.perf_counter() - t0)
            if run.code != 0:
                raise RuntimeError(f"campaign expand failed (exit {run.code}); see {self.log}")
            shutil.rmtree(root, ignore_errors=True)
            self.campaign_path = self.campaign_path or path

        # Closed loop: each repetition starts when the previous one ends.
        # Another one starts while it would end less than half a repetition
        # past the deadline, so a run measures for --seconds, give or take
        # half a repetition.
        done = []
        deadline = time.perf_counter() + self.seconds
        while True:
            root = self.fresh_root()
            done.append((self.run_measured(root), root))
            est = statistics.median(d[0].wall for d in done)
            if len(done) >= MIN_REPS and (
                time.perf_counter() + est / 2 > deadline or self.left() < est + 30.0
            ):
                break
        first: list = []
        for run, root in done:
            rep, results = inspect_rep([run], self.campaign_path, root, 0, cold=True)
            first = first or results
            self.reps.append(rep)
            self.checked.append(rep)
            shutil.rmtree(root, ignore_errors=True)

        base = self.checked[0]
        expected, out["digest_note"], out["digest_degraded"] = committed_digest(
            self.w.name, self.small, self.seed
        )
        if not check_digests(self.checked, expected):
            out["digest_note"] = f"MISMATCH against committed {expected[:16]}"
        out["digest"] = base.digest

        # The frozen loop engine re-simulates a seeded sample of cells.
        if base.digest is not None:
            cells, cache = expand_cells(self.campaign_path, self.work / "oracle")
            picks = random.Random(f"oracle:{self.seed}").sample(
                range(len(cells)), min(ORACLE_CELLS, len(cells))
            )
            for i in picks:
                summary, jobs = loop_engine_result(cells[i].spec, cache.traces)
                if summary != first[i].summary or jobs != first[i].jobs:
                    for rep in self.checked:
                        fail(rep, f"loop engine disagrees on cell {cells[i].digest[:12]}")
                    break
            out["oracle_cells"] = len(picks)

        if self.w.mode == "drain" and base.digest is not None:
            ref = single_runner_digest(self.campaign_path, self.work / "single")
            out["single_runner_digest"] = ref
            if ref != base.digest:
                for rep in self.checked:
                    fail(rep, "2-runner drain digest differs from one runner's")

        if self.trace:
            out["trace"] = self.traced(base.digest)
        return out

    def traced(self, digest: str | None) -> dict:
        """One traced repetition.

        After a traced ``run`` repetition, a traced warm ``campaign run``
        and ``campaign report`` follow on the same cache root, so the
        layers only a warm re-run reaches (cache hits and their decode,
        the report) are traced too.  Their output is checked: no cell
        computes, and the report agrees with the decoded cells.
        """
        import layer_trace

        dirs = [self.work / "spans-measured", self.work / "spans-warm"]
        root = self.fresh_root()
        run = self.run_measured(root, self.traced_env(dirs[0]))
        rep, results = inspect_rep([run], self.campaign_path, root, 0, cold=True)
        traced = [rep]
        if rep.digest != digest:
            fail(rep, "traced run's results digest differs from the untraced run's")
        if self.w.mode == "run":
            path = str(self.campaign_path)
            env = self.traced_env(dirs[1])
            before = len(read_manifest(root).get("runs", []))
            warm = [
                self.cli(["run", path, "--jobs", "1", "--quiet"], root, env),
                self.cli(["report", path], root, env, capture=True),
            ]
            again, _ = inspect_rep(warm, self.campaign_path, root, before, cold=False)
            if not again.failed:
                cells, _ = expand_cells(self.campaign_path, root)
                for problem in report_problems(warm[-1].stdout, cells, results):
                    fail(again, problem)
            traced.append(again)
        shutil.rmtree(root, ignore_errors=True)
        self.checked.extend(traced)
        totals = layer_trace.span_totals(dirs)
        metrics = layer_trace.layer_metrics(totals)
        metrics["campaign.lease.dup_cells"] = (rep.dup, "count")
        untraced = statistics.median(r.wall for r in self.reps)
        metrics["trace.overhead_s"] = (rep.wall - untraced, "s")
        return {
            "metrics": metrics,
            "shares": layer_trace.self_shares(totals),
            "traced_wall_s": rep.wall,
            "untraced_median_s": untraced,
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def cell_times(reps: list[Rep]) -> list[float]:
    """Each cell's median compute time over the run's repetitions.

    Every repetition computes the same cells in expansion order, so a
    moment of host noise moves one sample of a cell, not the cell.
    """
    rows = [r.elapsed for r in reps if r.elapsed]
    return [statistics.median(col) for col in zip(*rows)]


def end_to_end(bench: Bench, out: dict) -> dict[str, tuple[float, str]]:
    reps = bench.reps
    wall = statistics.median(r.wall for r in reps)
    cells = cell_times(reps)
    samples = [s for r in reps for s in r.elapsed]
    jobs = sum(r.jobs for r in reps)
    return {
        "setup_s": (statistics.median(out["setups"]), "s"),
        "wall_s": (wall, "s"),
        "cells_per_s": (statistics.median(r.cells / r.wall for r in reps), "cells/s"),
        "cell_p50_ms": (1e3 * statistics.median(cells) if cells else 0.0, "ms"),
        "cell_p90_ms": (1e3 * p90(cells) if cells else 0.0, "ms"),
        "sim_jobs_per_s": (jobs / sum(samples) if samples else 0.0, "jobs/s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in reps), "MB"),
    }


def _fmt(value) -> str:
    return f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink the workload to a few cells (self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "campaign" / "__main__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HOOK))

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    try:
        out = bench.measure()
        host = host_facts()
    except Exception:
        print(f"perfbench: run aborted; CLI log follows ({bench.log})", file=sys.stderr)
        if bench.log.is_file():
            sys.stderr.write(bench.log.read_text()[-4000:])
        raise
    finally:
        log_tail = bench.log.read_text()[-4000:] if bench.log.is_file() else ""
        bench.cleanup()

    attempted = sum(r.cells for r in bench.checked)
    failed = sum(r.failed for r in bench.checked)
    problems = sorted({p for r in bench.checked for p in r.problems})
    e2e = end_to_end(bench, out)
    n_cells = bench.checked[0].cells

    print(f"perfbench {args.workload}{' (small)' if args.small else ''} seed={args.seed} "
          f"trace={args.trace}: {len(bench.reps)} measured repetitions x {n_cells} cells")
    print("host " + json.dumps(host, sort_keys=True))
    print(f"results digest {out['digest']} ({out['digest_note']}); "
          f"{out.get('oracle_cells', 0)} cells re-simulated by the loop engine")
    if out["digest_degraded"]:
        warning = (f"WARNING: correctness check degraded: no committed digest applies "
                   f"({out['digest_note']}); only checks within this run remain")
        print(warning)
        print(warning, file=sys.stderr)
    if "single_runner_digest" in out:
        print(f"single-runner digest {out['single_runner_digest']}")
    print(f"walls (s): {[round(r.wall, 3) for r in bench.reps]}; set-ups (s): "
          f"{[round(s, 3) for s in out['setups']]}; cell-time samples: "
          f"{sum(len(r.elapsed) for r in bench.reps)}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {_fmt(value)} {unit}")
    print(f"  {'failed_frac':<16} {_fmt(failed / attempted)} ratio")
    for p in problems:
        print(f"FAILED CHECK: {p}")
    if problems and log_tail:
        sys.stderr.write(log_tail)

    metrics = e2e
    if args.trace:
        tr = out["trace"]
        metrics = tr["metrics"]
        print(f"traced repetition {tr['traced_wall_s']:.3f} s vs untraced median "
              f"{tr['untraced_median_s']:.3f} s: tracing overhead "
              f"{tr['traced_wall_s'] - tr['untraced_median_s']:+.3f} s")
        print("per-layer self time (share of all traced self time):")
        for span, secs, share in tr["shares"]:
            print(f"  {span:<32} {secs:>10.4f} s {100 * share:6.1f}%")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<38} {_fmt(value)} {unit}")

    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}{'-small' if args.small else ''}-s{args.seed}-t{args.trace}.json"
    (records / name).write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "host": host,
        "digest": out["digest"], "digest_note": out["digest_note"],
        "digest_check_degraded": out["digest_degraded"],
        "walls_s": [r.wall for r in bench.reps], "setups_s": out["setups"],
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }, indent=1))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
