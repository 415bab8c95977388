"""Reduced-size self-test of the benchmark.

::

    python3 perfbench/selftest.py

Run from the repository root; about a minute.  It is not named
``test_*.py``, so the tier-1 ``pytest`` collection never picks it up.
It checks that

1. every workload, shrunk to a few cells (``--small``), prints each
   end-to-end metric of ``BENCHMARK.json`` plus ``failed_frac`` by name
   with its unit, untraced, and each per-layer metric in the traced run,
   with ``correct`` true and nothing failed;
2. the digest check fires: altering one job of one cached cell changes
   the results digest, and the repetition carrying it fails every cell;
3. the duplicate-compute check fires: a cell dropped from the manifest
   after a 2-runner drain and computed again by a further runner gives
   ``dup_cells == 1``, which fails the repetition;
4. the report check fires: ``campaign report`` output with one table
   entry altered, or one row dropped, disagrees with the decoded cells.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    """Stdout lines and final JSON record of one ``--small`` run."""
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_prints(lines: list[str], record: dict, declared: list[dict]) -> list[str]:
    errors = []
    if not record["correct"] or record["failed"] != 0 or record["attempted"] < 1:
        errors.append(f"run not clean: {json.dumps(record)[:200]}")
    names = [m["name"] for m in declared]
    if sorted(record["metrics"]) != sorted(names):
        errors.append(f"metric names {sorted(record['metrics'])} != declared {sorted(names)}")
    for m in declared:
        got = record["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r} != {m['unit']!r}")
        pattern = rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}$"
        if not any(re.match(pattern, line) for line in lines):
            errors.append(f"{m['name']} not printed with unit {m['unit']}")
    return errors


def alter_one_job(cache_root: Path, campaign: Path) -> None:
    """Rewrite one cell's artifact with one job finishing a second later."""
    cells, cache = run.expand_cells(campaign, cache_root)
    res = cache.get(cells[0].spec)
    job = res.jobs[0]
    res.jobs[0] = dataclasses.replace(job, completion=job.completion + 1.0)
    cache.put(res)


def digest_check_fires(work: Path) -> list[str]:
    doc = WORKLOADS["mesh-sweep"].campaign(1, True)
    campaign = work / "mesh.json"
    campaign.write_text(json.dumps(doc))
    env = run.Bench.child_env(work)
    root = work / "digest-cache"
    cli = run.run_cli(["run", str(campaign), "--jobs", "1", "--quiet", "--cache-dir", str(root)],
                      env, work / "cli.log", timeout=120)
    good, _ = run.inspect_rep([cli], campaign, root, 0, cold=True)
    alter_one_job(root, campaign)
    bad, _ = run.inspect_rep([cli], campaign, root, 0, cold=True)
    errors = []
    if good.failed or good.digest is None:
        errors.append(f"unaltered repetition failed: {good.problems}")
    if bad.digest == good.digest:
        errors.append("altering a job left the results digest unchanged")
    run.check_digests([good, bad], expected=None)
    if bad.failed != bad.cells or good.failed:
        errors.append("a repetition with a different digest did not fail all its cells")
    lone = dataclasses.replace(bad, failed=0, problems=[])
    run.check_digests([lone], expected=good.digest)
    if lone.failed != lone.cells:
        errors.append("a digest differing from the committed one did not fail the run")
    return errors


def dup_check_fires(work: Path) -> list[str]:
    doc = WORKLOADS["fabric-drain"].campaign(1, True)
    campaign = work / "fabric.json"
    campaign.write_text(json.dumps(doc))
    env = run.Bench.child_env(work)
    root = work / "dup-cache"
    drain = ["drain", str(campaign), "--quiet", "--cache-dir", str(root)]
    first = run.run_cli([*drain, "--runners", "2"], env, work / "cli.log", timeout=120)
    clean, _ = run.inspect_rep([first], campaign, root, 0, cold=True)
    # Forget one finished cell: a further runner computes it a second time.
    cells, cache = run.expand_cells(campaign, root)
    manifest = next((root / "campaigns").glob("*.json"))
    data = json.loads(manifest.read_text())
    del data["cells"][cells[0].digest]
    manifest.write_text(json.dumps(data))
    cache.path_for(cells[0].spec).unlink()
    again = run.run_cli([*drain, "--runner-id", "late"], env, work / "cli.log", timeout=120)
    dup, _ = run.inspect_rep([first, again], campaign, root, 0, cold=True)
    errors = []
    if clean.failed or clean.dup != 0:
        errors.append(f"clean drain failed: {clean.problems}")
    if dup.dup != 1 or dup.failed != dup.cells:
        errors.append(f"recomputed cell not caught: dup_cells={dup.dup}, failed={dup.failed}")
    return errors


def report_check_fires(work: Path) -> list[str]:
    doc = WORKLOADS["mesh-sweep"].campaign(1, True)
    campaign = work / "report.json"
    campaign.write_text(json.dumps(doc))
    env = run.Bench.child_env(work)
    root = work / "report-cache"
    log = work / "cli.log"
    common = [str(campaign), "--cache-dir", str(root)]
    run.run_cli(["run", *common, "--jobs", "1", "--quiet"], env, log, timeout=120)
    report = run.run_cli(["report", *common], env, log, timeout=120, capture=work / "report.txt")
    cells, cache = run.expand_cells(campaign, root)
    results = [cache.get(c.spec) for c in cells]
    text = report.stdout
    # The last table row: an allocator name, then one value per load.
    row = [line for line in text.splitlines() if re.match(r"^\S+(\s+\d+\.\d\d)+$", line)][-1]
    value = row.split()[-1]
    altered = text.replace(row, row[: -len(value)] + f"{float(value) + 0.02:.2f}")
    dropped = text.replace(row + "\n", "").replace("\n" + row, "")
    errors = []
    if report.code != 0 or run.report_problems(text, cells, results):
        errors.append(f"unaltered report failed: {run.report_problems(text, cells, results)}")
    if not run.report_problems(altered, cells, results):
        errors.append("an altered report entry went unnoticed")
    if not run.report_problems(dropped, cells, results):
        errors.append("a dropped report row went unnoticed")
    return errors


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failures = 0

    def report(name: str, errors: list[str]) -> None:
        nonlocal failures
        failures += bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {name}")
        for e in errors:
            print(f"     {e}")

    e2e = BENCHMARK["end_to_end"] + [{"name": "failed_frac", "unit": "ratio"}]
    for workload in WORKLOADS:
        lines, record = bench(workload, 0)
        # failed_frac is printed, and carried by failed/attempted in the record.
        record["metrics"]["failed_frac"] = {"unit": "ratio"}
        report(f"{workload}: end-to-end metrics", check_prints(lines, record, e2e))
        lines, record = bench(workload, 1)
        errors = check_prints(lines, record, BENCHMARK["per_layer"])
        if not any("tracing overhead" in line for line in lines):
            errors.append("tracing overhead not printed")
        report(f"{workload}: per-layer metrics", errors)

    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".perfbench"))
    try:
        report("digest check fires on an altered result", digest_check_fires(work))
        report("duplicate-compute check fires", dup_check_fires(work))
        report("report check fires on an altered report", report_check_fires(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
