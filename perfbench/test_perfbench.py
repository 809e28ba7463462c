"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import jobs
from jobs import WORKLOADS, all_pool_jobs, job_key
from run import HERE, REFERENCE, SPEC, Session, layer_metrics

SPEC_DATA = json.loads(SPEC.read_text())
REF = json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_jobs(name):
    w = WORKLOADS[name]
    assert w.round(7) == w.round(7)
    assert sorted(w.round(7)) == sorted(w.jobs)
    assert len({tuple(w.round(s)) for s in range(10)}) > 1


def test_every_pool_job_has_a_reference():
    keys = {job_key(j) for j in all_pool_jobs()}
    assert keys == set(REF)
    assert all(r["exit"] == 0 for r in REF.values())


def test_intersect_size_guard():
    for d, g in ((15, 5), (10, 0), (14, 2), (3, 3)):
        with pytest.raises(ValueError):
            jobs.intersect(d, g, "text")
    for job in all_pool_jobs():
        if job[0] == "intersect":
            d, g = int(job[2]), int(job[4])
            assert d <= jobs.INTERSECT_DMAX and 1 <= d + 2 - 2 * g <= jobs.INTERSECT_NMAX


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC_DATA["workloads"]] == list(WORKLOADS)


# A few cheap pool jobs per workload that, together, reach every layer.
SAMPLES = {
    "expand": [jobs.hamiltonian(12, "json")],
    "predict": [
        jobs.hamiltonian(11, "text"),
        jobs.hamiltonian(14, "latex"),
        jobs.intersect(8, 3, "json"),
    ],
    "solve": [
        jobs.verify_all("json"),
        jobs.reconstruct(1, 2),
        jobs.commute(-1, 4, 6),
    ],
}


def traced_round(name, work):
    session = Session(WORKLOADS[name], work, REF)
    cache, _ = session.set_up()
    nbytes, traces = session.run_round(SAMPLES[name], cache, traced=True)
    assert session.failed == 0, "traced output differs from the reference"
    return layer_metrics(traces, nbytes)


def test_traced_counts_repeat_and_cover_every_layer(tmp_path):
    counted = [m["name"] for m in SPEC_DATA["per_layer"] if m["unit"] != "s"]
    seen = set()
    for name in SAMPLES:
        for sample in SAMPLES[name]:
            assert job_key(sample) in REF
        first = traced_round(name, tmp_path)
        second = traced_round(name, tmp_path)
        assert {k: first.get(k) for k in counted} == {k: second.get(k) for k in counted}
        seen |= {k for k, v in first.items() if v}
    layer_names = {m["name"] for m in SPEC_DATA["per_layer"]}
    # measure() adds these from the whole run, not from the trace files
    per_run = {"trace.untraced_wall_s", "trace.wall_s", "trace.overhead_s", "calibration.median_s"}
    missing = layer_names - seen - per_run
    assert not missing


def test_fails_without_the_program(tmp_path):
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "expand",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
