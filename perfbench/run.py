"""Benchmark of the qkdv command line, end to end and layer by layer.

Usage:
    python3 perfbench/run.py --workload {expand,predict,solve} --seed N
                             --seconds S --trace {0,1}

Run from the repository root.  Every job is a fresh Python process that
runs the qkdv command line from the ``src`` tree next to this directory,
through ``job.py`` (``python -m qkdv.cli`` plus a record of its peak
memory); one client runs one job at a time (a closed loop).  A round is the
seeded job list of the workload (see ``jobs.py``); rounds repeat while
another one fits in ``--seconds``.
On a shared machine the host's speed changes by half and more from one
second to the next, and holds for a second or so.  So ``calibrate.py``, a
fixed pure-Python script, runs between every two jobs and set-ups, and each
is timed in units of the mean of the script's latencies just before and
just after it; a job's figure is the median of these ratios over the rounds
of the run, times ``REFERENCE_S``: seconds on a machine where the script
takes ``REFERENCE_S``.

Every job's exit code and the sha256 of its standard output are checked
against ``reference.json``.  A mismatch counts as a failed job and makes the
command exit 1.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it repeat the metrics for a reader.

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json:
set-up time (median of several set-ups), the sum and the median over the
round's jobs of each job's latency, all three calibrated as above, and the
largest peak resident set size of any job.
``--trace 1`` alternates untraced rounds with rounds run through
``traced_job.py`` and reports the ``per_layer`` metrics of one traced round
(medians over the traced rounds; times are scaled by ``REFERENCE_S`` over
the calibration script's median latency, which is reported unscaled), plus
the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from calibrate import OUTPUT as CALIBRATION_OUTPUT, REFERENCE_S
from jobs import WORKLOADS, job_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB = HERE / "job.py"
TRACED_JOB = HERE / "traced_job.py"
CALIBRATE = HERE / "calibrate.py"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
WORK_PARENT = ROOT / ".perfbench-tmp"

SETUPS = 3


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    """The caller's environment, importing qkdv from SRC, without QKDV_CACHE.

    The hash seed is pinned so that traced counts repeat run to run.
    """
    env = {k: v for k, v in os.environ.items() if k != "QKDV_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd, env, cwd, err_path):
    """Run cmd to its end: (seconds, exit code, stdout bytes)."""
    with open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        seconds = perf_counter() - t0
    return seconds, code, out


class Session:
    """One benchmark run's private directory, child environment and tallies."""

    def __init__(self, workload, work: Path, reference: dict):
        self.workload = workload
        self.work = work
        self.reference = reference
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        # job key -> latencies in reference seconds of its untraced and traced runs
        self.latencies: dict[str, list[float]] = {}
        self.traced_latencies: dict[str, list[float]] = {}
        self.peak_rss_kib = 0
        self.calibrations: list[float] = []
        # latency of the calibration run last, if nothing else has run since
        self.last_calibration: float | None = None

    def calibrate(self) -> float:
        """Time one run of calibrate.py and return its latency."""
        seconds, code, out = spawn(
            [sys.executable, str(CALIBRATE)], self.env, self.work, self.work / "stderr.txt"
        )
        if code or out != CALIBRATION_OUTPUT:
            raise BenchError(f"calibrate.py exited {code} with output {out!r}")
        self.calibrations.append(seconds)
        self.last_calibration = seconds
        return seconds

    def calibration_before(self) -> float:
        """The latency of a calibration run just now, reusing the last one."""
        if self.last_calibration is None:
            return self.calibrate()
        return self.last_calibration

    def reference_seconds(self, seconds: float, before: float) -> float:
        """Convert ``seconds`` timed after calibration ``before`` to reference
        seconds, against the mean of ``before`` and a calibration run now."""
        after = self.calibrate()
        return REFERENCE_S * seconds * 2 / (before + after)

    def matches(self, job, code: int, out: bytes) -> bool:
        ref = self.reference[job_key(job)]
        return code == ref["exit"] and hashlib.sha256(out).hexdigest() == ref["sha256"]

    def run_job(self, job, cache: Path, trace_path: Path | None = None):
        """Run and check one job between calibrations; return its stdout byte count."""
        before = self.calibration_before()
        self.last_calibration = None
        rss_path = self.work / "rss.txt"
        if trace_path is None:
            head = [sys.executable, str(JOB), str(rss_path)]
        else:
            head = [sys.executable, str(TRACED_JOB), str(trace_path)]
        err_path = self.work / "stderr.txt"
        seconds, code, out = spawn(
            head + ["--cache-dir", str(cache), *job], self.env, self.work, err_path
        )
        if rss_path.exists():
            self.peak_rss_kib = max(self.peak_rss_kib, int(rss_path.read_text()))
            rss_path.unlink()
        if not self.matches(job, code, out):
            self.failed += 1
            ref = self.reference[job_key(job)]
            print(
                f"FAIL {job_key(job)}: exit {code} (expected {ref['exit']}), "
                f"{len(out)} stdout bytes (expected {ref['bytes']})\n"
                + err_path.read_text(errors="replace")[-2000:],
                file=sys.stderr,
            )
        self.attempted += 1
        tally = self.latencies if trace_path is None else self.traced_latencies
        tally.setdefault(job_key(job), []).append(self.reference_seconds(seconds, before))
        return len(out)

    def set_up(self) -> tuple[Path, float]:
        """Make a private cache directory and fill it through the CLI."""
        self.last_calibration = None
        t0 = perf_counter()
        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work))
        probe = subprocess.run(
            [sys.executable, "-c", "import qkdv; print(qkdv.__file__)"],
            env=self.env,
            cwd=self.work,
            capture_output=True,
            text=True,
        )
        expected = (SRC / "qkdv" / "__init__.py").resolve()
        if probe.returncode or Path(probe.stdout.strip()).resolve() != expected:
            raise BenchError(
                f"child imports qkdv from {probe.stdout.strip() or '?'}, not "
                f"{expected}: {probe.stderr.strip()}"
            )
        for job in self.workload.warm_jobs():
            # set-up jobs are not part of the timed tallies
            done = subprocess.run(
                [sys.executable, "-m", "qkdv.cli", "--cache-dir", str(cache), *job],
                env=self.env,
                cwd=self.work,
                capture_output=True,
            )
            if not self.matches(job, done.returncode, done.stdout):
                raise BenchError(f"set-up job {job_key(job)} gave wrong output")
        return cache, perf_counter() - t0

    def run_round(self, jobs, cache: Path, traced: bool = False):
        """Run one round: (stdout bytes, trace files)."""
        nbytes = 0
        traces = []
        for i, job in enumerate(jobs):
            job_cache = cache
            if self.workload.warm_dmax is None:
                job_cache = Path(tempfile.mkdtemp(prefix="job-", dir=cache))
            trace_path = self.work / f"trace-{i}.json" if traced else None
            nbytes += self.run_job(job, job_cache, trace_path)
            if trace_path is not None and trace_path.exists():
                traces.append(trace_path)
            if job_cache != cache:
                shutil.rmtree(job_cache)
        return nbytes, traces


def layer_metrics(trace_paths, stdout_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced round, from its jobs' trace files."""
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    own: Counter = Counter()
    counters: Counter = Counter()
    memo_hits: Counter = Counter()
    memo_lookups: Counter = Counter()
    imports = []
    for path in trace_paths:
        trace = json.loads(path.read_text())
        path.unlink()
        imports.append(trace["import_s"])
        spans = trace["spans"]
        in_children = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                in_children[parent] += end - start
        for (name, start, end, _), covered in zip(spans, in_children):
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - covered
        for key, value in trace["counters"].items():
            if key.endswith("_max"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
        for prefix, (hits, misses) in trace["memos"].items():
            memo_hits[prefix] += hits
            memo_lookups[prefix] += hits + misses
    values: dict[str, float] = dict(counters)
    for name in calls:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.s"] = inclusive[name]
        values[f"{name}.self_s"] = own[name]
    memo_hits["cache.load"] = counters["cache.load.hits"]
    memo_lookups["cache.load"] = calls["cache.load"]
    for prefix, lookups in memo_lookups.items():
        values[f"{prefix}.hit_ratio"] = memo_hits[prefix] / lookups if lookups else 0.0
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    values["cli.stdout_bytes"] = stdout_bytes
    return values


def job_seconds(latencies: dict[str, list[float]], jobs) -> list[float]:
    """Each job's median latency in reference seconds, in round order."""
    return [statistics.median(latencies[job_key(job)]) for job in jobs]


def measure(session: Session, jobs, seconds: float, trace: bool) -> dict[str, float]:
    setups = []
    cache = None
    for _ in range(SETUPS):
        if cache is not None:
            shutil.rmtree(cache)
        before = session.calibration_before()
        cache, took = session.set_up()
        setups.append(session.reference_seconds(took, before))
    start = perf_counter()
    rounds: list[float] = []
    layers: list[dict[str, float]] = []
    while True:
        t0 = perf_counter()
        session.run_round(jobs, cache)
        if trace:
            nbytes, traces = session.run_round(jobs, cache, traced=True)
            layers.append(layer_metrics(traces, nbytes))
        rounds.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(rounds) > seconds:
            break
    per_job = job_seconds(session.latencies, jobs)
    if trace:
        calibration = statistics.median(session.calibrations)
        scale = REFERENCE_S / calibration
        names = set().union(*layers)
        out = {n: statistics.median(l.get(n, 0) for l in layers) for n in names}
        out = {n: v * scale if n.endswith(("_s", ".s")) else v for n, v in out.items()}
        out["calibration.median_s"] = calibration
        out["trace.untraced_wall_s"] = sum(per_job)
        out["trace.wall_s"] = sum(job_seconds(session.traced_latencies, jobs))
        out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
        return out
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "peak_rss_mb": session.peak_rss_kib / 1024,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (SRC / "qkdv" / "cli.py").is_file():
        raise BenchError(f"no qkdv sources under {SRC}")
    if not REFERENCE.is_file() or not SPEC.is_file():
        raise BenchError(f"{REFERENCE.name} or {SPEC.name} is missing")
    reference = json.loads(REFERENCE.read_text())
    spec = json.loads(SPEC.read_text())
    workload = WORKLOADS[workload_name]
    jobs = workload.round(seed)
    missing = [k for k in map(job_key, jobs + workload.warm_jobs()) if k not in reference]
    if missing:
        raise BenchError(f"no reference output for {missing}")
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK_PARENT))
    try:
        session = Session(workload, work, reference)
        values = measure(session, jobs, seconds, trace)
    finally:
        shutil.rmtree(work)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass
    wanted = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in wanted
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and the work dir removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"jobs={result['attempted']} failed={result['failed']} "
        f"fail_ratio={result['failed'] / result['attempted']:.4f} ratio"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
