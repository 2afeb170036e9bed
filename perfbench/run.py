"""ruleforge benchmark: time the user-facing CLI verbs end to end.

Run from the root of a ruleforge checkout:

    python3 perfbench/run.py --workload fixture_repair --seed 1 --seconds 20 --trace 0

The benchmark imports ``ruleforge`` from ``src/`` of that checkout, builds the
workload's inputs from ``--seed``, then runs jobs in-process through
``ruleforge.cli.main`` as a closed loop with one client: one job at a time,
one process, one thread, pinned to one CPU. Only the set-up's import probe
runs in a child interpreter. Every job's outputs are checked outside the
timed region. The last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with unpatched code, their
times put on one nominal host speed (see hostspeed.py).
``--trace 1`` alternates untraced and traced passes over the same inputs and
reports per-layer metrics from the outside-in tracer (see tracer.py).
Working files go under ``.perfbench_work/`` in the checkout and are removed
at exit, except the span dump of traced runs in ``.perfbench_work/traces/``.
See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fixture_repair", "bulk_audit", "wide_localize"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure at least this long; whole groups of jobs are run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


#: Times ``import ruleforge.cli`` in a fresh interpreter; prints seconds.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import ruleforge.cli; print(time.perf_counter() - t)")


def _import_ruleforge() -> None:
    """Import ruleforge from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import ruleforge
    import ruleforge.cli  # noqa: F401  (imports click and the storage layer)
    if Path(ruleforge.__file__).resolve().parent != SRC / "ruleforge":
        raise ImportError(f"ruleforge imported from {ruleforge.__file__}, not {SRC}")


def _import_seconds() -> float:
    """Time of ``import ruleforge.cli`` in a fresh interpreter: an import can
    be timed only once per process."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True)
    return float(probe.stdout)


def _pin_to_one_cpu() -> None:
    """Keep this process, and the import probes it starts, on one CPU: the
    host reference then measures the CPU that the jobs run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _digest(rcs, out, err, out_dirs) -> str:
    h = hashlib.sha256(repr(rcs).encode())
    h.update(out.encode())
    h.update(err.encode())
    for folder in out_dirs:
        for path in sorted(p for p in folder.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(folder)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs jobs one at a time and checks each one outside the timed region.

    The first run of a job input gets the full correctness check; repeats of
    the same input must reproduce its artifacts byte for byte.
    """

    def __init__(self, tracer=None):
        from ruleforge import cli
        self.cli = cli
        self.tracer = tracer
        self.first: dict[str, tuple[str, object]] = {}  # key -> (digest, Check)
        self.times: list[float] = []  # wall time of each job
        self.scaled: list[float] = []  # untraced: the same on the nominal host speed
        self.refs: list[float] = []  # untraced: median host reference time in each job
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _main(self, argv) -> int | str:
        """Exit code of one CLI call; an uncaught exception is reported as
        its text, which every check treats as a wrong output."""
        try:
            return self.cli.main(argv)
        except Exception as exc:  # a crash fails the job; the run goes on
            return "".join(traceback.format_exception_only(exc)).strip()

    def run(self, job, traced: bool = False) -> float:
        for folder in job.out_dirs:
            shutil.rmtree(folder, ignore_errors=True)
            folder.mkdir(parents=True)
        out, err = io.StringIO(), io.StringIO()
        rcs = []
        queries_before = self.tracer.oracle_queries if traced else 0
        if traced:
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with self.tracer.job(self.attempted):
                    for argv in job.argvs:
                        with self.tracer.span("cli.main"):
                            rcs.append(self._main(argv))
            elapsed = time.perf_counter() - start
        else:
            with hostspeed.Meter() as meter:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    for argv in job.argvs:
                        rcs.append(self._main(argv))
            elapsed = meter.seconds
            self.scaled.append(meter.scaled)
            self.refs.append(statistics.median(meter.samples))
        self.times.append(elapsed)
        self.attempted += 1
        digest = _digest(rcs, out.getvalue(), err.getvalue(), job.out_dirs)
        problems = []
        first = self.first.get(job.key)
        if first is None:
            check = job.check(rcs)
            self.first[job.key] = (digest, check)
            problems += check.problems
        else:
            first_digest, check = first
            if digest != first_digest:
                problems.append("artifacts differ from an earlier run of the same input")
        if traced and self.tracer.oracle_queries - queries_before != check.queries:
            problems.append("traced oracle queries differ from a fresh evidence build")
        self.problems.extend(f"{job.key}: {p}" for p in problems)
        if not check.passed or problems:
            self.failed += 1
        return elapsed


def _end_to_end(runner, groups, seconds, sample_setup) -> float:
    """Whole groups in turn: the pool once, then on until the timed wall
    reaches ``seconds`` and at least one group has run twice. Between groups,
    set-up is sampled again until SETUP_REPEATS samples are spread over the
    run, so that they meet the same host load as the jobs. Returns the timed
    wall on the nominal host speed."""
    samples = 1  # the set-up that built the pool
    i = 0
    while i <= len(groups) or sum(runner.times) < seconds:
        for job in groups[i % len(groups)]:
            runner.run(job)
        i += 1
        if samples < SETUP_REPEATS and sum(runner.times) >= seconds * samples / SETUP_REPEATS:
            sample_setup()
            samples += 1
    while samples < SETUP_REPEATS:
        sample_setup()
        samples += 1
    return sum(runner.scaled)


def _traced(runner, tracer, groups, seconds) -> tuple[float, float]:
    """Untraced then traced runs of each group in turn, until both together
    reach ``seconds``; returns (untraced, traced) time over the same jobs."""
    plain = traced = 0.0
    i = 0
    while i == 0 or plain + traced < seconds:
        group = groups[i % len(groups)]
        plain += sum(runner.run(job) for job in group)
        tracer.install()
        try:
            traced += sum(runner.run(job, traced=True) for job in group)
        finally:
            tracer.restore()
        i += 1
    return plain, traced


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, tiny: bool = False, work_root: Path | None = None) -> dict:
    _import_ruleforge()
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work_root = work_root or ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    setup_times = []

    def setup(folder: Path):
        """One set-up: import ruleforge in a fresh interpreter, then build
        and write the job inputs under ``folder``."""
        with hostspeed.Meter(inside=False) as probe:
            import_s = _import_seconds()
        with hostspeed.Meter() as build:
            jobs = workload.build(args.seed, folder, tiny)
        setup_times.append(probe.scale(import_s) + build.scaled)
        return jobs

    def sample_setup():
        setup(work / "setup")
        shutil.rmtree(work / "setup")

    try:
        jobs = setup(work)
        groups = [jobs[i:i + workload.group] for i in range(0, len(jobs), workload.group)]
        # Keep the benchmark's own inputs out of the program's garbage
        # collections: a CLI process would not hold them.
        gc.collect()
        gc.freeze()
        if not args.trace:
            runner = Runner()
            timed = _end_to_end(runner, groups, args.seconds, sample_setup)
            checks = [check for _, check in runner.first.values()]
            accepted = [c.dg_after for c in checks if c.dg_after is not None]
            passed = runner.attempted - runner.failed
            metrics = {
                "setup_s": _metric(statistics.median(setup_times), "s"),
                "job_s_p50": _metric(statistics.median(runner.scaled), "s"),
                "jobs_per_s": _metric(passed / timed, "1/s"),
                "pass_ratio": _metric(passed / runner.attempted, "ratio"),
                "oracle_queries_per_job": _metric(
                    statistics.fmean(c.queries for c in checks), "count"),
                "cf_resolved_ratio": _metric(
                    sum(c.pairs for c in checks) / sum(c.searched for c in checks), "ratio"),
                "dg_after_mean": _metric(statistics.fmean(accepted) if accepted else 0.0,
                                         "ratio"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            print(f"raw wall: job p50 {statistics.median(runner.times):.4g} s, timed "
                  f"{sum(runner.times):.4g} s; host reference p50 "
                  f"{statistics.median(runner.refs) * 1e3:.4g} ms "
                  f"(nominal {hostspeed.NOMINAL_S * 1e3:g} ms)")
        else:
            tracer = Tracer()
            runner = Runner(tracer)
            plain, traced = _traced(runner, tracer, groups, args.seconds)
            n_traced = len({s.job for s in tracer.spans})
            metrics = {name: _metric(value, unit)
                       for name, (value, unit) in tracer.layer_metrics(n_traced).items()}
            metrics["trace.job_s"] = _metric(traced / n_traced, "s")
            metrics["trace.overhead_ratio"] = _metric(traced / plain, "ratio")
            tracer.write(work_root / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"perfbench: incorrect: {problem}", file=sys.stderr)
    return {"correct": not runner.problems, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None, *, tiny: bool = False, work_root: Path | None = None) -> int:
    """Entry point. ``tiny`` shrinks every workload's pool and datasets
    (used by the self-tests); ``work_root`` relocates the working files."""
    args = _parse_args(argv)
    if not (SRC / "ruleforge" / "__init__.py").is_file():
        print(f"perfbench: no ruleforge sources at {SRC}; run from a ruleforge checkout",
              file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    result = run(args, tiny=tiny, work_root=work_root)
    summary = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                        for k, v in result["metrics"].items())
    print(f"{args.workload} seed {args.seed}: {result['attempted']} jobs, "
          f"{result['failed']} failed (fail_ratio "
          f"{result['failed'] / result['attempted']:.4f}); {summary}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
