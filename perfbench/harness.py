"""One benchmark run: set-up probes, output checks, timed rounds, traced pass.

Load model: closed loop, one client. This process runs one randova CLI child
at a time and starts the next only when the previous one has exited.

A run with trace off measures the end-to-end metrics:

- setup_s: a fresh interpreter imports randova, parses the job's arguments
  and loads its table, with no enumeration; summed over the workload's jobs,
  median over the probes made before each round, so that set-up samples the
  same stretches of a shared host as the rounds;
- wall_ref: spawn-to-exit time of the workload's job list over the mean
  time of the round's reference loads (reference.py), median over rounds. A
  round runs one load before its first job and, after its jobs, loads that
  add up to REF_SHARE of the jobs' time, each load run as soon as a job has
  left that much owing. The host is shared, and its speed drifts by half
  over a minute, on both cores at once; the loads sample that drift next to
  the jobs and in proportion to their length, so the ratio follows the
  program and not the host;
- peak_rss_mb: the largest maximum RSS of any CLI child of the jobs.

It also prints, ungated because they follow the host, wall_s (the median
round time), its tail and assignments_per_s (ANOVA evaluations over wall_s).

A run with trace on times one untraced round, then runs the same jobs
in-process through randova.cli.main under the span wrappers of tracing.py
and reports the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from . import oracle, tracing, workloads
from .reference import Reference
from .spawner import Child, Spawner

TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it

REF_SHARE = 0.25  # reference-load time after the jobs, as a share of the jobs' time

SETUP_PROBE = """\
import sys
from randova.cli import build_parser
from randova.documents import load_table
load_table(build_parser().parse_args(sys.argv[1:]).table)
"""


@dataclass
class Run:
    """What one run measured and checked."""

    workload: str
    jobs: list
    setup_totals: list[float] = field(default_factory=list)
    round_walls: list[float] = field(default_factory=list)
    round_refs: list[list[float]] = field(default_factory=list)  # reference-load times of each round
    peak_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    checks: oracle.CheckLog = field(default_factory=oracle.CheckLog)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_totals)

    @property
    def wall_ref(self) -> float:
        """Median over rounds of the round's wall time over the mean of its reference loads."""
        return statistics.median(wall / statistics.fmean(refs)
                                 for wall, refs in zip(self.round_walls, self.round_refs))

    @property
    def evaluations(self) -> int:
        return sum(job.evaluations for job in self.jobs)

    def record(self, log: oracle.CheckLog) -> None:
        """Count one invocation; it failed when any of its checks failed."""
        self.checks.passed += log.passed
        self.checks.failed += log.failed
        self.attempted += 1
        self.failed += 1 if log.failed else 0


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "randova", *args]


def child_env(src_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    env.pop("RANDOVA_ENUM_CAP", None)
    return env


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, or the maximum."""
    n = len(values)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= TAIL_BEYOND:
            return f"p{pct:g}", statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]
    return "max", max(values)


def machine() -> str:
    import numpy

    return f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__}"


class Bench:
    """Runs one workload against the randova CLI of a source tree."""

    def __init__(self, root: Path, work_dir: Path, spawner: Spawner,
                 sizes: workloads.Sizes = workloads.FULL) -> None:
        self.src = root / "src"
        self.work_dir = work_dir
        self.spawner = spawner
        self.sizes = sizes
        self.env = child_env(self.src)

    def run(self, workload: str, seed: int, seconds: float, trace: bool) -> Run:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=self.work_dir))
        try:
            run = Run(workload, workloads.make_jobs(workload, seed, self.sizes, scratch, self.src))
            self._check_reproduce(run, scratch)  # also byte-compiles the package before any timing
            with Reference() as self.reference:
                if trace:
                    self._traced(run, scratch, seed)
                else:
                    self._rounds(run, scratch, seconds)
            return run
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def _spawn(self, argv: list[str], scratch: Path, log: oracle.CheckLog) -> Child:
        child = self.spawner.run(argv, self.env, scratch)
        log.check(child.returncode == 0, f"{' '.join(argv[-2:])} exits 0",
                  child.stderr[-300:].decode(errors="replace"))
        return child

    def _probe_setup(self, run: Run, scratch: Path) -> None:
        """Time the set-up of the job list sizes.setup_probes times, before a round."""
        probes = [[sys.executable, "-c", SETUP_PROBE, *job.argv] for job in run.jobs]
        for _ in range(self.sizes.setup_probes):
            total = 0.0
            for argv in probes:
                log = oracle.CheckLog()
                total += self._spawn(argv, scratch, log).wall_s
                run.record(log)
            run.setup_totals.append(total)

    def _reference(self, run: Run, seconds: float) -> float:
        """Reference loads into the current round until they add up to seconds, or one in an empty round."""
        refs = run.round_refs[-1]
        spent = 0.0
        while not refs or spent < seconds:
            refs.append(self.reference.time())
            spent += refs[-1]
        return spent

    def _check_reproduce(self, run: Run, scratch: Path) -> None:
        log = oracle.CheckLog()
        child = self._spawn(cli_argv(["reproduce"]), scratch, log)
        log.check(b"25/25 checks passed" in child.stdout, "randova reproduce passes 25/25",
                  child.stdout[-200:].decode(errors="replace"))
        run.record(log)

    def _round(self, run: Run, scratch: Path, first: list[bytes] | None) -> list[tuple[Child, oracle.CheckLog]]:
        """Set-up probes, then one pass over the job list, with reference loads before and after the jobs.

        Later rounds must repeat the first round's stdout.
        """
        self._probe_setup(run, scratch)
        run.round_refs.append([])
        self._reference(run, 0.0)
        owed = 0.0
        results = []
        for i, job in enumerate(run.jobs):
            log = oracle.CheckLog()
            child = self._spawn(cli_argv(job.argv), scratch, log)
            owed += REF_SHARE * child.wall_s
            owed -= self._reference(run, owed)
            if first is not None:
                log.check(child.stdout == first[i], "stdout is byte-identical to the first round")
            run.peak_rss_kb = max(run.peak_rss_kb, child.maxrss_kb)
            results.append((child, log))
        run.round_walls.append(sum(child.wall_s for child, _ in results))
        return results

    def _first_round(self, run: Run, scratch: Path) -> list[Child]:
        """The first round, with the oracle checks of every report it printed."""
        from randova import load_table

        children = []
        for job, (child, log) in zip(run.jobs, self._round(run, scratch, None)):
            try:
                report = json.loads(child.stdout)
                table = load_table(job.table)
                if job.kind == "exact":
                    oracle.check_exact(log, job, table, report)
                elif job.kind == "mc":
                    oracle.check_mc(log, job, table, report)
                else:
                    oracle.check_sampled(log, job, table, report, oracle.sample_draws(job, table))
            except (ValueError, KeyError, TypeError) as exc:
                log.check(False, f"{job.argv[0]} report is readable", repr(exc))
            run.record(log)
            children.append(child)
        return children

    def _rounds(self, run: Run, scratch: Path, seconds: float) -> None:
        first = [child.stdout for child in self._first_round(run, scratch)]
        measured = run.round_walls[0]
        while measured < seconds:
            for _, log in self._round(run, scratch, first):
                run.record(log)
            measured += run.round_walls[-1]

    def _traced(self, run: Run, scratch: Path, seed: int) -> None:
        from randova import load_table

        children = self._first_round(run, scratch)
        log = tracing.SpanLog()
        passes = []
        with tracing.installed(log):
            for run_id, job in enumerate(run.jobs):
                log.run_id = run_id
                log.seen = set()
                marks = (len(log.summaries), len(log.draws), log.counts.get("enumeration.assignments", 0))
                code, stdout = tracing.traced_cli(log, list(job.argv))
                visited = log.counts.get("enumeration.assignments", 0) - marks[2]
                passes.append((code, stdout, log.summaries[marks[0]:], log.draws[marks[1]:],
                               visited, len(log.seen)))
        log.seen = set()
        for job, child, (code, stdout, summaries, draws, visited, distinct) in zip(run.jobs, children, passes):
            checks = oracle.CheckLog()
            checks.check(code == 0, f"in-process {job.argv[0]} returns 0")
            checks.check(stdout.encode() == child.stdout, "in-process stdout equals the CLI child's stdout")
            if code == 0:
                oracle.check_in_process(checks, job, load_table(job.table), json.loads(stdout),
                                        summaries, draws, visited, distinct)
            run.record(checks)
        log.write(self.work_dir / f"trace-{run.workload}-{seed}.npz")
        run.layers = layer_metrics(run, log)


def layer_metrics(run: Run, log: tracing.SpanLog) -> dict[str, float]:
    """The per-layer table, derived from the spans and counters of one traced run."""
    times, total = log.layer_times()
    counts = log.counts
    assignments = counts.get("enumeration.assignments", 0)
    anova_assignments = counts.get("anova.assignments", 0)
    support = sum(len(s.support) for s in log.summaries)
    visited = sum(s.assignment_count for s in log.summaries)
    wall = statistics.median(run.round_walls)
    return {
        "trace.total_s": total,
        "trace.overhead_s": total + run.setup_s - wall,
        "trace.spans": len(log.start),
        **times,
        "enumeration.assignments": assignments,
        "enumeration.us_per_assignment": 1e6 * times["enumeration.time_s"] / max(assignments, 1),
        "anova.calls": counts.get("anova.calls", 0),
        "anova.assignments": anova_assignments,
        "anova.us_per_assignment": 1e6 * times["anova.time_s"] / max(anova_assignments, 1),
        "inference.support_size": support,
        "inference.assignments": visited,
        "inference.atoms_per_assignment": support / visited if visited else 0.0,
        "inference.query_calls": counts.get("inference.query_calls", 0),
        "fdist.calls": counts.get("fdist.calls", 0),
        "documents.report_bytes": counts.get("documents.report_bytes", 0),
    }
