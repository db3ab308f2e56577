"""Benchmark of the randova CLI, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

With --trace 0 the run spawns the workload's CLI jobs as fresh processes
for at least --seconds and reports the end-to-end metrics; with --trace 1 it
adds one in-process pass under span wrappers and reports the per-layer
metrics. Either way it first checks the CLI's outputs. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the checkout holds no randova source tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "cli.self_s": "s",
    "enumeration.time_s": "s",
    "enumeration.assignments": "count",
    "enumeration.us_per_assignment": "us",
    "anova.time_s": "s",
    "anova.calls": "count",
    "anova.assignments": "count",
    "anova.us_per_assignment": "us",
    "inference.aggregate_s": "s",
    "inference.support_size": "count",
    "inference.assignments": "count",
    "inference.atoms_per_assignment": "ratio",
    "inference.query_s": "s",
    "inference.query_calls": "count",
    "inference.mc_self_s": "s",
    "fdist.time_s": "s",
    "fdist.calls": "count",
    "documents.load_s": "s",
    "documents.dump_s": "s",
    "documents.report_bytes": "bytes",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(run) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics of an untraced run, and the lines that explain them."""
    from perfbench.harness import tail

    walls = run.round_walls
    wall = statistics.median(walls)
    label, tail_value = tail(walls)
    values = {
        "setup_s": run.setup_s,
        "wall_ref": run.wall_ref,
        "peak_rss_mb": run.peak_rss_kb / 1024,
    }
    tail_note = ("no percentile has 10 rounds beyond it, so the maximum" if label == "max"
                 else "the highest percentile with 10 rounds beyond it")
    lines = [
        f"setup_s            {values['setup_s']:.4f} s     median of the set-up of the job list, fresh interpreters",
        f"wall_ref           {values['wall_ref']:.4f} ref   median of {len(walls)} round(s) of the round's wall "
        "time over the mean time of its reference loads",
        f"peak_rss_mb        {values['peak_rss_mb']:.1f} MB    largest maximum RSS of a CLI child",
        "ungated, they follow the host's speed:",
        f"wall_s             {wall:.4f} s     median of {len(walls)} round(s), spawn to exit",
        f"wall_s_tail        {tail_value:.4f} s     {label} of {len(walls)} round(s): {tail_note}",
        f"assignments_per_s  {run.evaluations / wall:.1f} 1/s   {run.evaluations} ANOVA evaluations per round",
        f"reference_s        {statistics.median(sum(run.round_refs, [])):.4f} s     median of "
        f"{sum(map(len, run.round_refs))} reference loads",
    ]
    return values, lines


def per_layer(run) -> tuple[dict[str, float], list[str]]:
    """The per-layer metrics of a traced run, with each time's share of the traced total."""
    values = {name: run.layers[name] for name in PER_LAYER}
    total = values["trace.total_s"]
    lines = []
    for name, unit in PER_LAYER.items():
        share = f"{100 * values[name] / total:5.1f}% of traced total" if unit == "s" and name != "trace.total_s" else ""
        lines.append(f"{name:32s} {values[name]:.6g} {unit:6s} {share}")
    return values, lines


def main(argv: list[str] | None = None) -> int:
    src = ROOT / "src"
    if not (src / "randova" / "__init__.py").is_file():
        print(f"perfbench: no randova source tree under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench.spawner import Spawner

    with Spawner() as spawner:  # started before numpy is imported, while this process is small
        args = parse_args(argv)
        from perfbench import harness

        bench = harness.Bench(ROOT, WORK_DIR, spawner)
        run = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {harness.machine()}")
    for job in run.jobs:
        print(f"job: randova {' '.join(job.argv)}")
    print(f"checks: {len(run.checks.passed)} passed, {len(run.checks.failed)} failed")
    for failure in run.checks.failed:
        print(f"FAILED CHECK: {failure}")
    values, lines = per_layer(run) if args.trace else end_to_end(run)
    print("\n".join(lines))
    print(f"failed_ratio       {run.failed}/{run.attempted} = {run.failed / run.attempted:g}   "
          "failed over attempted invocations")
    units = PER_LAYER if args.trace else END_TO_END
    correct = not run.checks.failed and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
