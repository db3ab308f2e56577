"""Check that two source trees give the same outputs on the benchmark jobs
and the default gate's library results.

    python tools/same_outputs.py PARENT_DIR CHANGE_DIR

Writes the tables of both perfbench workloads at seeds 1 and 2 with
`perfbench.workloads.make_jobs` (full size, into a temporary directory), runs
each of the six jobs once with each tree's `src/` and compares stdout, stderr
and the exit code.  Then each tree, in its own interpreter, computes:

- the `RandomizationSummary` of table1-4 and of every perfbench table, over
  the exact space and over 3,000 draws at seed 1: columns by their bytes and
  dtypes, the means in hex, and the other fields (an exact space above the
  cap gives its error line instead);
- the `MonteCarloReport(keep_replications=True)` of table4, and of each
  perfbench Monte Carlo RCB table, with every probability in hex;
- `anova(observe(table, a))` of table1-4 and of every perfbench table for
  each of the 20 draws a of `RandomizationSpace.sample(20, seed=1)`: S0^2,
  S1^2 and F in hex;
- the staging (`randova.inference._staged`) of table1-4 and of every
  perfbench table, over the exact space and over 3,000 draws at seed 1:
  each chunk's perms and index by their bytes, dtypes and shapes, hashed
  in stream order, with the count and is_exact (a space above the cap
  gives its error line);
- the exception type and message of each call in `REFUSED`, calls the
  package must refuse: `space_cardinality` on bad sizes, an unknown design
  and an RCB of (20!)^300, `assignment_stream` on zero-size, oversized and
  over-cap spaces and on Latin-square settings for an RCB table, and
  `ls_sampler_settings(0)` (a call that returns gives the type returned).

Prints one line per job and per result, 109 checks in all (12 jobs, 73
results for the tables, 24 refused calls), and exits 1 when any differ, 2
when a directory holds no `src/randova`.  Run it from any directory; the
tables are written once and read by both trees.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import FULL, WORKLOADS, make_jobs  # noqa: E402

SEEDS = (1, 2)

# calls to refuse, as expressions over randova (rv), numpy (np),
# assignment_stream, zeros(design, num_blocks, num_treatments) (a table of
# zeros of the design's shape), EXACT and SAMPLED (5 draws at seed 1)
SIZES = ("0", "-1", "2.0", "np.int64(3)")
REFUSED = [
    *(f"rv.space_cardinality('rcb', {size}, 3)" for size in SIZES),
    *(f"rv.space_cardinality('rcb', 3, {size})" for size in SIZES),
    *(f"rv.space_cardinality('ls', 3, {size})" for size in SIZES),
    "rv.space_cardinality('latin', 3, 3)",
    "rv.space_cardinality('rcb', 300, 20)",
    "assignment_stream(zeros('rcb', 0, 3), EXACT)",
    "assignment_stream(zeros('rcb', 0, 3), SAMPLED)",
    "assignment_stream(zeros('ls', 0, 0), EXACT)",
    "assignment_stream(zeros('ls', 0, 0), SAMPLED)",
    "assignment_stream(zeros('ls', 6, 6), EXACT)",
    "assignment_stream(zeros('rcb', 4, 6), EXACT)",
    "assignment_stream(zeros('rcb', 2, 3), rv.RandomizationSpace.sample(10_000_001, seed=1))",
    "assignment_stream(zeros('rcb', 2, 3), rv.RandomizationSpace.sample(10, seed=1, burn_in=5))",
    "assignment_stream(zeros('rcb', 2, 3),"
    " rv.RandomizationSpace.sample(10, seed=1, ls_measure='all'))",
    "rv.enumeration.ls_sampler_settings(0)",
]

# run in each tree's interpreter: argv[1] is a JSON list of [label, table
# path or bundled name, Monte Carlo study or not], argv[2] a JSON list of
# the calls in REFUSED; prints one JSON object of label -> what the tree
# computed
RESULTS = """
import hashlib, json, sys
from dataclasses import asdict, replace
import numpy as np
import randova as rv
from randova.enumeration import assignment_stream
from randova.inference import _staged

def table(source):
    if source.endswith(".json"):
        return rv.load_table(source)
    return rv.load_bundled_table(source)

def summary(table, space):
    try:
        s = rv.exact_distribution(replace(table, technical_error_sd=0.0), space)
    except rv.RandovaError as error:
        return f"{type(error).__name__}: {error}"
    columns = {
        name: [column.dtype.str, hashlib.sha256(column.tobytes()).hexdigest()]
        for name, column in [("f_stat", s.f_stat), ("s0_sq", s.s0_sq), ("s1_sq", s.s1_sq),
                             ("counts", s.counts), ("cumulative", s.cumulative)]
    }
    return [columns, s.design.value, s.mean_s0.hex(), s.mean_s1.hex(), s.is_exact,
            s.assignment_count, s.df_treatment, s.df_residual]

def staging(table, space):
    try:
        chunks, count, is_exact = _staged(table, space)
    except rv.RandovaError as error:
        return f"{type(error).__name__}: {error}"
    digest = hashlib.sha256()
    for perms, index in chunks:
        for array in (*perms, index):
            digest.update(f"{array.dtype.str} {array.shape}".encode())
            digest.update(array.tobytes())
    return [digest.hexdigest(), count, is_exact]

def study(table):
    noisy = replace(table, technical_error_sd=0.5)
    report = rv.monte_carlo_with_errors(noisy, replications=50, seed=3, keep_replications=True)
    return {key: value.hex() if isinstance(value, float) else
            [p.hex() for p in value] if isinstance(value, tuple) else value
            for key, value in asdict(report).items()}

def single(table):
    stream, _, _ = assignment_stream(table, rv.RandomizationSpace.sample(20, seed=1))
    return [[a.s0_sq.hex(), a.s1_sq.hex(), a.f_stat.hex()]
            for a in (rv.anova(rv.observe(table, draw)) for draw in stream)]

def zeros(design, num_blocks, num_treatments):
    rows = num_treatments if design == "ls" else num_blocks
    return rv.PotentialOutcomeTable(design, np.zeros((rows, num_treatments, num_treatments)))

EXACT = rv.RandomizationSpace.exact()
SAMPLED = rv.RandomizationSpace.sample(5, seed=1)

def refused(call):
    try:
        result = eval(call)
    except Exception as error:
        return f"{type(error).__name__}: {error}"
    return f"returned {type(result).__name__}"

results = {}
for label, source, mc in json.loads(sys.argv[1]):
    t = table(source)
    if mc:
        results[f"MonteCarloReport {label}"] = study(t)
    else:
        results[f"summary {label} exact"] = summary(t, rv.RandomizationSpace.exact())
        results[f"summary {label} sampled"] = summary(
            t, rv.RandomizationSpace.sample(3000, seed=1)
        )
        results[f"anova {label}"] = single(t)
        results[f"staging {label} exact"] = staging(t, rv.RandomizationSpace.exact())
        results[f"staging {label} sampled"] = staging(
            t, rv.RandomizationSpace.sample(3000, seed=1)
        )
for call in json.loads(sys.argv[2]):
    results[f"refused {call}"] = refused(call)
print(json.dumps(results))
"""


def _env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("RANDOVA_ENUM_CAP", None)
    return env


def run_job(src: Path, argv: tuple[str, ...], cwd: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `python -m randova *argv` on the tree's src."""
    result = subprocess.run(
        [sys.executable, "-m", "randova", *argv],
        capture_output=True, text=True, env=_env(src), cwd=cwd,
    )
    return result.returncode, result.stdout, result.stderr


def library_results(src: Path, cases: list[tuple[str, str, bool]], cwd: Path) -> dict:
    """What the tree's library computes for each case and gives for each
    call in REFUSED (`RESULTS`)."""
    result = subprocess.run(
        [sys.executable, "-c", RESULTS, json.dumps(cases), json.dumps(REFUSED)],
        capture_output=True, text=True, env=_env(src), cwd=cwd, check=True,
    )
    return json.loads(result.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = (Path(d).resolve() / "src" for d in argv)
    for src in (parent, change):
        if not (src / "randova").is_dir():
            print(f"error: no src/randova in {src.parent}", file=sys.stderr)
            return 2
    checks = differ = 0

    def report(label: str, diffs: list[str]) -> None:
        nonlocal checks, differ
        print(f"{'differ' if diffs else 'same'}  {label}"
              + (f" ({', '.join(diffs)})" if diffs else ""), flush=True)
        checks += 1
        differ += bool(diffs)

    cases = [(name, name, False) for name in ("table1", "table2", "table3", "table4")]
    cases.append(("table4", "table4", True))
    with tempfile.TemporaryDirectory() as work:
        for workload in WORKLOADS:
            for seed in SEEDS:
                table_dir = Path(work) / f"{workload}-{seed}"
                table_dir.mkdir()
                for job in make_jobs(workload, seed, FULL, table_dir, change):
                    before = run_job(parent, job.argv, Path(work))
                    after = run_job(change, job.argv, Path(work))
                    report(
                        f"{workload} seed {seed}: {job.argv[0]} {Path(job.table).name}",
                        [what for what, a, b in zip(("exit code", "stdout", "stderr"), before, after)
                         if a != b],
                    )
                    label = f"{workload} seed {seed} {Path(job.table).name}"
                    if Path(job.table).name != "table4.json":
                        cases.append((label, job.table, False))
                    if job.kind == "mc" and job.design == "rcb":
                        cases.append((label, job.table, True))
        before = library_results(parent, cases, Path(work))
        after = library_results(change, cases, Path(work))
        for label in sorted(before.keys() | after.keys()):
            report(label, [] if before.get(label) == after.get(label) else ["result"])
    print(f"{differ} of {checks} checks differ" if differ
          else f"all {checks} checks gave the same results")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
