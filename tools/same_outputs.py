"""Check that two source trees give the same CLI output on the benchmark jobs.

    python tools/same_outputs.py PARENT_DIR CHANGE_DIR

Writes the tables of both perfbench workloads at seeds 1 and 2 with
`perfbench.workloads.make_jobs` (full size, into a temporary directory), runs
each of the six jobs once with each tree's `src/` and compares stdout, stderr
and the exit code.  Prints one line per job and exits 1 when any of the three
differ, 2 when a directory holds no `src/randova`.  Run it from any
directory; the tables are written once and read by both trees.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import FULL, WORKLOADS, make_jobs  # noqa: E402

SEEDS = (1, 2)


def run_job(src: Path, argv: tuple[str, ...], cwd: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `python -m randova *argv` on the tree's src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("RANDOVA_ENUM_CAP", None)
    result = subprocess.run(
        [sys.executable, "-m", "randova", *argv],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    return result.returncode, result.stdout, result.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = (Path(d).resolve() / "src" for d in argv)
    for src in (parent, change):
        if not (src / "randova").is_dir():
            print(f"error: no src/randova in {src.parent}", file=sys.stderr)
            return 2
    jobs = differ = 0
    with tempfile.TemporaryDirectory() as work:
        for workload in WORKLOADS:
            for seed in SEEDS:
                table_dir = Path(work) / f"{workload}-{seed}"
                table_dir.mkdir()
                for job in make_jobs(workload, seed, FULL, table_dir, change):
                    before = run_job(parent, job.argv, Path(work))
                    after = run_job(change, job.argv, Path(work))
                    diffs = [
                        what
                        for what, a, b in zip(("exit code", "stdout", "stderr"), before, after)
                        if a != b
                    ]
                    label = f"{workload} seed {seed}: {job.argv[0]} {Path(job.table).name}"
                    print(f"{'differ' if diffs else 'same'}  {label}"
                          + (f" ({', '.join(diffs)})" if diffs else ""), flush=True)
                    jobs += 1
                    differ += bool(diffs)
    print(f"{differ} of {jobs} jobs differ" if differ
          else f"all {jobs} jobs gave the same exit code, stdout and stderr")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
