"""Seeded workload tables and the randova CLI jobs that each workload runs.

A workload is a list of CLI jobs. Its tables come from the workload seed
alone, so the same seed gives byte-identical table files. Float tables are
Normal(20, 15), the distribution of the test suite's random tables; the
exact RCB table is the same draw rounded to integers, so it has the
property an exact-integer path needs, while the exact LS table is the float
case without it. ``mc_sampled`` also runs the bundled ``table4`` byte for
byte.

The two workloads put their time in different layers (see README.md):
``exact`` in LS and RCB enumeration, the support query and aggregation;
``mc_sampled`` in the ANOVA batch kernels and the two samplers, which
``exact`` never runs.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("exact", "mc_sampled")

# Latin-square counts of the orders the workloads enumerate.
LATIN_SQUARES = {3: 12, 4: 576, 5: 161280}


@dataclass(frozen=True)
class Sizes:
    """Table shapes, draw counts and set-up probes per round; FULL is the benchmark, TINY the smoke test."""

    ls_order: int
    rcb_shape: tuple[int, int]
    mc_table4_reps: int
    mc_rcb_shape: tuple[int, int]
    mc_rcb_reps: int
    sampled_ls_order: int
    sampled_ls_draws: int
    sampled_rcb_shape: tuple[int, int]
    sampled_rcb_draws: int
    setup_probes: int


FULL = Sizes(
    ls_order=5,
    rcb_shape=(4, 4),
    mc_table4_reps=2000,
    mc_rcb_shape=(3, 4),
    mc_rcb_reps=200,
    sampled_ls_order=8,
    sampled_ls_draws=1000,
    sampled_rcb_shape=(20, 5),
    sampled_rcb_draws=20000,
    setup_probes=2,
)

TINY = Sizes(
    ls_order=4,
    rcb_shape=(3, 3),
    mc_table4_reps=20,
    mc_rcb_shape=(2, 3),
    mc_rcb_reps=5,
    sampled_ls_order=5,
    sampled_ls_draws=20,
    sampled_rcb_shape=(4, 3),
    sampled_rcb_draws=50,
    setup_probes=1,
)


@dataclass(frozen=True)
class Job:
    """One randova CLI invocation and what it evaluates."""

    argv: tuple[str, ...]
    kind: str  # "exact", "mc" or "sampled"
    design: str  # "rcb" or "ls"
    blocks: int
    treatments: int
    space_size: int | None  # assignments in the full space, when enumerable
    evaluations: int  # ANOVA evaluations: space size, draws, or reps x space size

    @property
    def table(self) -> str:
        return self.argv[1]


def space_size(design: str, blocks: int, treatments: int) -> int | None:
    if design == "rcb":
        return math.factorial(treatments) ** blocks
    return LATIN_SQUARES.get(treatments)


def _write_table(path: Path, design: str, x: np.ndarray, name: str) -> str:
    doc = {"design": design, "treatments": int(x.shape[2])}
    if design == "rcb":
        doc["blocks"] = int(x.shape[0])
    doc["outcomes"] = x.tolist()
    doc["technical_error_sd"] = 0.0
    doc["name"] = name
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def _float_table(rng: np.random.Generator, blocks: int, treatments: int) -> np.ndarray:
    return rng.normal(20.0, 15.0, size=(blocks, treatments, treatments))


def _job(argv: list[str], kind: str, design: str, blocks: int, treatments: int,
         draws: int | None = None, reps: int = 1) -> Job:
    size = space_size(design, blocks, treatments)
    evaluations = draws if kind == "sampled" else reps * size
    return Job(tuple(argv), kind, design, blocks, treatments, size, evaluations)


def make_jobs(workload: str, seed: int, sizes: Sizes, table_dir: Path,
              src_dir: Path) -> list[Job]:
    """Write the workload's tables for this seed into table_dir; return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng(seed)
    tag = f"{workload}-{seed}"
    jobs: list[Job] = []
    if workload == "exact":
        t = sizes.ls_order
        path = _write_table(table_dir / "ls.json", "ls", _float_table(rng, t, t), f"{tag}-ls{t}")
        jobs.append(_job(["curve", path], "exact", "ls", t, t))
        n, t = sizes.rcb_shape
        x = np.rint(_float_table(rng, n, t)).astype(np.int64)
        path = _write_table(table_dir / "rcb.json", "rcb", x, f"{tag}-rcb{n}x{t}")
        jobs.append(_job(["type1", path], "exact", "rcb", n, t))
        return jobs
    table4 = table_dir / "table4.json"
    shutil.copyfile(src_dir / "randova" / "data" / "table4.json", table4)
    reps = sizes.mc_table4_reps
    jobs.append(_job(
        ["mc", str(table4), "--reps", str(reps), "--sigma-eps", "0.01", "--seed", "7"],
        "mc", "ls", 4, 4, reps=reps,
    ))
    n, t = sizes.mc_rcb_shape
    path = _write_table(table_dir / "mc_rcb.json", "rcb", _float_table(rng, n, t), f"{tag}-rcb{n}x{t}")
    reps = sizes.mc_rcb_reps
    jobs.append(_job(
        ["mc", path, "--reps", str(reps), "--sigma-eps", "0.01", "--seed", str(seed)],
        "mc", "rcb", n, t, reps=reps,
    ))
    t, draws = sizes.sampled_ls_order, sizes.sampled_ls_draws
    path = _write_table(table_dir / "sampled_ls.json", "ls", _float_table(rng, t, t), f"{tag}-ls{t}")
    jobs.append(_job(
        ["type1", path, "--sample", str(draws), "--seed", str(seed)],
        "sampled", "ls", t, t, draws=draws,
    ))
    (n, t), draws = sizes.sampled_rcb_shape, sizes.sampled_rcb_draws
    path = _write_table(table_dir / "sampled_rcb.json", "rcb", _float_table(rng, n, t), f"{tag}-rcb{n}x{t}")
    jobs.append(_job(
        ["type1", path, "--sample", str(draws), "--seed", str(seed)],
        "sampled", "rcb", n, t, draws=draws,
    ))
    return jobs
