"""Tests of the benchmark itself, at tiny sizes."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, oracle, run, tracing, workloads  # noqa: E402
from perfbench.spawner import Spawner  # noqa: E402


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    with Spawner() as spawner:
        yield harness.Bench(ROOT, tmp_path_factory.mktemp("work"), spawner, sizes=workloads.TINY)


def test_same_seed_gives_byte_identical_tables(tmp_path):
    for workload in workloads.WORKLOADS:
        first, second = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        first.mkdir()
        second.mkdir()
        jobs = workloads.make_jobs(workload, 5, workloads.FULL, first, ROOT / "src")
        workloads.make_jobs(workload, 5, workloads.FULL, second, ROOT / "src")
        for path in first.iterdir():
            assert path.read_bytes() == (second / path.name).read_bytes()
        assert all(job.table.startswith(str(first)) for job in jobs)


def test_full_sizes_are_the_named_ones(tmp_path):
    from randova import load_table

    shapes = {}
    for workload in workloads.WORKLOADS:
        directory = tmp_path / workload
        directory.mkdir()
        for job in workloads.make_jobs(workload, 1, workloads.FULL, directory, ROOT / "src"):
            shapes.setdefault(workload, []).append((job.argv[0], load_table(job.table).outcomes.shape))
    assert shapes == {
        "exact": [("curve", (5, 5, 5)), ("type1", (4, 4, 4))],
        "mc_sampled": [("mc", (4, 4, 4)), ("mc", (3, 4, 4)), ("type1", (8, 8, 8)), ("type1", (20, 5, 5))],
    }
    table4 = tmp_path / "mc_sampled" / "table4.json"
    assert table4.read_bytes() == (ROOT / "src" / "randova" / "data" / "table4.json").read_bytes()
    rcb = load_table(str(tmp_path / "exact" / "rcb.json")).outcomes
    assert all(float(v).is_integer() for v in rcb.ravel())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced(bench, workload):
    result = bench.run(workload, 3, 0.5, trace=False)
    assert result.checks.failed == []
    assert result.failed == 0 and result.attempted > 0
    assert len(result.round_walls) >= 1
    values, _ = run.end_to_end(result)
    assert set(values) == set(run.END_TO_END)
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced(bench, workload):
    result = bench.run(workload, 3, 0.0, trace=True)
    assert result.checks.failed == []
    assert result.failed == 0
    layers = result.layers
    assert set(run.PER_LAYER) <= set(layers)
    self_times = sum(layers[name] for name in tracing.LAYER_TIMES)
    assert math.isclose(self_times, layers["trace.total_s"], rel_tol=1e-9)
    assert layers["anova.assignments"] == sum(job.evaluations for job in result.jobs)
    if workload == "exact":
        space = sum(job.space_size for job in result.jobs)
        assert layers["enumeration.assignments"] == space
        assert layers["inference.assignments"] == space


def test_oracle_catches_a_wrong_probability(tmp_path):
    from randova import load_table

    _, job = workloads.make_jobs("exact", 2, workloads.TINY, tmp_path, ROOT / "src")
    table = load_table(job.table)
    labels = oracle.rcb_assignments(job.blocks, job.treatments)
    counts = oracle.FCounts(oracle.f_values(*oracle.mean_squares("rcb", table.outcomes, labels)))
    cutoff = 2.0
    above, near = counts.above(cutoff)
    for shift, ok in ((0, True), (near + 1, False)):
        log = oracle.CheckLog()
        report = {"rejection_probability": (above + shift) / counts.size, "cutoff": cutoff}
        oracle.check_exact(log, job, table, report)
        assert (log.failed == []) is ok


def test_in_process_check_catches_a_repeated_assignment(tmp_path):
    from randova import load_table

    _, job = workloads.make_jobs("exact", 2, workloads.TINY, tmp_path, ROOT / "src")
    log = oracle.CheckLog()
    oracle.check_in_process(log, job, load_table(job.table), {}, [], [], job.space_size, job.space_size - 1)
    assert any(f.startswith("the exact stream yields no assignment twice") for f in log.failed)


def test_oracle_spaces_have_the_known_sizes():
    for order, count in workloads.LATIN_SQUARES.items():
        squares = oracle.latin_squares(order)
        assert len(squares) == count == len({s.tobytes() for s in squares})
        symbols = np.arange(order)
        assert (np.sort(squares, axis=1) == symbols[:, None]).all()
        assert (np.sort(squares, axis=2) == symbols).all()
    assert oracle.rcb_assignments(3, 3).shape == (216, 3, 3)


def test_wall_ref_divides_each_round_by_its_reference_loads():
    run = harness.Run("w", jobs=[], round_walls=[6.0, 9.0, 8.0],
                      round_refs=[[1.0, 3.0], [3.0], [2.0, 1.0, 3.0]])
    assert run.wall_ref == 3.0  # the median of 6 / 2, 9 / 3 and 8 / 2


def test_reference_loads_add_up_to_their_share_of_the_round(bench):
    result = bench.run("mc_sampled", 3, 0.0, trace=False)
    (refs,) = result.round_refs
    assert sum(refs) >= harness.REF_SHARE * result.round_walls[0]
    assert sum(refs[1:]) - max(refs) < harness.REF_SHARE * result.round_walls[0]


def test_tail_names_the_percentile_with_ten_rounds_beyond_it():
    assert harness.tail([float(v) for v in range(1, 21)]) == ("p50", 10.5)
    assert harness.tail([3.0, 1.0, 2.0]) == ("max", 3.0)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_sampled", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
