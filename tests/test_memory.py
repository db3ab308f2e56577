"""Memory guards on the exact and sampled paths, by peak bytes traced with
tracemalloc.

Each case runs in a fresh interpreter, so the table caches start cold and
the peak counts only the call under test.  Traced bytes are numpy buffers
and Python objects, independent of the allocator and the host, unlike RSS.
"""

import json
import os
import subprocess
import sys

PEAK = """
import json, tracemalloc
import numpy as np
import randova as rv
from randova.enumeration import _latin_square_rows
{setup}
tracemalloc.start()
result = {call}
print(json.dumps({{"peak": tracemalloc.get_traced_memory()[1]}}))
"""


def traced_peak(call, setup=""):
    """Peak traced bytes of evaluating `call` in a fresh interpreter."""
    code = PEAK.format(setup=setup, call=call)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True
    ).stdout
    return json.loads(out)["peak"]


def test_order_five_latin_square_table_build():
    # the 1,344 squares with an identity first row, renamed by each of the
    # 120 permutations: measured 0.98 MB (numpy 2.4), against 0.8 MB kept;
    # bound = measured + 30%.  Growing every square four rows deep, 4,096
    # rectangles at a time, peaked at 2.0 MB, each rectangle level in one
    # piece at 17.2 MB, and keeping every square as int64 grids at 64.7 MB.
    assert traced_peak("_latin_square_rows(5)") < 1.3 * 0.98e6


def test_exact_rcb_4x4_aggregation_per_assignment():
    # an integer RCB 4x4 (331,776 assignments, 329,262 atoms): measured 41.4
    # bytes per assignment (numpy 2.4), no step holding more than the four
    # kept columns (32 per atom) and about one more, as each column is
    # gathered into the support's order on its own; bound = 42, so that one
    # more column at any step fails it.  Gathering F, S0^2, S1^2 and the
    # counts each next to its old copy and the sort order took 47.7,
    # np.unique atom ranks and a second copy of the columns about 82, and
    # holding every full-length array to the end 154.
    setup = (
        "x = np.round(np.random.default_rng(5).normal(20.0, 15.0, size=(4, 4, 4)))\n"
        "table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)\n"
    )
    peak = traced_peak("rv.exact_distribution(table)", setup)
    assert peak / 331_776 < 42.0


def test_first_query_of_an_exact_rcb_4x4_summary():
    # the first probability_f_above on the integer RCB 4x4's summary builds
    # the cumulative counts (329,263 int64) in one array: measured 7.9 bytes
    # per assignment (numpy 2.4), on top of the summary's columns; bound =
    # measured + 30%.  A cumsum concatenated after a zero peaked at 15.9.
    setup = (
        "x = np.round(np.random.default_rng(5).normal(20.0, 15.0, size=(4, 4, 4)))\n"
        "summary = rv.exact_distribution(rv.PotentialOutcomeTable(rv.DesignKind.RCB, x))\n"
    )
    peak = traced_peak("summary.probability_f_above(3.0)", setup)
    assert peak / 331_776 < 1.3 * 7.9


def test_exact_ls_5_distribution_per_assignment():
    # a float LS of order 5 (161,280 squares), building the square table in
    # the call: measured 47.0 bytes per assignment (numpy 2.4), the square
    # table beside an aggregation that holds the four kept columns and about
    # one more; bound = 47.5, so that one more column at any step fails it.
    # Gathering the columns into the support's order next to their old
    # copies took 53.1, and before the table was grown in blocks and the
    # aggregation sorted once per column, 106.9.
    setup = (
        "x = np.random.default_rng(6).normal(20.0, 15.0, size=(5, 5, 5))\n"
        "table = rv.PotentialOutcomeTable(rv.DesignKind.LS, x)\n"
    )
    peak = traced_peak("rv.exact_distribution(table)", setup)
    assert peak / 161_280 < 47.5


def test_sampled_rcb_3x10_distribution():
    # a float RCB 3x10 over 200,000 seeded draws, each chunk of the stream
    # staged, tabled and scored on its own, its rows keyed one at a time,
    # then aggregated as the exact spaces are: measured 8.36 MB (numpy 2.4);
    # bound = measured + 30%.  Gathering the support's columns next to their
    # old copies peaked at 9.62 MB, keying every row at once at 10.8 MB, and
    # staging the whole stream and tabling every distinct row permutation at
    # once at 145.2 MB.
    setup = (
        "x = np.random.default_rng(1).normal(20.0, 15.0, size=(3, 10, 10))\n"
        "table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)\n"
    )
    peak = traced_peak(
        "rv.exact_distribution(table, rv.RandomizationSpace.sample(200_000, seed=1))", setup
    )
    assert peak < 1.3 * 8.36e6


def test_sampled_rcb_3x7_monte_carlo():
    # the Monte Carlo study over 100,000 seeded draws of a float RCB 3x7:
    # each row's 7! = 5,040 permutations recur from chunk to chunk, and its
    # tables keep them once: measured 6.4 MB (numpy 2.4); bound = measured +
    # 30%.  Keeping every chunk's permutations side by side, repeats
    # included, peaked at 52.7 MB.
    setup = (
        "x = np.random.default_rng(7).normal(20.0, 15.0, size=(3, 7, 7))\n"
        "table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x, technical_error_sd=1.0)\n"
    )
    peak = traced_peak(
        "rv.monte_carlo_with_errors(table, replications=2, seed=1,"
        " space=rv.RandomizationSpace.sample(100_000, seed=1))",
        setup,
    )
    assert peak < 1.3 * 6.4e6


def test_monte_carlo_replications():
    # 5,000 replications on a float RCB 3x3 (216 assignments, 75 replications
    # a group, scored 4,096 evaluations a kernel call): measured 1.00 MB
    # (numpy 2.4); bound = measured + 30%.  Scoring a whole group of 16,200
    # evaluations a call peaked at 1.96 MB, and spawning every replication's
    # SeedSequence before the first group, about 400 bytes each, at 3.79 MB.
    setup = (
        "x = np.random.default_rng(3).normal(20.0, 15.0, size=(3, 3, 3))\n"
        "table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x, technical_error_sd=1.0)\n"
    )
    peak = traced_peak("rv.monte_carlo_with_errors(table, replications=5_000, seed=1)", setup)
    assert peak < 1.3 * 1.00e6


def test_monte_carlo_table4():
    # 2,000 replications on table4, an LS of order 4 (576 squares, 28
    # replications a group), scored 4,096 evaluations a kernel call:
    # measured 2.20 MB (numpy 2.4); bound = measured + 30%.  Scoring a whole
    # group of 16,128 evaluations a call, two (9, 16,128) float64 arrays of
    # column sums and squares, peaked at 3.92 MB.
    setup = (
        "from dataclasses import replace\n"
        "table = replace(rv.load_bundled_table('table4'), technical_error_sd=0.5)\n"
    )
    peak = traced_peak("rv.monte_carlo_with_errors(table, replications=2_000, seed=1)", setup)
    assert peak < 1.3 * 2.20e6


def test_sampled_rcb_20x5_distribution():
    # a float RCB 20x5 over 20,000 seeded draws: the sampler draws its keys
    # 655 draws at a time and the staging fills each chunk's uint8 labels
    # from them 81 grids (64 KB of int64) a slice, a row keyed at a time:
    # measured 2.45 MB (numpy 2.4); bound = measured + 30%.  Slices of 655
    # grids, which straddle two of the sampler's blocks and so held both
    # while a third was drawn, peaked at 3.12 MB, keying every row at once
    # at 3.33 MB, and drawing, argsorting and copying whole chunks as int64
    # at 11.0 MB.
    setup = (
        "x = np.random.default_rng(1).normal(20.0, 15.0, size=(20, 5, 5))\n"
        "table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)\n"
    )
    peak = traced_peak(
        "rv.exact_distribution(table, rv.RandomizationSpace.sample(20_000, seed=1))", setup
    )
    assert peak < 1.3 * 2.45e6


def test_label_chunk_of_a_sampled_rcb_20x5():
    # one chunk of 4,096 seeded RCB 20x5 draws, drawn before the trace and
    # each dropped once it is read: the uint8 chunk (409,600 bytes) and one
    # slice of 81 grids joined by their bytes (64,800 <= 64 KB of int64),
    # with the buffer views the join takes of its grids (about 190 bytes a
    # grid): measured 489,953 (numpy 2.4); bound = the chunk plus 1.3 times
    # one 64 KB slice.  Holding the last slice's bytes while the next was
    # joined peaked at 554,882, and slices of 512 KB at 1,039,617.
    setup = (
        "from collections import deque\n"
        "from randova.enumeration import assignment_stream\n"
        "from randova.inference import _label_chunks\n"
        "x = np.random.default_rng(1).normal(20.0, 15.0, size=(20, 5, 5))\n"
        "table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)\n"
        "space = rv.RandomizationSpace.sample(4096, seed=1)\n"
        "drawn = deque(assignment_stream(table, space)[0])\n"
        "stream = (drawn.popleft() for _ in range(len(drawn)))\n"
    )
    peak = traced_peak("next(_label_chunks(stream))", setup)
    assert peak < 4096 * 20 * 5 + 1.3 * 2**16


def test_latin_square_8_sampler_chunk():
    # one chunk of 4,096 Jacobson-Matthews chains of order 8, streamed by
    # assignment_stream and run to the end, drawing the integers of 16 moves
    # per generator call, the squares kept in the tables' int8 until the
    # chunk is yielded: measured 8.24 MB (numpy 2.4); bound = 1.3 x 8.25 MB,
    # the sampler's peak when it was called on its own.  Keeping them as
    # int64 peaked at 10.1 MB, and drawing 64 moves per call at 24.8 MB.
    setup = (
        "from randova.enumeration import assignment_stream\n"
        "table = rv.PotentialOutcomeTable(rv.DesignKind.LS, np.zeros((8, 8, 8)))\n"
        "space = rv.RandomizationSpace.sample(4096, seed=1)\n"
    )
    peak = traced_peak("sum(1 for _ in assignment_stream(table, space)[0])", setup)
    assert peak < 1.3 * 8.25e6
