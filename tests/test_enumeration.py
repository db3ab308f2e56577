import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import randova as rv
from randova.enumeration import _latin_square_rows, _permutation_table, assignment_stream
from helpers import (
    count_latin_squares_bruteforce,
    cube_latin_squares,
    exact_stream,
    grid_key,
    latin_square_grids,
    sampled_stream,
    zero_table,
)


def intercalate_counts(squares):
    """Intercalates (2x2 Latin subsquares) of each square of an (S, T, T) stack."""
    order = squares.shape[1]
    counts = np.zeros(len(squares), dtype=np.int64)
    for i, k in itertools.combinations(range(order), 2):
        for j, m in itertools.combinations(range(order), 2):
            same_diagonals = squares[:, i, j] == squares[:, k, m]
            counts += same_diagonals & (squares[:, i, m] == squares[:, k, j])
    return counts


class TestEnumerateRcb:
    def test_two_blocks_two_treatments(self):
        assignments = list(exact_stream("rcb", 2, 2))
        assert len(assignments) == 4
        keys = [grid_key(a) for a in assignments]
        assert keys == [
            ((0, 1), (0, 1)),
            ((0, 1), (1, 0)),
            ((1, 0), (0, 1)),
            ((1, 0), (1, 0)),
        ]

    def test_single_block_starts_at_identity(self):
        assignments = list(exact_stream("rcb", 1, 3))
        assert len(assignments) == 6
        assert grid_key(assignments[0]) == ((0, 1, 2),)

    def test_four_blocks_three_treatments_all_distinct(self):
        keys = {grid_key(a) for a in exact_stream("rcb", 4, 3)}
        assert len(keys) == 6**4 == rv.space_cardinality(rv.DesignKind.RCB, 4, 3)

    def test_every_assignment_is_a_per_block_bijection(self):
        for assignment in exact_stream("rcb", 3, 3):
            assert assignment.is_valid()

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv(rv.enumeration.ENUM_CAP_ENV_VAR, "100")
        with pytest.raises(rv.SpaceTooLarge):
            exact_stream("rcb", 3, 3)

    @pytest.mark.parametrize("sizes", [(300, 20), (100000, 30)])
    def test_huge_space_refused_without_building_its_size(self, sizes):
        # (20!)^300 has more digits than Python writes out of an int, and
        # (30!)^100000 took seconds to build
        start = time.perf_counter()
        with pytest.raises(rv.SpaceTooLarge, match=r"\(\d+!\)\^\d+ assignments, above the cap"):
            exact_stream("rcb", *sizes)
        with pytest.raises(rv.SpaceTooLarge, match="more than 4300 digits"):
            rv.space_cardinality(rv.DesignKind.RCB, *sizes)
        assert time.perf_counter() - start < 1.0

    def test_space_at_the_cap_is_enumerated(self, monkeypatch):
        monkeypatch.setenv(rv.enumeration.ENUM_CAP_ENV_VAR, "1296")
        assert len(list(exact_stream("rcb", 4, 3))) == 1296
        with pytest.raises(rv.SpaceTooLarge, match=r"\(3!\)\^5 assignments"):
            exact_stream("rcb", 5, 3)

    @pytest.mark.parametrize("blocks,treatments", [(2, 3), (3, 3), (1, 4)])
    def test_itertools_product_order(self, blocks, treatments):
        want = list(
            itertools.product(itertools.permutations(range(treatments)), repeat=blocks)
        )
        got = [grid_key(a) for a in exact_stream("rcb", blocks, treatments)]
        assert got == want

    def test_itertools_product_order_over_several_chunks(self, monkeypatch):
        monkeypatch.setattr(rv.enumeration, "_CHUNK", 7)
        want = list(itertools.product(itertools.permutations(range(3)), repeat=3))
        assert [grid_key(a) for a in exact_stream("rcb", 3, 3)] == want

    def test_one_treatment_in_more_blocks_than_numpy_dimensions(self):
        # a single assignment, each block's one digit 0, in 100 blocks
        (assignment,) = exact_stream("rcb", 100, 1)
        assert assignment.grid.shape == (100, 1) and not assignment.grid.any()

    def test_grids_are_read_only_int64(self):
        for a in exact_stream("rcb", 2, 3):
            assert a.grid.dtype == np.int64
            assert not a.grid.flags.writeable

    def test_enumerated_assignments_are_what_the_constructor_builds(self):
        stream = itertools.chain(exact_stream("rcb", 2, 3), exact_stream("ls", 3, 3))
        for a in stream:
            built = rv.Assignment(a.design, a.grid)
            assert vars(a).keys() == vars(built).keys()
            assert built == a and hash(built) == hash(a)
            # the constructor keeps a read-only copy of the grid it is given
            assert built.grid is not a.grid
            assert built.grid.dtype == np.int64 and not built.grid.flags.writeable

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv(rv.enumeration.ENUM_CAP_ENV_VAR, "5")
        assert len(list(exact_stream("rcb", 2, 2))) == 4
        with pytest.raises(rv.SpaceTooLarge):
            exact_stream("rcb", 3, 2)


class TestEnumerateLatinSquares:
    @pytest.mark.parametrize("order,count", [(1, 1), (2, 2), (3, 12), (4, 576)])
    def test_counts(self, order, count):
        squares = list(exact_stream("ls", order, order))
        assert len(squares) == count
        assert len({grid_key(a) for a in squares}) == count
        assert all(a.is_valid() for a in squares)

    def test_every_order_five_square_is_valid(self):
        count = 0
        for square in exact_stream("ls", 5, 5):
            assert square.is_valid()
            count += 1
        assert count == 161280

    @pytest.mark.parametrize("order", [3, 4])
    def test_against_independent_counting_oracle(self, order):
        assert count_latin_squares_bruteforce(order) == rv.space_cardinality(
            rv.DesignKind.LS, order, order
        )

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_matches_the_backtracking_oracle_in_order(self, order):
        want = np.array(list(latin_square_grids(order)))
        got = np.array([a.grid.ravel() for a in exact_stream("ls", order, order)])
        count = rv.space_cardinality(rv.DesignKind.LS, order, order)
        assert got.shape == want.shape == (count, order * order)
        assert (got == want).all()

    def test_import_does_not_build_the_table(self):
        code = (
            "import numpy as np\n"
            "import randova\n"
            "from randova.enumeration import _latin_square_rows, assignment_stream\n"
            "assert _latin_square_rows.cache_info().currsize == 0\n"
            "table = randova.PotentialOutcomeTable('ls', np.zeros((3, 3, 3)))\n"
            "stream, _, _ = assignment_stream(table, randova.RandomizationSpace.exact())\n"
            "assert _latin_square_rows.cache_info().currsize == 0\n"
            "next(stream)\n"
            "assert _latin_square_rows.cache_info().currsize == 1\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_order_five_is_kept_as_uint8_permutation_indices(self):
        rows = _latin_square_rows(5)
        assert rows.shape == (161280, 5) and rows.dtype == np.uint8
        assert not rows.flags.writeable
        assert rows.nbytes == 806_400

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_rows_index_the_enumerated_squares(self, order):
        rows = _latin_square_rows(order)
        assert len(rows) == rv.space_cardinality(rv.DesignKind.LS, order, order)
        assert rows.dtype == np.uint8 and not rows.flags.writeable
        got = np.array([a.grid for a in exact_stream("ls", order, order)])
        assert (got == _permutation_table(order)[rows]).all()

    def test_row_major_lexicographic_order(self):
        flats = [sum(grid_key(a), ()) for a in exact_stream("ls", 3, 3)]
        assert flats == sorted(flats)

    def test_order_above_five_requires_sampling(self):
        with pytest.raises(rv.SpaceTooLarge):
            exact_stream("ls", 6, 6)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv(rv.enumeration.ENUM_CAP_ENV_VAR, "100")
        with pytest.raises(rv.SpaceTooLarge):
            exact_stream("ls", 4, 4)

    def test_cardinality_helpers(self):
        assert rv.space_cardinality(rv.DesignKind.RCB, 3, 4) == 24**3
        assert rv.space_cardinality(rv.DesignKind.LS, 5, 5) == 161280
        assert rv.space_cardinality(rv.DesignKind.LS, 6, 6) is None


class TestSampling:
    def test_rcb_deterministic_given_seed(self):
        a = [grid_key(x) for x in sampled_stream("rcb", 3, 3, 50, 11)]
        b = [grid_key(x) for x in sampled_stream("rcb", 3, 3, 50, 11)]
        c = [grid_key(x) for x in sampled_stream("rcb", 3, 3, 50, 12)]
        assert a == b
        assert a != c

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_is_refused(self, count):
        # at the call, with the message of a sampled RandomizationSpace
        for sample in (lambda: sampled_stream("rcb", 2, 2, count, 1),
                       lambda: sampled_stream("ls", 4, 4, count, 1)):
            with pytest.raises(rv.InvalidArgument, match="sample size must be an integer >= 1"):
                sample()

    def test_rcb_frequencies_match_exact_enumeration(self):
        # 4 equally likely assignments; 0.25 +- 0.02 with 4000 draws
        counts: dict = {}
        for a in sampled_stream("rcb", 2, 2, 4000, 2024):
            counts[grid_key(a)] = counts.get(grid_key(a), 0) + 1
        exact = {grid_key(a) for a in exact_stream("rcb", 2, 2)}
        assert set(counts) == exact
        for key in exact:
            assert counts[key] / 4000 == pytest.approx(0.25, abs=0.02)

    def test_ls_sampler_valid_and_deterministic(self):
        a = [grid_key(x) for x in sampled_stream("ls", 4, 4, 25, 9)]
        b = [grid_key(x) for x in sampled_stream("ls", 4, 4, 25, 9)]
        assert a == b
        for flat in a:
            assert rv.Assignment(rv.DesignKind.LS, np.array(flat)).is_valid()

    def test_ls_frequencies_match_exact_enumeration(self):
        # 12 squares of order 3; 1/12 +- 0.01 with 12000 draws
        counts: dict = {}
        for a in sampled_stream("ls", 3, 3, 12000, 7):
            counts[grid_key(a)] = counts.get(grid_key(a), 0) + 1
        exact = {grid_key(a) for a in exact_stream("ls", 3, 3)}
        assert set(counts) == exact
        for key in exact:
            assert counts[key] / 12000 == pytest.approx(1 / 12, abs=0.01)

    def test_ls_order2_draws_both_squares(self):
        draws = [grid_key(a) for a in sampled_stream("ls", 2, 2, 2000, 2)]
        for square in {grid_key(a) for a in exact_stream("ls", 2, 2)}:
            assert draws.count(square) / 2000 == pytest.approx(0.5, abs=0.05)

    def test_ls_order4_chi_square_over_all_squares(self):
        # 20 expected draws per square; chi^2(575) has mean 575, sd 34 and
        # 0.9999 quantile about 710
        index = {grid_key(a): k for k, a in enumerate(exact_stream("ls", 4, 4))}
        draws = 576 * 20
        counts = np.bincount(
            [index[grid_key(a)] for a in sampled_stream("ls", 4, 4, draws, 4)],
            minlength=576,
        )
        assert ((counts - 20) ** 2 / 20).sum() < 710

    def test_ls_order5_intercalate_shares_match_exact_enumeration(self):
        # of the 161,280 squares 10.71% have no intercalate and the rest 4;
        # chi^2(1) has 0.9999 quantile 15.1
        exact = np.bincount(intercalate_counts(
            np.array([a.grid for a in exact_stream("ls", 5, 5)])
        ))
        assert np.flatnonzero(exact).tolist() == [0, 4]
        draws = 8000
        got = np.bincount(intercalate_counts(
            np.array([a.grid for a in sampled_stream("ls", 5, 5, draws, 5)])
        ), minlength=5)
        assert got.sum() == got[0] + got[4] == draws
        want = exact[[0, 4]] / exact.sum() * draws
        assert ((got[[0, 4]] - want) ** 2 / want).sum() < 15.1

    def test_rcb_two_blocks_joint_chi_square(self):
        # 36 equally likely (block 0, block 1) permutation pairs of 3
        # treatments; chi^2(35) has 0.9999 quantile about 75
        index = {grid_key(a): k for k, a in enumerate(exact_stream("rcb", 2, 3))}
        draws = 36 * 200
        counts = np.bincount(
            [index[grid_key(a)] for a in sampled_stream("rcb", 2, 3, draws, 6)], minlength=36
        )
        assert ((counts - 200) ** 2 / 200).sum() < 75

    def test_ls_cell_marginals(self):
        # each treatment lands in each cell with probability 1/T
        order, draws = 4, 3000
        hits = np.zeros((order, order, order))
        for a in sampled_stream("ls", order, order, draws, 13):
            square = a.grid
            for i in range(order):
                for j in range(order):
                    hits[i, j, square[i, j]] += 1
        freqs = hits / draws
        assert np.abs(freqs - 1 / order).max() < 0.04

    @pytest.mark.parametrize("blocks, treatments, count", [(20, 5, 5_000), (2, 3, 10_000)])
    def test_rcb_draws_are_one_argsort_of_the_seeds_keys(self, blocks, treatments, count):
        # the sampler draws its keys in blocks (655 draws of an RCB 20x5, a
        # chunk of an RCB 2x3), which must not change them
        want = np.random.default_rng(8).random((count, blocks, treatments)).argsort(axis=2)
        got = np.stack([a.grid for a in sampled_stream("rcb", blocks, treatments, count, 8)])
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_every_rcb_draw_is_valid(self):
        draws = list(sampled_stream("rcb", 20, 5, 2000, 5))
        assert len(draws) == 2000
        assert all(a.grid.shape == (20, 5) and a.is_valid() for a in draws)

    @pytest.mark.parametrize("measure", ["all", "subgroup"])
    @pytest.mark.parametrize("order", [1, 5, 8])
    def test_every_ls_draw_is_valid(self, order, measure):
        draws = list(sampled_stream("ls", order, order, 100, order, ls_measure=measure))
        assert len(draws) == 100
        assert all(
            a.grid.shape == (order, order) and a.is_valid() for a in draws
        )

    @pytest.mark.parametrize("burn_in", [0, -5])
    def test_burn_in_below_one_rejected(self, burn_in):
        with pytest.raises(rv.InvalidArgument):
            sampled_stream("ls", 5, 5, 100, 1, burn_in=burn_in)
        with pytest.raises(rv.InvalidArgument):
            rv.RandomizationSpace.sample(100, seed=1, burn_in=burn_in)

    def test_order_one_sampling(self):
        squares = list(sampled_stream("ls", 1, 1, 3, 0))
        assert len(squares) == 3
        assert all(a.grid.shape == (1, 1) for a in squares)


@pytest.mark.parametrize(
    "stream",
    [
        lambda: exact_stream("rcb", 3, 4),
        lambda: exact_stream("ls", 5, 5),
        lambda: sampled_stream("rcb", 20, 5, 5000, 1),
        lambda: sampled_stream("ls", 3, 3, 300, 1),
        lambda: sampled_stream("ls", 6, 6, 300, 1),
        lambda: sampled_stream("ls", 6, 6, 300, 1, ls_measure="subgroup"),
    ],
    ids=["exact-rcb", "exact-ls", "rcb", "ls-orbit", "ls-jacobson-matthews", "ls-subgroup"],
)
def test_every_stream_yields_c_contiguous_int64_grids(stream):
    # the label staging joins the grids by their bytes as int64
    for a in stream():
        assert a.grid.dtype == np.int64 and a.grid.flags.c_contiguous
        assert not a.grid.flags.writeable


class TestLineTableSampler:
    """The Jacobson-Matthews sampler keeps only the position of each line's
    1, in three tables; it must draw the incidence-cube sampler's squares
    (helpers.cube_latin_squares) bit for bit."""

    @staticmethod
    def squares(order, count, seed, burn_in=None):
        burn_in, _ = rv.enumeration.ls_sampler_settings(order, burn_in)
        rng = np.random.default_rng(seed)
        chunks = rv.enumeration._jacobson_matthews_squares(order, count, rng, burn_in)
        return np.concatenate(list(chunks)).reshape(count, order, order)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("order", [4, 5, 6, 7, 8, 9])
    def test_matches_the_cube_sampler(self, order, seed):
        want = cube_latin_squares(order, 40, seed)
        assert np.array_equal(self.squares(order, 40, seed), want)

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("order", [4, 5, 6, 7, 8, 9])
    def test_matches_the_cube_sampler_after_one_move(self, order, seed):
        want = cube_latin_squares(order, 40, seed, burn_in=1)
        assert np.array_equal(self.squares(order, 40, seed, burn_in=1), want)

    @pytest.mark.parametrize("order", [4, 8])
    def test_matches_the_cube_sampler_over_several_chunks(self, monkeypatch, order):
        # chunks of 7, 7, 7, 7 and 2 chains, each shrinking as chains stop
        monkeypatch.setattr(rv.enumeration, "_CHUNK", 7)
        want = cube_latin_squares(order, 30, seed=5)
        assert np.array_equal(self.squares(order, 30, seed=5), want)

    @pytest.fixture
    def emitted(self, monkeypatch):
        """Check the tables of every chain after each run of moves, and
        count the squares emitted.  A proper chain's three tables agree
        (row[c, sym[r, c]] == r, col[r, sym[r, c]] == c); an improper
        chain's tables each hold one of its hole's two 1s on that line."""
        run_moves = rv.enumeration._jacobson_matthews_moves
        counts = []

        def checked_moves(tables, hole, moves, rng):
            hole = run_moves(tables, hole, moves, rng)
            proper = hole[0, 0] < 0
            t = tables.shape[2]
            sym, row, col = np.moveaxis(tables[proper], 1, 0)
            k, r, c = np.arange(len(sym))[:, None, None], np.arange(t)[:, None], np.arange(t)
            assert (row[k, c, sym] == r).all()
            assert (col[k, r, sym] == c).all()
            (s, r, c), lo, hi = hole[..., ~proper]
            sym, row, col = np.moveaxis(tables[~proper], 1, 0)
            k = np.arange(len(s))
            held = np.array([sym[k, r, c], row[k, c, s], col[k, r, s]])
            assert (lo < hi).all()
            assert ((held == lo) | (held == hi)).all()
            counts.append(proper.sum())
            return hole

        monkeypatch.setattr(rv.enumeration, "_jacobson_matthews_moves", checked_moves)
        return counts

    def test_the_three_tables_agree_in_every_emitted_square(self, emitted):
        squares = self.squares(8, 300, seed=7)
        assert sum(emitted) == 300
        assert np.array_equal(squares, cube_latin_squares(8, 300, seed=7))

    @pytest.mark.parametrize("burn_in", [None, 50])
    def test_matches_the_cube_sampler_where_a_table_row_index_exceeds_int8(
        self, emitted, burn_in
    ):
        # order 12: the tables are int8, and an index T * row reaches 132
        got = self.squares(12, 10, seed=6, burn_in=burn_in)
        assert sum(emitted) == 10
        assert np.array_equal(got, cube_latin_squares(12, 10, seed=6, burn_in=burn_in))
        assert all(rv.Assignment(rv.DesignKind.LS, square).is_valid() for square in got)


class TestSubgroupMeasure:
    @staticmethod
    def _transformation_orbit(order):
        idx = np.arange(order)
        reference = (idx[:, None] + idx[None, :]) % order
        orbit = set()
        for rows in itertools.permutations(range(order)):
            ri = reference[list(rows), :]
            for cols in itertools.permutations(range(order)):
                rc = ri[:, list(cols)]
                for symbols in itertools.permutations(range(order)):
                    sym = np.array(symbols)
                    orbit.add(tuple(map(tuple, sym[rc].tolist())))
        return orbit

    def test_order3_orbit_covers_all_squares(self):
        orbit = self._transformation_orbit(3)
        exact = {grid_key(a) for a in exact_stream("ls", 3, 3)}
        assert orbit == exact

    def test_order4_orbit_is_a_proper_subset(self):
        orbit = self._transformation_orbit(4)
        exact = {grid_key(a) for a in exact_stream("ls", 4, 4)}
        assert orbit < exact
        # the Klein-group table is in the complementary class
        klein = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        assert klein in exact
        assert klein not in orbit

        samples = [
            grid_key(a)
            for a in sampled_stream("ls", 4, 4, 300, 3, ls_measure="subgroup")
        ]
        assert set(samples) <= orbit
        # the full-measure sampler escapes the orbit
        full = [grid_key(a) for a in sampled_stream("ls", 4, 4, 300, 3)]
        assert any(square not in orbit for square in full)


class TestRandomizationSpace:
    def test_exact_factory(self):
        space = rv.RandomizationSpace.exact()
        assert space == rv.RandomizationSpace()
        assert space.sample_size is None

    def test_sample_factory_validates(self):
        with pytest.raises(ValueError):
            rv.RandomizationSpace.sample(-1, seed=0)
        space = rv.RandomizationSpace.sample(10, seed=4, burn_in=17)
        assert space.sample_size == 10
        assert space.burn_in == 17

    @pytest.mark.parametrize("order", [1, 4, 8])
    def test_ls_sampler_settings_fill_in_the_defaults(self, order):
        settings = rv.enumeration.ls_sampler_settings
        assert settings(order) == (2 * order**3, rv.LsMeasure.ALL_SQUARES)
        assert settings(order, 7) == (7, rv.LsMeasure.ALL_SQUARES)
        for measure in rv.LsMeasure:
            assert settings(order, None, measure) == (2 * order**3, measure)
            assert settings(order, 7, measure) == (7, measure)

    @pytest.mark.parametrize(
        "settings", [{"burn_in": 5}, {"ls_measure": "subgroup"}, {"ls_measure": "all"}]
    )
    def test_ls_sampler_settings_on_an_rcb_table_are_rejected(self, tables, settings):
        space = rv.RandomizationSpace.sample(50, seed=1, **settings)
        with pytest.raises(rv.InvalidArgument, match=next(iter(settings))):
            rv.type1_error(tables["table1"], space=space)
        with pytest.raises(rv.InvalidArgument, match="RCB"):
            noisy = dataclasses.replace(tables["table1"], technical_error_sd=0.01)
            rv.monte_carlo_with_errors(noisy, replications=2, space=space)
        # an LS table takes them
        assert rv.exact_distribution(tables["table3"], space).assignment_count == 50

    def test_unset_ls_measure_samples_all_squares(self):
        unset = rv.RandomizationSpace.sample(30, seed=5)
        assert unset.ls_measure is None
        table = rv.PotentialOutcomeTable(rv.DesignKind.LS, np.arange(64.0).reshape(4, 4, 4))
        stream, _, _ = assignment_stream(table, unset)
        given, _, _ = assignment_stream(
            table, rv.RandomizationSpace.sample(30, seed=5, ls_measure="all")
        )
        assert [grid_key(a) for a in stream] == [grid_key(a) for a in given]

    def test_exact_count_is_the_space_size(self, monkeypatch):
        exact = rv.RandomizationSpace.exact()
        sizes = [("rcb", n, t) for n in range(1, 5) for t in range(1, 4)]
        sizes += [("ls", t, t) for t in range(1, 6)]
        for design, blocks, treatments in sizes:
            stream, count, is_exact = assignment_stream(
                zero_table(design, blocks, treatments), exact
            )
            assert is_exact
            assert count == rv.space_cardinality(design, blocks, treatments)
            assert sum(1 for _ in stream) == count, (design, blocks, treatments)
        # refused at the call, before any next()
        with pytest.raises(rv.SpaceTooLarge, match="up to order 5; order 6 must be sampled"):
            assignment_stream(zero_table("ls", 6, 6), exact)
        monkeypatch.setenv(rv.enumeration.ENUM_CAP_ENV_VAR, "100")
        with pytest.raises(rv.SpaceTooLarge, match=r"\(3!\)\^3 assignments, above the cap 100"):
            assignment_stream(zero_table("rcb", 3, 3), exact)
        assert assignment_stream(zero_table("rcb", 2, 3), exact)[1] == 36

    def test_rcb_space_size_formula(self):
        assert rv.space_cardinality(rv.DesignKind.RCB, 2, 2) == 4
        assert rv.space_cardinality(rv.DesignKind.RCB, 4, 3) == 1296
        assert rv.space_cardinality(rv.DesignKind.RCB, 1, 5) == math.factorial(5)
