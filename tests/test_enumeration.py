import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import randova as rv
from randova.enumeration import assignment_stream
from helpers import count_latin_squares_bruteforce, grid_key, latin_square_grids


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
        assignments = list(rv.enumerate_rcb(2, 2))
        assert len(assignments) == 4
        keys = [grid_key(a) for a in assignments]
        assert keys == [
            ((0, 1), (0, 1)),
            ((0, 1), (1, 0)),
            ((1, 0), (0, 1)),
            ((1, 0), (1, 0)),
        ]

    def test_single_block_starts_at_identity(self):
        assignments = list(rv.enumerate_rcb(1, 3))
        assert len(assignments) == 6
        assert grid_key(assignments[0]) == ((0, 1, 2),)

    def test_four_blocks_three_treatments_all_distinct(self):
        keys = {grid_key(a) for a in rv.enumerate_rcb(4, 3)}
        assert len(keys) == 6**4 == rv.rcb_space_size(4, 3)

    def test_every_assignment_is_a_per_block_bijection(self):
        for assignment in rv.enumerate_rcb(3, 3):
            assert assignment.is_valid()

    def test_cap_enforced(self):
        with pytest.raises(rv.SpaceTooLarge):
            rv.enumerate_rcb(3, 3, cap=100)

    @pytest.mark.parametrize("blocks,treatments", [(2, 3), (3, 3), (1, 4)])
    def test_itertools_product_order(self, blocks, treatments):
        want = list(
            itertools.product(itertools.permutations(range(treatments)), repeat=blocks)
        )
        got = [grid_key(a) for a in rv.enumerate_rcb(blocks, treatments)]
        assert got == want

    def test_grids_are_read_only_int64(self):
        for a in rv.enumerate_rcb(2, 3):
            assert a.grid.dtype == np.int64
            assert not a.grid.flags.writeable

    def test_enumerated_assignments_are_what_the_constructor_builds(self):
        stream = itertools.chain(rv.enumerate_rcb(2, 3), rv.enumerate_latin_squares(3))
        for a in stream:
            built = rv.Assignment(a.design, a.grid)
            assert vars(a).keys() == vars(built).keys()
            assert all(vars(built)[name] is value for name, value in vars(a).items())

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv(rv.enumeration.ENUM_CAP_ENV_VAR, "5")
        assert len(list(rv.enumerate_rcb(2, 2))) == 4
        with pytest.raises(rv.SpaceTooLarge):
            rv.enumerate_rcb(3, 2)


class TestEnumerateLatinSquares:
    @pytest.mark.parametrize("order,count", [(1, 1), (2, 2), (3, 12), (4, 576)])
    def test_counts(self, order, count):
        squares = list(rv.enumerate_latin_squares(order))
        assert len(squares) == count
        assert len({grid_key(a) for a in squares}) == count
        assert all(a.is_valid() for a in squares)

    def test_every_order_five_square_is_valid(self):
        count = 0
        for square in rv.enumerate_latin_squares(5):
            assert square.is_valid()
            count += 1
        assert count == 161280

    @pytest.mark.parametrize("order", [3, 4])
    def test_against_independent_counting_oracle(self, order):
        assert count_latin_squares_bruteforce(order) == rv.latin_square_count(order)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_matches_the_backtracking_oracle_in_order(self, order):
        want = np.array(list(latin_square_grids(order)))
        got = np.array([a.grid.ravel() for a in rv.enumerate_latin_squares(order)])
        assert got.shape == want.shape == (rv.latin_square_count(order), order * order)
        assert (got == want).all()

    def test_import_does_not_build_the_table(self):
        code = (
            "import randova\n"
            "from randova.enumeration import _latin_square_table\n"
            "assert _latin_square_table.cache_info().currsize == 0\n"
            "next(randova.enumerate_latin_squares(3))\n"
            "assert _latin_square_table.cache_info().currsize == 1\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_row_major_lexicographic_order(self):
        flats = [sum(grid_key(a), ()) for a in rv.enumerate_latin_squares(3)]
        assert flats == sorted(flats)

    def test_order_above_five_requires_sampling(self):
        with pytest.raises(rv.SpaceTooLarge):
            rv.enumerate_latin_squares(6)

    def test_cap_enforced(self):
        with pytest.raises(rv.SpaceTooLarge):
            rv.enumerate_latin_squares(4, cap=100)

    def test_cardinality_helpers(self):
        assert rv.space_cardinality(rv.DesignKind.RCB, 3, 4) == 24**3
        assert rv.space_cardinality(rv.DesignKind.LS, 5, 5) == 161280
        assert rv.space_cardinality(rv.DesignKind.LS, 6, 6) is None


class TestSampling:
    def test_rcb_deterministic_given_seed(self):
        a = [grid_key(x) for x in rv.sample_rcb(3, 3, 50, seed=11)]
        b = [grid_key(x) for x in rv.sample_rcb(3, 3, 50, seed=11)]
        c = [grid_key(x) for x in rv.sample_rcb(3, 3, 50, seed=12)]
        assert a == b
        assert a != c

    def test_count_zero_is_empty(self):
        assert list(rv.sample_rcb(2, 2, 0, seed=1)) == []
        assert list(rv.sample_latin_squares(3, 0, seed=1)) == []

    def test_rcb_frequencies_match_exact_enumeration(self):
        # 4 equally likely assignments; 0.25 +- 0.02 with 4000 draws
        counts: dict = {}
        for a in rv.sample_rcb(2, 2, 4000, seed=2024):
            counts[grid_key(a)] = counts.get(grid_key(a), 0) + 1
        exact = {grid_key(a) for a in rv.enumerate_rcb(2, 2)}
        assert set(counts) == exact
        for key in exact:
            assert counts[key] / 4000 == pytest.approx(0.25, abs=0.02)

    def test_ls_sampler_valid_and_deterministic(self):
        a = [grid_key(x) for x in rv.sample_latin_squares(4, 25, seed=9)]
        b = [grid_key(x) for x in rv.sample_latin_squares(4, 25, seed=9)]
        assert a == b
        for flat in a:
            assert rv.Assignment(rv.DesignKind.LS, np.array(flat)).is_valid()

    def test_ls_frequencies_match_exact_enumeration(self):
        # 12 squares of order 3; 1/12 +- 0.01 with 12000 draws
        counts: dict = {}
        for a in rv.sample_latin_squares(3, 12000, seed=7):
            counts[grid_key(a)] = counts.get(grid_key(a), 0) + 1
        exact = {grid_key(a) for a in rv.enumerate_latin_squares(3)}
        assert set(counts) == exact
        for key in exact:
            assert counts[key] / 12000 == pytest.approx(1 / 12, abs=0.01)

    def test_ls_order2_draws_both_squares(self):
        draws = [grid_key(a) for a in rv.sample_latin_squares(2, 2000, seed=2)]
        for square in {grid_key(a) for a in rv.enumerate_latin_squares(2)}:
            assert draws.count(square) / 2000 == pytest.approx(0.5, abs=0.05)

    def test_ls_order4_chi_square_over_all_squares(self):
        # 20 expected draws per square; chi^2(575) has mean 575, sd 34 and
        # 0.9999 quantile about 710
        index = {grid_key(a): k for k, a in enumerate(rv.enumerate_latin_squares(4))}
        draws = 576 * 20
        counts = np.bincount(
            [index[grid_key(a)] for a in rv.sample_latin_squares(4, draws, seed=4)],
            minlength=576,
        )
        assert ((counts - 20) ** 2 / 20).sum() < 710

    def test_ls_order5_intercalate_shares_match_exact_enumeration(self):
        # of the 161,280 squares 10.71% have no intercalate and the rest 4;
        # chi^2(1) has 0.9999 quantile 15.1
        exact = np.bincount(intercalate_counts(
            np.array([a.grid for a in rv.enumerate_latin_squares(5)])
        ))
        assert np.flatnonzero(exact).tolist() == [0, 4]
        draws = 8000
        got = np.bincount(intercalate_counts(
            np.array([a.grid for a in rv.sample_latin_squares(5, draws, seed=5)])
        ), minlength=5)
        assert got.sum() == got[0] + got[4] == draws
        want = exact[[0, 4]] / exact.sum() * draws
        assert ((got[[0, 4]] - want) ** 2 / want).sum() < 15.1

    def test_rcb_two_blocks_joint_chi_square(self):
        # 36 equally likely (block 0, block 1) permutation pairs of 3
        # treatments; chi^2(35) has 0.9999 quantile about 75
        index = {grid_key(a): k for k, a in enumerate(rv.enumerate_rcb(2, 3))}
        draws = 36 * 200
        counts = np.bincount(
            [index[grid_key(a)] for a in rv.sample_rcb(2, 3, draws, seed=6)], minlength=36
        )
        assert ((counts - 200) ** 2 / 200).sum() < 75

    def test_ls_cell_marginals(self):
        # each treatment lands in each cell with probability 1/T
        order, draws = 4, 3000
        hits = np.zeros((order, order, order))
        for a in rv.sample_latin_squares(order, draws, seed=13):
            square = a.grid
            for i in range(order):
                for j in range(order):
                    hits[i, j, square[i, j]] += 1
        freqs = hits / draws
        assert np.abs(freqs - 1 / order).max() < 0.04

    def test_every_rcb_draw_is_valid(self):
        draws = list(rv.sample_rcb(20, 5, 2000, seed=5))
        assert len(draws) == 2000
        assert all(a.grid.shape == (20, 5) and a.is_valid() for a in draws)

    @pytest.mark.parametrize("measure", ["all", "subgroup"])
    @pytest.mark.parametrize("order", [1, 5, 8])
    def test_every_ls_draw_is_valid(self, order, measure):
        draws = list(rv.sample_latin_squares(order, 100, seed=order, measure=measure))
        assert len(draws) == 100
        assert all(
            a.grid.shape == (order, order) and a.is_valid() for a in draws
        )

    @pytest.mark.parametrize("burn_in", [0, -5])
    def test_burn_in_below_one_rejected(self, burn_in):
        with pytest.raises(rv.InvalidArgument):
            rv.sample_latin_squares(5, 100, 1, burn_in=burn_in)
        with pytest.raises(rv.InvalidArgument):
            rv.RandomizationSpace.sample(100, seed=1, burn_in=burn_in)

    def test_order_one_sampling(self):
        squares = list(rv.sample_latin_squares(1, 3, seed=0))
        assert len(squares) == 3
        assert all(a.grid.shape == (1, 1) for a in squares)


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
        exact = {grid_key(a) for a in rv.enumerate_latin_squares(3)}
        assert orbit == exact

    def test_order4_orbit_is_a_proper_subset(self):
        orbit = self._transformation_orbit(4)
        exact = {grid_key(a) for a in rv.enumerate_latin_squares(4)}
        assert orbit < exact
        # the Klein-group table is in the complementary class
        klein = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        assert klein in exact
        assert klein not in orbit

        samples = [
            grid_key(a)
            for a in rv.sample_latin_squares(4, 300, seed=3, measure="subgroup")
        ]
        assert set(samples) <= orbit
        # the full-measure sampler escapes the orbit
        full = [grid_key(a) for a in rv.sample_latin_squares(4, 300, seed=3)]
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

    @pytest.mark.parametrize(
        "settings", [{"burn_in": 5}, {"ls_measure": "subgroup"}, {"ls_measure": "all"}]
    )
    def test_ls_sampler_settings_on_an_rcb_table_are_rejected(self, tables, settings):
        space = rv.RandomizationSpace.sample(50, seed=1, **settings)
        with pytest.raises(rv.InvalidArgument, match=next(iter(settings))):
            rv.type1_error(tables["table1"], space=space)
        with pytest.raises(rv.InvalidArgument, match="RCB"):
            rv.monte_carlo_with_errors(tables["table1"], replications=2, space=space)
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

    def test_rcb_space_size_formula(self):
        assert rv.rcb_space_size(2, 2) == 4
        assert rv.rcb_space_size(4, 3) == 1296
        assert rv.rcb_space_size(1, 5) == math.factorial(5)
