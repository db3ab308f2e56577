import math
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

import randova as rv
from randova.anova import batch_anova_ls, batch_anova_rcb, f_from_sums, row_tables
from randova.enumeration import assignment_stream
from randova.inference import _label_chunks, replicate_index, stage_rows
from helpers import (
    all_assignments,
    batch_kernel,
    exact_stream,
    first_occurrence_stage_rows,
    fsum_anova,
    label_grid_anova,
    observed_by_loops,
    random_ls_table,
    random_rcb_table,
    random_table,
    sharp_null_table,
    treatment_means,
)


def identity_rcb_assignment(num_blocks, num_treatments):
    perms = np.tile(np.arange(num_treatments), (num_blocks, 1))
    return rv.Assignment(rv.DesignKind.RCB, perms)


class TestObserve:
    def test_table1_identity_assignment(self, tables):
        experiment = rv.observe(tables["table1"], identity_rcb_assignment(2, 2))
        assert experiment.observed == pytest.approx(
            np.array([[10.0, 2.0], [20.0, 50.0]])
        )

    def test_swapped_block_assignment(self, tables):
        perms = np.array([[1, 0], [0, 1]])
        experiment = rv.observe(
            tables["table1"], rv.Assignment(rv.DesignKind.RCB, perms)
        )
        # block 1: plot 1 gets treatment 2, plot 2 gets treatment 1
        assert experiment.observed == pytest.approx(
            np.array([[10.0, 15.0], [20.0, 50.0]])
        )

    def test_constant_table_observes_constant(self):
        table = rv.PotentialOutcomeTable(rv.DesignKind.LS, np.full((3, 3, 3), 6.5))
        for assignment in exact_stream("ls", 3, 3):
            experiment = rv.observe(table, assignment)
            assert np.all(experiment.observed == 6.5)

    def test_table4_totals_depend_on_marked_cells(self, tables):
        table = tables["table4"]
        squares = list(exact_stream("ls", 4, 4))
        same = next(s for s in squares if s.grid[0, 0] == s.grid[1, 1])
        diff = next(s for s in squares if s.grid[0, 0] != s.grid[1, 1])
        totals_same = sorted(treatment_means(rv.observe(table, same)).tolist())
        totals_diff = sorted(treatment_means(rv.observe(table, diff)).tolist())
        assert totals_same != totals_diff

    def test_design_mismatch_raises(self, tables):
        square = next(iter(exact_stream("ls", 3, 3)))
        with pytest.raises(rv.ShapeMismatch):
            rv.observe(tables["table1"], square)

    def test_non_bijective_rcb_grid_raises(self, tables):
        # treatment 0 twice in block 1, treatment 1 never
        bad = rv.Assignment(rv.DesignKind.RCB, np.array([[0, 0], [0, 1]]))
        assert not bad.is_valid()
        with pytest.raises(rv.InvalidArgument):
            rv.observe(tables["table1"], bad)

    def test_non_latin_ls_grid_raises(self, tables):
        # every row a permutation, but column 0 repeats treatment 0
        rows = np.array([[0, 1, 2], [0, 2, 1], [1, 2, 0]])
        bad = rv.Assignment(rv.DesignKind.LS, rows)
        assert not bad.is_valid()
        with pytest.raises(rv.InvalidArgument):
            rv.observe(tables["table2"], bad)

    def test_wrong_permutation_shape_raises(self, tables):
        bad = rv.Assignment(rv.DesignKind.RCB, np.array([[0, 1]]))
        with pytest.raises(rv.ShapeMismatch):
            rv.observe(tables["table1"], bad)

    @pytest.mark.parametrize("design", ["rcb", "ls"])
    @pytest.mark.parametrize("grid", [3, [0, 1, 2], []], ids=["0-d", "1-d", "empty"])
    def test_grid_that_is_not_2d_is_not_valid(self, design, grid):
        assert rv.Assignment(design, grid).is_valid() is False


# assignments that observe refuses: (table or bundled name, design, grid, error)
_RCB = rv.PotentialOutcomeTable("rcb", np.random.default_rng(1).normal(20, 15, (3, 3, 3)))
_LS_4 = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
_UNFIT = {
    "rcb label out of range": (_RCB, "rcb", [[0, 1, 3], [0, 1, 2], [2, 1, 0]], rv.InvalidArgument),
    "rcb label repeated": (_RCB, "rcb", [[0, 0, 1], [0, 1, 2], [2, 1, 0]], rv.InvalidArgument),
    "rcb grid of two blocks": (_RCB, "rcb", [[0, 1, 2], [2, 1, 0]], rv.ShapeMismatch),
    "ls grid on an rcb table": (_RCB, "ls", [[0, 1, 2], [1, 2, 0], [2, 0, 1]], rv.ShapeMismatch),
    "ls grid of equal rows": ("table4", "ls", [_LS_4[0]] * 4, rv.InvalidArgument),
    "ls label out of range": ("table4", "ls", _LS_4[:3] + [[3, 0, 1, 5]], rv.InvalidArgument),
}


class TestAnova:
    @pytest.mark.parametrize("case", _UNFIT)
    def test_refuses_what_observe_refuses(self, tables, case):
        # an ObservedExperiment built by hand around an assignment that
        # observe refuses raises observe's error, type and message
        table, design, grid, error = _UNFIT[case]
        table = tables.get(table, table)
        assignment = rv.Assignment(design, grid)
        with pytest.raises(error) as refused:
            rv.observe(table, assignment)
        with pytest.raises(error, match=re.escape(str(refused.value))) as by_hand:
            rv.ObservedExperiment(table, assignment)
        assert type(by_hand.value) is type(refused.value)

    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table4"])
    def test_observed_responses_are_derived_from_table_and_assignment(self, tables, name):
        # an experiment is its table and assignment; the responses are a
        # read-only function of them, so none can disagree with the table
        table = tables[name]
        assert [f.name for f in fields(rv.ObservedExperiment)] == ["table", "assignment"]
        for assignment in all_assignments(table):
            experiment = rv.ObservedExperiment(table, assignment)
            assert experiment == rv.observe(table, assignment)
            observed = experiment.observed
            assert observed.dtype == np.float64 and not observed.flags.writeable
            np.testing.assert_array_equal(observed, observed_by_loops(table, assignment))
        with pytest.raises(FrozenInstanceError):
            experiment.observed = np.zeros_like(observed)
        with pytest.raises(ValueError):
            observed[0, 0] = 0.0
        with pytest.raises(TypeError):
            rv.ObservedExperiment(table, assignment, observed)

    def test_table2_enumeration_mean_matches_reference(self, tables):
        table = tables["table2"]
        s0s = []
        for assignment in exact_stream("ls", 3, 3):
            s0s.append(rv.anova(rv.observe(table, assignment)).s0_sq)
        assert math.fsum(s0s) / 12 == pytest.approx(252.07, abs=0.005)

    # 0.1 and 1e6 + 0.1 are not dyadic: the kernels' means leave rounding
    # residue, which the zero rule sets to exactly 0
    @pytest.mark.parametrize("value", [3.0, 0.1, 1e6 + 0.1])
    @pytest.mark.parametrize("design", [rv.DesignKind.RCB, rv.DesignKind.LS])
    def test_constant_table_is_degenerate(self, design, value):
        table = rv.PotentialOutcomeTable(design, np.full((3, 3, 3), value))
        if design is rv.DesignKind.RCB:
            assignment = identity_rcb_assignment(3, 3)
        else:
            assignment = next(iter(exact_stream("ls", 3, 3)))
        summary = rv.anova(rv.observe(table, assignment))
        assert summary.s0_sq == 0.0
        assert summary.s1_sq == 0.0
        assert summary.is_degenerate
        assert math.isnan(summary.f_stat)

    @pytest.mark.parametrize(
        "taus", [[0.0, 16.0, 32.0], [0.1, 0.7, 1e6 + 0.3]], ids=["dyadic", "non-dyadic"]
    )
    def test_zero_residual_with_signal_gives_infinite_f(self, taus):
        # outcomes additive in block and treatment, flat across plots:
        # residuals vanish for every assignment while S1^2 > 0; with
        # non-dyadic values the zero rule removes the rounding residue
        blocks = np.array([1.0, 4.0, -2.0])
        taus = np.array(taus)
        x = np.zeros((3, 3, 3)) + blocks[:, None, None] + taus[None, None, :]
        table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)
        summary = rv.anova(rv.observe(table, identity_rcb_assignment(3, 3)))
        assert summary.s0_sq == 0.0
        assert summary.s1_sq > 0.0
        assert summary.f_stat == math.inf

    def test_zero_floor_is_per_assignment(self):
        # one batch scores one RCB 2x2 assignment under responses near 1 and
        # near 1e6, each one ulp of 1e6 off constant in one cell: S0^2 =
        # S1^2 = ulp^2/4, about 3e-21, is signal beside responses of 1 and
        # rounding residue beside responses of 1e6
        step = np.spacing(1e6)
        small, large = np.ones((2, 2, 2)), np.full((2, 2, 2), 1e6)
        small[0, 0, :] += step
        large[0, 0, :] += step
        perms, index = stage_rows(np.array([[[0, 1], [0, 1]]]))
        tables = row_tables("rcb", np.stack([small, large]), perms, np.ones(2))
        s0, s1 = batch_anova_rcb(tables, replicate_index(index, perms, 2))
        assert s0[0] == pytest.approx(step**2 / 4, rel=1e-9)
        assert s1[0] == pytest.approx(step**2 / 4, rel=1e-9)
        assert (s0[1], s1[1]) == (0.0, 0.0)

    def test_table4_f_takes_two_values(self, tables):
        values = set()
        for assignment in exact_stream("ls", 4, 4):
            summary = rv.anova(rv.observe(tables["table4"], assignment))
            values.add(round(summary.f_stat, 9))
        assert values == {0.5, 3.0}

    def test_degrees_of_freedom(self, tables):
        rcb = rv.anova(rv.observe(tables["table1"], identity_rcb_assignment(2, 2)))
        assert (rcb.df_treatment, rcb.df_residual) == (1, 1)
        square = next(iter(exact_stream("ls", 3, 3)))
        ls = rv.anova(rv.observe(tables["table2"], square))
        assert (ls.df_treatment, ls.df_residual) == (2, 2)

    def test_degenerate_designs_raise(self):
        one_block = rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.zeros((1, 3, 3)))
        assignment = rv.Assignment(rv.DesignKind.RCB, np.arange(3).reshape(1, 3))
        with pytest.raises(rv.DegenerateDesign):
            rv.anova(rv.observe(one_block, assignment))
        tiny_ls = rv.PotentialOutcomeTable(rv.DesignKind.LS, np.zeros((2, 2, 2)))
        square = rv.Assignment(rv.DesignKind.LS, np.array([[0, 1], [1, 0]]))
        with pytest.raises(rv.DegenerateDesign):
            rv.anova(rv.observe(tiny_ls, square))

    @pytest.mark.parametrize("seed", range(4))
    def test_location_and_scale_equivariance(self, seed):
        rng = np.random.default_rng(300 + seed)
        for design in (rv.DesignKind.RCB, rv.DesignKind.LS):
            table = random_table(rng, design)
            assignment = all_assignments(table)[3]
            base = rv.anova(rv.observe(table, assignment))
            shifted = rv.anova(
                rv.observe(replace(table, outcomes=table.outcomes + 13.7), assignment)
            )
            assert shifted.s0_sq == pytest.approx(base.s0_sq, rel=1e-9, abs=1e-12)
            assert shifted.s1_sq == pytest.approx(base.s1_sq, rel=1e-9, abs=1e-12)
            assert shifted.f_stat == pytest.approx(base.f_stat, rel=1e-9)
            lam = 3.5
            scaled = rv.anova(
                rv.observe(replace(table, outcomes=table.outcomes * lam), assignment)
            )
            assert scaled.s0_sq == pytest.approx(lam**2 * base.s0_sq, rel=1e-9)
            assert scaled.s1_sq == pytest.approx(lam**2 * base.s1_sq, rel=1e-9)
            assert scaled.f_stat == pytest.approx(base.f_stat, rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_sharp_null_pooled_and_sums_constant(self, seed):
        rng = np.random.default_rng(400 + seed)
        design = rv.DesignKind.RCB if seed % 2 == 0 else rv.DesignKind.LS
        if design is rv.DesignKind.RCB:
            table = sharp_null_table(rng, design, num_blocks=int(rng.integers(2, 4)))
        else:
            table = sharp_null_table(rng, design, order=int(rng.integers(3, 5)))
        pooled = []
        totals = []
        margins = []
        for assignment in all_assignments(table):
            experiment = rv.observe(table, assignment)
            s = rv.anova(experiment)
            pooled.append(s.df_treatment * s.s1_sq + s.df_residual * s.s0_sq)
            y = experiment.observed
            totals.append(float(((y - y.mean()) ** 2).sum()))
            if design is rv.DesignKind.RCB:
                margins.append(float(((y.mean(axis=1) - y.mean()) ** 2).sum()))
            else:
                margins.append(
                    float(((y.mean(axis=1) - y.mean()) ** 2).sum())
                    + float(((y.mean(axis=0) - y.mean()) ** 2).sum())
                )
        spread = max(pooled) - min(pooled)
        assert spread <= 1e-9 * max(abs(p) for p in pooled)
        assert max(totals) - min(totals) <= 1e-9 * max(totals)
        assert max(margins) - min(margins) <= 1e-9 * max(max(margins), 1e-30)


class TestBatchKernels:
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_matches_scalar(self, seed):
        rng = np.random.default_rng(500 + seed)
        design = rv.DesignKind.RCB if seed % 2 == 0 else rv.DesignKind.LS
        table = random_table(rng, design)
        assignments = all_assignments(table)
        s0_batch, s1_batch = batch_kernel(table, np.stack([a.labels() for a in assignments]))
        for idx, assignment in enumerate(assignments):
            s0, s1, _ = fsum_anova(table, assignment)
            assert s0_batch[idx] == pytest.approx(s0, rel=1e-12, abs=1e-12)
            assert s1_batch[idx] == pytest.approx(s1, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_single_assignment_equals_its_batch_row_bit_for_bit(self, seed):
        rng = np.random.default_rng(550 + seed)
        design = rv.DesignKind.RCB if seed % 2 == 0 else rv.DesignKind.LS
        table = random_table(rng, design)
        assignments = all_assignments(table)
        s0_batch, s1_batch = batch_kernel(table, np.stack([a.labels() for a in assignments]))
        for idx, assignment in enumerate(assignments):
            summary = rv.anova(rv.observe(table, assignment))
            assert summary.s0_sq == s0_batch[idx]
            assert summary.s1_sq == s1_batch[idx]


    def test_single_assignment_gives_the_bits_of_the_exact_path(self, tables):
        for name in ("table1", "table2", "table3"):
            table = tables[name]
            singles = {
                (summary.s0_sq, summary.s1_sq)
                for summary in (rv.anova(rv.observe(table, a)) for a in all_assignments(table))
            }
            atoms = rv.exact_distribution(table)
            assert set(zip(atoms.s0_sq.tolist(), atoms.s1_sq.tolist())) <= singles


def _table_kernel(table, labels, chunk=7):
    """(S0^2, S1^2) of each label grid by the batch kernel, each chunk of
    the given size staged on its own."""
    for lo in range(0, len(labels), chunk):
        perms, index = stage_rows(labels[lo : lo + chunk])
        for row, distinct in enumerate(perms):
            assert np.array_equal(distinct[index[:, row]], labels[lo : lo + chunk, row])
    return batch_kernel(table, labels, chunk)


class TestStagingReference:
    """stage_rows against first-occurrence staging, on each label chunk of
    exact and sampled spaces."""

    @staticmethod
    def _check(table, space):
        stream, count, _ = assignment_stream(table, space)
        chunks = list(_label_chunks(stream))
        assert sum(map(len, chunks)) == count
        for labels in chunks:
            perms, index = stage_rows(labels)
            want_perms, want_index = first_occurrence_stage_rows(labels)
            assert len(perms) == len(want_perms)
            for got, want in zip(perms, want_perms):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert index.dtype == want_index.dtype and index.flags.f_contiguous
            np.testing.assert_array_equal(index, want_index)

    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table4", "ls5", "rcb3x4"])
    def test_exact_spaces(self, tables, name):
        rng = np.random.default_rng(6)
        table = tables.get(name) or (
            random_ls_table(rng, 5) if name == "ls5" else random_rcb_table(rng, 3, 4)
        )
        self._check(table, rv.RandomizationSpace.exact())

    @pytest.mark.parametrize(
        "design, size, draws",
        # T = 17 keys the rows as bytes, not packed integers
        [(rv.DesignKind.LS, 8, 1000), (rv.DesignKind.RCB, (20, 5), 20000),
         (rv.DesignKind.RCB, (3, 17), 3000)],
        ids=["ls8", "rcb20x5", "rcb3x17-byte-keys"],
    )
    def test_sampled_spaces(self, design, size, draws):
        rng = np.random.default_rng(9)
        if design is rv.DesignKind.RCB:
            table = random_rcb_table(rng, *size)
        else:
            table = random_ls_table(rng, size)
        self._check(table, rv.RandomizationSpace.sample(draws, seed=2))


class TestTableKernel:
    """The row-table kernel against the math.fsum oracle, per assignment."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fsum_oracle_over_the_space(self, seed):
        rng = np.random.default_rng(700 + seed)
        design = rv.DesignKind.RCB if seed % 2 == 0 else rv.DesignKind.LS
        table = random_table(rng, design)
        assignments = all_assignments(table)
        s0, s1 = _table_kernel(table, np.stack([a.labels() for a in assignments]))
        for idx, assignment in enumerate(assignments):
            want0, want1, _ = fsum_anova(table, assignment)
            assert s0[idx] == pytest.approx(want0, rel=1e-9)
            assert s1[idx] == pytest.approx(want1, rel=1e-9)

    @pytest.mark.parametrize(
        "design, size, draws",
        [(rv.DesignKind.RCB, (3, 3), 300), (rv.DesignKind.LS, 4, 200), (rv.DesignKind.LS, 5, 200)],
    )
    def test_matches_fsum_oracle_on_a_sample_whose_rows_repeat(self, design, size, draws):
        rng = np.random.default_rng(11)
        if design is rv.DesignKind.RCB:
            table = random_rcb_table(rng, *size)
        else:
            table = random_ls_table(rng, size)
        stream, _, _ = assignment_stream(table, rv.RandomizationSpace.sample(draws, seed=4))
        assignments = list(stream)
        labels = np.stack([a.labels() for a in assignments])
        perms, _ = stage_rows(labels)
        assert all(len(distinct) < draws for distinct in perms)
        s0, s1 = _table_kernel(table, labels)
        for idx, assignment in enumerate(assignments):
            want0, want1, _ = fsum_anova(table, assignment)
            assert s0[idx] == pytest.approx(want0, rel=1e-9)
            assert s1[idx] == pytest.approx(want1, rel=1e-9)

    @pytest.mark.parametrize("t", [3, 16, 17])
    def test_staging_round_trips_packed_and_byte_keys(self, t):
        # rows of up to 16 labels are keyed as packed integers, longer ones
        # as bytes; both must give back every row of each chunk, the second
        # chunk's repeated rows included
        rng = np.random.default_rng(t)
        labels = np.argsort(rng.random((50, 3, t)), axis=2)
        labels[25:] = labels[:25]
        for chunk in (labels[:20], labels[20:]):
            perms, index = stage_rows(chunk)
            for row, distinct in enumerate(perms):
                # np.unique(axis=0) sorts the rows lexicographically, as both keys do
                assert np.array_equal(distinct, np.unique(chunk[:, row], axis=0))
                assert np.array_equal(distinct[index[:, row]], chunk[:, row])

    @pytest.mark.parametrize("design", [rv.DesignKind.RCB, rv.DesignKind.LS])
    def test_a_stack_of_outcome_arrays_scores_as_each_alone(self, design):
        rng = np.random.default_rng(31)
        table = random_table(rng, design)
        labels = np.stack([a.labels() for a in all_assignments(table)])
        perms, index = stage_rows(labels)
        stack = table.outcomes + rng.normal(0.0, 0.1, size=(3,) + table.outcomes.shape)
        shift = table.outcomes.mean(axis=(0, 1))
        pairs = replicate_index(index, perms, len(stack))
        assert pairs.shape == (len(stack) * len(labels), len(perms))
        kernel = batch_anova_rcb if design is rv.DesignKind.RCB else batch_anova_ls
        s0, s1 = kernel(row_tables(design, stack, perms, shift), pairs)
        for g, x in enumerate(stack):
            alone0, alone1 = kernel(row_tables(design, x[None], perms, shift), index)
            assert np.array_equal(s0[g * len(labels) : (g + 1) * len(labels)], alone0)
            assert np.array_equal(s1[g * len(labels) : (g + 1) * len(labels)], alone1)

    def test_batch_kernels_check_row_tables_and_index(self):
        table = random_rcb_table(np.random.default_rng(2), 3, 3)
        labels = np.stack([a.labels() for a in all_assignments(table)])
        perms, index = stage_rows(labels)
        tables = row_tables(table.design, table.outcomes[None], perms, np.zeros(3))
        with pytest.raises(rv.InvalidArgument):
            batch_anova_ls(tables, index)
        with pytest.raises(rv.ShapeMismatch):
            batch_anova_rcb(tables, index[:, :2])
        wrong = index.astype(np.intp)
        wrong[0, 1] = len(perms[1])
        with pytest.raises(rv.InvalidArgument):
            batch_anova_rcb(tables, wrong)
        wrong[0, 1] = -1
        with pytest.raises(rv.InvalidArgument):
            batch_anova_rcb(tables, wrong)

    @pytest.mark.parametrize("design", [rv.DesignKind.RCB, rv.DesignKind.LS])
    def test_zero_rule_matches_the_batch_kernel(self, design):
        # a constant table is degenerate and a table without unit variation
        # has S0^2 = 0 < S1^2 for every assignment
        taus = np.array([0.1, 0.7, 1e6 + 0.3])
        for x in (np.full((3, 3, 3), 1e6 + 0.1), np.zeros((3, 3, 3)) + taus):
            table = rv.PotentialOutcomeTable(design, x)
            labels = np.stack([a.labels() for a in all_assignments(table)])
            want = f_from_sums(*label_grid_anova(design, x, labels))
            got = f_from_sums(*_table_kernel(table, labels))
            assert np.array_equal(got, want, equal_nan=True)
