import math
from dataclasses import replace

import numpy as np
import pytest

import randova as rv
from randova.anova import (
    batch_anova_ls,
    batch_anova_rcb,
    f_from_sums,
    replicate_index,
    row_tables,
    stage_rows,
)
from randova.enumeration import assignment_stream
from helpers import (
    all_assignments,
    batch_kernel,
    fsum_anova,
    label_grid_anova,
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
        for assignment in rv.enumerate_latin_squares(3):
            experiment = rv.observe(table, assignment)
            assert np.all(experiment.observed == 6.5)

    def test_table4_totals_depend_on_marked_cells(self, tables):
        table = tables["table4"]
        squares = list(rv.enumerate_latin_squares(4))
        same = next(s for s in squares if s.grid[0, 0] == s.grid[1, 1])
        diff = next(s for s in squares if s.grid[0, 0] != s.grid[1, 1])
        totals_same = sorted(treatment_means(rv.observe(table, same)).tolist())
        totals_diff = sorted(treatment_means(rv.observe(table, diff)).tolist())
        assert totals_same != totals_diff

    def test_design_mismatch_raises(self, tables):
        square = next(iter(rv.enumerate_latin_squares(3)))
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


class TestAnova:
    def test_table2_enumeration_mean_matches_reference(self, tables):
        table = tables["table2"]
        s0s = []
        for assignment in rv.enumerate_latin_squares(3):
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
            assignment = next(iter(rv.enumerate_latin_squares(3)))
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
        perms, index = stage_rows([np.array([[[0, 1], [0, 1]]])], 1)
        tables = row_tables("rcb", np.stack([small, large]), perms, np.ones(2))
        s0, s1 = batch_anova_rcb(tables, replicate_index(index, perms, 2))
        assert s0[0] == pytest.approx(step**2 / 4, rel=1e-9)
        assert s1[0] == pytest.approx(step**2 / 4, rel=1e-9)
        assert (s0[1], s1[1]) == (0.0, 0.0)

    def test_table4_f_takes_two_values(self, tables):
        values = set()
        for assignment in rv.enumerate_latin_squares(4):
            summary = rv.anova(rv.observe(tables["table4"], assignment))
            values.add(round(summary.f_stat, 9))
        assert values == {0.5, 3.0}

    def test_degrees_of_freedom(self, tables):
        rcb = rv.anova(rv.observe(tables["table1"], identity_rcb_assignment(2, 2)))
        assert (rcb.df_treatment, rcb.df_residual) == (1, 1)
        square = next(iter(rv.enumerate_latin_squares(3)))
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
    """(S0^2, S1^2) of each label grid by the batch kernel, staged from
    chunks of the given size so that staging merges across chunks."""
    perms, index = stage_rows(
        (labels[lo : lo + chunk] for lo in range(0, len(labels), chunk)), len(labels)
    )
    for row, distinct in enumerate(perms):
        assert np.array_equal(distinct[index[:, row]], labels[:, row])
    return batch_kernel(table, labels, chunk)


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
        perms, _ = stage_rows([labels], draws)
        assert all(len(distinct) < draws for distinct in perms)
        s0, s1 = _table_kernel(table, labels)
        for idx, assignment in enumerate(assignments):
            want0, want1, _ = fsum_anova(table, assignment)
            assert s0[idx] == pytest.approx(want0, rel=1e-9)
            assert s1[idx] == pytest.approx(want1, rel=1e-9)

    @pytest.mark.parametrize("t", [3, 16, 17])
    def test_staging_round_trips_packed_and_byte_keys(self, t):
        # rows of up to 16 labels are keyed as packed integers, longer ones
        # as bytes; both must give back every row, merged across chunks
        rng = np.random.default_rng(t)
        labels = np.argsort(rng.random((50, 3, t)), axis=2)
        labels[25:] = labels[:25]
        perms, index = stage_rows([labels[:20], labels[20:]], len(labels))
        for row, distinct in enumerate(perms):
            assert len(distinct) == len(np.unique(labels[:, row], axis=0))
            assert np.array_equal(distinct[index[:, row]], labels[:, row])

    @pytest.mark.parametrize("design", [rv.DesignKind.RCB, rv.DesignKind.LS])
    def test_a_stack_of_outcome_arrays_scores_as_each_alone(self, design):
        rng = np.random.default_rng(31)
        table = random_table(rng, design)
        labels = np.stack([a.labels() for a in all_assignments(table)])
        perms, index = stage_rows([labels], len(labels))
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
        perms, index = stage_rows([labels], len(labels))
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
