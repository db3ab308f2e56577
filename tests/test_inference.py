import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import randova as rv
import randova.inference as inference
from randova.anova import design_dfs, f_from_sums
from randova.enumeration import assignment_stream
from helpers import (
    additive_table,
    all_assignments,
    batch_kernel,
    fsum_anova,
    label_grid_anova,
    observed_by_loops,
    random_ls_table,
    random_rcb_table,
    rcb_block_constant_table,
    sharp_null_table,
    two_value_witness,
)


class TestExactDistribution:
    def test_table4_two_point_support(self, tables):
        summary = rv.exact_distribution(tables["table4"])
        assert summary.assignment_count == 576
        assert summary.is_exact
        assert len(summary.support) == 2
        by_f = {round(p.f_stat, 9): p for p in summary.support}
        assert set(by_f) == {0.5, 3.0}
        low, high = by_f[0.5], by_f[3.0]
        assert low.probability == pytest.approx(2 / 3, abs=1e-12)
        assert high.probability == pytest.approx(1 / 3, abs=1e-12)
        assert low.s0_sq == pytest.approx(1 / 6, rel=1e-12)
        assert low.s1_sq == pytest.approx(1 / 12, rel=1e-12)
        assert high.s0_sq == pytest.approx(1 / 12, rel=1e-12)
        assert high.s1_sq == pytest.approx(1 / 4, rel=1e-12)

    def test_probabilities_sum_to_one(self, tables):
        for name in ("table1", "table2", "table3", "table4"):
            summary = rv.exact_distribution(tables[name])
            total = math.fsum(p.probability for p in summary.support)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert all(p.probability >= 0 for p in summary.support)

    def test_table2_means_match_reference(self, tables):
        summary = rv.exact_distribution(tables["table2"])
        assert summary.mean_s0 == pytest.approx(252.07, abs=0.005)
        assert summary.mean_s1 == pytest.approx(172.38, abs=0.005)
        assert summary.assignment_count == 12

    def test_means_match_support_weighted_means(self, tables):
        for name in ("table1", "table2", "table3", "table4"):
            summary = rv.exact_distribution(tables[name])
            weighted_s0 = math.fsum(
                p.s0_sq * p.probability for p in summary.support
            )
            weighted_s1 = math.fsum(
                p.s1_sq * p.probability for p in summary.support
            )
            assert summary.mean_s0 == pytest.approx(weighted_s0, rel=1e-9)
            assert summary.mean_s1 == pytest.approx(weighted_s1, rel=1e-9)

    @pytest.mark.parametrize("value", [2.0, 0.1, 1e6 + 0.1])
    @pytest.mark.parametrize("design", [rv.DesignKind.RCB, rv.DesignKind.LS])
    def test_constant_table_single_degenerate_point(self, design, value):
        table = rv.PotentialOutcomeTable(design, np.full((3, 3, 3), value))
        summary = rv.exact_distribution(table)
        assert len(summary.support) == 1
        point = summary.support[0]
        assert point.s0_sq == 0.0
        assert point.s1_sq == 0.0
        assert math.isnan(point.f_stat)
        assert point.probability == 1.0

    @pytest.mark.parametrize(
        "design, n, t, blocks",
        [
            ("rcb", 3, 3, None),
            ("ls", 3, 3, None),
            ("ls", 4, 4, None),
            ("rcb", 3, 3, [1.0, 4.0, -2.0]),
            ("ls", 3, 3, [1.0, 4.0, -2.0]),
        ],
    )
    def test_additive_table_without_unit_variation_is_one_infinite_atom(
        self, design, n, t, blocks
    ):
        # block (LS: row) and treatment effects only, not dyadic: S0^2 is
        # zero for every assignment
        if blocks is None:
            x = np.zeros((n, t, t)) + np.array([0.1, 0.7, 1e6 + 0.3, 2.9])[:t]
        else:
            x = np.zeros((n, t, t)) + np.array(blocks)[:, None, None] + [0.3, 0.1, 0.7]
        table = rv.PotentialOutcomeTable(design, x)
        summary = rv.exact_distribution(table)
        assert summary.f_stat.tolist() == [math.inf]
        assert summary.s0_sq.tolist() == [0.0]
        assert summary.s1_sq[0] > 0.0

    def test_closed_forms_match_distribution_means(self, tables):
        for name in ("table1", "table2", "table3", "table4"):
            summary = rv.exact_distribution(tables[name])
            ems = rv.expected_ms(tables[name])
            assert summary.mean_s0 == pytest.approx(ems.e_s0, rel=1e-9, abs=1e-12)
            assert summary.mean_s1 == pytest.approx(ems.e_s1, rel=1e-9, abs=1e-12)

    def test_noisy_table_rejected(self, tables):
        noisy = rv.PotentialOutcomeTable(
            rv.DesignKind.LS, tables["table2"].outcomes, technical_error_sd=0.5
        )
        with pytest.raises(rv.TechnicalErrorsPresent):
            rv.exact_distribution(noisy)

    def test_space_too_large_propagates(self):
        big = rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.zeros((9, 5, 5)))
        with pytest.raises(rv.SpaceTooLarge):
            rv.exact_distribution(big)
        # sampling the same table works
        space = rv.RandomizationSpace.sample(20, seed=0)
        summary = rv.exact_distribution(big, space)
        assert summary.assignment_count == 20
        assert not summary.is_exact

    def test_sampled_space(self, tables):
        space = rv.RandomizationSpace.sample(300, seed=5)
        summary = rv.exact_distribution(tables["table4"], space)
        assert not summary.is_exact
        assert summary.assignment_count == 300
        # the two-point structure survives sampling
        assert {round(p.f_stat, 9) for p in summary.support} <= {0.5, 3.0}
        total = math.fsum(p.probability for p in summary.support)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestType1Error:
    def test_table4_zero_rejection(self, tables):
        report = rv.type1_error(tables["table4"], alpha=0.05)
        assert report.rejection_probability == 0.0
        assert report.cutoff == pytest.approx(4.76, abs=0.005)
        assert report.null_status.neyman_null_holds
        assert report.null_status.fisher_sharp_null_holds

    def test_table2_matches_bruteforce(self, tables):
        table = tables["table2"]
        report = rv.type1_error(table, alpha=0.05)
        cutoff = rv.f_quantile(rv.FReference(2, 2), 0.95)
        rejected = 0
        for assignment in rv.enumerate_latin_squares(3):
            _, _, f_stat = fsum_anova(table, assignment)
            if f_stat > cutoff:
                rejected += 1
        assert report.rejection_probability == pytest.approx(
            rejected / 12, abs=1e-12
        )
        assert not report.null_status.fisher_sharp_null_holds

    def test_constant_table_never_rejects(self):
        table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.full((2, 3, 3), 1.0))
        for alpha in (0.01, 0.05, 0.5):
            report = rv.type1_error(table, alpha=alpha)
            assert report.rejection_probability == 0.0

    def test_invalid_alpha(self, tables):
        for alpha in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(rv.InvalidAlpha):
                rv.type1_error(tables["table4"], alpha=alpha)

    def test_sampled_space_agrees_for_table4(self, tables):
        space = rv.RandomizationSpace.sample(400, seed=11)
        report = rv.type1_error(tables["table4"], alpha=0.05, space=space)
        assert report.rejection_probability == 0.0


class TestSurvivalCurve:
    def test_table4_step_structure(self, tables):
        curve = rv.survival_curve(tables["table4"])
        assert curve.cutoffs.shape == (200,)
        assert curve.cutoffs[0] == 0.0
        # upper end: max(2 * q95, largest finite F) = 2 * 4.757...
        assert curve.cutoffs[-1] == pytest.approx(
            2 * rv.f_quantile(rv.FReference(3, 6), 0.95), rel=1e-9
        )
        assert np.all(np.diff(curve.p_randomization) <= 1e-15)
        assert np.all(np.diff(curve.p_reference) <= 1e-15)
        assert np.all((curve.p_randomization >= 0) & (curve.p_randomization <= 1))
        # two-step function: values are only {1, 2/3, 1/3, 0} along the grid
        distinct = sorted(set(np.round(curve.p_randomization, 12).tolist()))
        assert distinct == pytest.approx([0.0, 1 / 3, 1.0])

    def test_table4_at_cutoff(self, tables):
        curve = rv.survival_curve(tables["table4"], cutoff_grid=np.array([4.76]))
        assert curve.p_randomization[0] == 0.0
        assert curve.p_reference[0] == pytest.approx(0.05, abs=5e-4)

    def test_reference_at_zero_is_one(self, tables):
        curve = rv.survival_curve(tables["table2"], cutoff_grid=np.array([0.0]))
        assert curve.p_reference[0] == 1.0
        assert curve.p_randomization[0] <= 1.0

    def test_matches_direct_support_computation(self, tables):
        # internal consistency: p_randomization equals 1 - CDF rebuilt from
        # the sorted support
        table = tables["table3"]
        summary = rv.exact_distribution(table)
        curve = rv.survival_curve(table)
        finite = sorted(
            (p.f_stat, p.probability)
            for p in summary.support
            if not math.isnan(p.f_stat)
        )
        for k, observed in zip(curve.cutoffs.tolist(), curve.p_randomization):
            cdf = math.fsum(prob for f, prob in finite if f <= k)
            nan_mass = math.fsum(
                p.probability for p in summary.support if math.isnan(p.f_stat)
            )
            assert observed == pytest.approx(1.0 - cdf - nan_mass, abs=1e-12)

    def test_custom_grid_points(self, tables):
        curve = rv.survival_curve(tables["table4"], grid_points=37)
        assert curve.cutoffs.shape == (37,)


class TestCentralClaim:
    """Tables where both nulls hold, the interaction vanishes, expected mean
    squares agree, and yet the F-test never rejects at the 0.05 level."""

    def test_pinned_witness(self, tables):
        table = tables["table4"]
        ems = rv.expected_ms(table)
        assert ems.interaction_term == pytest.approx(0.0, abs=1e-15)
        assert ems.e_s0 == pytest.approx(ems.e_s1, rel=1e-12)
        assert rv.type1_error(table, alpha=0.05).rejection_probability == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_witnesses(self, seed):
        rng = np.random.default_rng(2000 + seed)
        table = two_value_witness(rng)
        ems = rv.expected_ms(table)
        scale = max(1.0, abs(ems.e_s0))
        assert rv.neyman_null_holds(table)
        assert rv.fisher_sharp_null_holds(table)
        assert ems.interaction_term <= 1e-12 * scale
        assert abs(ems.e_s0 - ems.e_s1) <= 1e-9 * scale
        summary = rv.exact_distribution(table)
        finite_f = {round(p.f_stat, 9) for p in summary.support}
        assert finite_f == {0.5, 3.0}
        report = rv.type1_error(table, alpha=0.05)
        assert report.rejection_probability == 0.0


def _bounded_sharp_null_table(rng, design):
    if design is rv.DesignKind.RCB:
        return sharp_null_table(rng, design, num_blocks=int(rng.integers(2, 4)))
    return sharp_null_table(rng, design, order=int(rng.integers(3, 5)))


def _all_f_values(table):
    labels = np.stack([a.labels() for a in all_assignments(table)])
    s0, s1 = batch_kernel(table, labels)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = s1 / s0
    return np.where(np.isnan(f), -np.inf, f)


class TestRandomizationTestExactness:
    """Under the sharp null the enumeration-calibrated test is exact up to
    discreteness: rejecting the floor(alpha*n) largest statistics (ties broken
    by enumeration index) rejects with probability in [alpha - 1/n, alpha]."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_based_rejection_rate(self, seed):
        rng = np.random.default_rng(2100 + seed)
        design = rv.DesignKind.RCB if seed % 2 == 0 else rv.DesignKind.LS
        table = _bounded_sharp_null_table(rng, design)
        f_values = _all_f_values(table)
        n = f_values.shape[0]
        order = np.lexsort((np.arange(n), -f_values))
        for alpha in (0.01, 0.05, 0.10, 0.25):
            k = math.floor(alpha * n)
            rate = len(set(order[:k].tolist())) / n
            assert alpha - 1.0 / n <= rate <= alpha

    @pytest.mark.parametrize("seed", range(4))
    def test_p_value_validity(self, seed):
        # the tie-conservative p-value P(F >= f_obs) is valid: P(p <= a) <= a
        rng = np.random.default_rng(2200 + seed)
        design = rv.DesignKind.LS if seed % 2 == 0 else rv.DesignKind.RCB
        table = _bounded_sharp_null_table(rng, design)
        f_values = _all_f_values(table)
        n = f_values.shape[0]
        ordered = np.sort(f_values)
        # p(f) = #{g >= f} / n via binary search on the sorted statistics
        p_values = (n - np.searchsorted(ordered, f_values, side="left")) / n
        for alpha in (0.05, 0.1, 0.2, 0.5):
            assert np.mean(p_values <= alpha) <= alpha + 1e-12


class TestMonteCarlo:
    def test_deterministic_given_seed(self, tables):
        kwargs = dict(sigma_eps=0.01, replications=5, alpha=0.05, seed=99)
        first = rv.monte_carlo_with_errors(tables["table4"], **kwargs)
        second = rv.monte_carlo_with_errors(tables["table4"], **kwargs)
        assert first == second

    def test_single_replication(self, tables):
        report = rv.monte_carlo_with_errors(
            tables["table4"], sigma_eps=0.01, replications=1, seed=3
        )
        assert report.standard_error is None
        assert report.rejection_probabilities is None
        again = rv.monte_carlo_with_errors(
            tables["table4"], sigma_eps=0.01, replications=1, seed=3
        )
        assert report.mean_rejection == again.mean_rejection

    def test_keep_replications(self, tables):
        report = rv.monte_carlo_with_errors(
            tables["table4"],
            sigma_eps=0.01,
            replications=4,
            seed=1,
            keep_replications=True,
        )
        assert report.rejection_probabilities is not None
        assert len(report.rejection_probabilities) == 4
        assert report.mean_rejection == pytest.approx(
            math.fsum(report.rejection_probabilities) / 4, rel=1e-12
        )

    def test_tiny_noise_recovers_exact_type1(self, tables):
        table = tables["table2"]
        exact = rv.type1_error(table, alpha=0.05).rejection_probability
        report = rv.monte_carlo_with_errors(
            table, sigma_eps=1e-12, replications=40, alpha=0.05, seed=8
        )
        assert report.mean_rejection == pytest.approx(exact, abs=0.02)

    def test_invalid_arguments(self, tables):
        with pytest.raises(rv.NegativeErrorSd):
            rv.monte_carlo_with_errors(tables["table4"], sigma_eps=0.0)
        with pytest.raises(rv.NegativeErrorSd):
            rv.monte_carlo_with_errors(tables["table4"], sigma_eps=-1.0)
        with pytest.raises(ValueError):
            rv.monte_carlo_with_errors(
                tables["table4"], sigma_eps=0.01, replications=0
            )
        with pytest.raises(rv.InvalidAlpha):
            rv.monte_carlo_with_errors(
                tables["table4"], sigma_eps=0.01, alpha=1.5
            )

    def test_standard_error_formula(self, tables):
        report = rv.monte_carlo_with_errors(
            tables["table4"],
            sigma_eps=0.5,
            replications=16,
            seed=21,
            keep_replications=True,
        )
        ps = report.rejection_probabilities
        mean = math.fsum(ps) / len(ps)
        var = math.fsum((p - mean) ** 2 for p in ps) / (len(ps) - 1)
        assert report.standard_error == pytest.approx(
            math.sqrt(var / len(ps)), rel=1e-12
        )


def _reference_rejections(table, sigma_eps, replications, seed, space):
    """Per-replication P(F > cutoff) by the label-grid kernel over every
    label grid of the space, replaying the Monte Carlo noise streams."""
    stream, _, _ = assignment_stream(table, space)
    labels = np.stack([a.labels() for a in stream])
    df1, df0 = design_dfs(table.design, table.num_blocks, table.num_treatments)
    cutoff = rv.f_quantile(rv.FReference(df1, df0), 0.95)
    rejections = []
    for child in np.random.SeedSequence(seed).spawn(replications):
        noise = np.random.default_rng(child).normal(0.0, sigma_eps, size=table.outcomes.shape)
        s0, s1 = label_grid_anova(table.design, table.outcomes + noise, labels)
        rejections.append(float(np.mean(f_from_sums(s0, s1) > cutoff)))
    return rejections


def _mc_tables():
    rng = np.random.default_rng(1935)
    bundled = rv.load_bundled_tables()
    taus = np.array([0.1, 0.7, 1e6 + 0.3])
    return {
        **bundled,
        "rcb_block_constant": rcb_block_constant_table(rng, 3, 3),
        "two_value_witness": two_value_witness(rng),
        "additive_rcb": additive_table(rng, "rcb", num_blocks=3),
        "additive_ls": additive_table(rng, "ls", order=4),
        # degenerate: constant (0/0) and without unit variation (S0^2 = 0 < S1^2)
        "constant_ls": rv.PotentialOutcomeTable(rv.DesignKind.LS, np.full((3, 3, 3), 1e6 + 0.1)),
        "no_unit_variation_rcb": rv.PotentialOutcomeTable(
            rv.DesignKind.RCB, np.zeros((3, 3, 3)) + taus
        ),
    }


MC_TABLES = _mc_tables()


class TestMonteCarloAgainstBatchKernels:
    """Every replication's rejection equals that of the label-grid kernel
    (`helpers.label_grid_anova`) on the same noise, on tables where the zero
    rule decides inf and NaN."""

    @pytest.mark.parametrize("sigma_eps", [1e-20, 1e-12, 1e-6, 0.01, 1.0])
    @pytest.mark.parametrize("name", sorted(MC_TABLES))
    def test_each_replication_matches(self, name, sigma_eps):
        table = MC_TABLES[name]
        space = rv.RandomizationSpace.exact()
        report = rv.monte_carlo_with_errors(
            table, sigma_eps=sigma_eps, replications=6, seed=17, keep_replications=True
        )
        want = _reference_rejections(table, sigma_eps, 6, 17, space)
        assert list(report.rejection_probabilities) == want

    @pytest.mark.parametrize("rows_per_call", [100, 1000])
    def test_groups_and_slices_do_not_change_replications(self, monkeypatch, rows_per_call):
        # table4 has 576 squares: 100 rows per call slices the assignments,
        # 1000 scores one replication per call, the default 28 per call
        monkeypatch.setattr(inference, "_MC_ROWS", rows_per_call)
        table = MC_TABLES["table4"]
        report = rv.monte_carlo_with_errors(
            table, sigma_eps=0.5, replications=40, seed=3, keep_replications=True
        )
        want = _reference_rejections(table, 0.5, 40, 3, rv.RandomizationSpace.exact())
        assert list(report.rejection_probabilities) == want

    @pytest.mark.parametrize(
        "table",
        [
            random_rcb_table(np.random.default_rng(31), 4, 4),
            random_ls_table(np.random.default_rng(32), 5),
        ],
        ids=["rcb4x4", "ls5"],
    )
    def test_sampled_space_matches(self, table):
        space = rv.RandomizationSpace.sample(3000, seed=9)
        report = rv.monte_carlo_with_errors(
            table, sigma_eps=0.3, replications=12, seed=5, space=space, keep_replications=True
        )
        assert list(report.rejection_probabilities) == _reference_rejections(
            table, 0.3, 12, 5, space
        )


class TestOracleEquivalenceRandom:
    """Module-spanning oracle: enumeration means equal closed forms."""

    @pytest.mark.parametrize("seed", range(6))
    def test_distribution_means_equal_closed_forms(self, seed):
        rng = np.random.default_rng(2300 + seed)
        if seed % 2 == 0:
            table = random_rcb_table(rng, num_treatments=3)
        else:
            table = random_ls_table(rng)
        summary = rv.exact_distribution(table)
        ems = rv.expected_ms(table)
        assert summary.mean_s0 == pytest.approx(ems.e_s0, rel=1e-9)
        assert summary.mean_s1 == pytest.approx(ems.e_s1, rel=1e-9)


def _atom_count(values):
    ranks = rv.inference._atom_ranks(np.array(values, dtype=float))
    return len(set(ranks.tolist()))


class TestAtomRule:
    """Neighbouring distinct values share an atom when their gap is at most
    1e-12 times the larger one."""

    def test_twins_across_a_12th_digit_rounding_boundary_are_one_atom(self):
        assert _atom_count([2.0000000000049996, 2.0000000000050004]) == 1

    def test_values_1e_11_apart_are_two_atoms(self):
        assert _atom_count([3.0, 3.0 * (1.0 + 1e-11)]) == 2

    def test_ulp_neighbours_of_a_power_of_ten_are_one_atom(self):
        values = [np.nextafter(1000.0, 0.0), 1000.0, np.nextafter(1000.0, np.inf)]
        assert _atom_count(values) == 1

    def test_signed_zeros_are_one_atom(self):
        assert _atom_count([0.0, -0.0]) == 1

    def test_zero_and_a_tiny_value_are_two_atoms(self):
        assert _atom_count([0.0, 1.7e-33]) == 2

    def test_gaps_chain_within_an_atom(self):
        # each gap is below the tolerance, the whole span is not
        assert _atom_count([1.0, 1.0 + 9e-13, 1.0 + 1.8e-12]) == 1

    def test_ranks_follow_the_value_order(self):
        values = np.array([5.0, 1.0, 5.0 * (1.0 + 2**-52), 3.0, 1.0])
        assert rv.inference._atom_ranks(values).tolist() == [2, 0, 2, 1, 0]


def _exact_mean_squares(table, assignment):
    """(S0^2, S1^2) of one assignment in exact rational arithmetic."""
    y = [[Fraction(v) for v in row] for row in observed_by_loops(table, assignment).tolist()]
    grid = assignment.labels().tolist()
    n, t = len(y), len(y[0])
    cells = [(i, j) for i in range(n) for j in range(t)]
    row_means = [sum(row) / t for row in y]
    grand = sum(row_means) / n
    if table.design is rv.DesignKind.RCB:
        df1, df0 = t - 1, (n - 1) * (t - 1)
        group_means = [sum(row[k] for row in y) / n for k in range(t)]
        resid = [y[i][k] - group_means[k] - row_means[i] + grand for i, k in cells]
    else:
        df1, df0 = t - 1, (t - 1) * (t - 2)
        group_means = [sum(y[i][j] for i, j in cells if grid[i][j] == k) / t for k in range(t)]
        col_means = [sum(row[j] for row in y) / t for j in range(t)]
        resid = [
            y[i][j] - row_means[i] - col_means[j] - group_means[grid[i][j]] + 2 * grand
            for i, j in cells
        ]
    s0 = sum(r * r for r in resid) / df0
    s1 = Fraction(n, df1) * sum((m - grand) ** 2 for m in group_means)
    return s0, s1


@pytest.mark.parametrize("design", [rv.DesignKind.RCB, rv.DesignKind.LS])
@pytest.mark.parametrize("seed", range(6))
def test_atoms_are_the_distinct_exact_values(design, seed):
    """On integer tables the atoms, and their counts, are the distinct exact
    rational values of (S0^2, S1^2) over all assignments."""
    rng = np.random.default_rng(4100 + seed)
    shape = (3, 3, 3) if design is rv.DesignKind.RCB else (4, 4, 4)
    table = rv.PotentialOutcomeTable(design, rng.integers(0, 4, size=shape).astype(float))
    exact = Counter(_exact_mean_squares(table, a) for a in all_assignments(table))
    summary = rv.exact_distribution(table)
    assert len(summary.counts) == len(exact)
    for s0, s1, count in zip(summary.s0_sq, summary.s1_sq, summary.counts):
        matches = [
            pair
            for pair in exact
            if math.isclose(s0, pair[0], rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(s1, pair[1], rel_tol=1e-9, abs_tol=1e-12)
        ]
        assert len(matches) == 1
        assert exact[matches[0]] == count
        # the zero rule: a float zero is an exact zero and the converse
        assert (s0 == 0.0) == (matches[0][0] == 0)
        assert (s1 == 0.0) == (matches[0][1] == 0)


@pytest.mark.parametrize("design, shape", [("ls", (4, 4, 4)), ("rcb", (4, 3, 3))])
def test_large_treatment_effects_keep_every_mean_square_exact(design, shape):
    """Treatment effects of about 100 beside 1e-7 unit noise: every atom of
    S0^2 and S1^2 is within 1e-12 relative of the exact rational values of
    its assignments, and the counts add up."""
    rng = np.random.default_rng(4200)
    taus = rng.normal(0.0, 100.0, size=shape[2])
    x = taus + 1e-7 * rng.normal(size=shape)
    table = rv.PotentialOutcomeTable(design, x)
    exact = Counter(_exact_mean_squares(table, a) for a in all_assignments(table))
    summary = rv.exact_distribution(table)
    assert summary.assignment_count == sum(exact.values())
    for s0, s1, count in zip(summary.s0_sq, summary.s1_sq, summary.counts):
        matches = [
            pair
            for pair in exact
            if math.isclose(s0, pair[0], rel_tol=1e-12, abs_tol=0.0)
            and math.isclose(s1, pair[1], rel_tol=1e-12, abs_tol=0.0)
        ]
        assert sum(exact[pair] for pair in matches) == count


class TestProbabilityQuery:
    @staticmethod
    def _summary():
        # F atoms 0.5, 2.0, inf (S0^2 = 0 < S1^2) and NaN (0/0): 1, 2, 3, 4 assignments
        return rv.RandomizationSummary(
            design=rv.DesignKind.RCB,
            f_stat=np.array([0.5, 2.0, np.inf, np.nan]),
            s0_sq=np.array([2.0, 1.0, 0.0, 0.0]),
            s1_sq=np.array([1.0, 2.0, 3.0, 0.0]),
            counts=np.array([1, 2, 3, 4]),
            mean_s0=0.4,
            mean_s1=1.4,
            is_exact=True,
            assignment_count=10,
            df_treatment=2,
            df_residual=2,
        )

    def test_strict_at_an_atom(self):
        summary = self._summary()
        assert summary.probability_f_above(0.5) == 5 / 10
        assert summary.probability_f_above(np.nextafter(0.5, 0.0)) == 6 / 10
        assert summary.probability_f_above(2.0) == 3 / 10

    def test_tails(self):
        summary = self._summary()
        # below the smallest F: everything but the NaN mass
        assert summary.probability_f_above(-1.0) == 1.0 - 4 / 10
        assert summary.probability_f_above(-math.inf) == 6 / 10
        # above the largest finite F: only the infinite atoms
        assert summary.probability_f_above(1e300) == 3 / 10
        assert summary.probability_f_above(math.inf) == 0.0
        assert summary.probability_f_above(math.nan) == 0.0

    def test_support_is_built_from_the_columns(self):
        support = self._summary().support
        assert [p.probability for p in support] == [0.1, 0.2, 0.3, 0.4]
        assert [p.s0_sq for p in support] == [2.0, 1.0, 0.0, 0.0]
        assert support[2].f_stat == math.inf and math.isnan(support[3].f_stat)

    def test_equal_summaries_compare_equal(self, tables):
        assert rv.exact_distribution(tables["table2"]) == rv.exact_distribution(tables["table2"])
        assert rv.exact_distribution(tables["table2"]) != rv.exact_distribution(tables["table3"])
        degenerate = rv.PotentialOutcomeTable(rv.DesignKind.LS, np.full((3, 3, 3), 2.0))
        assert rv.exact_distribution(degenerate) == rv.exact_distribution(degenerate)

    def test_equal_summaries_hash_equal(self, tables):
        a, b = rv.exact_distribution(tables["table2"]), rv.exact_distribution(tables["table2"])
        assert hash(a) == hash(b) and len({a, b}) == 1
        summary = self._summary()
        # another NaN bit pattern and a negative zero: equal, so the same hash
        other_nan = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), dtype=float)[0]
        twin = dataclasses.replace(
            summary,
            f_stat=np.array([0.5, 2.0, np.inf, other_nan]),
            s0_sq=np.array([2.0, 1.0, -0.0, 0.0]),
        )
        assert twin == summary and hash(twin) == hash(summary)

    def test_strict_on_a_real_table(self, tables):
        summary = rv.exact_distribution(tables["table3"])
        n = summary.assignment_count
        for f in summary.f_stat[np.isfinite(summary.f_stat)].tolist():
            above = sum(p.probability * n for p in summary.support if p.f_stat > f)
            assert summary.probability_f_above(f) * n == pytest.approx(above, abs=1e-9)

    @pytest.mark.parametrize("name", ["table2", "table3"])
    def test_matches_the_sum_over_atoms_within_one_ulp(self, tables, name):
        summary = rv.exact_distribution(tables[name])
        grid = rv.survival_curve(tables[name]).cutoffs.tolist()
        grid += summary.f_stat.tolist() + [-1.0, math.inf]
        for k in grid:
            old = math.fsum(p.probability for p in summary.support if p.f_stat > k)
            new = summary.probability_f_above(k)
            assert abs(new - old) <= math.ulp(old)
