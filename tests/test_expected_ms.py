import numpy as np
import pytest

import randova as rv
from helpers import (
    enumeration_contrast_moments,
    enumeration_mean_squares,
    ls_interaction_free_table,
    random_ls_table,
    random_rcb_table,
    random_table,
    rcb_block_constant_table,
    sharp_null_table,
)


class TestReferenceValues:
    def test_table1(self, tables):
        ems = rv.expected_ms(tables["table1"])
        assert ems.e_s0 == pytest.approx(215.875, abs=1e-9)
        assert ems.e_s1 == pytest.approx(213.625, abs=1e-9)
        assert ems.difference == pytest.approx(2.25, abs=1e-9)
        assert ems.interaction_term == pytest.approx(2.25, abs=1e-9)
        assert ems.treatment_effect_term == pytest.approx(0.0, abs=1e-9)
        assert ems.ls_lower_bound is None

    def test_table2(self, tables):
        ems = rv.expected_ms(tables["table2"])
        assert ems.e_s0 == pytest.approx(252.07, abs=0.005)
        assert ems.e_s1 == pytest.approx(172.38, abs=0.005)
        assert ems.difference == pytest.approx(79.69, abs=0.01)

    def test_table3(self, tables):
        ems = rv.expected_ms(tables["table3"])
        assert ems.e_s0 == pytest.approx(4.96, abs=0.005)
        assert ems.e_s1 == pytest.approx(6.77, abs=0.005)
        assert ems.difference < 0

    def test_all_zero_table(self):
        table = rv.PotentialOutcomeTable(rv.DesignKind.LS, np.zeros((3, 3, 3)))
        ems = rv.expected_ms(table)
        assert ems.e_s0 == 0.0
        assert ems.e_s1 == 0.0
        assert ems.e_s0_neyman == 0.0
        assert ems.interaction_term == 0.0
        assert ems.treatment_effect_term == 0.0
        dec = rv.ls_difference_decomposition(table)
        assert dec.interaction_sum == 0.0
        assert dec.neg_eta_variance_sum == 0.0
        assert dec.correlation_term == 0.0
        assert dec.constant_case_difference == 0.0

    def test_degenerate_designs_raise(self):
        with pytest.raises(rv.DegenerateDesign):
            rv.expected_ms(
                rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.zeros((1, 2, 2)))
            )
        with pytest.raises(rv.DegenerateDesign):
            rv.expected_ms(
                rv.PotentialOutcomeTable(rv.DesignKind.LS, np.zeros((2, 2, 2)))
            )


class TestHistoricalExpression:
    def test_table1_value(self, tables):
        assert rv.expected_ms(tables["table1"]).e_s0_neyman == pytest.approx(
            213.625, abs=1e-9
        )

    def test_table2_scaled_subtraction(self, tables):
        # the omitted term scales the unscaled row+column interaction sum
        # by 1/(T-1)^2
        table = tables["table2"]
        ems = rv.expected_ms(table)
        dec = rv.ls_difference_decomposition(table)
        omitted = dec.interaction_sum / (3 - 1) ** 2
        assert ems.e_s0_neyman == pytest.approx(
            ems.e_s0 - omitted, rel=1e-12
        )
        assert omitted == pytest.approx(569.93 / 4, abs=0.005)

    @pytest.mark.parametrize("seed", range(10))
    def test_identity_on_random_tables(self, seed):
        rng = np.random.default_rng(600 + seed)
        for design in (rv.DesignKind.RCB, rv.DesignKind.LS):
            table = random_table(rng, design, sd=float(rng.uniform(0, 2)))
            ems = rv.expected_ms(table)
            historical = ems.e_s0_neyman
            scale = max(1.0, abs(ems.e_s0))
            assert abs(ems.e_s0 - historical - ems.interaction_term) <= 1e-12 * scale
            assert ems.interaction_term >= 0.0

    def test_treatment_constant_corrections_make_it_exact(self):
        rng = np.random.default_rng(77)
        table = rcb_block_constant_table(rng)
        ems = rv.expected_ms(table)
        assert ems.interaction_term == 0.0
        assert ems.e_s0_neyman == ems.e_s0
        assert rv.check_additivity(table).block_treatment == 0.0
        ls_table = ls_interaction_free_table(rng)
        ls_ems = rv.expected_ms(ls_table)
        assert ls_ems.interaction_term == 0.0
        assert ls_ems.e_s0_neyman == ls_ems.e_s0
        assert rv.check_additivity(ls_table).block_treatment == 0.0


class TestOracleEquivalence:
    """Enumeration means of S0^2, S1^2 equal the closed forms."""

    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table4"])
    def test_bundled_tables(self, tables, name):
        table = tables[name]
        mean_s0, mean_s1 = enumeration_mean_squares(table)
        ems = rv.expected_ms(table)
        assert mean_s0 == pytest.approx(ems.e_s0, rel=1e-9, abs=1e-12)
        assert mean_s1 == pytest.approx(ems.e_s1, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_tables(self, seed):
        rng = np.random.default_rng(700 + seed)
        if seed % 2 == 0:
            table = random_rcb_table(
                rng, num_blocks=int(rng.integers(2, 4)), num_treatments=3
            )
        else:
            table = random_ls_table(rng, order=int(rng.integers(3, 5)))
        mean_s0, mean_s1 = enumeration_mean_squares(table)
        ems = rv.expected_ms(table)
        assert mean_s0 == pytest.approx(ems.e_s0, rel=1e-9)
        assert mean_s1 == pytest.approx(ems.e_s1, rel=1e-9)

    def test_zero_variance_treatment_pair(self):
        # one treatment's outcome surface is exactly row+column additive, so
        # its residual variance is exactly zero and the correlation for pairs
        # involving it takes the flagged r = 0 convention; the closed forms
        # must still match enumeration because r only ever multiplies
        # sqrt(ss') = 0
        rng = np.random.default_rng(808)
        t = 4
        x = rng.integers(-9, 9, size=(t, t, t)).astype(float)
        rows = rng.integers(-8, 8, size=t).astype(float)
        cols = rng.integers(-8, 8, size=t).astype(float)
        x[:, :, 0] = rows[:, None] + cols[None, :]
        table = rv.PotentialOutcomeTable(rv.DesignKind.LS, x)
        dec = rv.decompose(table)
        assert dec.eta_variances[0] == 0.0
        assert 0 in dec.zero_variance_treatments
        assert np.all(dec.eta_correlations[0, 1:] == 0.0)
        mean_s0, mean_s1 = enumeration_mean_squares(table)
        ems = rv.expected_ms(table)
        assert mean_s0 == pytest.approx(ems.e_s0, rel=1e-9)
        assert mean_s1 == pytest.approx(ems.e_s1, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_technical_errors_enter_analytically(self, seed):
        # closed forms with sigma_eps > 0 equal noiseless enumeration means
        # plus sigma_eps^2 on both sides
        rng = np.random.default_rng(800 + seed)
        sd = float(rng.uniform(0.5, 3.0))
        design = rv.DesignKind.RCB if seed % 2 == 0 else rv.DesignKind.LS
        noisy = random_table(rng, design, sd=sd)
        noiseless = rv.PotentialOutcomeTable(design, noisy.outcomes)
        mean_s0, mean_s1 = enumeration_mean_squares(noiseless)
        ems = rv.expected_ms(noisy)
        assert ems.e_s0 == pytest.approx(mean_s0 + sd**2, rel=1e-9)
        assert ems.e_s1 == pytest.approx(mean_s1 + sd**2, rel=1e-9)


class TestNullOrderings:
    @pytest.mark.parametrize("seed", range(6))
    def test_rcb_null_makes_e_s0_dominate(self, seed):
        # force equal grand means, keep everything else arbitrary
        rng = np.random.default_rng(900 + seed)
        table = random_rcb_table(rng)
        dec = rv.decompose(table)
        x = table.outcomes - dec.grand_means[None, None, :]
        nulled = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)
        ems = rv.expected_ms(nulled)
        assert ems.e_s0 >= ems.e_s1 - 1e-9 * abs(ems.e_s1)
        assert ems.difference == pytest.approx(ems.interaction_term, rel=1e-9)

    def test_rcb_equality_iff_corrections_constant(self):
        rng = np.random.default_rng(31)
        table = rcb_block_constant_table(rng)
        dec = rv.decompose(table)
        x = table.outcomes - dec.grand_means[None, None, :]
        nulled = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)
        ems = rv.expected_ms(nulled)
        assert ems.e_s0 == pytest.approx(ems.e_s1, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_sharp_null_equalizes_both_designs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        design = rv.DesignKind.RCB if seed % 2 == 0 else rv.DesignKind.LS
        table = sharp_null_table(rng, design)
        ems = rv.expected_ms(table)
        assert ems.e_s0 == pytest.approx(ems.e_s1, rel=1e-9, abs=1e-12)

    def test_ls_difference_can_go_either_way(self):
        rng = np.random.default_rng(55)
        # dominant row/column-by-treatment interaction, no residual variation
        g = rng.normal(0, 10, size=(4, 4))
        h = rng.normal(0, 10, size=(4, 4))
        x = g[:, None, :] + h[None, :, :]
        interacting = rv.PotentialOutcomeTable(rv.DesignKind.LS, x)
        dec = rv.decompose(interacting)
        x = x - dec.grand_means[None, None, :]
        interacting = rv.PotentialOutcomeTable(rv.DesignKind.LS, x)
        assert rv.expected_ms(interacting).difference > 0

        # pure residual variation: remove all row/column structure
        z = rng.normal(0, 10, size=(4, 4, 4))
        z = z - z.mean(axis=1, keepdims=True)
        z = z - z.mean(axis=0, keepdims=True)
        residual_only = rv.PotentialOutcomeTable(rv.DesignKind.LS, z)
        ems = rv.expected_ms(residual_only)
        assert ems.interaction_term == pytest.approx(0.0, abs=1e-12)
        assert ems.difference < 0

    @pytest.mark.parametrize("seed", range(6))
    def test_ls_lower_bound_under_null(self, seed):
        rng = np.random.default_rng(1100 + seed)
        table = random_ls_table(rng)
        dec = rv.decompose(table)
        x = table.outcomes - dec.grand_means[None, None, :]
        nulled = rv.PotentialOutcomeTable(rv.DesignKind.LS, x)
        ems = rv.expected_ms(nulled)
        assert ems.ls_lower_bound is not None
        assert ems.difference >= ems.ls_lower_bound - 1e-9 * abs(ems.ls_lower_bound)


class TestLsDifferenceDecomposition:
    def test_table2_components(self, tables):
        dec = rv.ls_difference_decomposition(tables["table2"])
        assert dec.interaction_sum == pytest.approx(569.93, abs=0.005)
        assert dec.neg_eta_variance_sum == pytest.approx(-313.56, abs=0.005)
        assert dec.correlation_term == pytest.approx(62.41, abs=0.005)

    def test_table3_components(self, tables):
        dec = rv.ls_difference_decomposition(tables["table3"])
        assert dec.interaction_sum == pytest.approx(9.48, abs=0.005)
        assert dec.neg_eta_variance_sum == pytest.approx(-14.59, abs=0.005)
        assert dec.correlation_term == pytest.approx(-2.11, abs=0.005)

    def test_wrong_design_rejected(self, tables):
        with pytest.raises(rv.WrongDesign):
            rv.ls_difference_decomposition(tables["table1"])

    @pytest.mark.parametrize("seed", range(6))
    def test_components_assemble_the_difference(self, seed):
        # difference + treatment term = (sum of components) / (T-1)^2
        rng = np.random.default_rng(1200 + seed)
        table = random_ls_table(rng)
        t = table.num_treatments
        ems = rv.expected_ms(table)
        dec = rv.ls_difference_decomposition(table)
        assembled = (
            dec.interaction_sum + dec.neg_eta_variance_sum + dec.correlation_term
        ) / (t - 1) ** 2
        assert ems.difference + ems.treatment_effect_term == pytest.approx(
            assembled, rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_constant_case_matches_when_moments_constant(self, seed):
        # sharp-null tables have constant residual variance and correlation 1,
        # so the simplified expression equals (T-1)^2 times the difference
        rng = np.random.default_rng(1300 + seed)
        table = sharp_null_table(rng, rv.DesignKind.LS)
        t = table.num_treatments
        ems = rv.expected_ms(table)
        dec = rv.ls_difference_decomposition(table)
        assert dec.constant_case_difference == pytest.approx(
            (t - 1) ** 2 * ems.difference, rel=1e-9, abs=1e-9
        )


class TestMeanDifferenceVariance:
    def test_no_variation_means_zero_variance(self):
        rng = np.random.default_rng(2)
        table = sharp_null_table(rng, rv.DesignKind.RCB)
        # residuals are flat across treatments but not zero; build a table
        # with eta identically zero instead
        units = rng.normal(size=(3, 1))
        x = np.tile(units[:, :, None], (1, 3, 3))
        flat = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)
        result = rv.mean_difference_variance(flat, 0, 1)
        assert result.variance == pytest.approx(0.0, abs=1e-18)

    def test_table1_matches_enumeration(self, tables):
        result = rv.mean_difference_variance(tables["table1"], 0, 1)
        mean, var = enumeration_contrast_moments(tables["table1"], 0, 1)
        assert result.variance == pytest.approx(213.625, abs=1e-9)
        assert result.variance == pytest.approx(var, rel=1e-9)
        assert result.estimate_is_unbiased_for == pytest.approx(mean, abs=1e-12)

    @pytest.mark.parametrize("name", ["table2", "table3"])
    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2), (2, 0)])
    def test_ls_tables_match_enumeration(self, tables, name, pair):
        table = tables[name]
        result = rv.mean_difference_variance(table, *pair)
        mean, var = enumeration_contrast_moments(table, *pair)
        assert result.variance == pytest.approx(var, rel=1e-9)
        assert result.estimate_is_unbiased_for == pytest.approx(mean, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_unbiasedness_on_random_tables(self, seed):
        rng = np.random.default_rng(1400 + seed)
        design = rv.DesignKind.RCB if seed % 2 == 0 else rv.DesignKind.LS
        table = random_table(rng, design)
        dec = rv.decompose(table)
        mean, var = enumeration_contrast_moments(table, 0, 1)
        result = rv.mean_difference_variance(table, 0, 1)
        truth = float(dec.grand_means[0] - dec.grand_means[1])
        assert mean == pytest.approx(truth, abs=1e-12)
        assert result.estimate_is_unbiased_for == pytest.approx(truth, abs=1e-12)
        assert result.variance == pytest.approx(var, rel=1e-9)

    def test_technical_error_contribution(self, tables):
        noisy = rv.PotentialOutcomeTable(
            rv.DesignKind.RCB, tables["table1"].outcomes, technical_error_sd=2.0
        )
        base = rv.mean_difference_variance(tables["table1"], 0, 1).variance
        with_noise = rv.mean_difference_variance(noisy, 0, 1).variance
        assert with_noise == pytest.approx(base + 2 * 4.0 / 2, rel=1e-12)

    def test_same_treatment_rejected(self, tables):
        with pytest.raises(rv.SameTreatment):
            rv.mean_difference_variance(tables["table1"], 1, 1)
        with pytest.raises(rv.DimensionMismatch):
            rv.mean_difference_variance(tables["table1"], 0, 5)
