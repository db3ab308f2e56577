import math

import numpy as np
import pytest

import randova as rv
from randova.potential_outcomes import fisher_sharp_null_holds, neyman_null_holds
from helpers import (
    additive_table,
    decomposition_moments_by_loops,
    ls_interaction_free_table,
    random_ls_table,
    random_rcb_table,
    random_table,
    rcb_block_constant_table,
    sharp_null_table,
)


class TestValidate:
    def test_accepts_bundled_rcb(self, tables):
        table = tables["table1"]
        assert rv.validate(table) is table
        assert table.num_blocks == 2
        assert table.num_treatments == 2

    def test_accepts_degenerate_ls_of_zeros(self):
        table = rv.PotentialOutcomeTable(rv.DesignKind.LS, np.zeros((3, 3, 3)))
        assert rv.validate(table) is table

    def test_rejects_shape_contradiction(self):
        bad = rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.zeros((2, 3, 2)))
        with pytest.raises(rv.DimensionMismatch):
            rv.validate(bad)

    def test_rejects_wrong_rank(self):
        with pytest.raises(rv.DimensionMismatch):
            rv.validate(rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.zeros((2, 2))))

    def test_rejects_non_square_ls(self):
        with pytest.raises(rv.DimensionMismatch):
            rv.validate(rv.PotentialOutcomeTable(rv.DesignKind.LS, np.zeros((3, 3, 4))))

    def test_rejects_single_treatment(self):
        with pytest.raises(rv.DimensionMismatch):
            rv.validate(rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.zeros((2, 1, 1))))

    def test_rejects_nan_entry(self):
        x = np.zeros((2, 2, 2))
        x[1, 0, 1] = np.nan
        with pytest.raises(rv.NonFiniteEntry, match="block/row 2"):
            rv.validate(rv.PotentialOutcomeTable(rv.DesignKind.RCB, x))

    def test_rejects_negative_error_sd(self):
        with pytest.raises(rv.NegativeErrorSd):
            rv.validate(
                rv.PotentialOutcomeTable(
                    rv.DesignKind.LS, np.zeros((3, 3, 3)), technical_error_sd=-0.1
                )
            )

    @pytest.mark.parametrize("sd", [math.inf, math.nan, 2.0**477 * 1.5])
    def test_rejects_error_sd_beyond_the_magnitude_bound(self, sd):
        # 1.5 * 2^477 is above 2^480 / 9 units; unbounded, expected_ms
        # squares the sd and overflows from about 1.3e154 on
        table = rv.PotentialOutcomeTable(rv.DesignKind.LS, np.zeros((3, 3, 3)), sd)
        with pytest.raises(rv.NegativeErrorSd, match="2\\^480"):
            rv.validate(table)

    def test_accepts_error_sd_at_the_magnitude_bound(self):
        table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.zeros((2, 4, 4)), 2.0**477)
        assert rv.validate(table) is table
        assert rv.expected_ms(table).e_s0 == 2.0**954

    def test_outcomes_are_read_only(self, tables):
        with pytest.raises(ValueError):
            tables["table1"].outcomes[0, 0, 0] = 99.0


class TestDecompose:
    def test_reference_rcb_values(self, tables):
        dec = rv.decompose(tables["table1"])
        # grand means are equal: the average-treatment-effect null holds
        assert dec.grand_means == pytest.approx([17.5, 17.5], abs=1e-12)
        assert dec.overall_mean == pytest.approx(17.5, abs=1e-12)
        assert dec.block_corrections[0, 0] == pytest.approx(-7.5, abs=1e-12)
        assert dec.block_corrections[0, 1] == pytest.approx(-9.0, abs=1e-12)
        assert dec.eta_variances == pytest.approx([12.5, 297.25], abs=1e-12)
        expected_r = 235.0 / (4.0 * math.sqrt(12.5 * 297.25))
        assert dec.eta_correlations[0, 1] == pytest.approx(expected_r, abs=1e-12)
        assert dec.eta_correlations[1, 0] == dec.eta_correlations[0, 1]

    def test_reference_ls_variance_sum(self, tables):
        dec = rv.decompose(tables["table2"])
        total = math.fsum(dec.eta_variances.tolist())
        assert total == pytest.approx(313.55555555555554, rel=1e-12)
        assert total == pytest.approx(313.56, abs=0.005)

    def test_constant_table_decomposes_to_nothing(self):
        table = rv.PotentialOutcomeTable(rv.DesignKind.LS, np.full((3, 3, 3), 4.25))
        dec = rv.decompose(table)
        assert np.all(dec.row_corrections == 0)
        assert np.all(dec.column_corrections == 0)
        assert np.all(dec.residuals == 0)
        assert np.all(dec.eta_variances == 0)
        assert dec.zero_variance_treatments == (0, 1, 2)
        off_diag = dec.eta_correlations[~np.eye(3, dtype=bool)]
        assert np.all(off_diag == 0.0)

    @pytest.mark.parametrize("scale", [1e-160, 1e-300])
    @pytest.mark.parametrize("design", [rv.DesignKind.RCB, rv.DesignKind.LS])
    def test_tiny_outcomes_keep_their_correlations(self, design, scale):
        # the residual moments underflow at these scales; r does not
        x = random_table(np.random.default_rng(77), design).outcomes
        r = rv.decompose(rv.PotentialOutcomeTable(design, x)).eta_correlations
        tiny = rv.decompose(rv.PotentialOutcomeTable(design, x * scale))
        assert np.allclose(tiny.eta_correlations, r, rtol=0.0, atol=1e-12)
        assert tiny.zero_variance_treatments == ()

    @pytest.mark.parametrize("seed", range(8))
    def test_centering_invariants(self, seed):
        rng = np.random.default_rng(seed)
        for design in (rv.DesignKind.RCB, rv.DesignKind.LS):
            table = random_table(rng, design)
            dec = rv.decompose(table)
            t = table.num_treatments
            if design is rv.DesignKind.RCB:
                assert np.abs(dec.block_corrections.sum(axis=0)).max() < 1e-12
                # residuals are centered within each block, per treatment
                assert np.abs(dec.residuals.sum(axis=1)).max() < 1e-12
            else:
                assert np.abs(dec.row_corrections.sum(axis=0)).max() < 1e-12
                assert np.abs(dec.column_corrections.sum(axis=0)).max() < 1e-12
                assert np.abs(dec.residuals.sum(axis=0)).max() < 1e-12
                assert np.abs(dec.residuals.sum(axis=1)).max() < 1e-12
            assert np.all(dec.eta_variances >= 0)
            assert np.array_equal(dec.eta_cross_moments, dec.eta_cross_moments.T)
            assert np.array_equal(
                np.maximum(np.diag(dec.eta_cross_moments), 0.0), dec.eta_variances
            )
            rho, r, interaction = decomposition_moments_by_loops(dec)
            assert np.array_equal(dec.eta_cross_moments, rho)
            assert np.array_equal(dec.eta_correlations, r)
            assert dec.interaction_sum == interaction
            assert np.abs(dec.eta_correlations).max() <= 1.0
            assert np.allclose(dec.eta_correlations, dec.eta_correlations.T)
            assert dec.num_treatments == t

    def test_reconstruction_property_large_sample(self):
        # 1000 random tables across both designs, 1e-12 absolute
        rng = np.random.default_rng(42)
        worst = 0.0
        for k in range(1000):
            design = rv.DesignKind.RCB if k % 2 == 0 else rv.DesignKind.LS
            table = random_table(rng, design)
            dec = rv.decompose(table)
            worst = max(
                worst, float(np.abs(dec.reconstruct() - table.outcomes).max())
            )
        assert worst < 1e-12

    def test_decompose_is_idempotent_in_content(self):
        rng = np.random.default_rng(7)
        for design in (rv.DesignKind.RCB, rv.DesignKind.LS):
            table = random_table(rng, design)
            dec = rv.decompose(table)
            rebuilt = rv.PotentialOutcomeTable(design, dec.reconstruct())
            dec2 = rv.decompose(rebuilt)
            assert np.abs(dec2.grand_means - dec.grand_means).max() < 1e-12
            assert np.abs(dec2.residuals - dec.residuals).max() < 1e-12
            if design is rv.DesignKind.RCB:
                assert (
                    np.abs(dec2.block_corrections - dec.block_corrections).max()
                    < 1e-12
                )
            else:
                assert np.abs(dec2.row_corrections - dec.row_corrections).max() < 1e-12
                assert (
                    np.abs(dec2.column_corrections - dec.column_corrections).max()
                    < 1e-12
                )


class TestAdditivity:
    def test_table4_is_additive_with_zero_shifts(self, tables):
        report = rv.check_additivity(tables["table4"])
        assert report.is_additive
        assert report.treatment_shifts == pytest.approx([0, 0, 0, 0], abs=1e-12)
        assert report.max_deviation == 0.0
        assert report.strict_unit_treatment < 1e-12
        assert report.block_treatment < 1e-24

    def test_constructed_additive_shifts(self):
        rng = np.random.default_rng(3)
        units = rng.normal(size=(2, 3))
        x = units[:, :, None] + 5.0 * np.arange(3)[None, None, :]
        table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)
        report = rv.check_additivity(table)
        assert report.is_additive
        assert report.treatment_shifts == pytest.approx([0.0, 5.0, 10.0], abs=1e-12)

    def test_table2_is_not_additive(self, tables):
        report = rv.check_additivity(tables["table2"])
        assert not report.is_additive
        assert report.max_deviation > 1.0
        assert report.treatment_shifts is None

    @pytest.mark.parametrize("seed", range(6))
    def test_random_additive_tables_detected(self, seed):
        rng = np.random.default_rng(100 + seed)
        for design in (rv.DesignKind.RCB, rv.DesignKind.LS):
            table = additive_table(rng, design)
            report = rv.check_additivity(table)
            assert report.is_additive
            assert report.strict_unit_treatment <= 1e-9
            assert report.block_treatment <= 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_block_treatment_is_the_decomposition_interaction_sum(self, seed):
        rng = np.random.default_rng(150 + seed)
        for design in (rv.DesignKind.RCB, rv.DesignKind.LS):
            table = random_table(rng, design)
            block_treatment = rv.check_additivity(table).block_treatment
            assert block_treatment > 0.0
            assert block_treatment == rv.decompose(table).interaction_sum
            if design is rv.DesignKind.LS:
                ls = rv.ls_difference_decomposition(table)
                assert block_treatment == ls.interaction_sum
        # corrections constant in t give an exact zero, not ulp-sized residue
        for table in (rcb_block_constant_table(rng), ls_interaction_free_table(rng)):
            assert rv.check_additivity(table).block_treatment == 0.0

    def test_tolerance_is_configurable(self):
        rng = np.random.default_rng(11)
        table = additive_table(rng, rv.DesignKind.RCB)
        x = np.array(table.outcomes)
        x[0, 0, 0] += 1e-6
        bumped = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)
        assert not rv.check_additivity(bumped, tolerance=1e-9).is_additive
        assert rv.check_additivity(bumped, tolerance=1e-3).is_additive


class TestNullPredicates:
    def test_bundled_tables(self, tables):
        assert neyman_null_holds(tables["table1"])
        assert not fisher_sharp_null_holds(tables["table1"])
        assert neyman_null_holds(tables["table2"])
        assert neyman_null_holds(tables["table3"])
        assert fisher_sharp_null_holds(tables["table4"])
        assert neyman_null_holds(tables["table4"])

    def test_sharp_null_implies_neyman_null(self):
        rng = np.random.default_rng(5)
        table = sharp_null_table(rng, rv.DesignKind.LS)
        assert fisher_sharp_null_holds(table)
        assert neyman_null_holds(table)

    def test_generic_table_satisfies_neither(self):
        rng = np.random.default_rng(6)
        assert not neyman_null_holds(random_rcb_table(rng))
        assert not fisher_sharp_null_holds(random_ls_table(rng))
