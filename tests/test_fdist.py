import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

import randova as rv
from randova.fdist import regularized_incomplete_beta


class TestSurvival:
    def test_reference_quantile_inverts_to_alpha(self):
        assert rv.f_survival(rv.FReference(3, 6), 4.76) == pytest.approx(
            0.05, abs=5e-4
        )

    def test_survival_at_zero_is_one(self):
        for df1, df2 in [(1, 1), (3, 6), (10, 2)]:
            assert rv.f_survival(rv.FReference(df1, df2), 0.0) == 1.0

    def test_f22_closed_form(self):
        # P(F_{2,2} > x) = 1/(1+x)
        ref = rv.FReference(2, 2)
        for x in [0.01, 0.5, 1.0, 3.0, 9.0, 100.0]:
            assert rv.f_survival(ref, x) == pytest.approx(1 / (1 + x), abs=1e-12)

    @pytest.mark.parametrize("df2", [2, 4, 8])
    def test_f2d_closed_form(self, df2):
        # P(F_{2,d} > x) = (1 + 2x/d)^(-d/2)
        ref = rv.FReference(2, df2)
        for x in [0.1, 1.0, 2.5, 10.0]:
            expected = (1 + 2 * x / df2) ** (-df2 / 2)
            assert rv.f_survival(ref, x) == pytest.approx(expected, abs=1e-12)

    def test_monotone_decreasing(self):
        ref = rv.FReference(3, 6)
        grid = np.linspace(0.0, 40.0, 400)
        values = [rv.f_survival(ref, float(x)) for x in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize("df1,df2", [(1, 1), (3, 6), (6, 3), (5, 12), (12, 5)])
    def test_reciprocal_symmetry(self, df1, df2):
        # P(F_{a,b} > x) = 1 - P(F_{b,a} > 1/x)
        fwd = rv.FReference(df1, df2)
        rev = rv.FReference(df2, df1)
        for x in [0.2, 0.7, 1.0, 1.8, 6.0]:
            assert rv.f_survival(fwd, x) == pytest.approx(
                1.0 - rv.f_survival(rev, 1.0 / x), abs=1e-12
            )

    def test_against_scipy(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            df1 = int(rng.integers(1, 30))
            df2 = int(rng.integers(1, 30))
            x = float(rng.uniform(0, 50))
            mine = rv.f_survival(rv.FReference(df1, df2), x)
            theirs = scipy.stats.f.sf(x, df1, df2)
            assert abs(mine - theirs) <= 1e-10

    def test_infinity_argument(self):
        assert rv.f_survival(rv.FReference(3, 6), math.inf) == 0.0

    @pytest.mark.parametrize("x", [-0.5, math.nan, "x", None])
    def test_negative_argument_rejected(self, x):
        with pytest.raises(rv.NegativeArgument):
            rv.f_survival(rv.FReference(3, 6), x)


class TestQuantile:
    def test_reference_value(self):
        assert rv.f_quantile(rv.FReference(3, 6), 0.95) == pytest.approx(
            4.76, abs=0.005
        )

    def test_f11_median_is_one(self):
        # symmetry F <-> 1/F forces the median to 1
        assert rv.f_quantile(rv.FReference(1, 1), 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_f22_ninety_percent(self):
        # invert 1/(1+x) = 0.1
        assert rv.f_quantile(rv.FReference(2, 2), 0.9) == pytest.approx(
            9.0, rel=1e-9
        )

    def test_round_trip(self):
        for df1, df2 in [(3, 6), (1, 4), (7, 2), (10, 10)]:
            ref = rv.FReference(df1, df2)
            for p in np.arange(0.01, 1.0, 0.01):
                x = rv.f_quantile(ref, float(p))
                assert rv.f_survival(ref, x) == pytest.approx(1.0 - p, abs=1e-8)

    def test_against_scipy(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            df1 = int(rng.integers(1, 20))
            df2 = int(rng.integers(1, 20))
            p = float(rng.uniform(0.02, 0.98))
            mine = rv.f_quantile(rv.FReference(df1, df2), p)
            theirs = scipy.stats.f.ppf(p, df1, df2)
            assert mine == pytest.approx(theirs, rel=1e-8, abs=1e-10)

    def test_invalid_probability_rejected(self):
        ref = rv.FReference(3, 6)
        for p in [0.0, 1.0, -0.2, 1.5, math.nan, "x", True]:
            with pytest.raises(rv.InvalidProbability):
                rv.f_quantile(ref, p)


class TestDomain:
    def test_degrees_of_freedom_validated(self):
        for bad in [(0, 3), (3, 0), (-1, 2), (1.5, 2), (True, 2)]:
            with pytest.raises(rv.InvalidDegreesOfFreedom):
                rv.FReference(*bad)

    def test_incomplete_beta_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_incomplete_beta_against_scipy(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = float(rng.uniform(0.5, 20))
            b = float(rng.uniform(0.5, 20))
            x = float(rng.uniform(0, 1))
            mine = regularized_incomplete_beta(a, b, x)
            theirs = scipy.special.betainc(a, b, x)
            assert abs(mine - theirs) <= 1e-10
