"""Closed-form expectations of the mean sums of squares over the randomization.

For an RCB with N blocks and T treatments, writing s(t) = sigma_eta^2(t) and
rho(t,t') = r(t,t') sqrt(s(t) s(t')):

    E(S0^2) = sigma_eps^2 + sum_t s(t)/T + sum_{t!=t'} rho(t,t')/(T(T-1)^2)
              + sum_it {B_i(t) - Bbar_i(.)}^2 / ((N-1)(T-1))
    E(S1^2) = sigma_eps^2 + sum_t s(t)/T + sum_{t!=t'} rho(t,t')/(T(T-1)^2)
              + N/(T-1) * sum_t {Xbar(t) - Xbar(.)}^2

For an LS of order T:

    E(S0^2) = sigma_eps^2 + (T-2)/(T-1)^2 * sum_t s(t)
              + 2/(T-1)^3 * sum_{t!=t'} rho(t,t')
              + [sum_it {R_i(t)-Rbar_i(.)}^2 + sum_jt {C_j(t)-Cbar_j(.)}^2]
                / (T-1)^2
    E(S1^2) = sigma_eps^2 + sum_t s(t)/(T-1) + sum_{t!=t'} rho(t,t')/(T-1)^3
              + T/(T-1) * sum_t {Xbar(t) - Xbar(.)}^2

The final summand of each E(S0^2) is the blocking-factor-by-treatment
interaction term that the historical derivations (Neyman 1935; Sukhatme 1936)
omitted; dropping it gives the historical expression.  Technical errors enter
these expectations only through the additive sigma_eps^2, so they are handled
analytically, never by simulation.

Pair sums run over ordered pairs t != t' (both orders), matching the
enumeration identities.  Nothing here sums over the table: rho(t,t') is read
from Decomposition.eta_cross_moments and the unscaled interaction sum from
Decomposition.interaction_sum, both computed once in `decompose`, so the
r = 0/0 convention never contaminates a product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anova import design_dfs
from .errors import DimensionMismatch, SameTreatment, WrongDesign, _number
from .potential_outcomes import (
    Decomposition,
    DesignKind,
    PotentialOutcomeTable,
    decompose,
    fsum_all,
    validate,
)


@dataclass(frozen=True)
class ExpectedMeanSquares:
    """Corrected and historical expectations plus the terms separating them.

    e_s0 = e_s0_neyman + interaction_term exactly; difference = e_s0 - e_s1.
    ls_lower_bound (LS only, else None) bounds the difference from below
    whenever the treatment grand means are equal (it ignores the
    treatment_effect_term, which vanishes in that case).
    """

    design: DesignKind
    e_s0: float
    e_s1: float
    e_s0_neyman: float
    interaction_term: float
    treatment_effect_term: float
    difference: float
    ls_lower_bound: float | None


@dataclass(frozen=True)
class LsDifferenceDecomposition:
    """Unscaled components of the LS difference E(S0^2) - E(S1^2).

    When the treatment grand means are equal,

        E(S0^2) - E(S1^2) = (interaction_sum + neg_eta_variance_sum
                             + correlation_term) / (T-1)^2.

    constant_case_difference is the simplified expression
    interaction_sum - T * sigma_eta^2 * (1 - r), meaningful when the residual
    variances and correlations are constant across treatments (it is evaluated
    with their means otherwise).
    """

    interaction_sum: float
    neg_eta_variance_sum: float
    correlation_term: float
    constant_case_difference: float


@dataclass(frozen=True)
class MeanDifferenceVariance:
    """Randomization-distribution moments of the observed treatment contrast."""

    estimate_is_unbiased_for: float
    variance: float


def _cross_sum(dec: Decomposition) -> float:
    """Sum over ordered pairs t != t' of rho(t,t')."""
    moments = dec.eta_cross_moments.tolist()
    cross = 0.0
    for a in range(dec.num_treatments):
        for b in range(a + 1, dec.num_treatments):
            cross += 2.0 * moments[a][b]
    return cross


def expected_ms(table: PotentialOutcomeTable) -> ExpectedMeanSquares:
    """Closed-form E(S0^2), E(S1^2) and related terms for a validated table."""
    dec = decompose(table)
    t = dec.num_treatments
    n = table.num_blocks
    design_dfs(table.design, n, t)  # DegenerateDesign without residual df
    sig_eps_sq = table.technical_error_sd**2
    variance_sum = math.fsum(dec.eta_variances.tolist())
    cross = _cross_sum(dec)
    treatment_sum = fsum_all((dec.grand_means - dec.overall_mean) ** 2)

    if table.design is DesignKind.RCB:
        base = sig_eps_sq + variance_sum / t + cross / (t * (t - 1) ** 2)
        interaction = dec.interaction_sum / ((n - 1) * (t - 1))
        e_s0 = base + interaction
        e_s0_neyman = base
        treatment = n / (t - 1) * treatment_sum
        e_s1 = base + treatment
        bound = None
    else:
        base0 = (
            sig_eps_sq
            + (t - 2) / (t - 1) ** 2 * variance_sum
            + 2.0 / (t - 1) ** 3 * cross
        )
        interaction = dec.interaction_sum / (t - 1) ** 2
        e_s0 = base0 + interaction
        e_s0_neyman = base0
        treatment = t / (t - 1) * treatment_sum
        e_s1 = (
            sig_eps_sq
            + variance_sum / (t - 1)
            + cross / (t - 1) ** 3
            + treatment
        )
        bound = interaction - t / (t - 1) ** 3 * variance_sum

    return ExpectedMeanSquares(
        design=table.design,
        e_s0=e_s0,
        e_s1=e_s1,
        e_s0_neyman=e_s0_neyman,
        interaction_term=interaction,
        treatment_effect_term=treatment,
        difference=e_s0 - e_s1,
        ls_lower_bound=bound,
    )


def ls_difference_decomposition(
    table: PotentialOutcomeTable,
) -> LsDifferenceDecomposition:
    """Unscaled components of the LS difference; WrongDesign for RCB input."""
    if validate(table).design is not DesignKind.LS:
        raise WrongDesign("difference decomposition is defined for LS tables only")
    dec = decompose(table)
    t = dec.num_treatments
    variance_sum = math.fsum(dec.eta_variances.tolist())

    mean_variance = variance_sum / t
    corr = dec.eta_correlations
    off_diag = fsum_all(corr) - float(np.trace(corr))
    mean_r = off_diag / (t * (t - 1))
    constant_case = dec.interaction_sum - t * mean_variance * (1.0 - mean_r)

    return LsDifferenceDecomposition(
        interaction_sum=dec.interaction_sum,
        neg_eta_variance_sum=-variance_sum,
        correlation_term=_cross_sum(dec) / (t - 1),
        constant_case_difference=constant_case,
    )


def mean_difference_variance(
    table: PotentialOutcomeTable, t: int, t_prime: int
) -> MeanDifferenceVariance:
    """Exact randomization variance of the observed mean contrast between two
    treatments (zero-based indices), and the estimand it is unbiased for."""
    dec = decompose(table)
    num_t = dec.num_treatments
    if not all(0 <= _number(k, integral=True) < num_t for k in (t, t_prime)):
        raise DimensionMismatch(
            f"treatment indices must be integers in [0, {num_t}), got {t!r}, {t_prime!r}"
        )
    if t == t_prime:
        raise SameTreatment(f"treatments must differ, both are {t}")
    sig_eps_sq = table.technical_error_sd**2
    s_t = float(dec.eta_variances[t])
    s_p = float(dec.eta_variances[t_prime])
    rho = float(dec.eta_cross_moments[t, t_prime])

    if table.design is DesignKind.RCB:
        n = table.num_blocks
        num_treat = num_t
        variance = (
            2.0 * sig_eps_sq / n
            + (s_t + s_p) / n
            + 2.0 * rho / (n * (num_treat - 1))
        )
    else:
        order = num_t
        variance = (
            2.0 * sig_eps_sq / order
            + (s_t + s_p) / (order - 1)
            + 2.0 * rho / (order - 1) ** 2
        )

    estimand = float(dec.grand_means[t] - dec.grand_means[t_prime])
    return MeanDifferenceVariance(
        estimate_is_unbiased_for=estimand, variance=variance
    )
