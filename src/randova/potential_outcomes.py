"""Potential-outcome tables for blocked designs and their exact decompositions.

A table stores every potential outcome X_ij(t): for a randomized complete
block (RCB) design the axes are [block i][plot j][treatment t] with shape
(N, T, T); for a Latin square (LS) the axes are [row i][column j][treatment t]
with shape (T, T, T).  Only one outcome per unit is ever observed; the rest
are counterfactual, which is why expectations over the randomization can be
computed exactly from the full table.

The decomposition splits each outcome into a treatment grand mean, additive
fertility corrections for the blocking structure, and a residual "soil error"
eta_ij(t):

    RCB:  X_ij(t) = Xbar(t) + B_i(t) + eta_ij(t)
    LS:   X_ij(t) = Xbar(t) + R_i(t) + C_j(t) + eta_ij(t)

with B_i(t) the block correction, R_i(t)/C_j(t) the row/column corrections,
and every family centered (zero sum along its defining index).  The residual
second moments

    sigma_eta^2(t) = sum_ij eta_ij(t)^2 / (N*T)      (divisor T^2 for LS)
    r(t,t')        = sum_ij eta_ij(t) eta_ij(t') / (N*T * sqrt(ss'))

drive every closed-form expectation downstream.  `decompose` is the one
place they are computed: it stores the residual cross-moments
rho(t,t') = r(t,t') sqrt(s s') as the (T, T) matrix eta_cross_moments, and
the unscaled blocking-factor-by-treatment interaction sum as
interaction_sum.  expected_ms and check_additivity read them from there.

All reductions use math.fsum in a fixed index order so results are exact to
the last bit and bit-reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NegativeErrorSd,
    NonFiniteEntry,
)

DEFAULT_ADDITIVITY_TOLERANCE = 1e-9


class DesignKind(str, Enum):
    RCB = "rcb"
    LS = "ls"


def fsum_all(values: np.ndarray) -> float:
    """Compensated (exact) sum of every entry, fixed C order."""
    return math.fsum(np.asarray(values, dtype=float).ravel(order="C").tolist())


def fsum_along(values: np.ndarray, axis: int) -> np.ndarray:
    """Compensated sum along one axis; shape matches np.sum(values, axis)."""
    arr = np.asarray(values, dtype=float)
    moved = np.moveaxis(arr, axis, -1)
    flat = moved.reshape(-1, moved.shape[-1])
    sums = np.array([math.fsum(row.tolist()) for row in flat])
    return sums.reshape(moved.shape[:-1])


def centered_deviations(values: np.ndarray) -> np.ndarray:
    """Each row minus its mean, evaluated as the mean of pairwise differences.

    Algebraically identical to values - values.mean(axis=1, keepdims=True),
    but rows that are constant produce exact float zeros (a plain row mean
    rounds on division and leaves ulp-sized residue).
    """
    arr = np.asarray(values, dtype=float)
    return fsum_along(arr[:, :, None] - arr[:, None, :], 2) / arr.shape[1]


@dataclass(frozen=True)
class PotentialOutcomeTable:
    """Immutable potential-outcome table plus a technical-error magnitude.

    technical_error_sd is the standard deviation sigma_eps of i.i.d. mean-zero
    measurement noise added to each revealed outcome; 0 means noiseless.  The
    noise draws themselves are never stored here (they are realized by the
    inference engine).
    """

    design: DesignKind
    outcomes: np.ndarray
    technical_error_sd: float = 0.0
    name: str | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.outcomes, dtype=float, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "outcomes", arr)
        object.__setattr__(self, "design", DesignKind(self.design))
        object.__setattr__(self, "technical_error_sd", float(self.technical_error_sd))

    @property
    def num_treatments(self) -> int:
        return self.outcomes.shape[2] if self.outcomes.ndim == 3 else 0

    @property
    def num_blocks(self) -> int:
        """Block count N for RCB; equals T for LS (rows double as blocks)."""
        return self.outcomes.shape[0] if self.outcomes.ndim == 3 else 0


def validate(table: PotentialOutcomeTable) -> PotentialOutcomeTable:
    """Check shape and finiteness invariants; return the table unchanged.

    Raises DimensionMismatch, NonFiniteEntry, or NegativeErrorSd.
    """
    arr = table.outcomes
    if arr.ndim != 3:
        raise DimensionMismatch(
            f"outcomes must be a 3-d array [i][j][t], got {arr.ndim}-d"
        )
    n, p, t = arr.shape
    if t < 2:
        raise DimensionMismatch(f"need at least 2 treatments, got {t}")
    if table.design is DesignKind.RCB:
        if p != t:
            raise DimensionMismatch(
                f"RCB table must be N x T x T; got {n}x{p}x{t} (plots != treatments)"
            )
        if n < 1:
            raise DimensionMismatch("RCB table needs at least one block")
    else:
        if not (n == p == t):
            raise DimensionMismatch(f"LS table must be T x T x T; got {n}x{p}x{t}")
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise NonFiniteEntry(
            "non-finite outcome at block/row %d, plot/column %d, treatment %d"
            % (bad[0] + 1, bad[1] + 1, bad[2] + 1)
        )
    sd = table.technical_error_sd
    if not math.isfinite(sd) or sd < 0:
        raise NegativeErrorSd(f"technical_error_sd must be finite and >= 0, got {sd}")
    return table


@dataclass(frozen=True)
class Decomposition:
    """Exact finite-population decomposition of a validated table.

    grand_means[t] is Xbar(t); overall_mean averages those over t.  For RCB,
    block_corrections[i, t] = B_i(t) and the row/column fields are None; for
    LS, row_corrections[i, t] = R_i(t) and column_corrections[j, t] = C_j(t)
    and block_corrections is None.  residuals has the outcome shape.

    eta_cross_moments[t, t'] is rho(t,t') = sum_ij eta_ij(t) eta_ij(t') / units,
    a symmetric matrix; eta_variances is its diagonal clipped at 0.
    eta_correlations is the symmetric matrix r(t,t') with unit diagonal.
    Pairs involving a treatment with sigma_eta^2(t) == 0 are set to 0 (the
    0/0 case) and those treatments are flagged in zero_variance_treatments;
    downstream formulas read rho from eta_cross_moments, not r, so the
    convention is harmless.  The moments are formed from the residuals scaled
    by the power of two that brings max |eta| into [0.5, 1), which is exact;
    r and the flags are read at that scale, so outcomes small enough for rho
    to underflow still get their r.

    interaction_sum is the unscaled blocking-factor-by-treatment interaction:
    sum_it {B_i(t) - Bbar_i(.)}^2 for RCB, and for LS the same sum over the
    row corrections plus the one over the column corrections.
    """

    design: DesignKind
    grand_means: np.ndarray
    overall_mean: float
    block_corrections: np.ndarray | None
    row_corrections: np.ndarray | None
    column_corrections: np.ndarray | None
    residuals: np.ndarray
    eta_cross_moments: np.ndarray
    eta_variances: np.ndarray
    eta_correlations: np.ndarray
    zero_variance_treatments: tuple[int, ...]
    interaction_sum: float

    def __post_init__(self) -> None:
        for field in (
            "grand_means",
            "block_corrections",
            "row_corrections",
            "column_corrections",
            "residuals",
            "eta_cross_moments",
            "eta_variances",
            "eta_correlations",
        ):
            arr = getattr(self, field)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, field, arr)

    @property
    def num_treatments(self) -> int:
        return self.grand_means.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Rebuild the outcome array from the decomposition components."""
        if self.design is DesignKind.RCB:
            return (
                self.grand_means[None, None, :]
                + self.block_corrections[:, None, :]
                + self.residuals
            )
        return (
            self.grand_means[None, None, :]
            + self.row_corrections[:, None, :]
            + self.column_corrections[None, :, :]
            + self.residuals
        )


def decompose(table: PotentialOutcomeTable) -> Decomposition:
    """Compute the exact decomposition of a table (validates first)."""
    validate(table)
    x = table.outcomes
    n, _, t = x.shape
    units = n * x.shape[1]

    col_sums = fsum_along(x, 0)  # shape (p, t)
    grand = fsum_along(col_sums, 0) / units
    overall = math.fsum(grand.tolist()) / t

    row_means = fsum_along(x, 1) / x.shape[1]  # Xbar_i.(t), shape (n, t)

    if table.design is DesignKind.RCB:
        block_corr = row_means - grand[None, :]
        row_corr = None
        col_corr = None
        resid = x - row_means[:, None, :]
        interaction = fsum_all(centered_deviations(block_corr) ** 2)
    else:
        col_means = col_sums / n  # Xbar_.j(t), shape (t, t)
        block_corr = None
        row_corr = row_means - grand[None, :]
        col_corr = col_means - grand[None, :]
        resid = (
            x
            - row_means[:, None, :]
            - col_means[None, :, :]
            + grand[None, None, :]
        )
        interaction = fsum_all(centered_deviations(row_corr) ** 2) + fsum_all(
            centered_deviations(col_corr) ** 2
        )

    # moments of the residuals scaled by 2^-k into [0.5, 1): exact, and tiny
    # outcomes keep their correlations instead of underflowing
    k = int(np.frexp(np.abs(resid).max())[1])
    scaled = np.ldexp(resid, -k)
    unit_moments = np.empty((t, t))
    for a in range(t):
        for b in range(a, t):
            unit_moments[a, b] = unit_moments[b, a] = (
                fsum_all(scaled[:, :, a] * scaled[:, :, b]) / units
            )
    moments = np.ldexp(unit_moments, 2 * k)
    variances = np.maximum(np.diag(moments), 0.0)
    unit_variances = np.maximum(np.diag(unit_moments), 0.0)
    zero = tuple(int(i) for i in range(t) if unit_variances[i] == 0.0)

    scale = np.sqrt(np.outer(unit_variances, unit_variances))
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(scale > 0.0, np.clip(unit_moments / scale, -1.0, 1.0), 0.0)
    np.fill_diagonal(corr, 1.0)

    return Decomposition(
        design=table.design,
        grand_means=grand,
        overall_mean=overall,
        block_corrections=block_corr,
        row_corrections=row_corr,
        column_corrections=col_corr,
        residuals=resid,
        eta_cross_moments=moments,
        eta_variances=variances,
        eta_correlations=corr,
        zero_variance_treatments=zero,
        interaction_sum=interaction,
    )


@dataclass(frozen=True)
class AdditivityReport:
    """Diagnostics for treatment-effect additivity X_ij(t) = U_ij + tau(t).

    max_deviation is the largest |{X_ij(t)-X_ij(t')} - {X_i'j'(t)-X_i'j'(t')}|
    over all unit pairs and treatment pairs; the table is additive iff it
    vanishes (within tolerance).  treatment_shifts holds tau(t) - tau(1) and
    is only defined when additive.  strict_unit_treatment is the largest
    |eta_ij(t) - etabar_ij(.)| (unit-treatment interaction); block_treatment
    is the summed squared blocking-factor-by-treatment interaction.
    """

    is_additive: bool
    treatment_shifts: np.ndarray | None
    max_deviation: float
    strict_unit_treatment: float
    block_treatment: float
    tolerance: float

    def __post_init__(self) -> None:
        if self.treatment_shifts is not None:
            arr = np.asarray(self.treatment_shifts, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, "treatment_shifts", arr)


def check_additivity(
    table: PotentialOutcomeTable,
    tolerance: float = DEFAULT_ADDITIVITY_TOLERANCE,
) -> AdditivityReport:
    """Decide additivity at the given absolute tolerance and report diagnostics."""
    validate(table)
    if tolerance < 0:
        raise InvalidArgument(f"tolerance must be >= 0, got {tolerance}")
    x = table.outcomes
    t = x.shape[2]
    flat = x.reshape(-1, t)  # units x treatments

    max_dev = 0.0
    for a in range(t):
        for b in range(a + 1, t):
            gaps = flat[:, a] - flat[:, b]
            max_dev = max(max_dev, float(gaps.max() - gaps.min()))

    additive = max_dev <= tolerance
    shifts = None
    if additive:
        units = flat.shape[0]
        shifts = np.array(
            [math.fsum((flat[:, k] - flat[:, 0]).tolist()) / units for k in range(t)]
        )

    dec = decompose(table)
    eta_bar = fsum_along(dec.residuals, 2) / t
    strict = float(np.abs(dec.residuals - eta_bar[:, :, None]).max())

    return AdditivityReport(
        is_additive=additive,
        treatment_shifts=shifts,
        max_deviation=max_dev,
        strict_unit_treatment=strict,
        block_treatment=dec.interaction_sum,
        tolerance=tolerance,
    )


def neyman_null_holds(table: PotentialOutcomeTable) -> bool:
    """True when all treatment grand means Xbar(t) agree within
    DEFAULT_ADDITIVITY_TOLERANCE."""
    grand = decompose(table).grand_means
    return float(grand.max() - grand.min()) <= DEFAULT_ADDITIVITY_TOLERANCE


def fisher_sharp_null_holds(table: PotentialOutcomeTable) -> bool:
    """True when every unit's potential outcomes agree across treatments
    within DEFAULT_ADDITIVITY_TOLERANCE."""
    x = table.outcomes
    spread = x.max(axis=2) - x.min(axis=2)
    return float(spread.max()) <= DEFAULT_ADDITIVITY_TOLERANCE
