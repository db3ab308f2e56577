"""Observed responses and ANOVA statistics for realized randomizations.

Observation reveals exactly one potential outcome per unit: the one for the
assigned treatment (plus that outcome's technical error, when error draws are
supplied).  The mean sums of squares are

    RCB:  S0^2 = sum_it {y_i(t) - ybar.(t) - ybar_i(.) + ybar..}^2 / ((N-1)(T-1))
          S1^2 = N/(T-1) * sum_t {ybar.(t) - ybar..}^2

    LS:   S0^2 = sum_ij {y_ij - ybar_i. - ybar_.j - xbar(t_ij) + 2 ybar..}^2
                 / ((T-1)(T-2))
          S1^2 = T/(T-1) * sum_t {xbar(t) - ybar..}^2

with xbar(t) the observed mean for treatment t.  One zero rule holds for both
kernels: a mean square at or below (units * eps * max|y|)^2, taken per
assignment, is rounding residue and is set to exactly 0.  F = S1^2/S0^2; when
S0^2 is 0 the statistic is +inf if S1^2 > 0 (rejects any finite cutoff) and
NaN if both vanish (a degenerate draw, counted as a non-rejection).

Each design has one routine mapping a stack of S label grids to observed
responses and one numpy kernel mapping those responses to S0^2 and S1^2.
`batch_anova_rcb` / `batch_anova_ls` run them on S assignments; `observe` and
`anova` run the same code on a stack of one, so a single assignment gets the
same bits as its row of a batch.  The test suite checks the kernels against
an independent math.fsum oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .enumeration import Assignment
from .errors import DegenerateDesign, InvalidArgument, ShapeMismatch
from .potential_outcomes import DesignKind, PotentialOutcomeTable, validate


@dataclass(frozen=True)
class ObservedExperiment:
    """Responses produced by one assignment.

    observed is y_i(t) indexed [block][treatment] for RCB, and y_ij indexed
    [row][column] for LS.  error_draws echoes the realized technical-error
    array actually applied (None when the run was noiseless).
    """

    design: DesignKind
    observed: np.ndarray
    assignment: Assignment
    error_draws: np.ndarray | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.observed, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "observed", arr)


@dataclass(frozen=True)
class AnovaSummary:
    """Mean sums of squares, the F statistic and its degrees of freedom."""

    s0_sq: float
    s1_sq: float
    f_stat: float
    df_treatment: int
    df_residual: int

    @property
    def is_degenerate(self) -> bool:
        return math.isnan(self.f_stat)


def f_from_sums(s0_sq, s1_sq):
    """F ratio with the degenerate conventions (inf / NaN on zero residual).

    Elementwise on arrays; a float for two scalars.
    """
    s0 = np.asarray(s0_sq, dtype=float)
    s1 = np.asarray(s1_sq, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(s0 == 0.0, np.where(s1 > 0.0, np.inf, np.nan), s1 / s0)
    return f if f.ndim else float(f)


def design_dfs(design: DesignKind, num_blocks: int, num_treatments: int) -> tuple[int, int]:
    """(df_treatment, df_residual) for the design; raises when df_residual < 1."""
    t = num_treatments
    if DesignKind(design) is DesignKind.RCB:
        df0 = (num_blocks - 1) * (t - 1)
        if df0 < 1:
            raise DegenerateDesign(
                f"RCB with {num_blocks} block(s) has no residual degrees of freedom"
            )
    else:
        df0 = (t - 1) * (t - 2)
        if df0 < 1:
            raise DegenerateDesign(f"LS of order {t} has no residual degrees of freedom")
    return t - 1, df0


def _observed_rcb(x: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """(S, N, T) responses y_i(t) for (S, N, T) per-block permutations."""
    n, _, t = x.shape
    inverse = np.argsort(perms, axis=2)  # plot carrying each treatment
    blocks = np.arange(n)[None, :, None]
    treatments = np.arange(t)[None, None, :]
    return x[blocks, inverse, treatments]


def _observed_ls(x: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """(S, T, T) responses y_ij for (S, T, T) Latin squares."""
    t = x.shape[0]
    ii, jj = np.meshgrid(np.arange(t), np.arange(t), indexing="ij")
    return x[ii[None, :, :], jj[None, :, :], squares]


def _zero_residue(
    s0: np.ndarray, s1: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2) of (S, rows, T) responses y, each value at or below
    (units * eps * max|y|)^2 of its assignment, rounding residue, set to 0
    in place."""
    scale = math.prod(y.shape[1:]) * np.finfo(float).eps
    # the batch's largest |y| bounds every floor; only rows at or below that
    # bound need their own maximum, a slow reduction over short axes
    bound = (scale * max(y.max(initial=0.0), -y.min(initial=0.0))) ** 2
    low = np.minimum(s0, s1) <= bound
    if low.any():
        floor = (scale * np.abs(y[low]).max(axis=(1, 2))) ** 2
        s0[low] = np.where(s0[low] > floor, s0[low], 0.0)
        s1[low] = np.where(s1[low] > floor, s1[low], 0.0)
    return s0, s1


def _mean_squares_rcb(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2) arrays from (S, N, T) RCB responses."""
    _, n, t = y.shape
    df1, df0 = design_dfs(DesignKind.RCB, n, t)
    ybar_t = y.mean(axis=1)
    ybar_i = y.mean(axis=2)
    ybar = y.mean(axis=(1, 2))
    resid = y - ybar_t[:, None, :] - ybar_i[:, :, None] + ybar[:, None, None]
    s0 = (resid * resid).sum(axis=(1, 2)) / df0
    s1 = n / df1 * ((ybar_t - ybar[:, None]) ** 2).sum(axis=1)
    return _zero_residue(s0, s1, y)


def _mean_squares_ls(y: np.ndarray, squares: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2) arrays from (S, T, T) LS responses and their squares."""
    s, t, _ = y.shape
    df1, df0 = design_dfs(DesignKind.LS, t, t)
    onehot = squares[..., None] == np.arange(t)[None, None, None, :]
    treat_means = np.einsum("sij,sijk->sk", y, onehot.astype(float)) / t
    ybar_i = y.mean(axis=2)
    ybar_j = y.mean(axis=1)
    ybar = y.mean(axis=(1, 2))
    cell_tm = np.take_along_axis(
        treat_means, squares.reshape(s, t * t), axis=1
    ).reshape(s, t, t)
    resid = (
        y
        - ybar_i[:, :, None]
        - ybar_j[:, None, :]
        - cell_tm
        + 2.0 * ybar[:, None, None]
    )
    s0 = (resid * resid).sum(axis=(1, 2)) / df0
    s1 = t / df1 * ((treat_means - ybar[:, None]) ** 2).sum(axis=1)
    return _zero_residue(s0, s1, y)


def batch_anova_rcb(x: np.ndarray, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2) arrays for a batch of RCB assignments.

    x is the (N, T, T) outcome array; perms is (S, N, T) with perms[s, i, j]
    the treatment of plot j in block i under assignment s.
    """
    return _mean_squares_rcb(_observed_rcb(x, perms))


def batch_anova_ls(x: np.ndarray, squares: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2) arrays for a batch of LS assignments.

    x is the (T, T, T) outcome array; squares is (S, T, T) of treatment labels.
    """
    return _mean_squares_ls(_observed_ls(x, squares), squares)


def observe(
    table: PotentialOutcomeTable,
    assignment: Assignment,
    errors: np.ndarray | None = None,
) -> ObservedExperiment:
    """Reveal the assigned potential outcomes (optionally with error draws).

    Raises ShapeMismatch when the assignment or the error array does not fit
    the table, and InvalidArgument when the label grid is not a per-block
    permutation (RCB) or a Latin square (LS).
    """
    validate(table)
    if assignment.design is not table.design:
        raise ShapeMismatch(
            f"assignment is for {assignment.design.value}, table is "
            f"{table.design.value}"
        )
    x = table.outcomes
    if errors is not None:
        errors = np.asarray(errors, dtype=float)
        if errors.shape != x.shape:
            raise ShapeMismatch(
                f"error array shape {errors.shape} != outcome shape {x.shape}"
            )
        x = x + errors
    n, _, t = x.shape
    grid = assignment.labels()
    if grid is None or grid.shape != (n, t):
        raise ShapeMismatch(
            f"{table.design.value} assignment shape "
            f"{None if grid is None else grid.shape} != ({n}, {t})"
        )
    if not assignment.is_valid():
        kind = "a permutation per block" if table.design is DesignKind.RCB else "a Latin square"
        raise InvalidArgument(f"assignment labels are not {kind}: {grid.tolist()}")
    observed = _observed_rcb if table.design is DesignKind.RCB else _observed_ls
    return ObservedExperiment(
        design=table.design,
        observed=observed(x, grid[None])[0],
        assignment=assignment,
        error_draws=errors,
    )


def anova(experiment: ObservedExperiment) -> AnovaSummary:
    """ANOVA summary of one observed experiment, by the batch kernel."""
    y = experiment.observed
    df1, df0 = design_dfs(experiment.design, *y.shape)
    if experiment.design is DesignKind.RCB:
        s0, s1 = _mean_squares_rcb(y[None])
    else:
        s0, s1 = _mean_squares_ls(y[None], experiment.assignment.ls_square[None])
    s0_sq, s1_sq = float(s0[0]), float(s1[0])
    return AnovaSummary(
        s0_sq=s0_sq,
        s1_sq=s1_sq,
        f_stat=f_from_sums(s0_sq, s1_sq),
        df_treatment=df1,
        df_residual=df0,
    )
