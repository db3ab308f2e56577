"""Observed responses and ANOVA statistics for realized randomizations.

Observation reveals exactly one potential outcome per unit: the one for the
assigned treatment.  The mean sums of squares are

    RCB:  S0^2 = sum_it {y_i(t) - ybar.(t) - ybar_i(.) + ybar..}^2 / ((N-1)(T-1))
          S1^2 = N/(T-1) * sum_t {ybar.(t) - ybar..}^2

    LS:   S0^2 = sum_ij {y_ij - ybar_i. - ybar_.j - xbar(t_ij) + 2 ybar..}^2
                 / ((T-1)(T-2))
          S1^2 = T/(T-1) * sum_t {xbar(t) - ybar..}^2

with xbar(t) the observed mean for treatment t.  F = S1^2/S0^2; when S0^2 is
0 the statistic is +inf if S1^2 > 0 (rejects any finite cutoff) and NaN if
both vanish (a degenerate draw, counted as a non-rejection).

One kernel per design computes them, `batch_anova_rcb` / `batch_anova_ls`,
for every caller: the exact and sampled distributions, the Monte Carlo study
and `anova`, which scores one assignment as a batch of one and so gets the
same bits as that assignment's row of any batch.  A row is an RCB block or
an LS row; under every assignment its labels are a permutation, and a row
contributes additively.  The kernels score stagings, per row the
permutations of a stream and each evaluation's index into them, which
`randova.inference` makes (`inference._staged`); `anova` needs none, since
its grid's rows are their own permutations, each at index 0.
`row_tables` gives, per row, outcome array and permutation, the row's
responses shifted by the table's mean potential outcome of their
treatment, y' = y - c(t), and centred on the row mean: w by treatment (LS:
by column, then by treatment) and the sum of squares of w, plus max|y| of
the unshifted responses.  Summing the tables over the rows of an assignment
gives W' (Wt' in LS), Wc' (LS) and Q' = sum w^2, and with d = c - cbar

    RCB:  S0^2 = (Q' - |W'|^2/N) / df0           S1^2 = |W' + N d|^2 / (N df1)
    LS:   S0^2 = (Q' - |Wc'|^2/T - |Wt'|^2/T) / df0
          S1^2 = |Wt' + T d|^2 / (T df1)

S0^2 does not change under the shift: subtracting c(t) from every response
to treatment t moves that treatment's mean by c(t) and, since every row (and
LS column) holds each treatment once, every row and column mean and the
grand mean by cbar, so each residual above is unchanged.  The centred
treatment sums move by N d (LS: T d), which S1^2 adds back.  Without the
shift, Q - |W|^2/N loses about eps * Q absolutely, and when treatment
effects are large next to the residual Q is nearly all treatment sum of
squares, so S0^2 cancels catastrophically; after it, Q' holds only what the
table's treatment means leave over (the shifted-data method of Chan, Golub
and LeVeque, "Algorithms for computing the sample variance", 1983).  The
shift is one (T,) vector taken from the noiseless table, common to every
outcome array of a stack, so a stack scores as each array alone.

One zero rule holds: a mean square at or below (units * eps * max|y|)^2,
max|y| of the unshifted responses of its assignment, is rounding residue and
is set to exactly 0.  The test suite checks the kernel against an
independent math.fsum oracle, an exact rational one and the label-grid
kernel it replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .enumeration import Assignment
from .errors import DegenerateDesign, InvalidArgument, NonFiniteEntry, ShapeMismatch
from .potential_outcomes import DesignKind, PotentialOutcomeTable, _Value, validate


@dataclass(frozen=True, eq=False)
class ObservedExperiment(_Value):
    """One assignment of a table, which it must fit: construction raises
    as `observe` says.

    observed, the responses it reveals, is y_i(t) indexed [block][treatment]
    for RCB, and y_ij indexed [row][column] for LS, read-only.
    """

    table: PotentialOutcomeTable
    assignment: Assignment

    def __post_init__(self) -> None:
        _fitted_grid(self.table, self.assignment)

    @property
    def design(self) -> DesignKind:
        return self.table.design

    @cached_property
    def observed(self) -> np.ndarray:
        return _responses(self.table, self.assignment.grid)


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

    Elementwise on two arrays of one shape.  One division, then only the
    S0^2 = 0 entries are set.
    """
    s0 = np.asarray(s0_sq, dtype=float)
    s1 = np.asarray(s1_sq, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = s1 / s0
    zero = s0 == 0.0
    if zero.any():
        f[zero] = np.where(s1[zero] > 0.0, np.inf, np.nan)
    return f


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


def batch_anova_rcb(tables: RowTables, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2) arrays, each (S,), for S RCB evaluations: the RowTables
    of an RCB design and the (S, N) staged index of their per-block table
    columns (`inference._staged`)."""
    return _mean_squares(tables, index, DesignKind.RCB)


def batch_anova_ls(tables: RowTables, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2) arrays, each (S,), for S LS evaluations: the RowTables
    of an LS design and the (S, T) staged index of their per-row table
    columns (`inference._staged`)."""
    return _mean_squares(tables, index, DesignKind.LS)


@dataclass(frozen=True, eq=False)
class RowTables:
    """Per-row tables of G outcome arrays (see the module docstring).

    sums[r] is (K, G * P_r): column g * P_r + p holds, for outcome array g
    and distinct permutation p of row r, the shifted, centred responses by
    treatment (LS: by column, then by treatment) and then their sum of
    squares.  maxima[r] is (G * P_r,), the largest unshifted |y| in the same
    columns.  offsets is d = c - cbar, the (T,) shift c centred.
    """

    design: DesignKind
    num_treatments: int
    offsets: np.ndarray
    sums: tuple[np.ndarray, ...]
    maxima: tuple[np.ndarray, ...]


def row_tables(
    design: DesignKind, x: np.ndarray, perms: tuple[np.ndarray, ...], shift: np.ndarray
) -> RowTables:
    """Tables of a (G, rows, T, T) stack of outcome arrays for the row
    permutations perms of a staging (`inference._staged`).  shift is the
    (T,) vector c subtracted from every response to treatment t before
    centring, the noiseless table's mean potential outcome of each
    treatment, outcomes.mean(axis=(0, 1)), for every array of the stack."""
    design = DesignKind(design)
    t = x.shape[-1]
    # below units * max|y| = 2^-459 the zero rule's floor (units * eps *
    # max|y|)^2 is subnormal and F loses bits, or every assignment reads as
    # degenerate: the mirror of validate's 2^480 bound, held by scoring only
    units = x.shape[-3] * x.shape[-2]
    top = np.abs(x).max(axis=(-3, -2, -1), initial=0.0)
    tiny = top[(top > 0.0) & (units * top < 2.0**-459)]
    if len(tiny):
        raise NonFiniteEntry(
            f"outcomes too small: units x max|outcome| is {units} x {tiny.min():.6g},"
            f" below 2^-459 = {2.0**-459:.6g}, where the zero rule's floor is subnormal"
        )
    cols = np.arange(t)
    shift = np.asarray(shift, dtype=float)
    sums, maxima = [], []
    for row, p in enumerate(perms):
        inverse = np.argsort(p, axis=1)  # plot or column of each treatment
        if design is DesignKind.RCB:
            y = x[:, row][:, inverse, cols]  # (G, P, T) by treatment
            w = y - shift
        else:
            y = x[:, row][:, cols, p]  # (G, P, T) by column
            w = y - shift[p]
        w -= w.mean(axis=2, keepdims=True)
        parts = [w]
        if design is DesignKind.LS:
            parts.append(np.take_along_axis(w, inverse[None], axis=2))
        parts.append((w * w).sum(axis=2, keepdims=True))
        # row-major, so that the kernel's column gathers read each quantity's
        # entries from one contiguous row (concatenating the transposed
        # parts alone gives a column-major table)
        table = np.concatenate([part.reshape(-1, part.shape[2]).T for part in parts])
        sums.append(np.ascontiguousarray(table))
        maxima.append(np.abs(y).max(axis=2).ravel())
    return RowTables(design, t, shift - shift.mean(), tuple(sums), tuple(maxima))


def _sum_of_squares(parts: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of parts**2, one full-length pass each."""
    total = parts[0] * parts[0]
    for part in parts[1:]:
        total += part * part
    return total


def _mean_squares(
    tables: RowTables, index: np.ndarray, design: DesignKind
) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2), each (S,), of the S evaluations whose per-row table
    columns are the rows of the (S, rows) index; design must be the
    tables' own."""
    if tables.design is not design:
        raise InvalidArgument(
            f"row tables of a {tables.design.value} design scored as {design.value}"
        )
    if index.ndim != 2 or index.shape[1] != len(tables.sums):
        raise ShapeMismatch(f"index has shape {index.shape}, expected (S, {len(tables.sums)})")
    for row, table in enumerate(tables.sums):
        if index[:, row].min(initial=0) < 0 or index[:, row].max(initial=0) >= table.shape[1]:
            raise InvalidArgument(f"index of row {row} outside its {table.shape[1]} table columns")
    # the indices are checked above; mode="clip" skips take's slower checking path
    acc = np.take(tables.sums[0], index[:, 0], axis=1, mode="clip")
    part = np.empty_like(acc)
    for row, table in enumerate(tables.sums[1:], start=1):
        np.take(table, index[:, row], axis=1, out=part, mode="clip")
        acc += part
    del part  # freed before the squares' temporaries
    rows, t = len(tables.sums), tables.num_treatments
    df1, df0 = design_dfs(design, rows, t)
    shifts = rows * tables.offsets[:, None]  # N d, LS: T d
    if design is DesignKind.RCB:
        s0 = (acc[t] - _sum_of_squares(acc[:t]) / rows) / df0
        s1 = _sum_of_squares(acc[:t] + shifts) / (rows * df1)
    else:
        wt = acc[t : 2 * t]
        s0 = (acc[2 * t] - _sum_of_squares(acc[:t]) / t - _sum_of_squares(wt) / t) / df0
        s1 = _sum_of_squares(wt + shifts) / (t * df1)
    # the zero rule; the batch's largest |y| bounds every floor, so only the
    # values at or below that bound need their own assignment's maximum
    scale = rows * t * np.finfo(float).eps
    low = np.minimum(s0, s1) <= (scale * max(m.max(initial=0.0) for m in tables.maxima)) ** 2
    if low.any():
        (s,) = np.nonzero(low)
        top = tables.maxima[0][index[s, 0]]
        for row, maxima in enumerate(tables.maxima[1:], start=1):
            np.maximum(top, maxima[index[s, row]], out=top)
        floor = (scale * top) ** 2
        s0[low] = np.where(s0[low] > floor, s0[low], 0.0)
        s1[low] = np.where(s1[low] > floor, s1[low], 0.0)
    return s0, s1


def _fitted_grid(table: PotentialOutcomeTable, assignment: Assignment) -> None:
    """Raises as `observe` says unless the assignment fits the table: the
    one check of an ObservedExperiment."""
    validate(table)
    if not isinstance(assignment, Assignment):
        raise InvalidArgument(f"expected an Assignment, got {type(assignment).__name__}")
    if assignment.design is not table.design:
        raise ShapeMismatch(
            f"assignment is for {assignment.design.value}, table is "
            f"{table.design.value}"
        )
    n, _, t = table.outcomes.shape
    grid = assignment.grid
    if grid.shape != (n, t):
        raise ShapeMismatch(f"{table.design.value} assignment shape {grid.shape} != ({n}, {t})")
    if not assignment.is_valid():
        kind = "a permutation per block" if table.design is DesignKind.RCB else "a Latin square"
        raise InvalidArgument(f"assignment labels are not {kind}: {grid.tolist()}")


def _responses(table: PotentialOutcomeTable, grid: np.ndarray) -> np.ndarray:
    """The response of each plot (RCB, ordered by treatment within its
    block) or cell (LS) to its assigned treatment, read-only."""
    y = np.take_along_axis(table.outcomes, grid[:, :, None], axis=2)[:, :, 0]
    if table.design is DesignKind.RCB:
        y = np.take_along_axis(y, np.argsort(grid, axis=1), axis=1)
    y.setflags(write=False)
    return y


def observe(table: PotentialOutcomeTable, assignment: Assignment) -> ObservedExperiment:
    """Reveal the assigned potential outcomes.

    Raises ShapeMismatch when the assignment does not fit the table, and
    InvalidArgument when the label grid is not a per-block permutation (RCB)
    or a Latin square (LS), or when assignment is not an Assignment.
    """
    return ObservedExperiment(table, assignment)


def anova(experiment: ObservedExperiment) -> AnovaSummary:
    """ANOVA summary of one observed experiment, by the batch kernel on a
    batch of one: each row's one permutation is its own labels, at index 0.
    InvalidArgument unless experiment is an ObservedExperiment, which fits
    its table by construction."""
    if not isinstance(experiment, ObservedExperiment):
        raise InvalidArgument(f"expected an ObservedExperiment, got {type(experiment).__name__}")
    table, grid = experiment.table, experiment.assignment.grid
    x = table.outcomes
    tables = row_tables(table.design, x[None], tuple(grid[:, None]), x.mean(axis=(0, 1)))
    kernel = batch_anova_rcb if table.design is DesignKind.RCB else batch_anova_ls
    s0, s1 = kernel(tables, np.zeros((1, len(grid)), dtype=np.uint8))
    df1, df0 = design_dfs(table.design, table.num_blocks, table.num_treatments)
    return AnovaSummary(
        s0_sq=float(s0[0]),
        s1_sq=float(s1[0]),
        f_stat=float(f_from_sums(s0, s1)[0]),
        df_treatment=df1,
        df_residual=df0,
    )
