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
same bits as its row of a batch.

The table kernel serves the Monte Carlo study, which scores the same
assignments against many outcome arrays.  A row is an RCB block or an LS row;
under every assignment its labels are a permutation, and a row contributes
additively.  `stage_rows` keeps, per row, the distinct permutations that
occur and each assignment's index into them.  `row_tables` then gives, per
row, outcome array and distinct permutation, the row's responses centred on
the row mean, w, by treatment (LS: also by column), their sum of squares and
max|y|; `replicate_index` extends the index over G stacked outcome arrays.
Summing the tables over the rows of an assignment gives the sums by
treatment, W (Wt for LS), by column, Wc (LS), and Q = sum w^2, and
`table_mean_squares` forms

    RCB:  S0^2 = (Q - |W|^2/N) / df0          S1^2 = |W|^2 / (N df1)
    LS:   S0^2 = (Q - |Wc|^2/T - |Wt|^2/T) / df0
          S1^2 = |Wt|^2 / (T df1)

with the same zero rule, max|y| being the largest of the rows' maxima.  The
subtraction in S0^2 loses up to about eps * Q absolutely, which is far above
the zero floor, so a zero residual with S1^2 > 0 (Q is then all treatment
sum of squares) may come out as a tiny positive or negative S0^2: a negative
one is zeroed, and a tiny positive one gives an F of order 1/eps, so in both
cases F exceeds any usable cutoff as +inf does.
`batch_anova_rcb` / `batch_anova_ls` also take row tables and a staged
index in place of an outcome array and label grids, so that every batch of
ANOVA evaluations, from either kernel, goes through those two names.
The test suite checks both kernels against an independent math.fsum oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .enumeration import Assignment
from .errors import DegenerateDesign, InvalidArgument, RandovaError, ShapeMismatch
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


def _zero_below_floor(s0, s1, scale, top, top_of):
    """(S0^2, S1^2) with each value at or below (scale * max|y|)^2 of its
    assignment, rounding residue, set to 0 in place.

    top bounds max|y| of every assignment (it broadcasts against s0); only
    the values at or below that bound need their own maximum, which
    top_of(mask) returns for the assignments the mask selects.
    """
    low = np.minimum(s0, s1) <= (scale * top) ** 2
    if low.any():
        floor = (scale * top_of(low)) ** 2
        s0[low] = np.where(s0[low] > floor, s0[low], 0.0)
        s1[low] = np.where(s1[low] > floor, s1[low], 0.0)
    return s0, s1


def _zero_residue(
    s0: np.ndarray, s1: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2) of (S, rows, T) responses y, each value at or below
    (units * eps * max|y|)^2 of its assignment, rounding residue, set to 0
    in place."""
    # the batch's largest |y| bounds every floor; a row's own maximum is a
    # slow reduction over short axes
    return _zero_below_floor(
        s0,
        s1,
        math.prod(y.shape[1:]) * np.finfo(float).eps,
        max(y.max(initial=0.0), -y.min(initial=0.0)),
        lambda low: np.abs(y[low]).max(axis=(1, 2)),
    )


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


def batch_anova_rcb(
    x: np.ndarray | RowTables, perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2) arrays for a batch of RCB assignments.

    x is the (N, T, T) outcome array; perms is (S, N, T) with perms[s, i, j]
    the treatment of plot j in block i under assignment s.  Or x is the
    RowTables of an RCB design and perms the (S, N) staged index of S
    evaluations (`table_mean_squares`).
    """
    if isinstance(x, RowTables):
        return table_mean_squares(x, perms, DesignKind.RCB)
    return _mean_squares_rcb(_observed_rcb(x, perms))


def batch_anova_ls(
    x: np.ndarray | RowTables, squares: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2) arrays for a batch of LS assignments.

    x is the (T, T, T) outcome array; squares is (S, T, T) of treatment
    labels.  Or x is the RowTables of an LS design and squares the (S, T)
    staged index of S evaluations (`table_mean_squares`).
    """
    if isinstance(x, RowTables):
        return table_mean_squares(x, squares, DesignKind.LS)
    return _mean_squares_ls(_observed_ls(x, squares), squares)


def stage_rows(
    chunks: Iterable[np.ndarray], count: int
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The distinct permutations of each row over a stream of assignments,
    and each assignment's index into them.

    chunks are (S, rows, T) label stacks, count assignments in all.  Returns,
    per row, the (P_r, T) distinct label rows in order of first appearance,
    and the (count, rows) index array, column-major so that each row's
    indices are contiguous, in the smallest unsigned dtype that holds
    min(T!, count) - 1.  Only one chunk's labels are held at a time.
    """
    index = None
    seen: list[dict[bytes, int]] = []
    lo = 0
    for labels in chunks:
        s, rows, t = labels.shape
        if index is None:
            label_dtype = np.min_scalar_type(t - 1)
            dtype = np.min_scalar_type(min(math.factorial(t), count) - 1)
            index = np.empty((rows, count), dtype=dtype)
            seen = [{} for _ in range(rows)]
        # each row's labels as one opaque key: np.unique(axis=0) is ~7x slower
        keys = np.ascontiguousarray(labels, dtype=label_dtype)
        keys = keys.view(f"V{t * label_dtype.itemsize}")
        for row, lookup in enumerate(seen):
            local, inverse = np.unique(keys[:, row, 0], return_inverse=True)
            codes = np.fromiter(
                (lookup.setdefault(key.tobytes(), len(lookup)) for key in local),
                dtype=np.int64,
                count=len(local),
            )
            index[row, lo : lo + s] = codes[inverse]
        lo += s
    if index is None or lo != count:
        raise RandovaError(f"the stream yielded {lo} assignments, expected {count}")
    perms = tuple(
        np.frombuffer(b"".join(lookup), dtype=label_dtype).reshape(len(lookup), t)
        for lookup in seen
    )
    return perms, index.T


def replicate_index(
    index: np.ndarray, perms: tuple[np.ndarray, ...], copies: int
) -> np.ndarray:
    """The staged index of `stage_rows` repeated for a stack of `copies`
    outcome arrays: evaluation g * S + s is assignment s under array g.

    Row r's table column for array g and permutation p is g * P_r + p
    (`row_tables`).  The (copies * S, rows) result is column-major intp.
    """
    sizes = np.array([len(p) for p in perms], dtype=np.intp)
    offsets = np.arange(copies, dtype=np.intp)[None, :, None] * sizes[:, None, None]
    stacked = index.T.astype(np.intp)[:, None, :] + offsets  # (rows, copies, S)
    return stacked.reshape(len(perms), copies * len(index)).T


@dataclass(frozen=True, eq=False)
class RowTables:
    """Per-row tables of G outcome arrays (see the module docstring).

    sums[r] is (K, G * P_r): column g * P_r + p holds, for outcome array g
    and distinct permutation p of row r, the centred responses by treatment
    (LS: by column, then by treatment) and then their sum of squares.
    maxima[r] is (G * P_r,), the largest |y| in the same columns.
    """

    design: DesignKind
    num_treatments: int
    sums: tuple[np.ndarray, ...]
    maxima: tuple[np.ndarray, ...]


def row_tables(
    design: DesignKind, x: np.ndarray, perms: tuple[np.ndarray, ...]
) -> RowTables:
    """Tables of a (G, rows, T, T) stack of outcome arrays for the distinct
    row permutations perms of stage_rows."""
    design = DesignKind(design)
    t = x.shape[-1]
    cols = np.arange(t)
    sums, maxima = [], []
    for row, p in enumerate(perms):
        inverse = np.argsort(p, axis=1)  # plot or column of each treatment
        if design is DesignKind.RCB:
            y = x[:, row][:, inverse, cols]  # (G, P, T) by treatment
        else:
            y = x[:, row][:, cols, p]  # (G, P, T) by column
        w = y - y.mean(axis=2, keepdims=True)
        parts = [w]
        if design is DesignKind.LS:
            parts.append(np.take_along_axis(w, inverse[None], axis=2))
        parts.append((w * w).sum(axis=2, keepdims=True))
        stacked = np.concatenate(parts, axis=2)  # (G, P, K)
        sums.append(np.ascontiguousarray(stacked.reshape(-1, stacked.shape[2]).T))
        maxima.append(np.abs(y).max(axis=2).ravel())
    return RowTables(design, t, tuple(sums), tuple(maxima))


def _sum_of_squares(parts: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of parts**2, one full-length pass each."""
    total = parts[0] * parts[0]
    for part in parts[1:]:
        total += part * part
    return total


def table_mean_squares(
    tables: RowTables, index: np.ndarray, design: DesignKind | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2), each (S,), of the S evaluations whose per-row table
    columns are the rows of the (S, rows) index (`stage_rows`,
    `replicate_index`).  A design, when given, must be the tables' own."""
    if design is not None and DesignKind(design) is not tables.design:
        raise InvalidArgument(
            f"row tables of a {tables.design.value} design scored as {DesignKind(design).value}"
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
    rows, t = len(tables.sums), tables.num_treatments
    df1, df0 = design_dfs(tables.design, rows, t)
    if tables.design is DesignKind.RCB:
        w = _sum_of_squares(acc[:t])
        s0 = (acc[t] - w / rows) / df0
        s1 = w / (rows * df1)
    else:
        wt = _sum_of_squares(acc[t : 2 * t])
        s0 = (acc[2 * t] - _sum_of_squares(acc[:t]) / t - wt / t) / df0
        s1 = wt / (t * df1)

    def top_of(low):
        (s,) = np.nonzero(low)
        top = tables.maxima[0][index[s, 0]]
        for row, maxima in enumerate(tables.maxima[1:], start=1):
            np.maximum(top, maxima[index[s, row]], out=top)
        return top

    top = max(m.max(initial=0.0) for m in tables.maxima)
    scale = rows * t * np.finfo(float).eps
    return _zero_below_floor(s0, s1, scale, top, top_of)


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
