"""Exact randomization distributions, F-test Type I error, and the
technical-error Monte Carlo study.

All potential outcomes are known, so the distribution of (S0^2, S1^2, F)
under the uniform assignment mechanism is computed exactly by visiting every
assignment (or approximated over a uniform sample).  Rejection uses the
strict rule F > cutoff, so a degenerate F (0/0) never rejects and an infinite
F (S0^2 = 0 < S1^2) always does.

Support points aggregate assignments whose S0^2 and S1^2 each fall in the
same atom.  One rule makes the atoms of a column: sort its distinct values
and start a new atom wherever the gap to the previous value exceeds 1e-12
times the larger of the two, or either value is not finite.  It merges
floating-point twins, whatever digit they straddle, and keeps truly
distinct values apart; since gaps chain, an atom of m distinct values spans
at most (m - 1) * 1e-12 relative.  Exact zeros come from the ANOVA
kernel's zero rule, so 0.0 is an atom of its own.

Staging, which turns a stream of assignments into per-row permutations
and each assignment's index into them, is done here and nowhere else.
Every run reads its space's stream once, a chunk of label grids at a time
in the smallest unsigned dtype, each slice of grids joined by its bytes
(`_label_chunks`), and stages each chunk (`_staged`).  A sample's chunk is
staged on its own, per row the chunk's distinct permutations
(`stage_rows`); in an exact space every row takes every permutation, so
every row of every chunk shares the one table of all T! permutations,
indexed by each label row's rank in it, which a lookup by the row's key
gives (`_permutation_ranks`).  The stagings
are scored by the one ANOVA kernel of each design (`randova.anova`) over
per-row tables of the responses, shifted by the noiseless table's mean
potential outcome of each treatment, which leaves S0^2 unchanged and keeps
it from cancelling when treatment effects dwarf the residual.  The exact
and sampled distributions score each chunk as it arrives, tabling an
exact space once and a sample chunk by chunk, with compensated partial
sums, one per chunk, for bit-reproducible means.  The Monte Carlo study,
which rescores every assignment under each noise draw, joins the chunks'
stagings without their repeats (`_side_by_side`) and repeats the index
over a group of noise draws (`replicate_index`).

The support is stored as sorted columns (F, S0^2, S1^2, per-atom counts and
their cumulative sums), not as one object per atom: atoms are grouped with
numpy over the atom ranks of the two columns, and P(F > k) is answered by one
bisection of the F column.  `support` builds SupportPoint objects from
the columns on demand.

The aggregation sorts with numpy's default argsort, which is not stable
but several times faster than the stable kinds on the SIMD units (a
stable lexsort of the atoms takes about ten times as long); so the order
of equal keys is fixed only where it matters, by taking the smallest
stream position of each run and re-sorting only the runs of equal F.  The
atom ranks and the ties of F are marked on sorted neighbours a slice at a
time, because a full-length scan holds more full-length arrays at once;
the atom keys are sorted in place, and the columns are put into the
support's order one at a time, F last, computed again from the ordered
S0^2 and S1^2.  No step then holds more than the four kept columns and
about one more: the call's peak is about 41 traced bytes per assignment on
an integer RCB 4x4 (331,776 assignments, 329,262 atoms).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .anova import RowTables, batch_anova_ls, batch_anova_rcb, design_dfs, f_from_sums, row_tables
from .enumeration import (
    _CHUNK,
    _LABEL_BUDGET,
    Assignment,
    RandomizationSpace,
    _check_cap,
    _permutation_ranks,
    _permutation_table,
    _row_keys,
    assignment_stream,
)
from .errors import InvalidAlpha, InvalidArgument, NegativeErrorSd, RandovaError
from .errors import TechnicalErrorsPresent, _check_int, _number
from .fdist import FReference, f_quantile, f_survival
from .potential_outcomes import (
    DesignKind,
    PotentialOutcomeTable,
    _array,
    _check_magnitude,
    _Value,
    fisher_sharp_null_holds,
    neyman_null_holds,
    validate,
)

_MC_ROWS = 4 * _CHUNK  # assignment x replication evaluations per group of noise draws
_MC_BATCH = _CHUNK  # of those, evaluations per kernel call
_ATOM_RTOL = 1e-12  # largest relative gap between neighbours in one atom
DEFAULT_GRID_POINTS = 200
DEFAULT_MC_REPLICATIONS = 2000


@dataclass(frozen=True)
class SupportPoint:
    """One atom of the randomization distribution."""

    s0_sq: float
    s1_sq: float
    f_stat: float
    probability: float


@dataclass(frozen=True, eq=False)
class RandomizationSummary(_Value):
    """Distribution of (S0^2, S1^2, F) over the traversed assignments.

    The atoms are stored as columns sorted by F (NaN atoms last), then by
    S0^2: f_stat, s0_sq, s1_sq and counts, the number of assignments at each
    atom.  cumulative[i] is the number of assignments in the first i atoms.
    """

    design: DesignKind
    f_stat: np.ndarray = _array(float)
    s0_sq: np.ndarray = _array(float)
    s1_sq: np.ndarray = _array(float)
    counts: np.ndarray = _array(np.int64)
    mean_s0: float
    mean_s1: float
    is_exact: bool
    assignment_count: int
    df_treatment: int
    df_residual: int

    @cached_property
    def cumulative(self) -> np.ndarray:
        cumulative = np.zeros(len(self.counts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=cumulative[1:])
        cumulative.setflags(write=False)
        return cumulative

    @cached_property
    def support(self) -> tuple[SupportPoint, ...]:
        """The atoms as SupportPoint objects, in column order."""
        n = self.assignment_count
        return tuple(
            SupportPoint(s0_sq=v0, s1_sq=v1, f_stat=f, probability=c / n)
            for v0, v1, f, c in zip(
                self.s0_sq.tolist(),
                self.s1_sq.tolist(),
                self.f_stat.tolist(),
                self.counts.tolist(),
            )
        )

    def probability_f_above(self, cutoff: float) -> float:
        """P(F > cutoff), strict; degenerate atoms never count, and a NaN
        cutoff gives 0.  InvalidArgument unless cutoff is a real number."""
        if _number(cutoff) is not cutoff:
            raise InvalidArgument(f"cutoff must be a real number, got {cutoff!r}")
        # the atoms whose F is not NaN, which sort before the NaN atoms
        comparable = int(np.searchsorted(self.f_stat, np.inf, side="right"))
        at_or_below = min(int(np.searchsorted(self.f_stat, cutoff, side="right")), comparable)
        above = int(self.cumulative[comparable] - self.cumulative[at_or_below])
        return above / self.assignment_count


@dataclass(frozen=True)
class NullStatus:
    """Which null hypotheses the table itself satisfies (informational)."""

    neyman_null_holds: bool
    fisher_sharp_null_holds: bool


@dataclass(frozen=True)
class Type1Report:
    rejection_probability: float
    cutoff: float
    alpha: float
    null_status: NullStatus


@dataclass(frozen=True, eq=False)
class SurvivalCurve(_Value):
    """P(F > k) under the randomization distribution and the F reference.

    The field order is the key order of the `randova curve` report.
    """

    df_treatment: int
    df_residual: int
    cutoffs: np.ndarray = _array(float)
    p_randomization: np.ndarray = _array(float)
    p_reference: np.ndarray = _array(float)


@dataclass(frozen=True)
class MonteCarloReport:
    """The field order is the key order of the `randova mc` report."""

    replications: int
    error_sd: float
    alpha: float
    cutoff: float
    mean_rejection: float
    standard_error: float | None
    rejection_probabilities: tuple[float, ...] | None
    seed: int


def _batch_sums(tables: RowTables, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if tables.design is DesignKind.RCB:
        return batch_anova_rcb(tables, index)
    return batch_anova_ls(tables, index)


def _label_chunks(assignments: Iterable[Assignment]) -> Iterator[np.ndarray]:
    """The assignments' label grids, _CHUNK at a time, in one (S, rows, T)
    array of the narrow dtype the staging keys (`_row_keys`), the smallest
    unsigned one that holds T - 1.  The grids, C-contiguous int64 as the
    enumerators and samplers make them, are read a slice of at most
    _LABEL_BUDGET bytes at a time (one grid if it is larger), joined by
    their bytes into one buffer and cast into the chunk (np.concatenate
    over the slice's row views takes about four times as long), so no int64
    copy of a chunk is made.  Only the grids are collected, so each
    Assignment, and each of the samplers' int64 blocks, is freed once it is
    read, and no garbage collection is set off by a chunk of live objects."""
    stream = iter(assignments)
    grid_of = attrgetter("grid")
    for first in stream:  # each chunk starts at the first grid not yet read
        rows, t = first.grid.shape
        step = min(_CHUNK, max(1, _LABEL_BUDGET // first.grid.nbytes))
        labels = np.empty((_CHUNK, rows, t), dtype=np.min_scalar_type(t - 1))
        grids = [first.grid, *map(grid_of, itertools.islice(stream, step - 1))]
        del first
        filled = 0
        while grids:
            joined = np.frombuffer(b"".join(grids), np.int64).reshape(-1, rows, t)
            labels[filled : filled + len(grids)] = joined
            del joined  # not held while the next slice is joined
            filled += len(grids)
            grids = list(map(grid_of, itertools.islice(stream, min(step, _CHUNK - filled))))
        yield labels[:filled]


def _sorted_neighbours(
    values: np.ndarray, order: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """values in the sorted order that order gives, _CHUNK at a time: the
    slice's start, the slice of order, the values before each of its
    entries (the first value stands before itself) and the values at them."""
    for start in range(0, len(order), _CHUNK):
        part = order[start : start + _CHUNK]
        hi = values[part]
        lo = np.concatenate([values[order[max(start - 1, 0)], None], hi[:-1]])
        yield start, part, lo, hi


def _atom_ranks(values: np.ndarray) -> np.ndarray:
    """Atom rank of each value, int32: the sorted distinct values start a
    new atom wherever the gap to the previous one exceeds _ATOM_RTOL times
    the larger magnitude of the two, or either of them is not finite (equal
    infinities are one value, and so are the NaNs).  Gaps chain, so an atom
    of m distinct values spans at most (m - 1) * _ATOM_RTOL relative.  One
    argsort; the splits are marked on sorted neighbours a slice at a time."""
    ranks = np.empty(len(values), dtype=np.int32)
    rank = 0
    for _, part, lo, hi in _sorted_neighbours(values, np.argsort(values)):
        with np.errstate(invalid="ignore"):  # inf - inf between equal neighbours
            gap = hi - lo > _ATOM_RTOL * np.maximum(np.abs(lo), np.abs(hi))
        split = (hi != lo) & ~np.isnan(lo) & (gap | ~(np.isfinite(hi) & np.isfinite(lo)))
        steps = np.cumsum(split, dtype=np.int32)
        steps += rank
        ranks[part] = steps
        rank = int(steps[-1])
    return ranks


def _support_order(f: np.ndarray, s0: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The atoms' order by F (NaN last), then S0^2, then first appearance,
    as np.lexsort((first, s0, f)) gives it.  One unstable argsort of F,
    then only the runs of equal F (NaN equal to NaN, -0.0 to 0.0) are
    re-sorted by (S0^2, first); ties are found on sorted neighbours a slice
    at a time and are few where F varies."""
    order = np.argsort(f)
    parts = []
    for start, _, lo, hi in _sorted_neighbours(f, order):
        tie = (hi == lo) | (np.isnan(hi) & np.isnan(lo))
        tie[0] &= start > 0  # the first value stands before itself
        parts.append(np.flatnonzero(tie) + start)
    ties = np.concatenate(parts)
    if len(ties):
        # a run of equal F is its head, the position before its first tie,
        # and its ties; runs are numbered in sorted order
        new_run = np.concatenate([[True], ties[1:] != ties[:-1] + 1])
        members = np.concatenate([ties[new_run] - 1, ties])
        runs = np.concatenate([np.arange(np.count_nonzero(new_run)), np.cumsum(new_run) - 1])
        atoms = order[members]
        atoms = atoms[np.lexsort((first[atoms], s0[atoms], runs))]
        members.sort()
        order[members] = atoms
    return order


def _check_alpha(alpha: float) -> None:
    """InvalidAlpha unless alpha is in (0, 1) and 1 - alpha < 1 in floating point."""
    if not (0.0 < _number(alpha) < 1.0 and 1.0 - alpha < 1.0):
        raise InvalidAlpha(f"alpha must be in (0, 1) with 1 - alpha < 1, got {alpha!r}")


def stage_rows(labels: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Per row of one (S, rows, T) chunk of label grids, the (P_r, T)
    distinct label rows in lexicographic order (by `_row_keys`), in the
    labels' dtype, and the (S, rows) index into them, column-major, in the
    smallest unsigned dtype that holds min(T!, S) - 1.  The keys are
    injective, so any occurrence of a key supplies its label row; np.unique
    then needs no first occurrences, and sorts with numpy's default
    (unstable) argsort."""
    s, rows, t = labels.shape
    index = np.empty((rows, s), dtype=np.min_scalar_type(min(math.factorial(t), s) - 1))
    perms = []
    for row in range(rows):
        # keyed a row at a time, so no (S, rows) array of keys is made
        distinct, index[row] = np.unique(_row_keys(labels[:, row]), return_inverse=True)
        perms.append(labels[_occurrences(index[row], len(distinct)), row])
    return tuple(perms), index.T


def _occurrences(inverse: np.ndarray, size: int) -> np.ndarray:
    """A position in inverse of each value 0..size - 1, for the inverse of
    np.unique over size distinct values (so each value occurs)."""
    found = np.empty(size, dtype=np.intp)
    found[inverse] = np.arange(len(inverse))
    return found


def _staged(
    table: PotentialOutcomeTable, space: RandomizationSpace
) -> tuple[Iterator[tuple[tuple[np.ndarray, ...], np.ndarray]], int, bool]:
    """(chunks, count, is_exact): the space's count assignments streamed
    once and staged a chunk at a time, one (perms, index) per chunk.  A
    sample's chunk is staged against each row's distinct permutations in
    it (`stage_rows`).  In an exact space every row takes every
    permutation (LS: renaming symbols maps any row onto any other), so
    every chunk shares one perms tuple, each row's the table of all T!
    permutations (`_permutation_table`), and the (S, rows) index,
    column-major in the table's smallest unsigned dtype, is each label
    row's rank in it, looked up by the row's key (`_row_keys`) in an array
    built once per run (`_permutation_ranks`).  The chunks raise
    RandovaError unless they add up to count."""
    stream, count, is_exact = assignment_stream(table, space)
    if is_exact:
        every = _permutation_table(table.num_treatments)
        ranks = _permutation_ranks(every)
        shared = (every,) * table.outcomes.shape[0]

        def stage(labels: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
            index = np.empty((labels.shape[1], len(labels)), dtype=ranks.dtype)
            for row, placed in enumerate(index):
                np.take(ranks, _row_keys(labels[:, row]), out=placed)
            return shared, index.T
    else:
        stage = stage_rows

    def chunks():
        seen = 0
        # through map, no label chunk outlives its staging
        for perms, index in map(stage, _label_chunks(stream)):
            seen += len(index)
            yield perms, index
        if seen != count:
            raise RandovaError(f"the stream yielded {seen} assignments, expected {count}")

    return chunks(), count, is_exact


def _side_by_side(
    chunks: Iterable[tuple[tuple[np.ndarray, ...], np.ndarray]],
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Staged chunks as one (perms, index): each row's chunk permutations
    side by side, staged again (`stage_rows`) so that the tables hold no
    repeats across chunks, and each chunk's index mapped through that staging,
    column-major in the smallest unsigned dtype that holds it.  An exact
    space's chunks share the permutation table, so each row's staging is
    that table again and the index is the chunks' indices joined."""
    chunks = list(chunks)
    sides = [stage_rows(np.concatenate(side)[:, None]) for side in zip(*(p for p, _ in chunks))]
    perms = tuple(distinct for (distinct,), _ in sides)
    dtype = np.min_scalar_type(max(map(len, perms)) - 1)
    index = np.empty((len(perms), sum(len(i) for _, i in chunks)), dtype=dtype)
    for row, (placed, (_, remap)) in enumerate(zip(index, sides)):
        starts = itertools.accumulate((len(p[row]) for p, _ in chunks), initial=0)
        placed[:] = np.concatenate([remap[s:, 0][i[:, row]] for s, (_, i) in zip(starts, chunks)])
    return perms, index.T


def replicate_index(
    index: np.ndarray, perms: tuple[np.ndarray, ...], copies: int
) -> np.ndarray:
    """A staged (S, rows) index into perms repeated for a stack of `copies`
    outcome arrays: evaluation g * S + s is assignment s under array g.

    Row r's table column for array g and permutation p is g * P_r + p
    (`row_tables`).  The (copies * S, rows) result is column-major intp.
    """
    sizes = np.array([len(p) for p in perms], dtype=np.intp)
    offsets = np.arange(copies, dtype=np.intp)[None, :, None] * sizes[:, None, None]
    stacked = index.T.astype(np.intp)[:, None, :] + offsets  # (rows, copies, S)
    return stacked.reshape(len(perms), copies * len(index)).T


def exact_distribution(
    table: PotentialOutcomeTable,
    space: RandomizationSpace = RandomizationSpace.exact(),
) -> RandomizationSummary:
    """Randomization distribution of (S0^2, S1^2, F) for a noiseless table.
    A design without residual df is refused before its space is read."""
    validate(table)
    if table.technical_error_sd != 0.0:
        raise TechnicalErrorsPresent(
            "exact randomization distributions require technical_error_sd == 0;"
            " use monte_carlo_with_errors for noisy tables"
        )
    design, outcomes = table.design, table.outcomes
    n, _, t = outcomes.shape
    df1, df0 = design_dfs(design, n, t)
    chunks, count, is_exact = _staged(table, space)
    shift = outcomes.mean(axis=(0, 1))
    s0, s1 = np.empty(count), np.empty(count)
    s0_partials: list[float] = []
    s1_partials: list[float] = []
    lo = 0
    tables = None
    for perms, index in chunks:
        if tables is None:  # an exact space's chunks share their perms, tabled once
            tables = row_tables(design, outcomes[None], perms, shift)
        part0, part1 = _batch_sums(tables, index)
        s0_partials.append(math.fsum(part0.tolist()))
        s1_partials.append(math.fsum(part1.tolist()))
        s0[lo : lo + len(index)], s1[lo : lo + len(index)] = part0, part1
        lo += len(index)
        # not held while the next chunk is staged, nor a sample's tables
        del perms, index, part0, part1
        if not is_exact:
            tables = None
    del tables

    # one atom per distinct pair of ranks, a run of equal keys in their
    # sorted order; the run's smallest stream position, the first
    # assignment seen, stands for the atom
    rank1 = _atom_ranks(s1)
    key = _atom_ranks(s0).astype(np.int64)
    key *= int(rank1.max()) + 1
    key += rank1
    del rank1
    order = np.argsort(key)
    key.sort()  # in place: the sorted keys are key[order], without a copy
    run_starts = np.concatenate([[True], key[1:] != key[:-1], [True]])
    del key
    first = np.minimum.reduceat(order, np.flatnonzero(run_starts[:-1]))
    del order
    atom_s0 = s0[first]
    del s0
    atom_s1 = s1[first]
    del s1
    order = _support_order(f_from_sums(atom_s0, atom_s1), atom_s0, first)
    del first
    # the counts only now, so that the tie scan above runs beside the run
    # starts' bytes, not a count per atom; each column is gathered into the
    # support's order and its old copy freed before the next, and F is
    # computed again from the ordered columns, element by element, so its
    # bits are those it was sorted by
    starts = np.flatnonzero(run_starts)
    del run_starts
    counts = np.diff(starts)
    del starts
    counts = counts[order]
    atom_s0 = atom_s0[order]
    atom_s1 = atom_s1[order]
    del order
    f = f_from_sums(atom_s0, atom_s1)
    for column in (f, atom_s0, atom_s1, counts):
        column.setflags(write=False)  # the summary keeps them without a copy

    return RandomizationSummary(
        design=design,
        f_stat=f,
        s0_sq=atom_s0,
        s1_sq=atom_s1,
        counts=counts,
        mean_s0=math.fsum(s0_partials) / count,
        mean_s1=math.fsum(s1_partials) / count,
        is_exact=is_exact,
        assignment_count=count,
        df_treatment=df1,
        df_residual=df0,
    )


def type1_error(
    table: PotentialOutcomeTable,
    alpha: float = 0.05,
    space: RandomizationSpace = RandomizationSpace.exact(),
) -> Type1Report:
    """Exact rejection probability of the standard F-test at level alpha.

    The cutoff is the (1-alpha) quantile of F_{df1, df0}; the operation never
    refuses a table violating either null (power studies reuse it), it only
    reports the null status alongside.
    """
    _check_alpha(alpha)
    summary = exact_distribution(table, space)
    cutoff = f_quantile(
        FReference(summary.df_treatment, summary.df_residual), 1.0 - alpha
    )
    return Type1Report(
        rejection_probability=summary.probability_f_above(cutoff),
        cutoff=cutoff,
        alpha=alpha,
        null_status=NullStatus(neyman_null_holds(table), fisher_sharp_null_holds(table)),
    )


def survival_curve(
    table: PotentialOutcomeTable,
    cutoff_grid: np.ndarray | None = None,
    space: RandomizationSpace = RandomizationSpace.exact(),
    grid_points: int = DEFAULT_GRID_POINTS,
) -> SurvivalCurve:
    """P(F > k) on a grid, randomization-exact versus the F reference.

    The default grid is grid_points points on [0, U] with
    U = max(2 * F-quantile(0.95), largest finite F in the support), and
    grid_points at most the enumeration cap.  A given cutoff_grid must be
    1-d, finite and >= 0 (InvalidArgument).
    """
    if cutoff_grid is None:
        _check_int(grid_points, 2, "grid_points")
        _check_cap(grid_points, f"a grid of {grid_points} points")
    if cutoff_grid is not None:
        try:
            grid = np.asarray(cutoff_grid, dtype=float)
        except (TypeError, ValueError):
            raise InvalidArgument(f"cutoff grid is not numeric: {cutoff_grid!r}") from None
        if grid.ndim != 1:
            raise InvalidArgument(f"cutoff grid must be 1-d, got {grid.ndim}-d")
        bad = ~(np.isfinite(grid) & (grid >= 0.0))
        if bad.any():
            raise InvalidArgument(f"cutoffs must be finite and >= 0, got {grid[bad][0]}")
    summary = exact_distribution(table, space)
    ref = FReference(summary.df_treatment, summary.df_residual)
    if cutoff_grid is None:
        upper = 2.0 * f_quantile(ref, 0.95)
        finite = summary.f_stat[np.isfinite(summary.f_stat)]
        if finite.size:
            upper = max(upper, float(finite[-1]))
        grid = np.linspace(0.0, upper, grid_points)
    p_rand = np.array([summary.probability_f_above(k) for k in grid.tolist()])
    p_ref = np.array([f_survival(ref, k) for k in grid.tolist()])
    return SurvivalCurve(
        cutoffs=grid,
        p_randomization=p_rand,
        p_reference=p_ref,
        df_treatment=summary.df_treatment,
        df_residual=summary.df_residual,
    )


def monte_carlo_with_errors(
    table: PotentialOutcomeTable,
    replications: int = DEFAULT_MC_REPLICATIONS,
    alpha: float = 0.05,
    seed: int = 0,
    space: RandomizationSpace = RandomizationSpace.exact(),
    keep_replications: bool = False,
) -> MonteCarloReport:
    """Rejection probability of the F-test with Normal technical errors.

    The errors' sd sigma_eps is the table's technical_error_sd, which must
    be > 0 (NegativeErrorSd; a noiseless table has exact_distribution).
    Each replication draws one i.i.d. Normal(0, sigma_eps^2) error per
    potential outcome (every counterfactual gets its own draw), bakes the
    perturbed outcomes into a fixed table, computes the full randomization
    distribution for that draw, and records P(F > cutoff).  Replications use
    independent seed-derived streams, so the result depends only on the seed,
    not the execution schedule.

    The assignments are streamed once, staged a chunk at a time and placed
    side by side (`_side_by_side`); no stack of label grids is kept.
    Replications are then scored in groups whose size keeps assignments x
    replications near a fixed budget: one table per row and permutation for
    each noise draw of the group (`row_tables`, shifted by the noiseless
    table's treatment means), summed over the rows of every assignment under
    every draw (`batch_anova_rcb` / `batch_anova_ls` on the tables and the
    staged index, `replicate_index`), _CHUNK evaluations a kernel call, so
    the kernel's per-evaluation arrays stay small.  Each group's noisy
    outcomes must keep within the magnitude bound of `validate`
    (NonFiniteEntry).  Every replication's probability is kept, so
    replications above the enumeration cap are refused (InvalidArgument).
    """
    validate(table)
    _check_int(replications, 1, "replications")
    _check_cap(replications, f"a study of {replications} replications")
    _check_alpha(alpha)
    _check_int(seed, 0, "seed")
    sigma_eps = table.technical_error_sd
    if sigma_eps == 0.0:
        raise NegativeErrorSd(
            f"the Monte Carlo study needs technical_error_sd > 0, got {sigma_eps};"
            " use exact_distribution for noiseless tables"
        )

    n, _, t = table.outcomes.shape
    df1, df0 = design_dfs(table.design, n, t)
    cutoff = f_quantile(FReference(df1, df0), 1.0 - alpha)
    chunks, count, _ = _staged(table, space)
    perms, index = _side_by_side(chunks)

    shift = table.outcomes.mean(axis=(0, 1))
    # each group spawns its own children; the spawn keys run on, so the
    # streams are those of one spawn of every replication
    root = np.random.SeedSequence(seed)
    group = max(1, _MC_ROWS // count)
    pairs = index if group == 1 else replicate_index(index, perms, group)
    rejections: list[float] = []
    for lo in range(0, replications, group):
        noise = np.stack(
            [
                np.random.default_rng(child).normal(0.0, sigma_eps, size=table.outcomes.shape)
                for child in root.spawn(min(group, replications - lo))
            ]
        )
        noisy = table.outcomes + noise
        _check_magnitude(noisy, "outcomes with technical errors")
        tables = row_tables(table.design, noisy, perms, shift)
        evaluations = len(noise) * count
        above = np.empty(evaluations, dtype=bool)
        for first in range(0, evaluations, _MC_BATCH):
            batch = slice(first, min(first + _MC_BATCH, evaluations))
            above[batch] = f_from_sums(*_batch_sums(tables, pairs[batch])) > cutoff
        rejections.extend((np.count_nonzero(above.reshape(-1, count), axis=1) / count).tolist())

    mean = math.fsum(rejections) / replications
    if replications >= 2:
        var = math.fsum((p - mean) ** 2 for p in rejections) / (replications - 1)
        std_err = math.sqrt(var / replications)
    else:
        std_err = None
    return MonteCarloReport(
        replications=replications,
        error_sd=sigma_eps,
        alpha=alpha,
        cutoff=cutoff,
        mean_rejection=mean,
        standard_error=std_err,
        rejection_probabilities=tuple(rejections) if keep_replications else None,
        seed=seed,
    )
