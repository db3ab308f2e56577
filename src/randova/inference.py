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
times the larger of the two.  It merges floating-point twins, whatever digit
they straddle, and keeps truly distinct values apart; since gaps chain, an
atom of m distinct values spans at most (m - 1) * 1e-12 relative.  Exact
zeros come from the ANOVA kernel's zero rule, so 0.0 is an atom of its own.

Every path scores assignments with the one ANOVA kernel of each design
(`randova.anova`): per-row tables of the responses, shifted by the table's
mean potential outcome of each treatment, which leaves S0^2 unchanged and
keeps it from cancelling when treatment effects dwarf the residual.  Exact
and sampled streams are consumed one chunk of label grids at a time: each
chunk is staged into its rows' distinct permutations, tabled and scored, so
memory stays bounded, and per-chunk compensated partial sums make the
reported means exact and bit-reproducible.  The Monte Carlo study stages
the whole stream once and scores groups of noise draws against it, with the
noiseless table's shift for every draw.

The support is stored as sorted columns (F, S0^2, S1^2, per-atom counts and
their cumulative sums), not as one object per atom: atoms are grouped with
numpy over the atom ranks of the two columns, and P(F > k) is answered by one
bisection of the F column.  `support` builds SupportPoint objects from
the columns on demand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .anova import (
    RowTables,
    batch_anova_ls,
    batch_anova_rcb,
    design_dfs,
    f_from_sums,
    replicate_index,
    row_tables,
    stage_rows,
)
from .enumeration import _CHUNK, Assignment, RandomizationSpace, assignment_stream
from .errors import (
    InvalidAlpha,
    InvalidArgument,
    NegativeErrorSd,
    RandovaError,
    TechnicalErrorsPresent,
)
from .fdist import FReference, f_quantile, f_survival
from .potential_outcomes import (
    DesignKind,
    PotentialOutcomeTable,
    fisher_sharp_null_holds,
    neyman_null_holds,
    validate,
)

_MC_ROWS = 4 * _CHUNK  # assignment x replication evaluations per table-kernel call
_ATOM_RTOL = 1e-12  # largest relative gap between neighbours in one atom
DEFAULT_GRID_POINTS = 200
DEFAULT_MC_REPLICATIONS = 2000
DEFAULT_MC_ERROR_SD = 0.01


@dataclass(frozen=True)
class SupportPoint:
    """One atom of the randomization distribution."""

    s0_sq: float
    s1_sq: float
    f_stat: float
    probability: float


@dataclass(frozen=True, eq=False)
class RandomizationSummary:
    """Distribution of (S0^2, S1^2, F) over the traversed assignments.

    The atoms are stored as columns sorted by F (NaN atoms last), then by
    S0^2: f_stat, s0_sq, s1_sq and counts, the number of assignments at each
    atom.  cumulative[i] is the number of assignments in the first i atoms.
    """

    design: DesignKind
    f_stat: np.ndarray
    s0_sq: np.ndarray
    s1_sq: np.ndarray
    counts: np.ndarray
    mean_s0: float
    mean_s1: float
    is_exact: bool
    assignment_count: int
    df_treatment: int
    df_residual: int
    cumulative: np.ndarray = field(init=False, repr=False)
    _comparable_atoms: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        columns = {"f_stat": float, "s0_sq": float, "s1_sq": float, "counts": np.int64}
        for name, dtype in columns.items():
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        cumulative = np.concatenate([[0], np.cumsum(self.counts)])
        cumulative.setflags(write=False)
        object.__setattr__(self, "cumulative", cumulative)
        # atoms whose F is not NaN; they precede the NaN atoms
        object.__setattr__(
            self, "_comparable_atoms", int(np.count_nonzero(~np.isnan(self.f_stat)))
        )

    def __eq__(self, other: object) -> bool:
        """Field by field; the columns compare as arrays, NaN F atoms alike."""
        if not isinstance(other, RandomizationSummary):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, np.ndarray):
                if not np.array_equal(mine, theirs, equal_nan=mine.dtype.kind == "f"):
                    return False
            elif mine != theirs:
                return False
        return True

    def __hash__(self) -> int:
        """Agrees with __eq__: the float columns, whose NaN and signed zeros
        compare equal in more than one bit pattern, are left out."""
        return hash(
            (
                self.design,
                self.counts.tobytes(),
                self.mean_s0,
                self.mean_s1,
                self.is_exact,
                self.assignment_count,
                self.df_treatment,
                self.df_residual,
            )
        )

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
        """P(F > cutoff), strict; degenerate atoms never count."""
        comparable = self._comparable_atoms
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


@dataclass(frozen=True)
class SurvivalCurve:
    """P(F > k) under the randomization distribution and the F reference.

    The field order is the key order of the `randova curve` report.
    """

    df_treatment: int
    df_residual: int
    cutoffs: np.ndarray
    p_randomization: np.ndarray
    p_reference: np.ndarray

    def __post_init__(self) -> None:
        for field in ("cutoffs", "p_randomization", "p_reference"):
            arr = np.asarray(getattr(self, field), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)


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
    """The assignments' label grids, stacked _CHUNK at a time."""
    stream = iter(assignments)
    while chunk := list(itertools.islice(stream, _CHUNK)):
        yield np.array([a.grid for a in chunk])


def _atom_ranks(values: np.ndarray) -> np.ndarray:
    """Atom rank of each value: the sorted distinct values start a new atom
    wherever the gap to the previous one exceeds _ATOM_RTOL times the larger
    magnitude of the two (a non-finite value always does).  Gaps chain, so an
    atom of m distinct values spans at most (m - 1) * _ATOM_RTOL relative."""
    distinct, inverse = np.unique(values, return_inverse=True)
    lo, hi = distinct[:-1], distinct[1:]
    split = (hi - lo > _ATOM_RTOL * np.maximum(np.abs(lo), np.abs(hi))) | ~np.isfinite(hi)
    return np.concatenate([[0], np.cumsum(split)])[inverse]


def _require_noiseless(table: PotentialOutcomeTable) -> None:
    if table.technical_error_sd != 0.0:
        raise TechnicalErrorsPresent(
            "exact randomization distributions require technical_error_sd == 0;"
            " use monte_carlo_with_errors for noisy tables"
        )


def _distribution_over(
    design: DesignKind,
    outcomes: np.ndarray,
    assignments: Iterable[Assignment],
    is_exact: bool,
) -> RandomizationSummary:
    n, _, t = outcomes.shape
    df1, df0 = design_dfs(design, n, t)
    shift = outcomes.mean(axis=(0, 1))

    s0_parts: list[np.ndarray] = []
    s1_parts: list[np.ndarray] = []
    s0_partials: list[float] = []
    s1_partials: list[float] = []
    for labels in _label_chunks(assignments):
        perms, index = stage_rows([labels], len(labels))
        s0, s1 = _batch_sums(row_tables(design, outcomes[None], perms, shift), index)
        s0_partials.append(math.fsum(s0.tolist()))
        s1_partials.append(math.fsum(s1.tolist()))
        s0_parts.append(s0)
        s1_parts.append(s1)

    if not s0_parts:
        raise RandovaError("the assignment stream was empty")
    s0 = np.concatenate(s0_parts)
    s1 = np.concatenate(s1_parts)
    count = len(s0)

    # one atom per distinct pair of ranks; the first assignment seen stands for it
    rank0, rank1 = _atom_ranks(s0), _atom_ranks(s1)
    _, first, counts = np.unique(
        rank0 * (rank1.max() + 1) + rank1, return_index=True, return_counts=True
    )
    atom_s0, atom_s1 = s0[first], s1[first]
    f = f_from_sums(atom_s0, atom_s1)
    degenerate = np.isnan(f)
    # by F (NaN last), then S0^2, then first appearance in the stream
    order = np.lexsort((first, atom_s0, np.where(degenerate, 0.0, f), degenerate))

    return RandomizationSummary(
        design=design,
        f_stat=f[order],
        s0_sq=atom_s0[order],
        s1_sq=atom_s1[order],
        counts=counts[order],
        mean_s0=math.fsum(s0_partials) / count,
        mean_s1=math.fsum(s1_partials) / count,
        is_exact=is_exact,
        assignment_count=count,
        df_treatment=df1,
        df_residual=df0,
    )


def exact_distribution(
    table: PotentialOutcomeTable,
    space: RandomizationSpace = RandomizationSpace.exact(),
) -> RandomizationSummary:
    """Randomization distribution of (S0^2, S1^2, F) for a noiseless table."""
    validate(table)
    _require_noiseless(table)
    stream, _, is_exact = assignment_stream(table, space)
    return _distribution_over(table.design, table.outcomes, stream, is_exact)


def null_status(table: PotentialOutcomeTable) -> NullStatus:
    return NullStatus(
        neyman_null_holds=neyman_null_holds(table),
        fisher_sharp_null_holds=fisher_sharp_null_holds(table),
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
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    summary = exact_distribution(table, space)
    cutoff = f_quantile(
        FReference(summary.df_treatment, summary.df_residual), 1.0 - alpha
    )
    return Type1Report(
        rejection_probability=summary.probability_f_above(cutoff),
        cutoff=cutoff,
        alpha=alpha,
        null_status=null_status(table),
    )


def survival_curve(
    table: PotentialOutcomeTable,
    cutoff_grid: np.ndarray | None = None,
    space: RandomizationSpace = RandomizationSpace.exact(),
    grid_points: int = DEFAULT_GRID_POINTS,
) -> SurvivalCurve:
    """P(F > k) on a grid, randomization-exact versus the F reference.

    The default grid is grid_points points on [0, U] with
    U = max(2 * F-quantile(0.95), largest finite F in the support).
    """
    if cutoff_grid is None and grid_points < 2:
        raise InvalidArgument(f"grid needs at least 2 points, got {grid_points}")
    summary = exact_distribution(table, space)
    ref = FReference(summary.df_treatment, summary.df_residual)
    if cutoff_grid is None:
        upper = 2.0 * f_quantile(ref, 0.95)
        finite = summary.f_stat[np.isfinite(summary.f_stat)]
        if finite.size:
            upper = max(upper, float(finite[-1]))
        grid = np.linspace(0.0, upper, grid_points)
    else:
        grid = np.asarray(cutoff_grid, dtype=float)
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
    sigma_eps: float = DEFAULT_MC_ERROR_SD,
    replications: int = DEFAULT_MC_REPLICATIONS,
    alpha: float = 0.05,
    seed: int = 0,
    space: RandomizationSpace = RandomizationSpace.exact(),
    keep_replications: bool = False,
) -> MonteCarloReport:
    """Rejection probability of the F-test with Normal technical errors.

    Each replication draws one i.i.d. Normal(0, sigma_eps^2) error per
    potential outcome (every counterfactual gets its own draw), bakes the
    perturbed outcomes into a fixed table, computes the full randomization
    distribution for that draw, and records P(F > cutoff).  Replications use
    independent seed-derived streams, so the result depends only on the seed,
    not the execution schedule.

    The assignments are streamed once into per-row index tables
    (`stage_rows`); no stack of every label grid is kept.  Replications are
    then scored in groups whose size keeps assignments x replications near
    a fixed budget: one table per row and distinct permutation for each
    noise draw of the group (`row_tables`, shifted by the noiseless table's
    treatment means), summed over the rows of every assignment under every
    draw (`batch_anova_rcb` / `batch_anova_ls` on the tables and the staged
    index, `replicate_index`).
    """
    validate(table)
    if not sigma_eps > 0.0:
        raise NegativeErrorSd(f"sigma_eps must be > 0, got {sigma_eps}")
    if replications < 1:
        raise InvalidArgument(f"replications must be >= 1, got {replications}")
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")

    n, _, t = table.outcomes.shape
    df1, df0 = design_dfs(table.design, n, t)
    cutoff = f_quantile(FReference(df1, df0), 1.0 - alpha)
    stream, count, _ = assignment_stream(table, space)
    perms, index = stage_rows(_label_chunks(stream), count)

    shift = table.outcomes.mean(axis=(0, 1))
    children = np.random.SeedSequence(seed).spawn(replications)
    group = max(1, _MC_ROWS // count)
    pairs = index if group == 1 else replicate_index(index, perms, group)
    rejections: list[float] = []
    for lo in range(0, replications, group):
        noise = np.stack(
            [
                np.random.default_rng(child).normal(0.0, sigma_eps, size=table.outcomes.shape)
                for child in children[lo : lo + group]
            ]
        )
        tables = row_tables(table.design, table.outcomes + noise, perms, shift)
        evaluations = len(noise) * count
        above = np.empty(evaluations, dtype=bool)
        for first in range(0, evaluations, _MC_ROWS):
            batch = slice(first, min(first + _MC_ROWS, evaluations))
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
