"""Exact randomization distributions, F-test Type I error, and the
technical-error Monte Carlo study.

All potential outcomes are known, so the distribution of (S0^2, S1^2, F)
under the uniform assignment mechanism is computed exactly by visiting every
assignment (or approximated over a uniform sample).  Rejection uses the
strict rule F > cutoff, so a degenerate F (0/0) never rejects and an infinite
F (S0^2 = 0 < S1^2) always does.

Support points aggregate assignments whose (S0^2, S1^2) agree to 12
significant digits, which merges floating-point twins while keeping truly
distinct values apart.  Assignment streams are consumed in fixed-size chunks
through the vectorized ANOVA kernels; per-chunk compensated partial sums make
the reported means exact and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .anova import batch_anova_ls, batch_anova_rcb, design_dfs, f_from_sums
from .enumeration import (
    Assignment,
    RandomizationSpace,
    assignment_stream,
)
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

_CHUNK = 4096
_SUPPORT_DIGITS = 12
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


@dataclass(frozen=True)
class RandomizationSummary:
    """Distribution of (S0^2, S1^2, F) over the traversed assignments."""

    design: DesignKind
    support: tuple[SupportPoint, ...]
    mean_s0: float
    mean_s1: float
    is_exact: bool
    assignment_count: int
    df_treatment: int
    df_residual: int

    def probability_f_above(self, cutoff: float) -> float:
        """P(F > cutoff), strict; degenerate atoms never count."""
        return math.fsum(
            p.probability for p in self.support if p.f_stat > cutoff
        )


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
    """P(F > k) under the randomization distribution and the F reference."""

    cutoffs: np.ndarray
    p_randomization: np.ndarray
    p_reference: np.ndarray
    df_treatment: int
    df_residual: int

    def __post_init__(self) -> None:
        for field in ("cutoffs", "p_randomization", "p_reference"):
            arr = np.asarray(getattr(self, field), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)


@dataclass(frozen=True)
class MonteCarloReport:
    replications: int
    error_sd: float
    seed: int
    alpha: float
    cutoff: float
    mean_rejection: float
    standard_error: float | None
    rejection_probabilities: tuple[float, ...] | None


def _chunked(stream: Iterator[Assignment], size: int) -> Iterator[list[Assignment]]:
    chunk: list[Assignment] = []
    for item in stream:
        chunk.append(item)
        if len(chunk) == size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _batch_sums(
    design: DesignKind, x: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if design is DesignKind.RCB:
        return batch_anova_rcb(x, labels)
    return batch_anova_ls(x, labels)


def _sig_key(value: float) -> float:
    return float(f"{value:.{_SUPPORT_DIGITS}g}")


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

    groups: dict[tuple[float, float], list] = {}
    s0_partials: list[float] = []
    s1_partials: list[float] = []
    count = 0
    for chunk in _chunked(iter(assignments), _CHUNK):
        labels = np.stack([a.labels() for a in chunk])
        s0, s1 = _batch_sums(design, outcomes, labels)
        s0_partials.append(math.fsum(s0.tolist()))
        s1_partials.append(math.fsum(s1.tolist()))
        count += len(chunk)
        for v0, v1 in zip(s0.tolist(), s1.tolist()):
            key = (_sig_key(v0), _sig_key(v1))
            entry = groups.get(key)
            if entry is None:
                groups[key] = [v0, v1, 1]
            else:
                entry[2] += 1

    if count == 0:
        raise RandovaError("the assignment stream was empty")

    support = [
        SupportPoint(
            s0_sq=v0,
            s1_sq=v1,
            f_stat=f_from_sums(v0, v1),
            probability=c / count,
        )
        for (v0, v1, c) in groups.values()
    ]
    support.sort(
        key=lambda p: (math.isnan(p.f_stat), p.f_stat if not math.isnan(p.f_stat) else 0.0, p.s0_sq)
    )

    return RandomizationSummary(
        design=design,
        support=tuple(support),
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
        finite = [p.f_stat for p in summary.support if math.isfinite(p.f_stat)]
        if finite:
            upper = max(upper, max(finite))
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


def _materialized_labels(
    table: PotentialOutcomeTable, space: RandomizationSpace
) -> tuple[np.ndarray, bool]:
    stream, _, is_exact = assignment_stream(table, space)
    labels = np.stack([a.labels() for a in stream])
    return labels, is_exact


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
    not the execution schedule.  The assignment set is materialized once and
    reused across replications.
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
    labels, _ = _materialized_labels(table, space)

    streams = np.random.SeedSequence(seed).spawn(replications)
    rejections: list[float] = []
    for child in streams:
        rng = np.random.default_rng(child)
        noise = rng.normal(0.0, sigma_eps, size=table.outcomes.shape)
        s0, s1 = _batch_sums(table.design, table.outcomes + noise, labels)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = s1 / s0
        rejections.append(float(np.mean(f > cutoff)))

    mean = math.fsum(rejections) / replications
    if replications >= 2:
        var = math.fsum((p - mean) ** 2 for p in rejections) / (replications - 1)
        std_err = math.sqrt(var / replications)
    else:
        std_err = None
    return MonteCarloReport(
        replications=replications,
        error_sd=sigma_eps,
        seed=seed,
        alpha=alpha,
        cutoff=cutoff,
        mean_rejection=mean,
        standard_error=std_err,
        rejection_probabilities=tuple(rejections) if keep_replications else None,
    )
