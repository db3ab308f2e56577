"""Independent checks of the randova CLI's outputs.

The benchmark enumerates the randomization spaces itself, with numpy and in
plot layout (the package works in treatment layout), and computes
(S0^2, S1^2, F) for every assignment. A CLI probability P(F > k) must then
equal the oracle's count over the space size, except for assignments whose F
lies within a relative 1e-9 of k, which may fall on either side.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .workloads import Job

REL_TOL = 1e-9  # mean squares vs closed form, and F ties at a cutoff
MC_BRACKET = 0.05  # Monte Carlo noise may move F by this share of the cutoff
_CHUNK = 8192


@dataclass
class CheckLog:
    """Outcome of each named check; a failed check fails its invocation."""

    passed: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)

    def check(self, ok: bool, name: str, detail: str = "") -> bool:
        if ok:
            self.passed.append(name)
        else:
            self.failed.append(f"{name}: {detail}" if detail else name)
        return ok


def _permutations(t: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(t))), dtype=np.int8)


def latin_squares(order: int) -> np.ndarray:
    """Every Latin square of the order, (M, T, T), built row by row."""
    perms = _permutations(order)
    disjoint = (perms[:, None, :] != perms[None, :, :]).all(axis=2)
    rows = np.arange(len(perms))[:, None]
    for _ in range(order - 1):
        allowed = np.logical_and.reduce([disjoint[rows[:, k]] for k in range(rows.shape[1])])
        square, nxt = np.nonzero(allowed)
        rows = np.column_stack([rows[square], nxt])
    return perms[rows]


def rcb_assignments(blocks: int, treatments: int) -> np.ndarray:
    """Every per-block permutation assignment, (M, N, T)."""
    perms = _permutations(treatments)
    grids = np.meshgrid(*([np.arange(len(perms))] * blocks), indexing="ij")
    index = np.stack([g.ravel() for g in grids], axis=1)
    return perms[index]


def mean_squares(design: str, x: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S0^2, S1^2) for each assignment; labels[s, i, j] is the treatment of plot j."""
    rows, cols, t = x.shape
    df1 = t - 1
    df0 = (rows - 1) * (t - 1) if design == "rcb" else (t - 1) * (t - 2)
    s0 = np.empty(len(labels))
    s1 = np.empty(len(labels))
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    onehot = np.eye(t)
    for lo in range(0, len(labels), _CHUNK):
        lab = labels[lo:lo + _CHUNK].astype(np.intp)
        v = x[ii, jj, lab]  # (S, rows, cols) observed value of each plot
        grand = v.mean(axis=(1, 2))
        treat = np.einsum("sij,sijt->st", v, onehot[lab]) / rows
        resid = v - v.mean(axis=2)[:, :, None] - treat[np.arange(len(lab))[:, None, None], lab]
        if design == "rcb":
            resid += grand[:, None, None]
        else:
            resid += 2.0 * grand[:, None, None] - v.mean(axis=1)[:, None, :]
        s0[lo:lo + _CHUNK] = (resid * resid).sum(axis=(1, 2)) / df0
        s1[lo:lo + _CHUNK] = rows / df1 * ((treat - grand[:, None]) ** 2).sum(axis=1)
    return s0, s1


def f_values(s0: np.ndarray, s1: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s0 > 0.0, s1 / s0, np.where(s1 > 0.0, np.inf, np.nan))


class FCounts:
    """Sorted F values of a space, for counting F > k with tie bands."""

    def __init__(self, f: np.ndarray) -> None:
        self.size = len(f)
        self.sorted = np.sort(f[~np.isnan(f)])

    def above(self, k: float) -> tuple[int, int]:
        """(count of F > k, count of F within a relative REL_TOL of k)."""
        tol = REL_TOL * max(abs(k), 1.0)
        s = self.sorted
        above = len(s) - int(np.searchsorted(s, k, side="right"))
        near = int(np.searchsorted(s, k + tol, side="right") - np.searchsorted(s, k - tol, side="left"))
        return above, near


def _probability_matches(log: CheckLog, name: str, p: float, counts: FCounts, k: float) -> None:
    scaled = p * counts.size
    whole = round(scaled)
    if not log.check(abs(scaled - whole) <= 1e-6 * max(1.0, scaled),
                     f"{name} times {counts.size} is a whole count", f"{scaled!r}"):
        return
    above, near = counts.above(k)
    log.check(abs(whole - above) <= near, f"{name} matches the oracle",
              f"CLI {whole}/{counts.size}, oracle {above} (+-{near}) at k={k!r}")


def _space(job: Job) -> np.ndarray:
    if job.design == "ls":
        return latin_squares(job.treatments)
    return rcb_assignments(job.blocks, job.treatments)


def check_exact(log: CheckLog, job: Job, table, report: dict) -> None:
    """Exact jobs: the oracle's space, its means, and every CLI probability."""
    from randova import expected_ms, space_cardinality

    labels = _space(job)
    log.check(len(labels) == space_cardinality(job.design, job.blocks, job.treatments) == job.space_size,
              "oracle space size equals space_cardinality", f"{len(labels)}")
    s0, s1 = mean_squares(job.design, table.outcomes, labels)
    ems = expected_ms(table)
    for name, values, want in (("S0^2", s0, ems.e_s0), ("S1^2", s1, ems.e_s1)):
        got = math.fsum(values.tolist()) / len(values)
        log.check(abs(got - want) <= REL_TOL * abs(want), f"oracle mean {name} equals expected_ms",
                  f"{got!r} vs {want!r}")
    counts = FCounts(f_values(s0, s1))
    if job.argv[0] == "curve":
        cutoffs, probs = report["cutoffs"], report["p_randomization"]
        log.check(len(cutoffs) == len(probs) == 200, "curve has the default 200 points")
        bad = CheckLog()
        for k, p in zip(cutoffs, probs):
            _probability_matches(bad, "p_randomization", p, counts, k)
        log.check(not bad.failed, "every curve point matches the oracle", "; ".join(bad.failed[:3]))
    else:
        _probability_matches(log, "rejection_probability", report["rejection_probability"],
                             counts, report["cutoff"])


def check_mc(log: CheckLog, job: Job, table, report: dict) -> None:
    """Monte Carlo jobs: the mean rejection lies in the bracket the noise allows.

    Noise with sd 0.01 on outcomes of sd 15 moves F by far less than
    MC_BRACKET of the cutoff, so the mean rejection lies between the
    noiseless rejection rates at cutoff*(1 + MC_BRACKET) and
    cutoff*(1 - MC_BRACKET). The check does not depend on the noise stream.
    """
    reps = int(job.argv[job.argv.index("--reps") + 1])
    log.check(report["replications"] == reps, "mc ran the requested replications")
    s0, s1 = mean_squares(job.design, table.outcomes, _space(job))
    counts = FCounts(f_values(s0, s1))
    k = report["cutoff"]
    low = counts.above(k * (1 + MC_BRACKET))[0] / counts.size
    high = counts.above(k * (1 - MC_BRACKET))[0] / counts.size
    mean = report["mean_rejection"]
    log.check(low - 1e-12 <= mean <= high + 1e-12, "mc mean_rejection within the noise bracket",
              f"{mean!r} not in [{low!r}, {high!r}]")
    if table.name == "table4":
        log.check(mean == 0.0, "table4 mc mean_rejection is 0 (the two-value square)", f"{mean!r}")


def check_sampled(log: CheckLog, job: Job, table, report: dict, draws: list) -> None:
    """Sampled jobs: N valid draws, and the CLI probability counts F over them."""
    log.check(len(draws) == job.evaluations, "sampler returned exactly N draws",
              f"{len(draws)} != {job.evaluations}")
    log.check(all(a.is_valid() for a in draws), "every draw passes Assignment.is_valid()")
    labels = np.stack([a.labels() for a in draws])
    counts = FCounts(f_values(*mean_squares(job.design, table.outcomes, labels)))
    _probability_matches(log, "rejection_probability", report["rejection_probability"],
                         counts, report["cutoff"])


def sample_draws(job: Job, table) -> list:
    """The draws the CLI's sampled job visits, taken from the package's sampler."""
    from randova import RandomizationSpace
    from randova.enumeration import assignment_stream

    draws = int(job.argv[job.argv.index("--sample") + 1])
    seed = int(job.argv[job.argv.index("--seed") + 1])
    stream, _, _ = assignment_stream(table, RandomizationSpace.sample(draws, seed=seed))
    return list(stream)


def check_in_process(log: CheckLog, job: Job, table, report: dict, summaries: list,
                     draws: list, visited: int, distinct: int) -> None:
    """Checks on what an in-process CLI call computed, captured by the traced run.

    visited counts the assignments the call's streams yielded and distinct
    the different label grids among those of exact streams; summaries are its
    exact_distribution results and draws its sampled assignments.
    """
    from randova import expected_ms, space_cardinality

    want = job.evaluations if job.kind == "sampled" else job.space_size
    log.check(visited == want, "the stream yields as many assignments as the space or the draws",
              f"{visited} != {want}")
    if job.kind != "sampled":
        log.check(distinct == visited, "the exact stream yields no assignment twice",
                  f"{distinct} distinct of {visited}")
    if job.kind == "mc":
        return
    if not log.check(len(summaries) == 1, "one exact_distribution per job", f"{len(summaries)}"):
        return
    (summary,) = summaries
    log.check(summary.assignment_count == visited, "assignment_count equals the assignments visited")
    if job.kind == "exact":
        log.check(summary.assignment_count == space_cardinality(job.design, job.blocks, job.treatments),
                  "assignment_count equals space_cardinality")
        ems = expected_ms(table)
        for name, got, closed in (("S0^2", summary.mean_s0, ems.e_s0), ("S1^2", summary.mean_s1, ems.e_s1)):
            log.check(abs(got - closed) <= REL_TOL * abs(closed),
                      f"exact_distribution mean {name} equals expected_ms", f"{got!r} vs {closed!r}")
    else:
        log.check(len(draws) == job.evaluations, "sampler returned exactly N draws")
        log.check(all(a.is_valid() for a in draws), "every draw passes Assignment.is_valid()")
    if job.argv[0] == "curve":
        pairs = list(zip(report["cutoffs"], report["p_randomization"]))
    else:
        pairs = [(report["cutoff"], report["rejection_probability"])]
    log.check(all(summary.probability_f_above(k) == p for k, p in pairs),
              "CLI probability equals probability_f_above(cutoff)")
