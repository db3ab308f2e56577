"""Shared test utilities: random table generators and brute-force oracles.

The oracles here deliberately re-derive quantities by direct enumeration and
plain loops, so the package is checked against an independent route.
`fsum_anova` is the ANOVA oracle: it reads one assignment's responses off the
outcome table cell by cell and forms S0^2, S1^2 and F with math.fsum
reductions in fixed index order, sharing no code with the package's numpy
kernels.  The brute-force checks of those kernels (batch rows, enumeration
means against the closed forms, rejection counts) go through it.
`latin_square_grids` is the Latin-square oracle: plain backtracking over the
cells, which the package's table-built enumerator must match square for
square and in order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import randova as rv


def random_rcb_table(rng, num_blocks=None, num_treatments=None, sd=0.0):
    # default sizes keep (T!)^N small enough for exhaustive-enumeration tests
    n = int(num_blocks) if num_blocks else int(rng.integers(2, 4))
    t = int(num_treatments) if num_treatments else int(rng.integers(2, 4))
    x = rng.normal(20.0, 15.0, size=(n, t, t))
    return rv.PotentialOutcomeTable(rv.DesignKind.RCB, x, technical_error_sd=sd)


def random_ls_table(rng, order=None, sd=0.0):
    t = int(order) if order else int(rng.integers(3, 5))
    x = rng.normal(20.0, 15.0, size=(t, t, t))
    return rv.PotentialOutcomeTable(rv.DesignKind.LS, x, technical_error_sd=sd)


def random_table(rng, design, sd=0.0, **kwargs):
    if rv.DesignKind(design) is rv.DesignKind.RCB:
        return random_rcb_table(rng, sd=sd, **kwargs)
    return random_ls_table(rng, sd=sd, **kwargs)


def additive_table(rng, design, num_blocks=None, order=None, shifts=None):
    """X_ij(t) = U_ij + tau(t); shifts=None draws random tau, pass 0 for sharp null."""
    design = rv.DesignKind(design)
    if design is rv.DesignKind.RCB:
        n = int(num_blocks) if num_blocks else int(rng.integers(2, 4))
        t = int(rng.integers(2, 4))
    else:
        t = int(order) if order else int(rng.integers(3, 5))
        n = t
    units = rng.normal(10.0, 8.0, size=(n, t))
    if shifts is None:
        tau = rng.normal(0.0, 5.0, size=t)
    else:
        tau = np.full(t, float(shifts)) if np.isscalar(shifts) else np.asarray(shifts)
    x = units[:, :, None] + tau[None, None, :]
    return rv.PotentialOutcomeTable(design, x)


def sharp_null_table(rng, design, **kwargs):
    return additive_table(rng, design, shifts=0.0, **kwargs)


def two_value_witness(rng, order=4):
    """LS table in the two-marked-cells family: sharp null, no blocking-factor
    interaction, equal expected mean squares, yet F takes only two values."""
    t = order
    x = np.zeros((t, t, t))
    i1 = int(rng.integers(0, t))
    i2 = int((i1 + 1 + rng.integers(0, t - 1)) % t)
    j1 = int(rng.integers(0, t))
    j2 = int((j1 + 1 + rng.integers(0, t - 1)) % t)
    scale = float(rng.uniform(0.5, 50.0)) * (1 if rng.random() < 0.5 else -1)
    shift = float(rng.normal(0.0, 10.0))
    x[i1, j1, :] = 1.0
    x[i2, j2, :] = 1.0
    return rv.PotentialOutcomeTable(rv.DesignKind.LS, shift + scale * x)


def rcb_block_constant_table(rng, num_blocks=None, num_treatments=None):
    """Integer-valued RCB table whose block corrections are exactly constant
    in t: per-block row sums are forced to the same integer for every
    treatment, so B_i(t) is the same float for all t and the interaction term
    is exactly zero."""
    n = int(num_blocks) if num_blocks else int(rng.integers(2, 4))
    t = int(num_treatments) if num_treatments else int(rng.integers(2, 4))
    x = rng.integers(-20, 40, size=(n, t, t)).astype(float)
    targets = rng.integers(-10, 30, size=n)
    for i in range(n):
        for k in range(t):
            x[i, t - 1, k] = targets[i] - x[i, : t - 1, k].sum()
    return rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)


def ls_interaction_free_table(rng, order=None):
    """Integer-valued LS table whose row and column sums are identical across
    treatments, making R_i(t) and C_j(t) exactly constant in t."""
    t = int(order) if order else int(rng.integers(3, 5))
    row_targets = rng.integers(-10, 30, size=t)
    col_targets = rng.integers(-10, 30, size=t)
    col_targets[-1] = row_targets.sum() - col_targets[:-1].sum()
    x = np.empty((t, t, t))
    for k in range(t):
        core = rng.integers(-20, 40, size=(t - 1, t - 1)).astype(float)
        grid = np.zeros((t, t))
        grid[: t - 1, : t - 1] = core
        grid[: t - 1, t - 1] = row_targets[: t - 1] - core.sum(axis=1)
        grid[t - 1, :] = col_targets - grid[: t - 1, :].sum(axis=0)
        x[:, :, k] = grid
    return rv.PotentialOutcomeTable(rv.DesignKind.LS, x)


def all_assignments(table):
    if table.design is rv.DesignKind.RCB:
        return list(rv.enumerate_rcb(table.num_blocks, table.num_treatments))
    return list(rv.enumerate_latin_squares(table.num_treatments))


def treatment_means(experiment):
    """Observed per-treatment means from one experiment, either design."""
    y = experiment.observed
    if experiment.design is rv.DesignKind.RCB:
        return np.array([math.fsum(y[:, k].tolist()) / y.shape[0]
                         for k in range(y.shape[1])])
    square = experiment.assignment.ls_square
    t = y.shape[0]
    return np.array([math.fsum(y[square == k].tolist()) / t for k in range(t)])


def observed_by_loops(table, assignment):
    """Observed responses, cell by cell: y[i][t] is the outcome of the plot of
    block i that got treatment t (RCB); y[i][j] that of cell (i, j) (LS)."""
    x = table.outcomes
    grid = assignment.labels().tolist()
    n, p, _ = x.shape
    y = np.empty((n, p))
    for i in range(n):
        for j in range(p):
            k = grid[i][j]
            if table.design is rv.DesignKind.RCB:
                y[i, k] = x[i, j, k]
            else:
                y[i, j] = x[i, j, k]
    return y


def fsum_anova(table, assignment):
    """(S0^2, S1^2, F) of one assignment by math.fsum in fixed index order."""
    fsum = math.fsum
    y = observed_by_loops(table, assignment).tolist()
    grid = assignment.labels().tolist()
    n, t = len(y), len(y[0])
    cells = [(i, j) for i in range(n) for j in range(t)]
    row_means = [fsum(row) / t for row in y]
    if table.design is rv.DesignKind.RCB:
        df1, df0 = t - 1, (n - 1) * (t - 1)
        group_means = [fsum(row[k] for row in y) / n for k in range(t)]
        grand = fsum(group_means) / t
        resid = [y[i][k] - group_means[k] - row_means[i] + grand for i, k in cells]
        s1 = n / df1 * fsum((m - grand) ** 2 for m in group_means)
    else:
        df1, df0 = t - 1, (t - 1) * (t - 2)
        group_means = [
            fsum(y[i][j] for i, j in cells if grid[i][j] == k) / t for k in range(t)
        ]
        col_means = [fsum(row[j] for row in y) / t for j in range(t)]
        grand = fsum(row_means) / t
        resid = [
            y[i][j] - row_means[i] - col_means[j] - group_means[grid[i][j]] + 2.0 * grand
            for i, j in cells
        ]
        s1 = t / df1 * fsum((m - grand) ** 2 for m in group_means)
    s0 = max(fsum(r * r for r in resid) / df0, 0.0)
    s1 = max(s1, 0.0)
    if s0 == 0.0:
        return s0, s1, math.inf if s1 > 0.0 else math.nan
    return s0, s1, s1 / s0


def enumeration_mean_squares(table):
    """Enumeration means of (S0^2, S1^2) via the fsum_anova oracle."""
    s0s, s1s = [], []
    for assignment in all_assignments(table):
        s0, s1, _ = fsum_anova(table, assignment)
        s0s.append(s0)
        s1s.append(s1)
    return math.fsum(s0s) / len(s0s), math.fsum(s1s) / len(s1s)


def enumeration_contrast_moments(table, t_a, t_b):
    """Mean and population variance of the observed contrast over all
    assignments."""
    diffs = []
    for assignment in all_assignments(table):
        means = treatment_means(rv.observe(table, assignment))
        diffs.append(float(means[t_a] - means[t_b]))
    mean = math.fsum(diffs) / len(diffs)
    var = math.fsum((d - mean) ** 2 for d in diffs) / len(diffs)
    return mean, var


def decomposition_moments_by_loops(dec):
    """(rho, r, interaction sum) of a Decomposition by plain loops over its
    residuals and corrections, with the math.fsum arithmetic `decompose` uses:
    rho(t,t') one fsum per ordered pair, r = rho / sqrt(s s') clipped to
    [-1, 1] (0 when either variance is 0), and each correction centered as
    the mean of its pairwise differences before it is squared."""
    eta = dec.residuals
    units = eta.shape[0] * eta.shape[1]
    t = eta.shape[2]
    rho = np.array(
        [
            [math.fsum((eta[:, :, a] * eta[:, :, b]).ravel().tolist()) / units
             for b in range(t)]
            for a in range(t)
        ]
    )
    var = np.maximum(np.diag(rho), 0.0)
    r = np.eye(t)
    for a in range(t):
        for b in range(t):
            if a != b and var[a] > 0.0 and var[b] > 0.0:
                ratio = rho[a, b] / math.sqrt(var[a] * var[b])
                r[a, b] = min(1.0, max(-1.0, ratio))
    if dec.design is rv.DesignKind.RCB:
        corrections = [dec.block_corrections]
    else:
        corrections = [dec.row_corrections, dec.column_corrections]
    interaction = 0.0
    for correction in corrections:
        squares = []
        for row in correction.tolist():
            for a in range(t):
                d = math.fsum(row[a] - row[b] for b in range(t)) / t
                squares.append(d * d)
        interaction += math.fsum(squares)
    return rho, r, interaction


def latin_square_grids(order):
    """Every Latin square of the order as a flat row-major tuple, in
    lexicographic order: backtracking over cells in row-major order, symbols
    ascending."""
    cells = order * order
    grid = [0] * cells
    row_used = [0] * order
    col_used = [0] * order
    full = (1 << order) - 1

    def rec(pos):
        if pos == cells:
            yield tuple(grid)
            return
        i, j = divmod(pos, order)
        avail = ~(row_used[i] | col_used[j]) & full
        while avail:
            bit = avail & -avail
            avail ^= bit
            grid[pos] = bit.bit_length() - 1
            row_used[i] |= bit
            col_used[j] |= bit
            yield from rec(pos + 1)
            row_used[i] ^= bit
            col_used[j] ^= bit

    yield from rec(0)


def count_latin_squares_bruteforce(order):
    """Independent Latin-square count: tuples of pairwise pointwise-distinct
    permutation rows, standardizing the first row to cut the search."""
    perms = list(itertools.permutations(range(order)))
    identity = tuple(range(order))

    def compatible(row, previous):
        return all(all(a != b for a, b in zip(row, prev)) for prev in previous)

    def extend(previous):
        if len(previous) == order:
            return 1
        return sum(
            extend(previous + [p]) for p in perms if compatible(p, previous)
        )

    return math.factorial(order) * extend([identity])
