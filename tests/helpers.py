"""Shared test utilities: random table generators and brute-force oracles.

The oracles here deliberately re-derive quantities by direct enumeration and
plain loops, so the package is checked against an independent route.
`fsum_anova` is the ANOVA oracle: it reads one assignment's responses off the
outcome table cell by cell and forms S0^2, S1^2 and F with math.fsum
reductions in fixed index order, sharing no code with the package's numpy
kernels.  The brute-force checks of those kernels (batch rows, enumeration
means against the closed forms, rejection counts) go through it.
`label_grid_anova` is the label-grid batch kernel that the package used
before it scored every assignment from shifted row tables: it gathers each
assignment's responses and forms the residuals directly, so it shares no
arithmetic with the row tables, and it serves as their reference where the
two must agree bit for bit in the decision F > cutoff or in inf and NaN.
`batch_kernel` runs the package's kernel (`randova.anova`) on a stack of
label grids the way the sampled path does, each chunk staged by
`randova.inference`, the one module that stages (`stage_rows`), and tabled
on its own; the exact path, which stages against the one permutation table
and tables it once, must give the same bits.
`latin_square_grids` is the Latin-square oracle: plain backtracking over the
cells, which the package's table-built enumerator must match square for
square and in order.
`cube_latin_squares` is the Jacobson-Matthews sampler as the package ran it
on a full incidence cube, before it kept only the position of each line's
1; it finds every 1 by scanning its line, so it shares no bookkeeping with
the line tables, and the package's sampler must match it bit for bit.
`unique_atom_ranks` is the atom rule as the package ran it on np.unique's
distinct values, before it marked atom splits on sorted neighbours; the
package's ranks must equal it.
`stable_support_columns` is the support aggregation as the package ran it
with stable sorts: atoms grouped by a stable argsort of the packed rank
pairs, so each atom's first assignment leads its run, and ordered by
`np.lexsort`; `exact_distribution` must give the same columns.
`first_occurrence_stage_rows` is label staging as the package ran it, with
each distinct key's label row taken from its first occurrence
(`np.unique(return_index=True)`); `inference.stage_rows` must give the same
arrays.
`concatenate_label_chunks` is the label chunking as the package ran it,
np.concatenate over slices of row views cast into each chunk;
`inference._label_chunks`, which joins each slice's bytes, must give the
same chunks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import randova as rv
import randova.inference as inference
from randova.anova import batch_anova_ls, batch_anova_rcb, f_from_sums, row_tables
from randova.enumeration import _row_keys, assignment_stream
from randova.inference import stage_rows


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


def grid_key(assignment):
    """Hashable form of an assignment's label grid."""
    return tuple(map(tuple, assignment.grid.tolist()))


def zero_table(design, num_blocks, num_treatments):
    """A table of zeros of the design's shape, (N, T, T) for RCB and
    (T, T, T) for LS (num_blocks unread).  The zeros are read-only, so the
    table keeps them without a copy, and no page of them is touched: the
    table of a huge space costs no memory."""
    design = rv.DesignKind(design)
    rows = num_treatments if design is rv.DesignKind.LS else num_blocks
    zeros = np.zeros((rows, num_treatments, num_treatments))
    zeros.setflags(write=False)
    return rv.PotentialOutcomeTable(design, zeros)


def exact_stream(design, num_blocks, num_treatments):
    """The exact stream of a design's space, the way every run enters it:
    `assignment_stream` on a `zero_table`.  Sizes and the cap are checked
    at the call."""
    table = zero_table(design, num_blocks, num_treatments)
    stream, _, _ = assignment_stream(table, rv.RandomizationSpace.exact())
    return stream


def sampled_stream(design, num_blocks, num_treatments, count, seed, **settings):
    """A sampled stream of count draws of a design's space, the way every
    run enters it: `assignment_stream` on a `zero_table`, with the
    Latin-square sampler settings (burn_in, ls_measure) given.  Arguments
    and the cap are checked at the call."""
    table = zero_table(design, num_blocks, num_treatments)
    space = rv.RandomizationSpace.sample(count, seed, **settings)
    stream, _, _ = assignment_stream(table, space)
    return stream


def all_assignments(table):
    return list(exact_stream(table.design, table.num_blocks, table.num_treatments))


def treatment_means(experiment):
    """Observed per-treatment means from one experiment, either design."""
    y = experiment.observed
    if experiment.design is rv.DesignKind.RCB:
        return np.array([math.fsum(y[:, k].tolist()) / y.shape[0]
                         for k in range(y.shape[1])])
    square = experiment.assignment.grid
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


def label_grid_anova(design, x, labels):
    """(S0^2, S1^2) arrays of an (N, T, T) outcome array under an (S, N, T)
    stack of label grids, by the label-grid kernel, each value at or below
    (units * eps * max|y|)^2 of its assignment set to 0."""
    s, n, t = labels.shape
    if rv.DesignKind(design) is rv.DesignKind.RCB:
        inverse = np.argsort(labels, axis=2)  # plot carrying each treatment
        y = x[np.arange(n)[None, :, None], inverse, np.arange(t)[None, None, :]]
        df1, df0 = t - 1, (n - 1) * (t - 1)
        ybar_t = y.mean(axis=1)
        ybar_i = y.mean(axis=2)
        ybar = y.mean(axis=(1, 2))
        resid = y - ybar_t[:, None, :] - ybar_i[:, :, None] + ybar[:, None, None]
        s0 = (resid * resid).sum(axis=(1, 2)) / df0
        s1 = n / df1 * ((ybar_t - ybar[:, None]) ** 2).sum(axis=1)
    else:
        ii, jj = np.meshgrid(np.arange(t), np.arange(t), indexing="ij")
        y = x[ii[None, :, :], jj[None, :, :], labels]
        df1, df0 = t - 1, (t - 1) * (t - 2)
        onehot = labels[..., None] == np.arange(t)[None, None, None, :]
        treat_means = np.einsum("sij,sijk->sk", y, onehot.astype(float)) / t
        ybar_i = y.mean(axis=2)
        ybar_j = y.mean(axis=1)
        ybar = y.mean(axis=(1, 2))
        cell_tm = np.take_along_axis(treat_means, labels.reshape(s, t * t), axis=1)
        resid = (
            y
            - ybar_i[:, :, None]
            - ybar_j[:, None, :]
            - cell_tm.reshape(s, t, t)
            + 2.0 * ybar[:, None, None]
        )
        s0 = (resid * resid).sum(axis=(1, 2)) / df0
        s1 = t / df1 * ((treat_means - ybar[:, None]) ** 2).sum(axis=1)
    floor = (n * t * np.finfo(float).eps * np.abs(y).max(axis=(1, 2))) ** 2
    return np.where(s0 > floor, s0, 0.0), np.where(s1 > floor, s1, 0.0)


def batch_kernel(table, labels, chunk=None):
    """(S0^2, S1^2) of an (S, rows, T) stack of label grids by the package's
    batch kernel, as the sampled path runs it: each chunk of the given size
    staged and tabled on its own, with the table's treatment shift."""
    chunk = chunk or len(labels)
    x = table.outcomes
    kernel = batch_anova_rcb if table.design is rv.DesignKind.RCB else batch_anova_ls
    parts = []
    for lo in range(0, len(labels), chunk):
        perms, index = stage_rows(labels[lo : lo + chunk])
        parts.append(kernel(row_tables(table.design, x[None], perms, x.mean(axis=(0, 1))), index))
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


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


def cube_latin_squares(order, count, seed, burn_in=None):
    """(count, T, T) int64 squares of the Latin-square sampler as it ran on a
    (K, T, T, T) int8 incidence cube, the reference for the line-table
    sampler, which must give the same squares bit for bit: the same chains
    of _CHUNK draws in lockstep, the same random integers, coins and checks.
    It draws the integers of 64 moves per generator call, the package's
    block before it drew 16, so a match also shows that the block size does
    not change the draws.  Each move gathers the three lines through its
    cell and finds the 1 on each with argmax, the first or, by coin, the
    last where a line holds two."""
    enum = rv.enumeration
    t = order
    burn_in, _ = enum.ls_sampler_settings(order, burn_in)
    spacing = enum._JM_CHECK_SPACING_FACTOR * t
    rng = np.random.default_rng(seed)
    line = np.arange(t)
    start = np.zeros((t, t, t), dtype=np.int8)
    start[line[:, None], line, (line[:, None] + line) % t] = 1

    def one_on_line(lines, coin):
        ones = lines == 1
        first = ones.argmax(axis=1)
        last = lines.shape[1] - 1 - ones[:, ::-1].argmax(axis=1)
        return np.where(coin, last, first)

    def moves(cube, hole, n):
        k = len(cube)
        flat = cube.reshape(-1)
        base = np.arange(k) * t**3
        symbol_line, column_line, row_line = line, line * t, line * t * t
        r_hole, c_hole, s_hole = hole
        for lo in range(0, n, 64):
            block = min(64, n - lo)
            draws = rng.integers(0, t * t * (t - 1) * 8, size=(block, k))
            draws, rows = np.divmod(draws, t)
            draws, cols = np.divmod(draws, t)
            coins, shifts = np.divmod(draws, t - 1)
            for row, col, shift, coin in zip(rows, cols, shifts, coins):
                improper = r_hole >= 0
                r = np.where(improper, r_hole, row)
                c = np.where(improper, c_hole, col)
                at_r, at_c = base + r * t * t, c * t
                s1 = one_on_line(flat[(at_r + at_c)[:, None] + symbol_line], coin & 1)
                s = np.where(improper, s_hole, (s1 + shift + 1) % t)
                r1 = one_on_line(flat[(base + at_c + s)[:, None] + row_line], coin & 2)
                c1 = one_on_line(flat[(at_r + s)[:, None] + column_line], coin & 4)
                at_r1, at_c1 = base + r1 * t * t, c1 * t
                even = [at_r + at_c + s, at_r + at_c1 + s1, at_r1 + at_c + s1, at_r1 + at_c1 + s]
                odd = [at_r1 + at_c + s, at_r + at_c1 + s, at_r + at_c + s1, at_r1 + at_c1 + s1]
                flat[np.stack(even)] += 1
                flat[np.stack(odd)] -= 1
                improper = flat[at_r1 + at_c1 + s1] < 0
                r_hole, c_hole, s_hole = np.where(improper, r1, -1), c1, s1
        return np.stack([r_hole, c_hole, s_hole])

    chunks = []
    for lo in range(0, count, enum._CHUNK):
        chains = min(enum._CHUNK, count - lo)
        cube = np.tile(start, (chains, 1, 1, 1))
        hole = np.full((3, chains), -1)
        running = np.arange(chains)
        squares = np.empty((chains, t, t), dtype=np.int64)
        n = burn_in
        while running.size:
            hole = moves(cube, hole, n)
            proper = hole[0] < 0
            squares[running[proper]] = cube[proper].argmax(axis=3)
            running, cube, hole = running[~proper], cube[~proper], hole[:, ~proper]
            n = spacing
        chunks.append(squares)
    return np.concatenate(chunks) if chunks else np.empty((0, t, t), dtype=np.int64)


def unique_atom_ranks(values):
    """Atom rank of each value by the distinct values of np.unique (NaNs are
    one): a new atom wherever the gap to the previous distinct value exceeds
    1e-12 times the larger magnitude of the two, or either is not finite."""
    distinct, inverse = np.unique(values, return_inverse=True)
    lo, hi = distinct[:-1], distinct[1:]
    gap = hi - lo > 1e-12 * np.maximum(np.abs(lo), np.abs(hi))
    split = gap | ~np.isfinite(hi) | ~np.isfinite(lo)
    return np.concatenate([[0], np.cumsum(split)])[inverse]


def stable_support_columns(s0, s1):
    """(f_stat, s0_sq, s1_sq, counts) of the atoms of the (S0^2, S1^2) of
    every assignment, in stream order: one atom per distinct pair of atom
    ranks (`unique_atom_ranks`), grouped by a stable argsort of the packed
    pairs so that the first assignment seen stands for its atom, and ordered
    by np.lexsort on (F, S0^2, first appearance)."""
    r0, r1 = unique_atom_ranks(s0), unique_atom_ranks(s1)
    key = r0.astype(np.int64) * (int(r1.max()) + 1) + r1
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1], [True]]))
    first = order[starts[:-1]]
    counts = np.diff(starts)
    atom_s0, atom_s1 = s0[first], s1[first]
    f = f_from_sums(atom_s0, atom_s1)
    by = np.lexsort((first, atom_s0, f))
    return f[by], atom_s0[by], atom_s1[by], counts[by]


def first_occurrence_stage_rows(labels):
    """(perms, index) of `stage_rows` on one (S, rows, T) label chunk: per
    row the distinct label rows in key order, each taken from the first
    occurrence of its key, and the (S, rows) index into them in the
    smallest unsigned dtype that holds min(T!, S) - 1."""
    count, rows, t = labels.shape
    labels = labels.astype(np.min_scalar_type(t - 1))
    dtype = np.min_scalar_type(min(math.factorial(t), count) - 1)
    keys = _row_keys(labels)
    perms, index = [], np.empty((count, rows), dtype=dtype)
    for row in range(rows):
        _, first, inverse = np.unique(keys[:, row], return_index=True, return_inverse=True)
        perms.append(labels[first, row])
        index[:, row] = inverse
    return tuple(perms), index


def concatenate_label_chunks(assignments):
    """The assignments' label grids, `inference._CHUNK` at a time, in (S,
    rows, T) arrays of the smallest unsigned dtype that holds T - 1, each
    filled by np.concatenate over slices of max(1, _LABEL_BUDGET // (rows *
    T)) grids, cast on the way in."""
    stream = iter(assignments)
    for first in stream:
        rows, t = first.grid.shape
        chunk = inference._CHUNK
        step = min(chunk, max(1, inference._LABEL_BUDGET // (rows * t)))
        labels = np.empty((chunk, rows, t), dtype=np.min_scalar_type(t - 1))
        grids = [first.grid] + [a.grid for a in itertools.islice(stream, step - 1)]
        filled = 0
        while grids:
            part = labels[filled : filled + len(grids)].reshape(-1, t)
            np.concatenate(grids, out=part, casting="unsafe")
            filled += len(grids)
            grids = [a.grid for a in itertools.islice(stream, min(step, chunk - filled))]
        yield labels[:filled]
