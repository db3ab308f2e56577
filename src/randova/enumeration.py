"""Enumeration and uniform sampling of the randomization space.

RCB randomizations are independent per-block permutations of the treatment
labels; the space has (T!)^N elements and is streamed in lexicographic order
of the concatenated permutations.  LS randomizations are Latin squares of
order T, streamed in row-major lexicographic order.  Every square of the
order is kept as the index of each of its rows in the table of the T!
permutations (0.8 MB of uint8 at order 5, against 31 MB of int64 grids),
built on first use from those with an identity first row (1,344 at order
5) by renaming their symbols.  `_exact_index` alone yields an exact space's
chunks as indices into that table, an RCB position's mixed-radix digits or
a slice of the square table, and `assignment_stream` gathers their grids
from an int64 copy of the permutation table, one np.take a chunk.
Exact enumeration is capped (default 10^7 assignments, override with the
RANDOVA_ENUM_CAP environment variable); beyond the cap callers must sample.
A sampled run is held to the same cap on its number of draws, since it
stages and scores every draw.
`assignment_stream` is the one way into every space, exact or sampled: its
entry checks a stream's arguments, sizes and count when it is called, and
the code behind it reads them as checked (`space_cardinality` checks its
own).  It resolves the space to one private generator of int64 (S, rows,
T) label chunks and wraps their rows as Assignments, read-only row views
of their chunk.  The enumerators and samplers build only valid
assignments, so they are not checked one by one; `observe` checks the
grids that callers build.

Uniform sampling builds a chunk of draws at a time.  RCB draws independent
uniform permutations per block, as the argsort of uniform keys, in blocks of
at most _LABEL_BUDGET keys (2^16, 655 draws of an RCB 20x5), so the keys
and their int64 argsort take about 1 MB, where a whole chunk of 4,096 draws
took 6.6 MB.  For LS the default measure is uniform over ALL Latin squares
of the order, realized by one Jacobson-Matthews chain (+-1 moves on the
incidence cube) per draw, the chains of a chunk run in lockstep: each chain
runs burn_in moves, then is checked every m moves (m a fixed constant per
order) and emits its square at the first check that finds it proper.  A
chain keeps its cube as three (T, T) tables of the position of each line's
1 (the symbol of each cell, the row of each column and symbol, the column
of each row and symbol) and, while improper, the two 1s on each line
through its -1 cell, so a move reads six table entries and rewrites twelve
instead of scanning three lines.  One generator call draws the random
integers of 16 moves of every chain of the chunk (0.5 MB of int64 for
4,096 chains); they come in the same order whatever the number of moves
per call.  A "subgroup" measure is also available which only randomizes
rows/columns/symbols of a fixed cyclic reference square (a strictly smaller
orbit unless T <= 3; up to order 3 both measures draw from it).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, SpaceTooLarge, _check_int, _number
from .potential_outcomes import DesignKind, PotentialOutcomeTable, _array, _converted, _Value

DEFAULT_ENUM_CAP = 10_000_000
ENUM_CAP_ENV_VAR = "RANDOVA_ENUM_CAP"

# Total Latin square counts for orders 1..5.  Orders 1-4 are re-derived by an
# independent counting oracle in the test suite; order 5 is pinned as a
# regression value, and a backtracking oracle in the tests re-derives every
# square of orders 1-5.
LATIN_SQUARE_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
MAX_EXACT_LS_ORDER = 5
_MAX_COUNT = 10**4300 - 1  # 4300 digits: Python's default limit on int -> str

_CHUNK = 4096  # assignments built per step of the enumerators and samplers
# per step: bytes of int64 label grids the staging joins, keys the RCB sampler draws
_LABEL_BUDGET = 2**16

_JM_BURN_IN_FACTOR = 2  # burn-in moves of each chain = factor * T^3
_JM_CHECK_SPACING_FACTOR = 4  # moves between a chain's later checks = factor * T
_JM_MOVES_PER_DRAW = 16  # moves whose random integers one Generator call draws


def enumeration_cap() -> int:
    """Active exact-enumeration cap: RANDOVA_ENUM_CAP when set, else
    DEFAULT_ENUM_CAP."""
    raw = os.environ.get(ENUM_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
        if cap >= 1:
            return cap
    except ValueError:
        pass
    raise InvalidArgument(f"{ENUM_CAP_ENV_VAR} must be an integer >= 1, got {raw!r}")


def _check_cap(count: int, what: str, fewer: str = "ask for fewer") -> None:
    """InvalidArgument naming the cap and its variable when count, the size
    of what a run would hold, is above enumeration_cap()."""
    cap = enumeration_cap()
    if count > cap:
        raise InvalidArgument(f"{what} is above the cap {cap}; {fewer} or raise {ENUM_CAP_ENV_VAR}")


class LsMeasure(str, Enum):
    ALL_SQUARES = "all"
    TRANSFORMATION_SUBGROUP = "subgroup"


@dataclass(frozen=True)
class RandomizationSpace:
    """Strategy for traversing the randomization space of a design.

    Without a sample_size the space is exact: every assignment is visited
    once.  With one it is sampled: sample_size draws, deterministic given
    seed.  burn_in and ls_measure are Latin-square sampler settings, None
    when not given: burn_in is the number of moves each draw's
    Jacobson-Matthews chain runs before it is first checked for a proper
    square (later checks follow every 4*T moves), 2*T^3 by default, and
    ls_measure is "all" by default (`ls_sampler_settings`).  Construction
    rejects settings that cannot be traversed with InvalidArgument: seed,
    burn_in or ls_measure without a sample_size (an exact traversal would
    ignore them), a sample without seed, a seed not an int >= 0, a size or
    burn_in not an int >= 1, an unknown measure.  assignment_stream also
    rejects Latin-square sampler settings for an RCB table.
    """

    sample_size: int | None = None
    seed: int | None = None
    burn_in: int | None = None
    ls_measure: LsMeasure | None = None

    def __post_init__(self) -> None:
        if self.sample_size is None:
            settings = {"seed": self.seed, "burn_in": self.burn_in, "ls_measure": self.ls_measure}
            given = [name for name, value in settings.items() if value is not None]
            if given:
                raise InvalidArgument(
                    f"{' and '.join(given)}: sampler settings need a sample size;"
                    " an exact space visits every assignment"
                )
            return
        _check_int(self.sample_size, 1, "sample size")
        if self.seed is None:
            raise InvalidArgument("a sampled space needs a seed")
        _check_int(self.seed, 0, "seed")
        if self.burn_in is not None:
            _check_int(self.burn_in, 1, "burn_in")
        if self.ls_measure is not None:
            try:
                object.__setattr__(self, "ls_measure", LsMeasure(self.ls_measure))
            except ValueError:
                choices = ", ".join(m.value for m in LsMeasure)
                raise InvalidArgument(
                    f"unknown Latin-square measure {self.ls_measure!r}; choose from {choices}"
                ) from None

    @classmethod
    def exact(cls) -> "RandomizationSpace":
        return cls()

    @classmethod
    def sample(
        cls,
        size: int,
        seed: int,
        burn_in: int | None = None,
        ls_measure: LsMeasure | str | None = None,
    ) -> "RandomizationSpace":
        return cls(sample_size=size, seed=seed, burn_in=burn_in, ls_measure=ls_measure)


@dataclass(frozen=True, eq=False)
class Assignment(_Value):
    """One realized randomization: grid holds the (zero-based) treatment labels.

    RCB: grid[i][j] is the treatment given to plot j of block i; each row is
    a permutation of 0..T-1.  LS: grid[i][j] is the treatment in cell (i, j);
    each symbol occurs once per row and column.  Construction does not check
    this; is_valid() does, and observe() and anova() call it.
    """

    design: DesignKind = _converted(DesignKind)
    grid: np.ndarray = _array(np.int64)

    @classmethod
    def _of_rows(
        cls, design: DesignKind, chunks: Iterable[np.ndarray]
    ) -> Iterator["Assignment"]:
        """One Assignment per row of each int64 (S, rows, T) chunk, which it
        makes read-only.

        For the enumerators and samplers, whose grids are valid: each
        Assignment holds its row view and skips __init__, which would only
        copy and re-check a grid that is already read-only int64.  A chunk
        is dropped after its last row, before the next one is built.
        """
        new = object.__new__  # bound once: a lookup per assignment is about a tenth of its cost
        for chunk in chunks:
            chunk.setflags(write=False)
            for grid in chunk:
                assignment = new(cls)
                fields = assignment.__dict__
                fields["design"] = design
                fields["grid"] = grid
                yield assignment
            del chunk, grid, assignment, fields

    def labels(self) -> np.ndarray:
        """The treatment-label grid."""
        return self.grid

    def is_valid(self) -> bool:
        """Bijection check per block (RCB) or Latin property (LS); False for
        a grid that is not 2-d."""
        grid = self.grid
        if grid.ndim != 2:
            return False
        want = np.arange(grid.shape[1])
        rows_ok = bool((np.sort(grid, axis=1) == want).all())
        if self.design is DesignKind.RCB:
            return rows_ok
        return (
            rows_ok
            and grid.shape[0] == len(want)
            and bool((np.sort(grid, axis=0) == want[:, None]).all())
        )


def ls_sampler_settings(
    order: int, burn_in: int | None = None, measure: LsMeasure | None = None
) -> tuple[int, LsMeasure]:
    """The Latin-square sampler's (burn_in, measure) for the order, with the
    defaults filled in: 2*T^3 moves and "all" squares.  DimensionMismatch
    unless the order is an int >= 1; burn_in and measure are read as a
    RandomizationSpace holds them, already checked and converted."""
    _check_sizes(DesignKind.LS, order, order)
    if burn_in is None:
        burn_in = _JM_BURN_IN_FACTOR * order**3
    return burn_in, LsMeasure.ALL_SQUARES if measure is None else measure


def _check_sizes(design: DesignKind, num_blocks: int, num_treatments: int) -> None:
    """DimensionMismatch unless the design's sizes are ints >= 1: an RCB's
    N and T, an LS's order T (num_blocks unread)."""
    sizes = {"num_blocks": num_blocks, "num_treatments": num_treatments}
    if design is DesignKind.LS:
        sizes = {"order": num_treatments}
    if not all(_number(size, integral=True) >= 1 for size in sizes.values()):
        got = ", ".join(f"{name}={size!r}" for name, size in sizes.items())
        raise DimensionMismatch(f"sizes must be integers >= 1, got {got}")


def _rcb_space_size(num_blocks: int, num_treatments: int, limit: int) -> int | None:
    """(T!)^N when it is at most limit, else None, found without building a
    number much larger than limit; N and T are checked by the caller."""
    factorial = 1
    for k in range(2, num_treatments + 1):
        factorial *= k
        if factorial > limit:
            return None
    # factorial >= 2^(bits - 1), so its N-th power is >= 2^((bits - 1) N)
    if (factorial.bit_length() - 1) * num_blocks >= limit.bit_length():
        return None
    size = factorial**num_blocks
    return size if size <= limit else None


def space_cardinality(
    design: DesignKind, num_blocks: int, num_treatments: int
) -> int | None:
    """Size of the design's randomization space: (T!)^N for RCB, and for LS
    the number of Latin squares of order T (num_blocks unread), or None when
    it is not tabulated (T > 5).  InvalidArgument for an unknown design,
    DimensionMismatch unless the sizes are integers >= 1, SpaceTooLarge for
    an RCB size of more than 4300 digits, which is not built."""
    try:
        design = DesignKind(design)
    except ValueError:
        choices = ", ".join(d.value for d in DesignKind)
        raise InvalidArgument(f"unknown design {design!r}; choose from {choices}") from None
    _check_sizes(design, num_blocks, num_treatments)
    if design is DesignKind.LS:
        return LATIN_SQUARE_COUNTS.get(num_treatments)
    size = _rcb_space_size(num_blocks, num_treatments, _MAX_COUNT)
    if size is None:
        raise SpaceTooLarge(
            f"the RCB space has ({num_treatments}!)^{num_blocks} assignments,"
            " a number of more than 4300 digits"
        )
    return size


@functools.lru_cache(maxsize=1)
def _permutation_table(num_treatments: int) -> np.ndarray:
    """All permutations of 0..T-1 in lexicographic order, (T!, T) int8, read-only.

    The table for n symbols takes each first symbol f in turn and follows it
    with the table for n-1 symbols, every label >= f moved up by one; the
    shift is monotone, so the rows stay in lexicographic order.
    """
    table = np.zeros((1, 0), dtype=np.int8)
    for n in range(1, num_treatments + 1):
        first = np.repeat(np.arange(n, dtype=np.int8), len(table))
        rest = np.tile(table, (n, 1))
        rest += rest >= first[:, None]
        table = np.column_stack([first, rest])
    table.setflags(write=False)
    return table


def _row_keys(labels: np.ndarray) -> np.ndarray:
    """The key of each row of a (..., T) array of labels >= 0, in
    lexicographic order: the labels packed into a uint64, first most
    significant, when they fit, which np.unique sorts ~7x faster than the
    opaque bytes used otherwise (np.unique(axis=0) is slower still)."""
    t = labels.shape[-1]
    bits = max(1, (t - 1).bit_length())
    if bits * t > 64:
        return np.ascontiguousarray(labels).view(f"V{labels.itemsize * t}")[..., 0]
    # packed a label at a time, so only (...,) arrays are made
    keys = np.zeros(labels.shape[:-1], dtype=np.uint64)
    for k in range(t):
        keys <<= np.uint64(bits)
        keys |= labels[..., k].astype(np.uint64)
    return keys


def _permutation_ranks(every: np.ndarray) -> np.ndarray:
    """The rank of each label row in every, the (T!, T) table of all
    permutations in lexicographic order, as a lookup by the row's key
    (`_row_keys`): entry k is the rank of the permutation whose key is k, in
    the smallest unsigned dtype that holds T! - 1.  The lookup spans the
    keys' range: 229 B at T = 4, 18 KB at T = 5, 364 KB at T = 6."""
    keys = _row_keys(every)
    ranks = np.zeros(int(keys[-1]) + 1, dtype=np.min_scalar_type(len(every) - 1))
    ranks[keys] = np.arange(len(every))
    return ranks


@functools.lru_cache(maxsize=None)
def _latin_square_rows(order: int) -> np.ndarray:
    """Every Latin square of the order as (M, T) indices into
    _permutation_table(order), read-only, in the smallest unsigned dtype
    (uint8 up to order 5), in row-major lexicographic order of the squares.

    Only the squares whose first row is the identity are grown, a row at a
    time by every permutation that clashes with no earlier row in any
    column, and their last row is forced: each column misses one symbol,
    T(T - 1)/2 minus its sum, and the row's index is its rank
    (`_permutation_ranks`).  Renaming symbols by a permutation p maps them
    one to one onto the squares whose first row is p, row q to p o q
    (relabel[p, q]); each of the T! blocks, in the table's order, is then
    sorted back into lexicographic order.
    """
    perms = _permutation_table(order)
    ranks = _permutation_ranks(perms)
    rows = np.zeros((1, 1), dtype=ranks.dtype)
    if order > 1:
        disjoint = (perms[:, None, :] != perms[None, :, :]).all(axis=2)
        for _ in range(order - 2):
            rectangle, nxt = np.nonzero(disjoint[rows].all(axis=1))
            rows = np.column_stack([rows[rectangle], nxt.astype(ranks.dtype)])
        missing = order * (order - 1) // 2 - perms[rows].sum(axis=1)
        rows = np.column_stack([rows, ranks[_row_keys(missing)]])
    relabel = ranks[_row_keys(perms[:, perms])]
    squares = np.take(relabel, rows, axis=1)  # (T!, squares per first row, T)
    for block in squares:
        block[...] = block[np.lexsort(block.T[::-1])]
    squares = squares.reshape(-1, order)
    squares.setflags(write=False)
    return squares


def _exact_index(
    design: DesignKind, num_blocks: int, num_treatments: int, size: int
) -> Iterator[np.ndarray]:
    """The exact space's assignments in stream order, _CHUNK at a time, as
    (S, rows) indices into _permutation_table(T): for RCB the mixed-radix
    digits of each position, block 0 the most significant as in
    itertools.product, int64 and C-contiguous, peeled off the (S,) positions
    by one np.divmod per block, the last block first; for LS slices of
    `_latin_square_rows`."""
    if design is DesignKind.LS:
        rows = _latin_square_rows(num_treatments)
        for lo in range(0, size, _CHUNK):
            yield rows[lo : lo + _CHUNK]
        return
    radix = math.factorial(num_treatments)
    for lo in range(0, size, _CHUNK):
        position = np.arange(lo, min(lo + _CHUNK, size))
        digits = np.empty((len(position), num_blocks), dtype=np.int64)
        for block in range(num_blocks - 1, -1, -1):  # least significant first
            np.divmod(position, radix, out=(position, digits[:, block]))
        yield digits


def _rcb_draws(
    num_blocks: int, num_treatments: int, count: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Chunks of independent uniform per-block permutations.

    Each chunk of S draws is the argsort of (S, N, T) uniform keys, with S
    at most _CHUNK and S * N * T at most _LABEL_BUDGET unless S is 1.  The
    generator fills its keys in order, so the chunks' size does not change
    the draws.
    """
    block = min(_CHUNK, max(1, _LABEL_BUDGET // (num_blocks * num_treatments)))
    for lo in range(0, count, block):
        yield rng.random((min(block, count - lo), num_blocks, num_treatments)).argsort(axis=2)


def _orbit_squares(order: int, count: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Chunks of squares symbols[(rows[i] + cols[j]) % T] for uniform
    permutations rows, cols and symbols: uniform on the cyclic square's orbit."""
    for lo in range(0, count, _CHUNK):
        rows, cols, symbols = rng.random((3, min(_CHUNK, count - lo), order)).argsort(axis=2)
        cyclic = (rows[:, :, None] + cols[:, None, :]) % order
        yield np.take_along_axis(symbols[:, None, :], cyclic, axis=2)


def _jacobson_matthews_squares(
    order: int, count: int, rng: np.random.Generator, burn_in: int
) -> Iterator[np.ndarray]:
    """Chunks of squares, one Jacobson-Matthews chain per square.

    The chains of a chunk run in lockstep, all from the cyclic square, each
    on a (3, T, T) stack of line tables (see _jacobson_matthews_moves).
    After burn_in moves, and then every m = _JM_CHECK_SPACING_FACTOR * T
    moves, every running chain is checked; a proper one stops and emits its
    symbol table as its square, the others run on.  The squares keep the
    tables' narrow dtype until the chunk is yielded as int64.

    The chain is uniform over proper squares at stationarity, so its square
    at a time fixed in advance is.  The first proper state after an improper
    excursion (m = 1) is not: at order 4 it draws the squares with 12
    intercalates 8% of the time instead of 25%.  The first check that finds
    a proper state is still a stopping time, but its bias fades fast as the
    checks grow apart.  With 40,000 draws per setting at orders 4 and 5,
    against the exact intercalate distributions, m = 1, 2 and 4 are off by
    2.5 to 120 standard errors, while m = 8 shows no bias; at orders 6 to 8
    (6,000 to 40,000 draws) the mean intercalate count stops moving from
    m = 16 on, against m = 256 and a four-fold burn-in.  m = 4T is 1.5 to
    2.5 times the smallest spacing without a visible bias at orders 4 to 8.
    At orders 9 and 10 (40,000 draws per setting) m = 4T gives a mean
    intercalate count of 18.040 and 22.531, and m = 256 with a four-fold
    burn-in 18.043 and 22.529, standard errors 0.024 and 0.026; above order
    10 it is untested.  Each check that finds a chain improper (67% of
    states at order 4, 87% at order 8) costs that chain m more moves.
    """
    t = order
    spacing = _JM_CHECK_SPACING_FACTOR * t
    line = np.arange(t)
    shifted = (line - line[:, None]) % t  # [a, s] = (s - a) % T
    start = np.stack([(line[:, None] + line) % t, shifted, shifted])
    start = start.astype(np.min_scalar_type(-t))
    for lo in range(0, count, _CHUNK):
        chains = min(_CHUNK, count - lo)
        tables = np.tile(start, (chains, 1, 1, 1))
        hole = np.full((3, 3, chains), -1)
        running = np.arange(chains)
        squares = np.empty((chains, t, t), dtype=tables.dtype)
        moves = burn_in
        while running.size:
            hole = _jacobson_matthews_moves(tables, hole, moves, rng)
            proper = hole[0, 0] < 0
            squares[running[proper]] = tables[proper, 0]
            running, tables, hole = running[~proper], tables[~proper], hole[..., ~proper]
            moves = spacing
        yield squares.astype(np.int64)


def _jacobson_matthews_moves(
    tables: np.ndarray, hole: np.ndarray, moves: int, rng: np.random.Generator
) -> np.ndarray:
    """Run the given number of +-1 moves on every chain of a (K, 3, T, T)
    stack of line tables, in place, and return the updated hole.

    A chain's state is a T x T x T incidence cube whose lines (fix two of
    row r, column c and symbol s) each sum to 1.  A proper cube is a square;
    an improper one has a single -1 cell, and each of the three lines
    through it holds two 1s, every other line one.  The tables hold the
    position of each line's 1: table 0 the symbol of each cell (r, c),
    table 1 the row of each (c, s), table 2 the column of each (r, s).
    hole is (3, 3, K): hole[0] the (s, r, c) of an improper chain's -1
    cell, hole[1] and hole[2] the lower and the higher position of the two
    1s on each line through it, in table order (symbols of (r, c), rows of
    (c, s), columns of (r, s)), of which the tables hold one; all -1 where
    the chain is proper.

    A proper chain takes a uniform zero cell (r, c, s): a uniform cell
    (r, c) and a uniform symbol s other than the one it holds.  An improper
    chain takes its -1 cell.  The lines through (r, c, s) each hold one 1,
    at (r1, c, s), (r, c1, s) and (r, c, s1), or two if the cell is the -1
    cell, of which a coin picks the first or the last.  The move adds 1 on
    the even corners of the subcube spanned with (r1, c1, s1) and subtracts
    1 on the odd ones.  Each of the subcube's twelve edges is a line whose 1
    moves from one corner to the other, so the move rewrites twelve table
    entries, four per table; a line through an improper chain's -1 cell
    keeps the 1 its coin did not pick.  The far corner (r1, c1, s1) drops
    to -1, making the chain improper, unless the symbol table holds s1 at
    (r1, c1); in an improper chain it lies on none of the -1 cell's lines,
    so that entry is single.  Each move draws one integer per chain, split
    into r, c, the symbol shift and three coins.  Entries read from the
    tables keep their narrow dtype; they are cast to intp before they are
    scaled into an index, where a narrow product could overflow.
    """
    k, _, t = tables.shape[:3]
    flat = tables.reshape(-1)
    area = t * t
    # flat index of each table's (0, 0) entry in each chain, (3, K)
    offsets = np.arange(k) * 3 * area + np.arange(0, 3 * area, area)[:, None]
    wrap = np.arange(2 * t) % t  # (s1 + shift) % T by lookup
    coin_bits = np.array([[1], [2], [4]], dtype=np.uint8)
    cell, lo, hi = hole
    improper = cell[0] >= 0
    # lines[0]: where the table rows holding the lines through (r, c, s)
    # start in flat: symbol row r, row-table row c, column-table row r;
    # lines[1]: the same for (r1, c1, s1).  across: positions along them.
    lines = np.empty((2, 3, k), dtype=np.intp)
    across = np.empty((2, 3, k), dtype=np.intp)
    # at[a, b] = lines[a] + across[b]: the twelve entries a move rewrites,
    # and ones: the positions of the 1s it writes there
    at = np.empty((2, 2, 3, k), dtype=np.intp)
    ones = np.empty((2, 2, 3, k), dtype=tables.dtype)
    for done in range(0, moves, _JM_MOVES_PER_DRAW):
        block = min(_JM_MOVES_PER_DRAW, moves - done)
        draws = rng.integers(0, area * (t - 1) * 8, size=(block, k))
        draws, rows = np.divmod(draws, t)
        draws, cols = np.divmod(draws, t)
        coins, shifts = np.divmod(draws, t - 1)
        shifts += 1
        bits = (coins.astype(np.uint8)[:, None] & coin_bits) > 0
        for row, col, shift, bit in zip(rows, cols, shifts, bits):
            rc = np.where(improper, cell[1:], np.array([row, col]))
            np.add(offsets, t * rc[[0, 1, 0]], out=lines[0])
            picked = np.where(bit, hi, lo)
            s1 = np.where(improper, picked[0], flat[lines[0, 0] + rc[1]])
            s = np.where(improper, cell[0], wrap[s1 + shift])
            r1, c1 = np.where(improper, picked[1:], flat[lines[0, 1:] + s])
            cell = np.array([s1, r1, c1], dtype=np.intp)
            np.add(offsets, t * cell[[1, 2, 1]], out=lines[1])
            across[0, 0], across[0, 1:], across[1, 0], across[1, 1:] = rc[1], s, c1, s1
            np.add(lines[:, None], across, out=at)
            far = flat[at[1, 1]]
            ones[1, 1] = s, *rc
            ones[0, 1] = ones[1, 0] = cell
            ones[0, 0] = np.where(improper, np.where(bit, lo, hi), ones[1, 1])
            flat[at] = ones
            improper = far[0] != s1
            lo, hi = np.minimum(ones[1, 1], far), np.maximum(ones[1, 1], far)
    cell[:, ~improper] = -1
    return np.stack([cell, lo, hi])


def assignment_stream(
    table: PotentialOutcomeTable, space: RandomizationSpace
) -> tuple[Iterator[Assignment], int, bool]:
    """Resolve a space against a table: (stream, count, is_exact).

    The one way into a randomization space.  An exact stream visits the
    table's whole space in lexicographic order: RCB by the concatenated
    per-block permutations, as itertools.product gives them, LS row-major;
    its count is the space's size, and an LS above order 5 or a size above
    the cap is not built (SpaceTooLarge).  A sampled stream holds
    sample_size draws, deterministic given the seed: RCB per-block
    permutations (`_rcb_draws`); for LS, squares of the cyclic square's
    orbit under the "subgroup" measure and up to order 3, where the orbit
    is every square (`_orbit_squares`), else one Jacobson-Matthews chain
    per square, run burn_in moves and then checked every 4*T
    (`_jacobson_matthews_squares`, `ls_sampler_settings`).

    Everything is checked at the call, not at the first next().  Raises
    InvalidArgument when table is not a PotentialOutcomeTable or space not
    a RandomizationSpace, when a sample is above the enumeration cap, and
    when a sampled space for an RCB table carries Latin-square sampler
    settings, which that sampler would ignore; DimensionMismatch unless
    the table's sizes are integers >= 1.
    """
    if not isinstance(table, PotentialOutcomeTable):
        raise InvalidArgument(f"expected a PotentialOutcomeTable, got {type(table).__name__}")
    if not isinstance(space, RandomizationSpace):
        raise InvalidArgument(f"expected a RandomizationSpace, got {type(space).__name__}")
    design, n, t = table.design, table.num_blocks, table.num_treatments
    _check_sizes(design, n, t)
    is_exact = space.sample_size is None
    if is_exact:
        if design is DesignKind.LS:
            count = LATIN_SQUARE_COUNTS.get(t)
            if count is None:
                raise SpaceTooLarge(
                    f"exact Latin-square enumeration is supported up to order "
                    f"{MAX_EXACT_LS_ORDER}; order {t} must be sampled"
                )
            cap = enumeration_cap()
            what, shown = "Latin-square space", count
        else:
            cap = enumeration_cap()
            count = _rcb_space_size(n, t, cap)
            what, shown = "RCB space", f"({t}!)^{n}"
        if count is None or count > cap:
            raise SpaceTooLarge(
                f"{what} has {shown} assignments, above the cap {cap}; use uniform sampling instead"
            )
        every = _permutation_table(t).astype(np.int64)
        chunks = (np.take(every, rows, axis=0) for rows in _exact_index(design, n, t, count))
    else:
        count = space.sample_size
        _check_cap(count, f"a sample of {count} draws", "draw fewer")
        rng = np.random.default_rng(space.seed)
        if design is DesignKind.RCB:
            settings = ("burn_in", "ls_measure")
            given = [name for name in settings if getattr(space, name) is not None]
            if given:
                raise InvalidArgument(
                    f"{' and '.join(given)}: Latin-square sampler settings do not apply"
                    " to an RCB table"
                )
            chunks = _rcb_draws(n, t, count, rng)
        else:
            burn_in, measure = ls_sampler_settings(t, space.burn_in, space.ls_measure)
            if measure is LsMeasure.TRANSFORMATION_SUBGROUP or t <= 3:
                chunks = _orbit_squares(t, count, rng)
            else:
                chunks = _jacobson_matthews_squares(t, count, rng, burn_in)
    return Assignment._of_rows(design, chunks), count, is_exact
