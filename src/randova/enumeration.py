"""Enumeration and uniform sampling of the randomization space.

RCB randomizations are independent per-block permutations of the treatment
labels; the space has (T!)^N elements and is streamed in lexicographic order
of the concatenated permutations, gathered chunk by chunk from the table of
the T! permutations by mixed-radix index.  LS randomizations are Latin
squares of order T, streamed in row-major lexicographic order from a table
of every square of the order, built row by row from the T! permutations on
first use.  Exact enumeration is capped (default 10^7 assignments, override
with the RANDOVA_ENUM_CAP environment variable); beyond the cap callers must
sample.  The enumerators and samplers build only valid assignments, so they
do not check them one by one; `observe` checks the grids that callers build.
Enumerated and sampled assignments are read-only row views of those tables
and chunks.  Every enumerator and sampler checks its arguments when called.

Uniform sampling builds a chunk of draws at a time.  RCB draws independent
uniform permutations per block, as the argsort of uniform keys.  For LS the
default measure is uniform over ALL Latin squares of the order, realized by
one Jacobson-Matthews chain (+-1 moves on the incidence cube) per draw, the
chains of a chunk run in lockstep: each chain runs burn_in moves, then is
checked every m moves (m a fixed constant per order) and emits its square
at the first check that finds it proper.  A "subgroup" measure is also
available which only randomizes rows/columns/symbols of a fixed cyclic
reference square (a strictly smaller orbit unless T <= 3; up to order 3
both measures draw from it).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, SpaceTooLarge
from .potential_outcomes import DesignKind, PotentialOutcomeTable

DEFAULT_ENUM_CAP = 10_000_000
ENUM_CAP_ENV_VAR = "RANDOVA_ENUM_CAP"

# Total Latin square counts for orders 1..5.  Orders 1-4 are re-derived by an
# independent counting oracle in the test suite; order 5 is pinned as a
# regression value, and a backtracking oracle in the tests re-derives every
# square of orders 1-5.
LATIN_SQUARE_COUNTS = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
MAX_EXACT_LS_ORDER = 5

_CHUNK = 4096  # assignments built per step of the enumerators and samplers

_JM_BURN_IN_FACTOR = 2  # burn-in moves of each chain = factor * T^3
_JM_CHECK_SPACING_FACTOR = 4  # moves between a chain's later checks = factor * T
_JM_MOVES_PER_DRAW = 64  # moves whose random integers one Generator call draws


def enumeration_cap() -> int:
    """Active exact-enumeration cap (env override wins)."""
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
    ignore them), a sample without seed, a size below 1, burn_in < 1, an
    unknown measure.  assignment_stream also rejects Latin-square sampler
    settings for an RCB table.
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
        if self.sample_size < 1:
            raise InvalidArgument(f"sample size must be >= 1, got {self.sample_size}")
        if self.seed is None:
            raise InvalidArgument("a sampled space needs a seed")
        _check_burn_in(self.burn_in)
        if self.ls_measure is not None:
            object.__setattr__(self, "ls_measure", _ls_measure(self.ls_measure))

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


@dataclass(frozen=True)
class Assignment:
    """One realized randomization: grid holds the (zero-based) treatment labels.

    RCB: grid[i][j] is the treatment given to plot j of block i; each row is
    a permutation of 0..T-1.  LS: grid[i][j] is the treatment in cell (i, j);
    each symbol occurs once per row and column.  Construction does not check
    this; is_valid() does, and observe() calls it.
    """

    design: DesignKind
    grid: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.int64)
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @classmethod
    def _of_rows(
        cls, design: DesignKind, chunks: Iterable[np.ndarray]
    ) -> Iterator["Assignment"]:
        """One Assignment per row of each int64 (S, rows, T) chunk, which it
        makes read-only.

        For the enumerators and samplers, whose grids are valid: each
        Assignment holds its row view and skips __init__, which would only
        re-set those flags at about 2 us per assignment.
        """
        for chunk in chunks:
            chunk.setflags(write=False)
            for grid in chunk:
                assignment = object.__new__(cls)
                assignment.__dict__.update(design=design, grid=grid)
                yield assignment

    def labels(self) -> np.ndarray:
        """The treatment-label grid."""
        return self.grid

    def is_valid(self) -> bool:
        """Bijection check per block (RCB) or Latin property (LS)."""
        grid = self.grid
        want = np.arange(grid.shape[1])
        rows_ok = bool((np.sort(grid, axis=1) == want).all())
        if self.design is DesignKind.RCB:
            return rows_ok
        return (
            rows_ok
            and grid.shape[0] == len(want)
            and bool((np.sort(grid, axis=0) == want[:, None]).all())
        )


def _check_burn_in(burn_in: int | None) -> None:
    if burn_in is not None and burn_in < 1:
        raise InvalidArgument(f"burn_in must be >= 1 sampler moves, got {burn_in}")


def _ls_measure(measure: LsMeasure | str) -> LsMeasure:
    try:
        return LsMeasure(measure)
    except ValueError:
        choices = ", ".join(m.value for m in LsMeasure)
        raise InvalidArgument(
            f"unknown Latin-square measure {measure!r}; choose from {choices}"
        ) from None


def ls_sampler_settings(
    order: int, burn_in: int | None = None, measure: LsMeasure | str | None = None
) -> tuple[int, LsMeasure]:
    """The Latin-square sampler's (burn_in, measure) for the order, with the
    defaults filled in: 2*T^3 moves and "all" squares.  InvalidArgument for
    burn_in < 1 or an unknown measure."""
    _check_burn_in(burn_in)
    if burn_in is None:
        burn_in = _JM_BURN_IN_FACTOR * order**3
    return burn_in, _ls_measure(LsMeasure.ALL_SQUARES if measure is None else measure)


def _check_sizes(**sizes: int) -> None:
    """DimensionMismatch unless every named size is >= 1."""
    if min(sizes.values()) < 1:
        got = ", ".join(f"{name}={size}" for name, size in sizes.items())
        raise DimensionMismatch(f"sizes must be >= 1, got {got}")


def rcb_space_size(num_blocks: int, num_treatments: int) -> int:
    """Cardinality (T!)^N of the RCB randomization space; DimensionMismatch
    unless N, T >= 1."""
    _check_sizes(num_blocks=num_blocks, num_treatments=num_treatments)
    return math.factorial(num_treatments) ** num_blocks


def latin_square_count(order: int) -> int | None:
    """Total Latin squares of the order, or None when not tabulated (order > 5);
    DimensionMismatch unless the order is >= 1."""
    _check_sizes(order=order)
    return LATIN_SQUARE_COUNTS.get(order)


def space_cardinality(
    design: DesignKind, num_blocks: int, num_treatments: int
) -> int | None:
    if DesignKind(design) is DesignKind.RCB:
        return rcb_space_size(num_blocks, num_treatments)
    return latin_square_count(num_treatments)


def _check_cap(size: int, cap: int | None, space: str) -> None:
    cap = enumeration_cap() if cap is None else cap
    if size > cap:
        raise SpaceTooLarge(
            f"{space} has {size} assignments, above the cap {cap}; "
            "use uniform sampling instead"
        )


def enumerate_rcb(
    num_blocks: int, num_treatments: int, cap: int | None = None
) -> Iterator[Assignment]:
    """Stream all (T!)^N per-block permutation assignments, lexicographically.

    Sizes and the cap are checked at the call, not at the first next().
    """
    size = rcb_space_size(num_blocks, num_treatments)
    _check_cap(size, cap, "RCB space")
    return Assignment._of_rows(DesignKind.RCB, _rcb_chunks(num_blocks, num_treatments, size))


def _rcb_chunks(num_blocks: int, num_treatments: int, size: int) -> Iterator[np.ndarray]:
    perms = _permutation_table(num_treatments)
    radix = len(perms)
    for lo in range(0, size, _CHUNK):
        # block 0 is the most significant digit, as in itertools.product
        index = np.arange(lo, min(lo + _CHUNK, size))
        digits = np.empty((len(index), num_blocks), dtype=np.int64)
        for block in range(num_blocks - 1, -1, -1):
            index, digits[:, block] = np.divmod(index, radix)
        yield perms[digits].astype(np.int64)


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


@functools.lru_cache(maxsize=None)
def _latin_square_table(order: int) -> np.ndarray:
    """Every Latin square of the order, (M, T, T) int64, read-only, in
    row-major lexicographic order: squares are grown one row at a time by
    every permutation that clashes with no earlier row in any column."""
    perms = _permutation_table(order)
    disjoint = (perms[:, None, :] != perms[None, :, :]).all(axis=2)
    rows = np.arange(len(perms))[:, None]
    for _ in range(order - 1):
        allowed = disjoint[rows[:, 0]]
        for k in range(1, rows.shape[1]):
            allowed &= disjoint[rows[:, k]]
        square, nxt = np.nonzero(allowed)
        rows = np.column_stack([rows[square], nxt])
    table = perms[rows].astype(np.int64)
    table.setflags(write=False)
    return table


def enumerate_latin_squares(order: int, cap: int | None = None) -> Iterator[Assignment]:
    """Stream every Latin square of the order, row-major lexicographic.

    The order and the cap are checked at the call, not at the first next().
    """
    known = latin_square_count(order)
    if known is None:
        raise SpaceTooLarge(
            f"exact Latin-square enumeration is supported up to order "
            f"{MAX_EXACT_LS_ORDER}; order {order} must be sampled"
        )
    _check_cap(known, cap, "Latin-square space")
    return Assignment._of_rows(DesignKind.LS, [_latin_square_table(order)])


def sample_rcb(
    num_blocks: int, num_treatments: int, count: int, seed: int
) -> Iterator[Assignment]:
    """Independent uniform per-block permutations; deterministic given seed.

    Each chunk of draws is the argsort of (S, N, T) uniform keys.  Sizes are
    checked at the call, not at the first next().
    """
    _check_sizes(num_blocks=num_blocks, num_treatments=num_treatments)
    rng = np.random.default_rng(seed)
    chunks = (
        rng.random((min(_CHUNK, count - lo), num_blocks, num_treatments)).argsort(axis=2)
        for lo in range(0, count, _CHUNK)
    )
    return Assignment._of_rows(DesignKind.RCB, chunks)


def sample_latin_squares(
    order: int,
    count: int,
    seed: int,
    burn_in: int | None = None,
    measure: LsMeasure | str | None = None,
) -> Iterator[Assignment]:
    """Uniform Latin squares; deterministic given seed.

    measure="subgroup" permutes rows, columns and symbols of the cyclic
    square, which is uniform on that transformation orbit.  measure="all"
    targets all squares of the order.  Up to order 3 the orbit is every
    square, so both measures draw from it exactly.  From order 4 on each
    draw comes from its own Jacobson-Matthews chain started at the cyclic
    square (see _jacobson_matthews_squares): the chain runs burn_in moves
    (default 2*T^3), is then checked for a proper square every m = 4*T
    moves, and emits the first proper square a check finds.  The measure
    defaults to "all" (`ls_sampler_settings`).  Arguments are checked at the
    call, not at the first next().
    """
    _check_sizes(order=order)
    burn_in, measure = ls_sampler_settings(order, burn_in, measure)
    rng = np.random.default_rng(seed)
    if measure is LsMeasure.TRANSFORMATION_SUBGROUP or order <= 3:
        chunks = _orbit_squares(order, count, rng)
    else:
        chunks = _jacobson_matthews_squares(order, count, rng, burn_in)
    return Assignment._of_rows(DesignKind.LS, chunks)


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

    The chains of a chunk run in lockstep on a (K, T, T, T) int8 incidence
    cube, all from the cyclic square.  After burn_in moves, and then every
    m = _JM_CHECK_SPACING_FACTOR * T moves, every running chain is checked;
    a proper one stops and emits its square, the others run on.

    The chain is uniform over proper squares at stationarity, so its square
    at a time fixed in advance is.  The first proper state after an improper
    excursion (m = 1) is not: at order 4 it draws the squares with 12
    intercalates 8% of the time instead of 25%.  The first check that finds
    a proper state is still a stopping time, but its bias fades fast as the
    checks grow apart.  With 40,000 draws per setting at orders 4 and 5,
    against the exact intercalate distributions, m = 1, 2 and 4 are off by
    2.5 to 120 standard errors, while m = 8 shows no bias; at orders 6 to 8
    (6,000 to 40,000 draws) the mean intercalate count stops moving from
    m = 16 on, against m = 256 and a four-fold burn-in.  m = 4T is 1.5 to 2.5 times the
    smallest spacing without a visible bias at orders 4 to 8; above order 8
    it is untested.  Each check that finds a chain improper (67% of states at
    order 4, 87% at order 8) costs that chain m more moves.
    """
    t = order
    spacing = _JM_CHECK_SPACING_FACTOR * t
    line = np.arange(t)
    start = np.zeros((t, t, t), dtype=np.int8)
    start[line[:, None], line, (line[:, None] + line) % t] = 1
    for lo in range(0, count, _CHUNK):
        chains = min(_CHUNK, count - lo)
        cube = np.tile(start, (chains, 1, 1, 1))
        hole = np.full((3, chains), -1)
        running = np.arange(chains)
        squares = np.empty((chains, t, t), dtype=np.int64)
        moves = burn_in
        while running.size:
            hole = _jacobson_matthews_moves(cube, hole, moves, rng)
            proper = hole[0] < 0
            squares[running[proper]] = cube[proper].argmax(axis=3)
            running, cube, hole = running[~proper], cube[~proper], hole[:, ~proper]
            moves = spacing
        yield squares


def _one_on_line(line: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """Per row of a (K, T) slice of cubes, the index of its 1 or, where it
    holds two (a line through the -1 cell), of the first or last by coin."""
    ones = line == 1
    first = ones.argmax(axis=1)
    last = line.shape[1] - 1 - ones[:, ::-1].argmax(axis=1)
    return np.where(coin, last, first)


def _jacobson_matthews_moves(
    cube: np.ndarray, hole: np.ndarray, moves: int, rng: np.random.Generator
) -> np.ndarray:
    """Run the given number of +-1 moves on every cube of a (K, T, T, T)
    int8 stack, in place, and return the updated hole.

    hole is (3, K): the (r, c, s) of the -1 cell of each improper cube, and
    r = -1 where the cube is proper.  A proper cube takes a uniform zero cell
    (r, c, s): a uniform cell (r, c) and a uniform symbol s other than the
    one it holds.  An improper cube takes its -1 cell.  The lines through
    (r, c, s) each hold one 1, at (r1, c, s), (r, c1, s) and (r, c, s1), or
    two if the cell is the -1 cell, of which a coin picks one.  The move
    adds 1 on the even corners of the subcube spanned with (r1, c1, s1) and
    subtracts 1 on the odd ones; the far corner may drop to -1, making the
    cube improper.  Each move draws one integer per cube, split into r, c,
    the symbol shift and three coins.
    """
    k, t = cube.shape[:2]
    flat = cube.reshape(-1)
    base = np.arange(k) * t**3
    symbol_line, column_line, row_line = np.arange(t), np.arange(t) * t, np.arange(t) * t * t
    r_hole, c_hole, s_hole = hole
    for lo in range(0, moves, _JM_MOVES_PER_DRAW):
        block = min(_JM_MOVES_PER_DRAW, moves - lo)
        draws = rng.integers(0, t * t * (t - 1) * 8, size=(block, k))
        draws, rows = np.divmod(draws, t)
        draws, cols = np.divmod(draws, t)
        coins, shifts = np.divmod(draws, t - 1)
        for row, col, shift, coin in zip(rows, cols, shifts, coins):
            improper = r_hole >= 0
            r = np.where(improper, r_hole, row)
            c = np.where(improper, c_hole, col)
            at_r, at_c = base + r * t * t, c * t
            s1 = _one_on_line(flat[(at_r + at_c)[:, None] + symbol_line], coin & 1)
            s = np.where(improper, s_hole, (s1 + shift + 1) % t)
            r1 = _one_on_line(flat[(base + at_c + s)[:, None] + row_line], coin & 2)
            c1 = _one_on_line(flat[(at_r + s)[:, None] + column_line], coin & 4)
            at_r1, at_c1 = base + r1 * t * t, c1 * t
            even = [at_r + at_c + s, at_r + at_c1 + s1, at_r1 + at_c + s1, at_r1 + at_c1 + s]
            odd = [at_r1 + at_c + s, at_r + at_c1 + s, at_r + at_c + s1, at_r1 + at_c1 + s1]
            flat[np.stack(even)] += 1
            flat[np.stack(odd)] -= 1
            improper = flat[at_r1 + at_c1 + s1] < 0
            r_hole, c_hole, s_hole = np.where(improper, r1, -1), c1, s1
    return np.stack([r_hole, c_hole, s_hole])


def assignment_stream(
    table: PotentialOutcomeTable, space: RandomizationSpace
) -> tuple[Iterator[Assignment], int | None, bool]:
    """Resolve a space against a table: (stream, count when known, is_exact).

    Raises InvalidArgument when a sampled space for an RCB table carries
    Latin-square sampler settings, which that sampler would ignore.
    """
    t = table.num_treatments
    if space.sample_size is None:
        if table.design is DesignKind.RCB:
            n = table.num_blocks
            return enumerate_rcb(n, t), rcb_space_size(n, t), True
        return enumerate_latin_squares(t), latin_square_count(t), True
    if table.design is DesignKind.RCB:
        settings = {"burn_in": space.burn_in, "ls_measure": space.ls_measure}
        given = [name for name, value in settings.items() if value is not None]
        if given:
            raise InvalidArgument(
                f"{' and '.join(given)}: Latin-square sampler settings do not apply"
                " to an RCB table"
            )
        stream = sample_rcb(table.num_blocks, t, space.sample_size, space.seed)
    else:
        stream = sample_latin_squares(
            t, space.sample_size, space.seed, space.burn_in, space.ls_measure
        )
    return stream, space.sample_size, False
