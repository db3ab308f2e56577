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
Enumerated assignments are read-only row views of those tables and chunks.

Uniform sampling: RCB draws independent Fisher-Yates permutations per block.
For LS the default measure is uniform over ALL Latin squares of the order,
realized by Jacobson-Matthews +-1 moves on the incidence cube with a
configurable burn-in between emitted squares; a "subgroup" measure is also
available which only randomizes rows/columns/symbols of a fixed cyclic
reference square (a strictly smaller orbit unless T <= 3).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

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

_RCB_CHUNK = 4096  # assignments gathered per step of the RCB enumerator

DEFAULT_JM_BURN_IN_FACTOR = 2  # moves between emissions = factor * T^3


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


class SpaceKind(str, Enum):
    EXACT = "exact"
    SAMPLE = "sample"


class LsMeasure(str, Enum):
    ALL_SQUARES = "all"
    TRANSFORMATION_SUBGROUP = "subgroup"


@dataclass(frozen=True)
class RandomizationSpace:
    """Strategy for traversing the randomization space of a design.

    EXACT visits each assignment exactly once.  SAMPLE draws sample_size
    assignments, deterministically given seed; burn_in (LS only) is the
    number of Jacobson-Matthews moves between emitted squares and defaults
    to 2*T^3.  Construction rejects settings that cannot be traversed (a
    sampled space without size or seed, a size below 1, burn_in < 1, an
    unknown measure) with InvalidArgument.
    """

    kind: SpaceKind = SpaceKind.EXACT
    sample_size: int | None = None
    seed: int | None = None
    burn_in: int | None = None
    ls_measure: LsMeasure = LsMeasure.ALL_SQUARES

    def __post_init__(self) -> None:
        try:
            kind = SpaceKind(self.kind)
        except ValueError:
            raise InvalidArgument(f"unknown space kind {self.kind!r}") from None
        if kind is SpaceKind.SAMPLE and (self.sample_size is None or self.seed is None):
            raise InvalidArgument("sampled spaces need sample_size and seed")
        if self.sample_size is not None and self.sample_size < 1:
            raise InvalidArgument(f"sample size must be >= 1, got {self.sample_size}")
        _check_burn_in(self.burn_in)
        object.__setattr__(self, "kind", kind)
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
        ls_measure: LsMeasure | str = LsMeasure.ALL_SQUARES,
    ) -> "RandomizationSpace":
        return cls(
            kind=SpaceKind.SAMPLE,
            sample_size=size,
            seed=seed,
            burn_in=burn_in,
            ls_measure=ls_measure,
        )


@dataclass(frozen=True)
class Assignment:
    """One realized randomization.

    RCB: rcb_perms[i][j] is the (zero-based) treatment given to plot j of
    block i; each row is a permutation of 0..T-1.  LS: ls_square[i][j] is the
    treatment in cell (i, j); each symbol occurs once per row and column.
    Construction does not check this; is_valid() does, and observe() calls it.
    """

    design: DesignKind
    rcb_perms: np.ndarray | None = None
    ls_square: np.ndarray | None = None

    def __post_init__(self) -> None:
        for field in ("rcb_perms", "ls_square"):
            arr = getattr(self, field)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.int64)
                arr.setflags(write=False)
                object.__setattr__(self, field, arr)

    @classmethod
    def _of_rows(cls, design: DesignKind, grids: np.ndarray) -> Iterator["Assignment"]:
        """One Assignment per row of a read-only int64 (S, rows, T) stack.

        For the enumerators, whose grids are valid and already read-only
        int64: each Assignment holds its row view and skips __init__, which
        would only re-set those flags at about 2 us per assignment.
        """
        fields = {"design": design, "rcb_perms": None, "ls_square": None}
        grid_field = "rcb_perms" if design is DesignKind.RCB else "ls_square"
        for grid in grids:
            assignment = object.__new__(cls)
            assignment.__dict__.update(fields)
            assignment.__dict__[grid_field] = grid
            yield assignment

    @property
    def num_treatments(self) -> int:
        return self.labels().shape[1]

    def labels(self) -> np.ndarray:
        """The treatment-label grid, whichever design."""
        return self.rcb_perms if self.design is DesignKind.RCB else self.ls_square

    def as_tuple(self) -> tuple:
        """Hashable form, for aggregation and distinctness checks."""
        return tuple(map(tuple, self.labels().tolist()))

    def is_valid(self) -> bool:
        """Bijection check per block (RCB) or Latin property (LS)."""
        grid = self.labels()
        want = np.arange(self.num_treatments)
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
    """Total Latin squares of the order, or None when not tabulated (order > 5)."""
    return LATIN_SQUARE_COUNTS.get(order)


def space_cardinality(
    design: DesignKind, num_blocks: int, num_treatments: int
) -> int | None:
    if DesignKind(design) is DesignKind.RCB:
        return rcb_space_size(num_blocks, num_treatments)
    return latin_square_count(num_treatments)


def enumerate_rcb(
    num_blocks: int, num_treatments: int, cap: int | None = None
) -> Iterator[Assignment]:
    """Stream all (T!)^N per-block permutation assignments, lexicographically."""
    size = rcb_space_size(num_blocks, num_treatments)
    cap = enumeration_cap() if cap is None else cap
    if size > cap:
        raise SpaceTooLarge(
            f"RCB space has {size} assignments, above the cap {cap}; "
            "use uniform sampling instead"
        )
    perms = _permutation_table(num_treatments)
    radix = len(perms)
    for lo in range(0, size, _RCB_CHUNK):
        # block 0 is the most significant digit, as in itertools.product
        index = np.arange(lo, min(lo + _RCB_CHUNK, size))
        digits = np.empty((len(index), num_blocks), dtype=np.int64)
        for block in range(num_blocks - 1, -1, -1):
            index, digits[:, block] = np.divmod(index, radix)
        chunk = perms[digits].astype(np.int64)
        chunk.setflags(write=False)
        yield from Assignment._of_rows(DesignKind.RCB, chunk)


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
    """Stream every Latin square of the order, row-major lexicographic."""
    _check_sizes(order=order)
    cap = enumeration_cap() if cap is None else cap
    known = latin_square_count(order)
    if known is None:
        raise SpaceTooLarge(
            f"exact Latin-square enumeration is supported up to order "
            f"{MAX_EXACT_LS_ORDER}; order {order} must be sampled"
        )
    if known > cap:
        raise SpaceTooLarge(
            f"Latin-square space has {known} squares, above the cap {cap}; "
            "use uniform sampling instead"
        )
    yield from Assignment._of_rows(DesignKind.LS, _latin_square_table(order))


class _RandomIntBuffer:
    """Batched uniform integers on [0, high); scalar Generator calls are slow."""

    def __init__(self, rng: np.random.Generator, high: int, block: int = 8192) -> None:
        self._rng = rng
        self._high = high
        self._block = block
        self._buffer: list[int] = []

    def next(self) -> int:
        if not self._buffer:
            self._buffer = self._rng.integers(
                0, self._high, size=self._block
            ).tolist()
        return self._buffer.pop()


class _JacobsonMatthewsChain:
    """+-1 moves on the T x T x T incidence cube, allowing one improper cell.

    From a proper state, pick a random zero cell (r, c, s); the three lines
    through it each contain a unique 1 at (r1, c, s), (r, c1, s), (r, c, s1).
    Add 1 on the even corners of the subcube spanned with (r1, c1, s1) and
    subtract 1 on the odd corners; the far corner may drop to -1, making the
    state improper.  From an improper state the -1 cell plays the role of the
    zero cell and the two 1-candidates on each line are chosen at random.
    Stationary distribution over proper states is uniform.

    State lives in nested Python lists: the cube is tiny (T <= ~12) and
    per-move numpy indexing overhead would dominate.
    """

    def __init__(self, order: int, rng: np.random.Generator) -> None:
        self.order = order
        self._draw_t = _RandomIntBuffer(rng, order)
        self._draw_2 = _RandomIntBuffer(rng, 2)
        self.cube = [
            [[0] * order for _ in range(order)] for _ in range(order)
        ]
        for i in range(order):
            for j in range(order):
                self.cube[i][j][(i + j) % order] = 1
        self.improper: tuple[int, int, int] | None = None

    def _move(self) -> None:
        t = self.order
        cube = self.cube
        if self.improper is None:
            draw = self._draw_t.next
            while True:
                r, c, s = draw(), draw(), draw()
                if cube[r][c][s] == 0:
                    break
            r1 = next(k for k in range(t) if cube[k][c][s] == 1)
            c1 = next(k for k in range(t) if cube[r][k][s] == 1)
            s1 = next(k for k in range(t) if cube[r][c][k] == 1)
        else:
            r, c, s = self.improper
            rows = [k for k in range(t) if cube[k][c][s] == 1]
            cols = [k for k in range(t) if cube[r][k][s] == 1]
            syms = [k for k in range(t) if cube[r][c][k] == 1]
            r1 = rows[self._draw_2.next()]
            c1 = cols[self._draw_2.next()]
            s1 = syms[self._draw_2.next()]
        cube[r][c][s] += 1
        cube[r][c1][s1] += 1
        cube[r1][c][s1] += 1
        cube[r1][c1][s] += 1
        cube[r1][c][s] -= 1
        cube[r][c1][s] -= 1
        cube[r][c][s1] -= 1
        cube[r1][c1][s1] -= 1
        self.improper = (r1, c1, s1) if cube[r1][c1][s1] == -1 else None

    def advance(self, moves: int) -> np.ndarray:
        """Run the given number of moves, then continue to a proper state."""
        for _ in range(moves):
            self._move()
        while self.improper is not None:
            self._move()
        square = [[row.index(1) for row in plane] for plane in self.cube]
        return np.array(square, dtype=np.int64)


def sample_rcb(
    num_blocks: int, num_treatments: int, count: int, seed: int
) -> Iterator[Assignment]:
    """Independent uniform per-block permutations; deterministic given seed."""
    _check_sizes(num_blocks=num_blocks, num_treatments=num_treatments)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        perms = np.stack([rng.permutation(num_treatments) for _ in range(num_blocks)])
        yield Assignment(DesignKind.RCB, rcb_perms=perms)


def sample_latin_squares(
    order: int,
    count: int,
    seed: int,
    burn_in: int | None = None,
    measure: LsMeasure | str = LsMeasure.ALL_SQUARES,
) -> Iterator[Assignment]:
    """Approximately uniform Latin squares; deterministic given seed.

    measure="all" uses the Jacobson-Matthews chain over all squares of the
    order; measure="subgroup" permutes rows, columns and symbols of a fixed
    cyclic square, which is uniform only on that transformation orbit.
    """
    _check_sizes(order=order)
    _check_burn_in(burn_in)
    measure = _ls_measure(measure)
    rng = np.random.default_rng(seed)
    if count <= 0:
        return
    if order == 1:
        for _ in range(count):
            yield Assignment(DesignKind.LS, ls_square=np.zeros((1, 1), dtype=np.int64))
        return
    if measure is LsMeasure.TRANSFORMATION_SUBGROUP:
        idx = np.arange(order)
        reference = (idx[:, None] + idx[None, :]) % order
        for _ in range(count):
            rows = rng.permutation(order)
            cols = rng.permutation(order)
            symbols = rng.permutation(order)
            square = symbols[reference[np.ix_(rows, cols)]]
            yield Assignment(DesignKind.LS, ls_square=square)
        return
    moves = DEFAULT_JM_BURN_IN_FACTOR * order**3 if burn_in is None else burn_in
    chain = _JacobsonMatthewsChain(order, rng)
    for _ in range(count):
        square = chain.advance(moves)
        yield Assignment(DesignKind.LS, ls_square=square)


def assignment_stream(
    table: PotentialOutcomeTable, space: RandomizationSpace
) -> tuple[Iterator[Assignment], int | None, bool]:
    """Resolve a space against a table: (stream, count when known, is_exact)."""
    t = table.num_treatments
    if space.kind is SpaceKind.EXACT:
        if table.design is DesignKind.RCB:
            n = table.num_blocks
            return enumerate_rcb(n, t), rcb_space_size(n, t), True
        return enumerate_latin_squares(t), latin_square_count(t), True
    if table.design is DesignKind.RCB:
        stream = sample_rcb(table.num_blocks, t, space.sample_size, space.seed)
    else:
        stream = sample_latin_squares(
            t, space.sample_size, space.seed, space.burn_in, space.ls_measure
        )
    return stream, space.sample_size, False
