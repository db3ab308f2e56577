"""F-distribution survival function and quantile, self-contained.

P(F_{d1,d2} > x) = I_u(d2/2, d1/2) with u = d2/(d2 + d1*x), where I is the
regularized incomplete beta function, evaluated by the modified Lentz
continued fraction with the usual symmetry switch at x = (a+1)/(a+b+2).
No external numerical libraries; integer degrees of freedom only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ConvergenceFailure,
    InvalidArgument,
    InvalidDegreesOfFreedom,
    InvalidProbability,
    NegativeArgument,
    _number,
)

_MAX_ITERATIONS = 200
_EPS = 1e-15
_FPMIN = 1e-300
_QUANTILE_TOL = 1e-12


@dataclass(frozen=True)
class FReference:
    """Reference F distribution with df1 numerator, df2 denominator df."""

    df1: int
    df2: int

    def __post_init__(self) -> None:
        for name in ("df1", "df2"):
            value = getattr(self, name)
            if not _number(value, integral=True) >= 1:
                raise InvalidDegreesOfFreedom(f"{name} must be an integer >= 1, got {value!r}")


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITERATIONS + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ConvergenceFailure(
        f"incomplete beta continued fraction did not converge for "
        f"a={a}, b={b}, x={x} within {_MAX_ITERATIONS} iterations"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def f_survival(ref: FReference, x: float) -> float:
    """P(F_{df1,df2} > x) for a number x >= 0 (NegativeArgument otherwise).
    InvalidArgument unless ref is an FReference."""
    if not isinstance(ref, FReference):
        raise InvalidArgument(f"expected an FReference, got {type(ref).__name__}")
    if not _number(x) >= 0:
        raise NegativeArgument(f"survival function argument must be a number >= 0, got {x!r}")
    if x == 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    u = ref.df2 / (ref.df2 + ref.df1 * x)
    return regularized_incomplete_beta(ref.df2 / 2.0, ref.df1 / 2.0, u)


def f_quantile(ref: FReference, p: float) -> float:
    """x with P(F_{df1,df2} <= x) = p, for p in (0, 1).

    Bracket by doubling, then bisect to ~1e-12 relative; round-trips through
    f_survival to well under 1e-8.
    """
    if not 0.0 < _number(p) < 1.0:
        raise InvalidProbability(f"quantile probability must be in (0, 1), got {p!r}")
    target = 1.0 - p  # survival value at the quantile
    lo, hi = 0.0, 1.0
    while f_survival(ref, hi) > target:
        lo = hi
        hi *= 2.0
        if hi > 1e308:
            raise ConvergenceFailure("quantile bracket exceeded float range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f_survival(ref, mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _QUANTILE_TOL * max(1.0, lo):
            break
    return 0.5 * (lo + hi)
