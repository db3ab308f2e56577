"""Verification harness for the bundled reference tables.

Each bundled table (table1..table4) carries published reference values for
its expected mean squares, difference decomposition, randomization
distribution and Type I error.  The harness recomputes everything from
scratch and compares at the precision the reference values were printed to
(half a unit in the last printed decimal, except where values are exact
rationals and checked at 1e-9).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .documents import load_table
from .errors import InvalidArgument
from .expected_ms import expected_ms, ls_difference_decomposition
from .fdist import FReference, f_quantile, f_survival
from .inference import exact_distribution, survival_curve, type1_error
from .potential_outcomes import PotentialOutcomeTable

BUNDLED_TABLE_NAMES = ("table1", "table2", "table3", "table4")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    expected: float
    tolerance: float

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: observed {self.observed:.10g}, "
            f"expected {self.expected:.10g} (tol {self.tolerance:g})"
        )


def load_bundled_table(name: str) -> PotentialOutcomeTable:
    """One of table1..table4 from the package data."""
    if name not in BUNDLED_TABLE_NAMES:
        raise InvalidArgument(f"unknown bundled table {name!r}")
    path = resources.files("randova.data").joinpath(f"{name}.json")
    with resources.as_file(path) as concrete:
        return load_table(concrete)


def load_bundled_tables(
    directory: str | Path | None = None,
) -> dict[str, PotentialOutcomeTable]:
    """All four reference tables, from package data or an override directory."""
    if directory is None:
        return {name: load_bundled_table(name) for name in BUNDLED_TABLE_NAMES}
    base = Path(directory)
    return {
        name: load_table(base / f"{name}.json") for name in BUNDLED_TABLE_NAMES
    }


def _close(name: str, observed: float, expected: float, tol: float) -> CheckResult:
    return CheckResult(
        name=name,
        passed=abs(observed - expected) <= tol,
        observed=observed,
        expected=expected,
        tolerance=tol,
    )


def run_reproduction(
    tables: Mapping[str, PotentialOutcomeTable] | None = None,
) -> list[CheckResult]:
    """Recompute every reference value; returns one CheckResult per value.
    InvalidArgument when tables is not a mapping, naming the type given, or
    lacks any of table1..table4, naming them."""
    tables = tables if tables is not None else load_bundled_tables()
    if not isinstance(tables, Mapping):
        raise InvalidArgument(
            f"expected a mapping of table names to tables, got {type(tables).__name__}"
        )
    missing = [name for name in BUNDLED_TABLE_NAMES if name not in tables]
    if missing:
        raise InvalidArgument(
            f"the reproduction needs table1..table4; missing {', '.join(missing)}"
        )
    checks: list[CheckResult] = []

    # table1 (RCB): exact rationals.
    ems1 = expected_ms(tables["table1"])
    checks.append(_close("table1 E(S0^2)", ems1.e_s0, 215.875, 1e-9))
    checks.append(_close("table1 E(S1^2)", ems1.e_s1, 213.625, 1e-9))
    checks.append(_close("table1 difference", ems1.difference, 2.25, 1e-9))
    checks.append(
        _close(
            "table1 difference equals interaction term",
            ems1.difference - ems1.interaction_term,
            0.0,
            1e-12,
        )
    )

    # table2 (LS): printed to two decimals.
    ems2 = expected_ms(tables["table2"])
    checks.append(_close("table2 E(S0^2)", ems2.e_s0, 252.07, 0.005))
    checks.append(_close("table2 E(S1^2)", ems2.e_s1, 172.38, 0.005))
    checks.append(_close("table2 difference", ems2.difference, 79.69, 0.01))
    dec2 = ls_difference_decomposition(tables["table2"])
    checks.append(_close("table2 interaction sum", dec2.interaction_sum, 569.93, 0.005))
    checks.append(
        _close(
            "table2 -sum eta variances", dec2.neg_eta_variance_sum, -313.56, 0.005
        )
    )
    checks.append(_close("table2 correlation term", dec2.correlation_term, 62.41, 0.005))

    # table2: expectations confirmed by explicit randomization (12 squares).
    summary2 = exact_distribution(tables["table2"])
    checks.append(_close("table2 enumeration mean S0^2", summary2.mean_s0, 252.07, 0.005))
    checks.append(_close("table2 enumeration mean S1^2", summary2.mean_s1, 172.38, 0.005))

    # table3 (LS): the difference flips sign.
    ems3 = expected_ms(tables["table3"])
    checks.append(_close("table3 E(S0^2)", ems3.e_s0, 4.96, 0.005))
    checks.append(_close("table3 E(S1^2)", ems3.e_s1, 6.77, 0.005))
    dec3 = ls_difference_decomposition(tables["table3"])
    checks.append(_close("table3 interaction sum", dec3.interaction_sum, 9.48, 0.005))
    checks.append(
        _close("table3 -sum eta variances", dec3.neg_eta_variance_sum, -14.59, 0.005)
    )
    checks.append(_close("table3 correlation term", dec3.correlation_term, -2.11, 0.005))
    checks.append(
        CheckResult(
            name="table3 difference is negative",
            passed=ems3.difference < 0,
            observed=ems3.difference,
            expected=-1.81,
            tolerance=0.01,
        )
    )

    # table4 (LS): the two-value structure and zero Type I error.
    summary4 = exact_distribution(tables["table4"])
    checks.append(
        _close("table4 distinct F values", float(len(np.unique(summary4.f_stat))), 2.0, 0.0)
    )
    report4 = type1_error(tables["table4"], alpha=0.05)
    checks.append(_close("table4 F cutoff", report4.cutoff, 4.76, 0.005))
    checks.append(
        _close("table4 Type I error", report4.rejection_probability, 0.0, 0.0)
    )
    curve4 = survival_curve(tables["table4"], cutoff_grid=np.array([4.76]))
    checks.append(
        _close(
            "table4 P(F > 4.76), randomization",
            float(curve4.p_randomization[0]),
            0.0,
            0.0,
        )
    )
    checks.append(
        _close(
            "table4 P(F > 4.76), reference",
            float(curve4.p_reference[0]),
            0.05,
            5e-4,
        )
    )

    # the reference-distribution quantile itself.
    checks.append(
        _close("F(3,6) 0.95 quantile", f_quantile(FReference(3, 6), 0.95), 4.76, 0.005)
    )
    checks.append(
        _close(
            "F(3,6) survival round-trip at the quantile",
            f_survival(FReference(3, 6), f_quantile(FReference(3, 6), 0.95)),
            0.05,
            1e-8,
        )
    )

    return checks


def format_report(checks: list[CheckResult]) -> str:
    lines = [check.describe() for check in checks]
    failed = sum(1 for check in checks if not check.passed)
    lines.append("")
    lines.append(
        f"{len(checks) - failed}/{len(checks)} checks passed"
        + ("" if failed == 0 else f", {failed} FAILED")
    )
    return "\n".join(lines)


def checks_to_payload(checks: list[CheckResult]) -> dict:
    return {
        "checks": [asdict(check) for check in checks],
        "all_passed": all(check.passed for check in checks),
    }
