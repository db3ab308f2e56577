"""Acceptance suite: the numbered exit criteria, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output of a failing run) and asserts at the stated tolerance.
Criteria with runtime budgets measure wall-clock time on this machine.
"""

import math
import subprocess
import sys
import time

import numpy as np
import randova as rv
from helpers import (
    all_assignments,
    batch_kernel,
    enumeration_contrast_moments,
    ls_interaction_free_table,
    random_ls_table,
    random_rcb_table,
    rcb_block_constant_table,
    sharp_null_table,
)


def _report(number: int, ok: bool, description: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number:2d}: {status} - {description}{suffix}")
    assert ok, f"criterion {number} FAILED: {description}{suffix}"


def test_criterion_01_table1_exact_rationals(tables):
    ems = rv.expected_ms(tables["table1"])
    rv.expected_ms(tables["table1"])  # warm before timing
    elapsed = min(
        _timed(lambda: rv.expected_ms(tables["table1"])) for _ in range(10)
    )
    ok = (
        abs(ems.e_s0 - 215.875) <= 1e-9
        and abs(ems.e_s1 - 213.625) <= 1e-9
        and abs(ems.difference - 2.25) <= 1e-9
        and abs(ems.difference - ems.interaction_term) <= 1e-9
        and elapsed < 1e-3
    )
    _report(
        1,
        ok,
        "table1 expectations 215.875 / 213.625, difference 2.25 = interaction",
        f"runtime {elapsed * 1e3:.3f} ms",
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_table2_values(tables):
    ems = rv.expected_ms(tables["table2"])
    dec = rv.ls_difference_decomposition(tables["table2"])
    ok = (
        abs(ems.e_s0 - 252.07) <= 0.005
        and abs(ems.e_s1 - 172.38) <= 0.005
        and abs(ems.difference - 79.69) <= 0.01
        and abs(dec.interaction_sum - 569.93) <= 0.005
        and abs(dec.neg_eta_variance_sum - (-313.56)) <= 0.005
        and abs(dec.correlation_term - 62.41) <= 0.005
    )
    _report(2, ok, "table2 expectations and difference decomposition")


def test_criterion_03_table3_values(tables):
    ems = rv.expected_ms(tables["table3"])
    dec = rv.ls_difference_decomposition(tables["table3"])
    ok = (
        abs(ems.e_s0 - 4.96) <= 0.005
        and abs(ems.e_s1 - 6.77) <= 0.005
        and abs(dec.interaction_sum - 9.48) <= 0.005
        and abs(dec.neg_eta_variance_sum - (-14.59)) <= 0.005
        and abs(dec.correlation_term - (-2.11)) <= 0.005
        and ems.difference < 0
    )
    _report(3, ok, "table3 expectations; difference is negative")


def test_criterion_04_oracle_equivalence(tables):
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    rcb_sizes = [
        (2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4),
        (5, 2), (4, 3), (2, 5), (3, 4),
    ]
    cases = list(tables.values())
    for k in range(60):
        n, t = rcb_sizes[k % len(rcb_sizes)]
        sd = float(rng.uniform(0.5, 2.0)) if k % 3 == 0 else 0.0
        cases.append(random_rcb_table(rng, num_blocks=n, num_treatments=t, sd=sd))
    for k in range(44):
        order = 3 if k % 2 == 0 else 4
        sd = float(rng.uniform(0.5, 2.0)) if k % 3 == 0 else 0.0
        cases.append(random_ls_table(rng, order=order, sd=sd))

    worst = 0.0
    for table in cases:
        assert rv.rcb_space_size(table.num_blocks, table.num_treatments) <= 10**5 or (
            table.design is rv.DesignKind.LS and table.num_treatments <= 4
        )
        sd = table.technical_error_sd
        noiseless = (
            table
            if sd == 0.0
            else rv.PotentialOutcomeTable(table.design, table.outcomes)
        )
        summary = rv.exact_distribution(noiseless)
        ems = rv.expected_ms(table)
        for closed, enumerated in (
            (ems.e_s0, summary.mean_s0 + sd**2),
            (ems.e_s1, summary.mean_s1 + sd**2),
        ):
            scale = max(abs(closed), abs(enumerated), 1e-30)
            worst = max(worst, abs(closed - enumerated) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0 and len(cases) >= 104
    _report(
        4,
        ok,
        f"closed forms equal enumeration means on {len(cases)} tables",
        f"worst rel err {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_05_table4_distribution(tables):
    start = time.perf_counter()
    table = tables["table4"]
    summary = rv.exact_distribution(table)
    f_values = {round(p.f_stat, 9) for p in summary.support}
    report = rv.type1_error(table, alpha=0.05)
    curve = rv.survival_curve(table, cutoff_grid=np.array([4.76]))
    elapsed = time.perf_counter() - start
    ok = (
        len(f_values) == 2
        and summary.assignment_count == 576
        and report.rejection_probability == 0.0
        and abs(report.cutoff - 4.76) <= 0.005
        and float(curve.p_randomization[0]) == 0.0
        and abs(float(curve.p_reference[0]) - 0.05) <= 5e-4
        and elapsed < 1.0
    )
    _report(
        5,
        ok,
        "table4: two F values, zero Type I error at 4.76, reference at 0.05",
        f"runtime {elapsed:.3f} s",
    )


def test_criterion_06_monte_carlo(tables):
    start = time.perf_counter()
    report = rv.monte_carlo_with_errors(
        tables["table4"], sigma_eps=0.01, replications=2000, alpha=0.05, seed=1935
    )
    elapsed = time.perf_counter() - start
    ok = report.mean_rejection < 0.01 and elapsed < 120.0
    _report(
        6,
        ok,
        "table4 Monte Carlo (sigma 0.01, 2000 reps): rejection below 0.01",
        f"mean {report.mean_rejection:.5f}, {elapsed:.1f} s",
    )


def test_criterion_07_historical_identity():
    rng = np.random.default_rng(20241)
    worst = 0.0
    min_interaction = math.inf
    for k in range(1000):
        if k % 2 == 0:
            table = random_rcb_table(rng)
        else:
            table = random_ls_table(rng)
        ems = rv.expected_ms(table)
        historical = ems.e_s0_neyman
        scale = max(1.0, abs(ems.e_s0))
        worst = max(worst, abs(ems.e_s0 - historical - ems.interaction_term) / scale)
        min_interaction = min(min_interaction, ems.interaction_term)
    exact_zero = True
    for k in range(25):
        for table in (
            rcb_block_constant_table(rng),
            ls_interaction_free_table(rng),
        ):
            exact_zero &= rv.expected_ms(table).interaction_term == 0.0
    ok = worst <= 1e-12 and min_interaction >= 0.0 and exact_zero
    _report(
        7,
        ok,
        "1000 tables: corrected minus historical E(S0^2) equals the "
        "interaction term; nonnegative, exactly zero when corrections are "
        "treatment-constant",
        f"worst identity err {worst:.2e}",
    )


def test_criterion_08_sharp_null_invariants():
    rng = np.random.default_rng(20242)
    worst_pooled = 0.0
    worst_ems = 0.0
    for k in range(200):
        if k % 2 == 0:
            table = sharp_null_table(
                rng, rv.DesignKind.RCB, num_blocks=int(rng.integers(2, 4))
            )
            labels = np.stack([a.labels() for a in all_assignments(table)])
            s0, s1 = batch_kernel(table, labels)
            n, t = table.num_blocks, table.num_treatments
            df1, df0 = t - 1, (n - 1) * (t - 1)
        else:
            table = sharp_null_table(
                rng, rv.DesignKind.LS, order=int(rng.integers(3, 5))
            )
            labels = np.stack([a.labels() for a in all_assignments(table)])
            s0, s1 = batch_kernel(table, labels)
            t = table.num_treatments
            df1, df0 = t - 1, (t - 1) * (t - 2)
        pooled = df1 * s1 + df0 * s0
        scale = max(float(np.abs(pooled).max()), 1e-30)
        worst_pooled = max(
            worst_pooled, float(pooled.max() - pooled.min()) / scale
        )
        ems = rv.expected_ms(table)
        worst_ems = max(
            worst_ems,
            abs(ems.e_s0 - ems.e_s1) / max(abs(ems.e_s0), 1e-30),
        )
    ok = worst_pooled <= 1e-9 and worst_ems <= 1e-9
    _report(
        8,
        ok,
        "200 sharp-null tables: pooled SS constant over assignments and "
        "E(S0^2) = E(S1^2)",
        f"worst pooled spread {worst_pooled:.2e}, worst EMS gap {worst_ems:.2e}",
    )


def test_criterion_09_enumeration_counts():
    rcb_ok = True
    for n, t in [(2, 2), (1, 3), (4, 3), (3, 4)]:
        count = sum(1 for _ in rv.enumerate_rcb(n, t))
        rcb_ok &= count == math.factorial(t) ** n
    ls_counts = [sum(1 for _ in rv.enumerate_latin_squares(k)) for k in (1, 2, 3, 4)]
    start = time.perf_counter()
    order5 = sum(1 for _ in rv.enumerate_latin_squares(5))
    elapsed = time.perf_counter() - start
    ok = (
        rcb_ok
        and ls_counts == [1, 2, 12, 576]
        and order5 == 161280
        and elapsed < 30.0
    )
    _report(
        9,
        ok,
        "enumeration counts: (T!)^N spot checks; Latin squares 1, 2, 12, 576, 161280",
        f"order-5 enumeration {elapsed:.1f} s",
    )


def test_criterion_10_variance_formula(tables):
    worst_var = 0.0
    worst_mean = 0.0
    for name in ("table1", "table2", "table3"):
        table = tables[name]
        t = table.num_treatments
        dec = rv.decompose(table)
        for a in range(t):
            for b in range(t):
                if a == b:
                    continue
                closed = rv.mean_difference_variance(table, a, b)
                mean, var = enumeration_contrast_moments(table, a, b)
                worst_var = max(
                    worst_var,
                    abs(closed.variance - var) / max(abs(var), 1e-30),
                )
                truth = float(dec.grand_means[a] - dec.grand_means[b])
                worst_mean = max(worst_mean, abs(mean - truth))
    ok = worst_var <= 1e-9 and worst_mean <= 1e-12
    _report(
        10,
        ok,
        "contrast variance matches enumeration on tables 1-3; estimator unbiased",
        f"worst var rel err {worst_var:.2e}, worst mean err {worst_mean:.2e}",
    )


def test_criterion_11_reproduce_subcommand():
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "randova", "reproduce"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    ok = result.returncode == 0 and elapsed < 10.0 and "FAIL" not in result.stdout
    _report(
        11,
        ok,
        "reproduce subcommand passes end to end",
        f"exit {result.returncode}, {elapsed:.1f} s",
    )
