import dataclasses
import gc
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import randova as rv
import randova.enumeration as enumeration
import randova.inference as inference
from randova.anova import design_dfs, f_from_sums, row_tables
from randova.enumeration import assignment_stream
from randova.potential_outcomes import fisher_sharp_null_holds, neyman_null_holds
from helpers import (
    additive_table,
    all_assignments,
    batch_kernel,
    concatenate_label_chunks,
    exact_stream,
    fsum_anova,
    label_grid_anova,
    observed_by_loops,
    random_ls_table,
    random_rcb_table,
    rcb_block_constant_table,
    sharp_null_table,
    stable_support_columns,
    two_value_witness,
    unique_atom_ranks,
)


class TestExactDistribution:
    def test_table4_two_point_support(self, tables):
        summary = rv.exact_distribution(tables["table4"])
        assert summary.assignment_count == 576
        assert summary.is_exact
        assert len(summary.support) == 2
        by_f = {round(p.f_stat, 9): p for p in summary.support}
        assert set(by_f) == {0.5, 3.0}
        low, high = by_f[0.5], by_f[3.0]
        assert low.probability == pytest.approx(2 / 3, abs=1e-12)
        assert high.probability == pytest.approx(1 / 3, abs=1e-12)
        assert low.s0_sq == pytest.approx(1 / 6, rel=1e-12)
        assert low.s1_sq == pytest.approx(1 / 12, rel=1e-12)
        assert high.s0_sq == pytest.approx(1 / 12, rel=1e-12)
        assert high.s1_sq == pytest.approx(1 / 4, rel=1e-12)

    def test_probabilities_sum_to_one(self, tables):
        for name in ("table1", "table2", "table3", "table4"):
            summary = rv.exact_distribution(tables[name])
            total = math.fsum(p.probability for p in summary.support)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert all(p.probability >= 0 for p in summary.support)

    def test_table2_means_match_reference(self, tables):
        summary = rv.exact_distribution(tables["table2"])
        assert summary.mean_s0 == pytest.approx(252.07, abs=0.005)
        assert summary.mean_s1 == pytest.approx(172.38, abs=0.005)
        assert summary.assignment_count == 12

    def test_means_match_support_weighted_means(self, tables):
        for name in ("table1", "table2", "table3", "table4"):
            summary = rv.exact_distribution(tables[name])
            weighted_s0 = math.fsum(
                p.s0_sq * p.probability for p in summary.support
            )
            weighted_s1 = math.fsum(
                p.s1_sq * p.probability for p in summary.support
            )
            assert summary.mean_s0 == pytest.approx(weighted_s0, rel=1e-9)
            assert summary.mean_s1 == pytest.approx(weighted_s1, rel=1e-9)

    @pytest.mark.parametrize("value", [2.0, 0.1, 1e6 + 0.1])
    @pytest.mark.parametrize("design", [rv.DesignKind.RCB, rv.DesignKind.LS])
    def test_constant_table_single_degenerate_point(self, design, value):
        table = rv.PotentialOutcomeTable(design, np.full((3, 3, 3), value))
        summary = rv.exact_distribution(table)
        assert len(summary.support) == 1
        point = summary.support[0]
        assert point.s0_sq == 0.0
        assert point.s1_sq == 0.0
        assert math.isnan(point.f_stat)
        assert point.probability == 1.0

    @pytest.mark.parametrize(
        "design, n, t, blocks",
        [
            ("rcb", 3, 3, None),
            ("ls", 3, 3, None),
            ("ls", 4, 4, None),
            ("rcb", 3, 3, [1.0, 4.0, -2.0]),
            ("ls", 3, 3, [1.0, 4.0, -2.0]),
        ],
    )
    def test_additive_table_without_unit_variation_is_one_infinite_atom(
        self, design, n, t, blocks
    ):
        # block (LS: row) and treatment effects only, not dyadic: S0^2 is
        # zero for every assignment
        if blocks is None:
            x = np.zeros((n, t, t)) + np.array([0.1, 0.7, 1e6 + 0.3, 2.9])[:t]
        else:
            x = np.zeros((n, t, t)) + np.array(blocks)[:, None, None] + [0.3, 0.1, 0.7]
        table = rv.PotentialOutcomeTable(design, x)
        summary = rv.exact_distribution(table)
        assert summary.f_stat.tolist() == [math.inf]
        assert summary.s0_sq.tolist() == [0.0]
        assert summary.s1_sq[0] > 0.0

    @pytest.mark.parametrize(
        "name", ["table1", "table2", "table3", "table4", "additive", "integer-rcb-4x4"]
    )
    def test_columns_are_ordered_and_f_is_recomputed_from_them(self, tables, name):
        # the support's F column is f_from_sums of its own S0^2 and S1^2
        # columns, bit for bit, and the columns are ordered by F (NaN last),
        # then by S0^2
        if name == "additive":  # S0^2 = 0 everywhere: one infinite atom
            x = np.zeros((3, 3, 3)) + np.array([1.0, 4.0, -2.0])[:, None, None] + [0.3, 0.1, 0.7]
            table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)
        elif name == "integer-rcb-4x4":
            table = _benchmark_rcb_4x4()
        else:
            table = tables[name]
        summary = rv.exact_distribution(table)
        f, s0 = summary.f_stat, summary.s0_sq
        recomputed = f_from_sums(s0, summary.s1_sq)
        assert f.dtype == recomputed.dtype == np.float64
        assert f.view(np.uint64).tolist() == recomputed.view(np.uint64).tolist()
        by = np.lexsort((s0, f))  # stable, NaN last
        assert np.array_equal(f[by], f, equal_nan=True) and np.array_equal(s0[by], s0)
        if name == "additive":
            assert f.tolist() == [math.inf]
        if name == "table4":
            assert len(f) == 2
        if name == "integer-rcb-4x4":
            # 24 assignments, one per atom, have F = 3 in exact arithmetic:
            # 19 atoms round to 3.0 and sit by S0^2, the rest one ulp off
            near = np.flatnonzero(np.abs(f - 3.0) <= 1e-15 * 3.0)
            assert summary.counts[near].sum() == 24
            assert np.array_equal(near, np.arange(near[0], near[0] + 24))
            assert np.count_nonzero(f[near] == 3.0) == 19
            assert np.all(np.diff(s0[near][f[near] == 3.0]) > 0)

    def test_closed_forms_match_distribution_means(self, tables):
        for name in ("table1", "table2", "table3", "table4"):
            summary = rv.exact_distribution(tables[name])
            ems = rv.expected_ms(tables[name])
            assert summary.mean_s0 == pytest.approx(ems.e_s0, rel=1e-9, abs=1e-12)
            assert summary.mean_s1 == pytest.approx(ems.e_s1, rel=1e-9, abs=1e-12)

    @staticmethod
    def _counted_calls(monkeypatch):
        calls = Counter()
        for name in (
            "assignment_stream", "stage_rows", "row_tables", "batch_anova_rcb", "batch_anova_ls"
        ):
            def counted(*args, _name=name, _call=getattr(inference, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)

            monkeypatch.setattr(inference, name, counted)
        return calls

    @pytest.mark.parametrize("design,shape", [("rcb", (3, 3, 3)), ("ls", (4, 4, 4))])
    def test_tables_an_exact_space_once(self, monkeypatch, design, shape):
        # 216 RCB / 576 LS assignments, streamed once and scored 50 at a
        # time against one table of every permutation, staged by rank
        # without stage_rows
        monkeypatch.setattr(inference, "_CHUNK", 50)
        calls = self._counted_calls(monkeypatch)
        x = np.random.default_rng(4).normal(20.0, 15.0, size=shape)
        summary = rv.exact_distribution(rv.PotentialOutcomeTable(design, x))
        chunks = -(-summary.assignment_count // 50)
        assert chunks > 1
        assert calls == {"assignment_stream": 1, "row_tables": 1, f"batch_anova_{design}": chunks}

    @pytest.mark.parametrize("design,shape", [("rcb", (3, 3, 3)), ("ls", (4, 4, 4))])
    def test_stages_and_tables_each_sampled_chunk_once(self, monkeypatch, design, shape):
        # 300 draws, streamed once and staged, tabled and scored 50 at a time
        monkeypatch.setattr(inference, "_CHUNK", 50)
        calls = self._counted_calls(monkeypatch)
        x = np.random.default_rng(4).normal(20.0, 15.0, size=shape)
        table = rv.PotentialOutcomeTable(design, x)
        rv.exact_distribution(table, rv.RandomizationSpace.sample(300, seed=2))
        assert calls == {
            "assignment_stream": 1, "stage_rows": 6, "row_tables": 6, f"batch_anova_{design}": 6,
        }

    @pytest.mark.parametrize(
        "name", ["table1", "table2", "table3", "table4", "ls5", "rcb3x4"]
    )
    def test_exact_chunks_stage_against_the_permutation_table(self, monkeypatch, tables, name):
        # every chunk shares one perms, each row's the permutation table
        # itself, and its index is the enumerators' chunk of indices into
        # that table, so it rebuilds their label grids
        monkeypatch.setattr(inference, "_CHUNK", 50)
        monkeypatch.setattr(enumeration, "_CHUNK", 50)
        table = _staging_table(tables, name)
        n, _, t = table.outcomes.shape
        every = enumeration._permutation_table(t)
        chunks, count, is_exact = inference._staged(table, rv.RandomizationSpace.exact())
        indices = enumeration._exact_index(table.design, n, t, count)
        labels = _enumerators_labels(table)
        shared, lo = None, 0
        for (perms, index), want in itertools.zip_longest(chunks, indices):
            shared = shared or perms
            assert perms is shared and len(perms) == n
            assert all(p is every for p in perms)
            assert index.dtype == np.min_scalar_type(len(every) - 1) and index.flags.f_contiguous
            np.testing.assert_array_equal(index, want)
            np.testing.assert_array_equal(every[index], labels[lo : lo + len(index)])
            lo += len(index)
        assert is_exact and lo == count == len(labels)

    @pytest.mark.parametrize(
        "name", ["table1", "table2", "table3", "table4", "integer-rcb-4x4", "ls5"]
    )
    def test_table_staging_scores_each_chunk_as_chunk_staging(self, tables, name):
        # bit for bit, each exact chunk scored against the one permutation
        # table gives the S0^2 and S1^2 of the chunk staged and tabled on
        # its own, as the chunk's labels through `stage_rows` give them
        if name == "integer-rcb-4x4":  # 24 assignments with F = 3 exactly
            table = _benchmark_rcb_4x4()
        elif name == "ls5":
            table = random_ls_table(np.random.default_rng(8), 5)
        else:
            table = tables[name]
        x = table.outcomes
        exact = rv.RandomizationSpace.exact()
        chunks, count, _ = inference._staged(table, exact)
        stream, _, _ = assignment_stream(table, exact)
        tables_once = None
        seen = 0
        for (perms, index), labels in itertools.zip_longest(chunks, inference._label_chunks(stream)):
            if tables_once is None:
                tables_once = row_tables(table.design, x[None], perms, x.mean(axis=(0, 1)))
            s0, s1 = inference._batch_sums(tables_once, index)
            want0, want1 = batch_kernel(table, labels)
            assert s0.tobytes() == want0.tobytes() and s1.tobytes() == want1.tobytes()
            seen += len(index)
        assert seen == count

    @pytest.mark.parametrize(
        "name", ["table1", "table2", "table3", "table4", "ls5", "rcb3x4"]
    )
    def test_side_by_side_index_rebuilds_the_enumerators_labels(self, monkeypatch, tables, name):
        # Monte Carlo's one index: each row's distinct permutations over all
        # chunks, once each in lexicographic order, indexed per assignment
        monkeypatch.setattr(inference, "_CHUNK", 50)
        table = _staging_table(tables, name)
        chunks = list(inference._staged(table, rv.RandomizationSpace.exact())[0])
        perms, index = inference._side_by_side(chunks)
        labels = _enumerators_labels(table)
        for row, placed in enumerate(perms):
            np.testing.assert_array_equal(placed, np.unique(labels[:, row], axis=0))
            np.testing.assert_array_equal(placed[index[:, row]], labels[:, row])
        assert index.dtype == np.min_scalar_type(max(map(len, perms)) - 1)
        assert index.flags.f_contiguous

    @pytest.mark.parametrize("design, shape", [("rcb", (3, 4, 4)), ("ls", (6, 6, 6))])
    def test_side_by_side_drops_the_repeats_across_chunks(self, monkeypatch, design, shape):
        # a sampled stream repeats permutations from chunk to chunk; the
        # Monte Carlo tables are as wide as the distinct ones, not the
        # chunks' sum
        monkeypatch.setattr(inference, "_CHUNK", 64)
        x = np.random.default_rng(6).normal(20.0, 15.0, size=shape)
        table = rv.PotentialOutcomeTable(rv.DesignKind(design), x)
        space = rv.RandomizationSpace.sample(1000, seed=3)
        chunks = list(inference._staged(table, space)[0])
        perms, index = inference._side_by_side(chunks)
        stream, _, _ = assignment_stream(table, space)
        labels = np.stack([a.grid for a in stream])
        for row, placed in enumerate(perms):
            np.testing.assert_array_equal(placed, np.unique(labels[:, row], axis=0))
            np.testing.assert_array_equal(placed[index[:, row]], labels[:, row])
            assert len(placed) < sum(len(p[row]) for p, _ in chunks)

    def test_a_stream_of_the_wrong_length_is_refused(self, monkeypatch, tables):
        # the staged chunks must add up to the space's count
        table = tables["table4"]
        stream, count, is_exact = assignment_stream(table, rv.RandomizationSpace.exact())
        every = list(stream)
        noisy = dataclasses.replace(table, technical_error_sd=0.01)
        for wrong, call in [
            (every[:-1], lambda: rv.exact_distribution(table)),
            (every[:-1], lambda: rv.monte_carlo_with_errors(noisy, replications=2)),
            (every + every[:1], lambda: rv.monte_carlo_with_errors(noisy, replications=2)),
        ]:
            monkeypatch.setattr(
                inference, "assignment_stream", lambda table, space: (iter(wrong), count, is_exact)
            )
            message = f"yielded {len(wrong)} assignments, expected {count}"
            with pytest.raises(rv.RandovaError, match=message):
                call()

    def test_noisy_table_rejected(self, tables):
        noisy = rv.PotentialOutcomeTable(
            rv.DesignKind.LS, tables["table2"].outcomes, technical_error_sd=0.5
        )
        with pytest.raises(rv.TechnicalErrorsPresent):
            rv.exact_distribution(noisy)

    def test_degenerate_design_refused_before_its_space_is_read(self, monkeypatch):
        # an RCB of one block has no residual df; its 9! assignments are not streamed
        def unreachable(table, space):
            raise AssertionError("the assignment stream was read")

        monkeypatch.setattr(inference, "assignment_stream", unreachable)
        table = random_rcb_table(np.random.default_rng(43), 1, 9)
        for call in (rv.exact_distribution, rv.type1_error):
            with pytest.raises(rv.DegenerateDesign):
                call(table)

    def test_space_too_large_propagates(self):
        big = rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.zeros((9, 5, 5)))
        with pytest.raises(rv.SpaceTooLarge):
            rv.exact_distribution(big)
        # sampling the same table works
        space = rv.RandomizationSpace.sample(20, seed=0)
        summary = rv.exact_distribution(big, space)
        assert summary.assignment_count == 20
        assert not summary.is_exact

    def test_streaming_sets_off_no_older_garbage_collection(self):
        # the stream's Assignments are freed as they are read; holding a
        # chunk of them alive set off generation-1 and -2 collections
        table = random_rcb_table(np.random.default_rng(41), 3, 4)
        rv.exact_distribution(table)  # the permutation table is cached
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.collect()
        gc.callbacks.append(record)
        try:
            rv.exact_distribution(table)
        finally:
            gc.callbacks.remove(record)
        assert [g for g in started if g > 0] == []

    def test_sampled_space(self, tables):
        space = rv.RandomizationSpace.sample(300, seed=5)
        summary = rv.exact_distribution(tables["table4"], space)
        assert not summary.is_exact
        assert summary.assignment_count == 300
        # the two-point structure survives sampling
        assert {round(p.f_stat, 9) for p in summary.support} <= {0.5, 3.0}
        total = math.fsum(p.probability for p in summary.support)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestType1Error:
    def test_table4_zero_rejection(self, tables):
        report = rv.type1_error(tables["table4"], alpha=0.05)
        assert report.rejection_probability == 0.0
        assert report.cutoff == pytest.approx(4.76, abs=0.005)
        assert report.null_status.neyman_null_holds
        assert report.null_status.fisher_sharp_null_holds

    def test_table2_matches_bruteforce(self, tables):
        table = tables["table2"]
        report = rv.type1_error(table, alpha=0.05)
        cutoff = rv.f_quantile(rv.FReference(2, 2), 0.95)
        rejected = 0
        for assignment in exact_stream("ls", 3, 3):
            _, _, f_stat = fsum_anova(table, assignment)
            if f_stat > cutoff:
                rejected += 1
        assert report.rejection_probability == pytest.approx(
            rejected / 12, abs=1e-12
        )
        assert not report.null_status.fisher_sharp_null_holds

    def test_constant_table_never_rejects(self):
        table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.full((2, 3, 3), 1.0))
        for alpha in (0.01, 0.05, 0.5):
            report = rv.type1_error(table, alpha=alpha)
            assert report.rejection_probability == 0.0

    def test_invalid_alpha(self, tables):
        for alpha in (0.0, 1.0, -0.1, 2.0, math.nan, "x"):
            with pytest.raises(rv.InvalidAlpha, match="alpha must be in"):
                rv.type1_error(tables["table4"], alpha=alpha)

    def test_sampled_space_agrees_for_table4(self, tables):
        space = rv.RandomizationSpace.sample(400, seed=11)
        report = rv.type1_error(tables["table4"], alpha=0.05, space=space)
        assert report.rejection_probability == 0.0


class TestSurvivalCurve:
    def test_table4_step_structure(self, tables):
        curve = rv.survival_curve(tables["table4"])
        assert curve.cutoffs.shape == (200,)
        assert curve.cutoffs[0] == 0.0
        # upper end: max(2 * q95, largest finite F) = 2 * 4.757...
        assert curve.cutoffs[-1] == pytest.approx(
            2 * rv.f_quantile(rv.FReference(3, 6), 0.95), rel=1e-9
        )
        assert np.all(np.diff(curve.p_randomization) <= 1e-15)
        assert np.all(np.diff(curve.p_reference) <= 1e-15)
        assert np.all((curve.p_randomization >= 0) & (curve.p_randomization <= 1))
        # two-step function: values are only {1, 2/3, 1/3, 0} along the grid
        distinct = sorted(set(np.round(curve.p_randomization, 12).tolist()))
        assert distinct == pytest.approx([0.0, 1 / 3, 1.0])

    def test_table4_at_cutoff(self, tables):
        curve = rv.survival_curve(tables["table4"], cutoff_grid=np.array([4.76]))
        assert curve.p_randomization[0] == 0.0
        assert curve.p_reference[0] == pytest.approx(0.05, abs=5e-4)

    def test_reference_at_zero_is_one(self, tables):
        curve = rv.survival_curve(tables["table2"], cutoff_grid=np.array([0.0]))
        assert curve.p_reference[0] == 1.0
        assert curve.p_randomization[0] <= 1.0

    def test_matches_direct_support_computation(self, tables):
        # internal consistency: p_randomization equals 1 - CDF rebuilt from
        # the sorted support
        table = tables["table3"]
        summary = rv.exact_distribution(table)
        curve = rv.survival_curve(table)
        finite = sorted(
            (p.f_stat, p.probability)
            for p in summary.support
            if not math.isnan(p.f_stat)
        )
        for k, observed in zip(curve.cutoffs.tolist(), curve.p_randomization):
            cdf = math.fsum(prob for f, prob in finite if f <= k)
            nan_mass = math.fsum(
                p.probability for p in summary.support if math.isnan(p.f_stat)
            )
            assert observed == pytest.approx(1.0 - cdf - nan_mass, abs=1e-12)

    def test_custom_grid_points(self, tables):
        curve = rv.survival_curve(tables["table4"], grid_points=37)
        assert curve.cutoffs.shape == (37,)


class TestCentralClaim:
    """Tables where both nulls hold, the interaction vanishes, expected mean
    squares agree, and yet the F-test never rejects at the 0.05 level."""

    def test_pinned_witness(self, tables):
        table = tables["table4"]
        ems = rv.expected_ms(table)
        assert ems.interaction_term == pytest.approx(0.0, abs=1e-15)
        assert ems.e_s0 == pytest.approx(ems.e_s1, rel=1e-12)
        assert rv.type1_error(table, alpha=0.05).rejection_probability == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_witnesses(self, seed):
        rng = np.random.default_rng(2000 + seed)
        table = two_value_witness(rng)
        ems = rv.expected_ms(table)
        scale = max(1.0, abs(ems.e_s0))
        assert neyman_null_holds(table)
        assert fisher_sharp_null_holds(table)
        assert ems.interaction_term <= 1e-12 * scale
        assert abs(ems.e_s0 - ems.e_s1) <= 1e-9 * scale
        summary = rv.exact_distribution(table)
        finite_f = {round(p.f_stat, 9) for p in summary.support}
        assert finite_f == {0.5, 3.0}
        report = rv.type1_error(table, alpha=0.05)
        assert report.rejection_probability == 0.0


def _bounded_sharp_null_table(rng, design):
    if design is rv.DesignKind.RCB:
        return sharp_null_table(rng, design, num_blocks=int(rng.integers(2, 4)))
    return sharp_null_table(rng, design, order=int(rng.integers(3, 5)))


def _all_f_values(table):
    labels = np.stack([a.labels() for a in all_assignments(table)])
    s0, s1 = batch_kernel(table, labels)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = s1 / s0
    return np.where(np.isnan(f), -np.inf, f)


class TestRandomizationTestExactness:
    """Under the sharp null the enumeration-calibrated test is exact up to
    discreteness: rejecting the floor(alpha*n) largest statistics (ties broken
    by enumeration index) rejects with probability in [alpha - 1/n, alpha]."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_based_rejection_rate(self, seed):
        rng = np.random.default_rng(2100 + seed)
        design = rv.DesignKind.RCB if seed % 2 == 0 else rv.DesignKind.LS
        table = _bounded_sharp_null_table(rng, design)
        f_values = _all_f_values(table)
        n = f_values.shape[0]
        order = np.lexsort((np.arange(n), -f_values))
        for alpha in (0.01, 0.05, 0.10, 0.25):
            k = math.floor(alpha * n)
            rate = len(set(order[:k].tolist())) / n
            assert alpha - 1.0 / n <= rate <= alpha

    @pytest.mark.parametrize("seed", range(4))
    def test_p_value_validity(self, seed):
        # the tie-conservative p-value P(F >= f_obs) is valid: P(p <= a) <= a
        rng = np.random.default_rng(2200 + seed)
        design = rv.DesignKind.LS if seed % 2 == 0 else rv.DesignKind.RCB
        table = _bounded_sharp_null_table(rng, design)
        f_values = _all_f_values(table)
        n = f_values.shape[0]
        ordered = np.sort(f_values)
        # p(f) = #{g >= f} / n via binary search on the sorted statistics
        p_values = (n - np.searchsorted(ordered, f_values, side="left")) / n
        for alpha in (0.05, 0.1, 0.2, 0.5):
            assert np.mean(p_values <= alpha) <= alpha + 1e-12


def _noisy(table, sd):
    """The table with technical errors of standard deviation sd."""
    return dataclasses.replace(table, technical_error_sd=sd)


class TestMonteCarlo:
    def test_deterministic_given_seed(self, tables):
        kwargs = dict(replications=5, alpha=0.05, seed=99)
        first = rv.monte_carlo_with_errors(_noisy(tables["table4"], 0.01), **kwargs)
        second = rv.monte_carlo_with_errors(_noisy(tables["table4"], 0.01), **kwargs)
        assert first == second

    def test_single_replication(self, tables):
        report = rv.monte_carlo_with_errors(
            _noisy(tables["table4"], 0.01), replications=1, seed=3
        )
        assert report.standard_error is None
        assert report.rejection_probabilities is None
        again = rv.monte_carlo_with_errors(
            _noisy(tables["table4"], 0.01), replications=1, seed=3
        )
        assert report.mean_rejection == again.mean_rejection

    def test_error_sd_is_the_tables(self, tables):
        report = rv.monte_carlo_with_errors(_noisy(tables["table4"], 0.5), replications=2)
        assert report.error_sd == 0.5

    def test_noiseless_table_refused_naming_the_exact_distribution(self, tables):
        with pytest.raises(rv.NegativeErrorSd, match="exact_distribution"):
            rv.monte_carlo_with_errors(tables["table4"], replications=2)

    def test_keep_replications(self, tables):
        report = rv.monte_carlo_with_errors(
            _noisy(tables["table4"], 0.01),
            replications=4,
            seed=1,
            keep_replications=True,
        )
        assert report.rejection_probabilities is not None
        assert len(report.rejection_probabilities) == 4
        assert report.mean_rejection == pytest.approx(
            math.fsum(report.rejection_probabilities) / 4, rel=1e-12
        )

    def test_tiny_noise_recovers_exact_type1(self, tables):
        table = tables["table2"]
        exact = rv.type1_error(table, alpha=0.05).rejection_probability
        report = rv.monte_carlo_with_errors(
            _noisy(table, 1e-12), replications=40, alpha=0.05, seed=8
        )
        assert report.mean_rejection == pytest.approx(exact, abs=0.02)

    def test_invalid_arguments(self, tables):
        for sd in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(rv.NegativeErrorSd):
                rv.monte_carlo_with_errors(_noisy(tables["table4"], sd))
        # a noise level that is not a real number is refused with the table
        for sd in ("0.1", True):
            with pytest.raises(rv.InvalidArgument, match="technical_error_sd"):
                _noisy(tables["table4"], sd)
        with pytest.raises(ValueError):
            rv.monte_carlo_with_errors(_noisy(tables["table4"], 0.01), replications=0)
        for alpha in (1.5, "x"):
            with pytest.raises(rv.InvalidAlpha, match="alpha must be in"):
                rv.monte_carlo_with_errors(_noisy(tables["table4"], 0.01), alpha=alpha)

    def test_noise_beyond_the_magnitude_bound_rejected(self, tables):
        # within validate's bound of 2^480 / 16 units, but the noisy outcomes
        # cross it, so their sums of squares could overflow
        noisy = rv.validate(_noisy(tables["table4"], 1e143))
        with pytest.raises(rv.NonFiniteEntry, match="technical errors too large"):
            rv.monte_carlo_with_errors(noisy, replications=2)

    @pytest.mark.parametrize("name", ["table4", "rcb3x4"])
    def test_kernel_batch_does_not_change_the_report(self, monkeypatch, tables, name):
        # table4 (576 squares) in groups of 28 noise draws and a float RCB
        # 3x4 (13,824 assignments) in groups of one, each over two groups,
        # scored a kernel call per evaluation and a call per group
        if name == "table4":
            table, replications = _noisy(tables["table4"], 0.5), 29
        else:
            x = np.random.default_rng(34).normal(20.0, 15.0, size=(3, 4, 4))
            table, replications = rv.PotentialOutcomeTable("rcb", x, technical_error_sd=2.0), 2
        kwargs = dict(replications=replications, seed=5, keep_replications=True)
        want = rv.monte_carlo_with_errors(table, **kwargs)
        for batch in (1, inference._MC_ROWS):
            monkeypatch.setattr(inference, "_MC_BATCH", batch)
            assert rv.monte_carlo_with_errors(table, **kwargs) == want, batch

    def test_standard_error_formula(self, tables):
        report = rv.monte_carlo_with_errors(
            _noisy(tables["table4"], 0.5),
            replications=16,
            seed=21,
            keep_replications=True,
        )
        ps = report.rejection_probabilities
        mean = math.fsum(ps) / len(ps)
        var = math.fsum((p - mean) ** 2 for p in ps) / (len(ps) - 1)
        assert report.standard_error == pytest.approx(
            math.sqrt(var / len(ps)), rel=1e-12
        )


def _reference_rejections(table, sigma_eps, replications, seed, space):
    """Per-replication P(F > cutoff) by the label-grid kernel over every
    label grid of the space, replaying the Monte Carlo noise streams."""
    stream, _, _ = assignment_stream(table, space)
    labels = np.stack([a.labels() for a in stream])
    df1, df0 = design_dfs(table.design, table.num_blocks, table.num_treatments)
    cutoff = rv.f_quantile(rv.FReference(df1, df0), 0.95)
    rejections = []
    for child in np.random.SeedSequence(seed).spawn(replications):
        noise = np.random.default_rng(child).normal(0.0, sigma_eps, size=table.outcomes.shape)
        s0, s1 = label_grid_anova(table.design, table.outcomes + noise, labels)
        rejections.append(float(np.mean(f_from_sums(s0, s1) > cutoff)))
    return rejections


def _mc_tables():
    rng = np.random.default_rng(1935)
    bundled = rv.load_bundled_tables()
    taus = np.array([0.1, 0.7, 1e6 + 0.3])
    return {
        **bundled,
        "rcb_block_constant": rcb_block_constant_table(rng, 3, 3),
        "two_value_witness": two_value_witness(rng),
        "additive_rcb": additive_table(rng, "rcb", num_blocks=3),
        "additive_ls": additive_table(rng, "ls", order=4),
        # degenerate: constant (0/0) and without unit variation (S0^2 = 0 < S1^2)
        "constant_ls": rv.PotentialOutcomeTable(rv.DesignKind.LS, np.full((3, 3, 3), 1e6 + 0.1)),
        "no_unit_variation_rcb": rv.PotentialOutcomeTable(
            rv.DesignKind.RCB, np.zeros((3, 3, 3)) + taus
        ),
    }


MC_TABLES = _mc_tables()


class TestSampleCap:
    """A sampled run stages and scores every draw, so its draws are held to
    the enumeration cap; the lazy public samplers are not."""

    @pytest.mark.parametrize("name", ["table1", "table4"])
    def test_sample_above_the_cap_is_refused(self, monkeypatch, tables, name):
        monkeypatch.setenv(enumeration.ENUM_CAP_ENV_VAR, "100")
        over = rv.RandomizationSpace.sample(101, seed=1)
        with pytest.raises(rv.InvalidArgument, match="above the cap 100.*RANDOVA_ENUM_CAP"):
            rv.type1_error(tables[name], space=over)
        with pytest.raises(rv.InvalidArgument, match="above the cap 100.*RANDOVA_ENUM_CAP"):
            rv.monte_carlo_with_errors(_noisy(tables[name], 0.01), replications=2, space=over)

    @pytest.mark.parametrize("name", ["table1", "table4"])
    def test_sample_at_the_cap_runs(self, monkeypatch, tables, name):
        monkeypatch.setenv(enumeration.ENUM_CAP_ENV_VAR, "100")
        at = rv.RandomizationSpace.sample(100, seed=1)
        assert 0.0 <= rv.type1_error(tables[name], space=at).rejection_probability <= 1.0
        assert rv.exact_distribution(tables[name], at).assignment_count == 100
        report = rv.monte_carlo_with_errors(_noisy(tables[name], 0.01), replications=2, space=at)
        assert 0.0 <= report.mean_rejection <= 1.0


class TestMonteCarloAgainstBatchKernels:
    """Every replication's rejection equals that of the label-grid kernel
    (`helpers.label_grid_anova`) on the same noise, on tables where the zero
    rule decides inf and NaN."""

    @pytest.mark.parametrize("sigma_eps", [1e-20, 1e-12, 1e-6, 0.01, 1.0])
    @pytest.mark.parametrize("name", sorted(MC_TABLES))
    def test_each_replication_matches(self, name, sigma_eps):
        table = MC_TABLES[name]
        space = rv.RandomizationSpace.exact()
        report = rv.monte_carlo_with_errors(
            _noisy(table, sigma_eps), replications=6, seed=17, keep_replications=True
        )
        want = _reference_rejections(table, sigma_eps, 6, 17, space)
        assert list(report.rejection_probabilities) == want

    @pytest.mark.parametrize("rows_per_call", [100, 1000])
    def test_groups_and_slices_do_not_change_replications(self, monkeypatch, rows_per_call):
        # table4 has 576 squares: 100 rows per call slices the assignments,
        # 1000 scores one replication per call, the default 28 per call
        monkeypatch.setattr(inference, "_MC_ROWS", rows_per_call)
        table = MC_TABLES["table4"]
        report = rv.monte_carlo_with_errors(
            _noisy(table, 0.5), replications=40, seed=3, keep_replications=True
        )
        want = _reference_rejections(table, 0.5, 40, 3, rv.RandomizationSpace.exact())
        assert list(report.rejection_probabilities) == want

    @pytest.mark.parametrize(
        "table",
        [
            random_rcb_table(np.random.default_rng(31), 4, 4),
            random_ls_table(np.random.default_rng(32), 5),
        ],
        ids=["rcb4x4", "ls5"],
    )
    def test_sampled_space_matches(self, table):
        space = rv.RandomizationSpace.sample(3000, seed=9)
        report = rv.monte_carlo_with_errors(
            _noisy(table, 0.3), replications=12, seed=5, space=space, keep_replications=True
        )
        assert list(report.rejection_probabilities) == _reference_rejections(
            table, 0.3, 12, 5, space
        )


class TestOracleEquivalenceRandom:
    """Module-spanning oracle: enumeration means equal closed forms."""

    @pytest.mark.parametrize("seed", range(6))
    def test_distribution_means_equal_closed_forms(self, seed):
        rng = np.random.default_rng(2300 + seed)
        if seed % 2 == 0:
            table = random_rcb_table(rng, num_treatments=3)
        else:
            table = random_ls_table(rng)
        summary = rv.exact_distribution(table)
        ems = rv.expected_ms(table)
        assert summary.mean_s0 == pytest.approx(ems.e_s0, rel=1e-9)
        assert summary.mean_s1 == pytest.approx(ems.e_s1, rel=1e-9)


def _atom_count(values):
    ranks = rv.inference._atom_ranks(np.array(values, dtype=float))
    return len(set(ranks.tolist()))


class TestAtomRule:
    """Neighbouring distinct values share an atom when their gap is at most
    1e-12 times the larger one."""

    def test_twins_across_a_12th_digit_rounding_boundary_are_one_atom(self):
        assert _atom_count([2.0000000000049996, 2.0000000000050004]) == 1

    def test_values_1e_11_apart_are_two_atoms(self):
        assert _atom_count([3.0, 3.0 * (1.0 + 1e-11)]) == 2

    def test_ulp_neighbours_of_a_power_of_ten_are_one_atom(self):
        values = [np.nextafter(1000.0, 0.0), 1000.0, np.nextafter(1000.0, np.inf)]
        assert _atom_count(values) == 1

    def test_signed_zeros_are_one_atom(self):
        assert _atom_count([0.0, -0.0]) == 1

    def test_zero_and_a_tiny_value_are_two_atoms(self):
        assert _atom_count([0.0, 1.7e-33]) == 2

    def test_gaps_chain_within_an_atom(self):
        # each gap is below the tolerance, the whole span is not
        assert _atom_count([1.0, 1.0 + 9e-13, 1.0 + 1.8e-12]) == 1

    @pytest.mark.parametrize(
        "values, ranks",
        [([-np.inf, -np.inf, 0.0], [0, 0, 1]), ([-np.inf, 1.0, 5.0, -1e308], [0, 2, 3, 1])],
        ids=["equal-negative-infinities", "negative-infinity-below-finite"],
    )
    def test_negative_infinity_is_an_atom_of_its_own(self, values, ranks):
        # the tolerance 1e-12 * inf must not swallow the gap above -inf
        values = np.array(values)
        assert rv.inference._atom_ranks(values).tolist() == ranks
        assert unique_atom_ranks(values).tolist() == ranks

    def test_ranks_follow_the_value_order(self):
        values = np.array([5.0, 1.0, 5.0 * (1.0 + 2**-52), 3.0, 1.0])
        assert rv.inference._atom_ranks(values).tolist() == [2, 0, 2, 1, 0]

    @pytest.mark.parametrize(
        "values",
        [
            [2.0, 1.0, 2.0, 2.0, 1.0, 3.0],
            [0.0, -0.0, 0.0, 1e-300, -0.0, 5e-324],
            [np.inf, 1.0, -np.inf, np.inf, 0.0, -np.inf, 1e308],
            [np.nan, 1.0, np.nan, np.inf, np.nan, 0.0, np.inf],
            [np.nan, np.nan],
            [7.0],
            # chains of neighbours 1e-12 apart, each gap on either side of the
            # tolerance by rounding alone
            1.0 + 1e-12 * np.arange(40.0),
            [(1.0 + 1e-12) ** k for k in range(-20, 20)] + [1.0 + 1e-12 * k for k in range(20)],
        ],
        ids=["duplicates", "signed-zeros", "infinities", "nans", "all-nan", "one", "chain",
             "chains"],
    )
    def test_ranks_equal_the_unique_reference(self, values):
        values = np.array(values, dtype=float)
        for shuffled in (values, np.random.default_rng(3).permutation(values)):
            got = rv.inference._atom_ranks(shuffled)
            assert got.dtype == np.int32
            assert got.tolist() == unique_atom_ranks(shuffled).tolist()

    def test_ranks_equal_the_unique_reference_across_slices(self):
        # several slices of the sorted values, with runs and chains crossing
        # the slice boundaries
        rng = np.random.default_rng(4)
        base = rng.normal(size=300)
        values = np.concatenate(
            [
                rng.choice(base, size=3 * enumeration._CHUNK),
                1.0 + 1e-12 * rng.integers(0, 2000, size=enumeration._CHUNK),
                [0.0, -0.0, np.inf, np.nan, np.inf, np.nan],
            ]
        )
        values = rng.permutation(values)
        assert rv.inference._atom_ranks(values).tolist() == unique_atom_ranks(values).tolist()


def _stream_mean_squares(table, space):
    """(S0^2, S1^2) of every assignment of the space in stream order, by the
    batch kernel of the exact path on each staged chunk."""
    chunks, _, _ = inference._staged(table, space)
    x = table.outcomes
    parts = [
        inference._batch_sums(row_tables(table.design, x[None], perms, x.mean(axis=(0, 1))), index)
        for perms, index in chunks
    ]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def _benchmark_rcb_4x4():
    """The integer RCB 4x4 of the exact benchmark at seed 1, whose 24
    assignments have F = 3 in exact arithmetic."""
    rng = np.random.default_rng(1)
    rng.normal(20.0, 15.0, size=(5, 5, 5))  # its LS of order 5 is drawn first
    x = np.rint(rng.normal(20.0, 15.0, size=(4, 4, 4)))
    return rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)


def _staging_table(tables, name):
    rng = np.random.default_rng(5)
    return tables.get(name) or (
        random_ls_table(rng, 5) if name == "ls5" else random_rcb_table(rng, 3, 4)
    )


def _enumerators_labels(table):
    """The exact space's label grids in enumeration order: RCB's mixed-radix
    digits (block 0 most significant) or the Latin-square row table, over
    the lexicographic permutation table."""
    n, _, t = table.outcomes.shape
    every = enumeration._permutation_table(t)
    if table.design is rv.DesignKind.LS:
        return every[enumeration._latin_square_rows(t)]
    return every[np.array(list(itertools.product(range(len(every)), repeat=n)))]


def _identical_blocks_rcb():
    # identical blocks: an assignment that permutes every block alike has
    # S0^2 = 0 < S1^2, every other a finite F
    return rv.PotentialOutcomeTable(
        rv.DesignKind.RCB, np.zeros((3, 3, 3)) + np.array([0.0, 1.0, 3.0])[:, None] + [0.1, 0.7, 2.9]
    )


class TestLabelChunks:
    """Label chunks joined by their bytes against the np.concatenate
    staging, and exact ranks by lookup against bisection."""

    @pytest.mark.parametrize(
        "name, space",
        [
            ("table1", None), ("table2", None), ("table3", None), ("table4", None),
            ("ls5", None), ("rcb3x4", None),
            # 81 grids a slice, 50 slices and a short one a chunk; 5,000
            # draws end a second chunk inside its twelfth slice
            ("rcb20x5", rv.RandomizationSpace.sample(5000, seed=1)),
            ("rcb3x4", rv.RandomizationSpace.sample(3000, seed=1)),
            ("ls8", rv.RandomizationSpace.sample(1000, seed=1)),
            ("ls3", rv.RandomizationSpace.sample(300, seed=1)),
            ("ls5", rv.RandomizationSpace.sample(300, seed=1, ls_measure="subgroup")),
            # T = 17: 408 bytes a grid, labels still uint8
            ("rcb3x17", rv.RandomizationSpace.sample(700, seed=1)),
        ],
    )
    def test_chunks_equal_the_concatenate_staging(self, tables, name, space):
        rng = np.random.default_rng(9)
        if name in tables:
            table = tables[name]
        elif name.startswith("ls"):
            table = random_ls_table(rng, int(name[2:]))
        else:
            table = random_rcb_table(rng, *map(int, name[3:].split("x")))
        space = space or rv.RandomizationSpace.exact()
        stream, count, _ = assignment_stream(table, space)
        got = inference._label_chunks(stream)
        want = concatenate_label_chunks(assignment_stream(table, space)[0])
        seen = 0
        for labels, reference in itertools.zip_longest(got, want):
            assert labels.dtype == reference.dtype and labels.shape == reference.shape
            assert labels.tobytes() == reference.tobytes()
            seen += len(labels)
        assert seen == count

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_rank_lookup_equals_bisection(self, t):
        # every permutation of T is a row of the table, so this is every key
        every = enumeration._permutation_table(t)
        keys = enumeration._row_keys(every)
        ranks = enumeration._permutation_ranks(every)
        assert ranks.dtype == np.min_scalar_type(len(every) - 1)
        np.testing.assert_array_equal(ranks[keys], np.searchsorted(keys, keys))


class TestSupportOrder:
    """Atoms grouped by an unstable argsort and ordered by one argsort of F
    with the ties re-sorted, against the stable-sort reference."""

    @pytest.mark.parametrize(
        "name", ["rcb4x4-integer", "table4", "constant", "infinite-f", "rcb20x5-sampled"]
    )
    def test_columns_equal_the_stable_sort_reference(self, tables, name):
        space = rv.RandomizationSpace.exact()
        if name == "rcb4x4-integer":
            x = np.round(np.random.default_rng(5).normal(20.0, 15.0, size=(4, 4, 4)))
            table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, x)
        elif name == "table4":
            table = tables["table4"]
        elif name == "constant":
            table = rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.full((3, 3, 3), 2.0))
        elif name == "infinite-f":
            table = _identical_blocks_rcb()
        else:
            table = random_rcb_table(np.random.default_rng(8), 20, 5)
            space = rv.RandomizationSpace.sample(20000, seed=3)
        summary = rv.exact_distribution(table, space)
        want = stable_support_columns(*_stream_mean_squares(table, space))
        got = (summary.f_stat, summary.s0_sq, summary.s1_sq, summary.counts)
        for column, expected in zip(got, want):
            assert column.dtype == expected.dtype
            assert column.tobytes() == expected.tobytes()
        f = summary.f_stat
        if name == "rcb4x4-integer":
            assert np.count_nonzero(f[1:] == f[:-1]) > 100  # runs of tied F
        elif name == "table4":
            assert len(f) == 2 and (summary.counts > 1).all()
        elif name == "constant":
            assert np.isnan(f).all()
        elif name == "infinite-f":
            assert np.isinf(f).any() and np.isfinite(f).any()

    def test_ties_crossing_a_slice_boundary_match_lexsort(self):
        # sorted F holds a run of equal values across the first _CHUNK slice
        # boundary, runs of signed zeros, infinities and NaNs; S0^2 ties
        # within runs leave the first appearance to decide
        k = enumeration._CHUNK
        rng = np.random.default_rng(12)
        f = np.concatenate(
            [
                [0.0, -0.0] * 20,
                np.linspace(1.0, 2.0, k - 100),
                np.full(300, 2.5),
                np.linspace(3.0, 4.0, 500),
                [np.inf] * 30,
                [np.nan] * 30,
            ]
        )
        order = rng.permutation(len(f))
        f = f[order]
        s0 = rng.integers(0, 4, size=len(f)).astype(float)
        s0[rng.random(len(f)) < 0.1] = -0.0
        first = rng.permutation(len(f))
        got = inference._support_order(f, s0, first)
        assert got.tolist() == np.lexsort((first, s0, f)).tolist()


def _exact_mean_squares(table, assignment):
    """(S0^2, S1^2) of one assignment in exact rational arithmetic."""
    y = [[Fraction(v) for v in row] for row in observed_by_loops(table, assignment).tolist()]
    grid = assignment.labels().tolist()
    n, t = len(y), len(y[0])
    cells = [(i, j) for i in range(n) for j in range(t)]
    row_means = [sum(row) / t for row in y]
    grand = sum(row_means) / n
    if table.design is rv.DesignKind.RCB:
        df1, df0 = t - 1, (n - 1) * (t - 1)
        group_means = [sum(row[k] for row in y) / n for k in range(t)]
        resid = [y[i][k] - group_means[k] - row_means[i] + grand for i, k in cells]
    else:
        df1, df0 = t - 1, (t - 1) * (t - 2)
        group_means = [sum(y[i][j] for i, j in cells if grid[i][j] == k) / t for k in range(t)]
        col_means = [sum(row[j] for row in y) / t for j in range(t)]
        resid = [
            y[i][j] - row_means[i] - col_means[j] - group_means[grid[i][j]] + 2 * grand
            for i, j in cells
        ]
    s0 = sum(r * r for r in resid) / df0
    s1 = Fraction(n, df1) * sum((m - grand) ** 2 for m in group_means)
    return s0, s1


@pytest.mark.parametrize("design", [rv.DesignKind.RCB, rv.DesignKind.LS])
@pytest.mark.parametrize("seed", range(6))
def test_atoms_are_the_distinct_exact_values(design, seed):
    """On integer tables the atoms, and their counts, are the distinct exact
    rational values of (S0^2, S1^2) over all assignments."""
    rng = np.random.default_rng(4100 + seed)
    shape = (3, 3, 3) if design is rv.DesignKind.RCB else (4, 4, 4)
    table = rv.PotentialOutcomeTable(design, rng.integers(0, 4, size=shape).astype(float))
    exact = Counter(_exact_mean_squares(table, a) for a in all_assignments(table))
    summary = rv.exact_distribution(table)
    assert len(summary.counts) == len(exact)
    for s0, s1, count in zip(summary.s0_sq, summary.s1_sq, summary.counts):
        matches = [
            pair
            for pair in exact
            if math.isclose(s0, pair[0], rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(s1, pair[1], rel_tol=1e-9, abs_tol=1e-12)
        ]
        assert len(matches) == 1
        assert exact[matches[0]] == count
        # the zero rule: a float zero is an exact zero and the converse
        assert (s0 == 0.0) == (matches[0][0] == 0)
        assert (s1 == 0.0) == (matches[0][1] == 0)


@pytest.mark.parametrize("design, shape", [("ls", (4, 4, 4)), ("rcb", (4, 3, 3))])
def test_large_treatment_effects_keep_every_mean_square_exact(design, shape):
    """Treatment effects of about 100 beside 1e-7 unit noise: every atom of
    S0^2 and S1^2 is within 1e-12 relative of the exact rational values of
    its assignments, and the counts add up."""
    rng = np.random.default_rng(4200)
    taus = rng.normal(0.0, 100.0, size=shape[2])
    x = taus + 1e-7 * rng.normal(size=shape)
    table = rv.PotentialOutcomeTable(design, x)
    exact = Counter(_exact_mean_squares(table, a) for a in all_assignments(table))
    summary = rv.exact_distribution(table)
    assert summary.assignment_count == sum(exact.values())
    for s0, s1, count in zip(summary.s0_sq, summary.s1_sq, summary.counts):
        matches = [
            pair
            for pair in exact
            if math.isclose(s0, pair[0], rel_tol=1e-12, abs_tol=0.0)
            and math.isclose(s1, pair[1], rel_tol=1e-12, abs_tol=0.0)
        ]
        assert sum(exact[pair] for pair in matches) == count


_GRID3 = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])


def _ls3(k: float) -> rv.PotentialOutcomeTable:
    return rv.PotentialOutcomeTable(rv.DesignKind.LS, 2.0 + k * np.arange(27.0).reshape(3, 3, 3))


# each value type built from inputs that depend on k; k = 0 gives a constant
# LS table, whose F atoms are all NaN
VALUE_FACTORIES = {
    "PotentialOutcomeTable": lambda k: _ls3(k),
    "Decomposition": lambda k: rv.decompose(_ls3(k)),
    "AdditivityReport": lambda k: rv.check_additivity(
        rv.PotentialOutcomeTable(rv.DesignKind.LS, np.broadcast_to([0.0, 1.5, 4.0 + k], (3, 3, 3)))
    ),
    "Assignment": lambda k: rv.Assignment(rv.DesignKind.LS, np.roll(_GRID3, k, axis=0)),
    "ObservedExperiment": lambda k: rv.observe(
        _ls3(1.0), rv.Assignment(rv.DesignKind.LS, np.roll(_GRID3, k, axis=0))
    ),
    "SurvivalCurve": lambda k: rv.survival_curve(_ls3(1.0), cutoff_grid=[0.5, 1.0 + k]),
    "RandomizationSummary": lambda k: rv.exact_distribution(_ls3(k)),
}


def test_constructors_leave_the_callers_arrays_writeable():
    grid = np.array([[0, 1], [1, 0]])
    assert not rv.Assignment(rv.DesignKind.RCB, grid).grid.flags.writeable
    columns = [np.array([2.0]), np.array([1.0]), np.array([2.0]), np.array([1])]
    summary = rv.RandomizationSummary(rv.DesignKind.RCB, *columns, 1.0, 2.0, True, 1, 1, 1)
    assert not summary.counts.flags.writeable
    cutoffs = np.array([0.5, 1.0])
    curve = rv.survival_curve(_ls3(1.0), cutoff_grid=cutoffs)
    assert not curve.cutoffs.flags.writeable
    assert all(a.flags.writeable for a in [grid, *columns, cutoffs])


class TestProbabilityQuery:
    @staticmethod
    def _summary():
        # F atoms 0.5, 2.0, inf (S0^2 = 0 < S1^2) and NaN (0/0): 1, 2, 3, 4 assignments
        return rv.RandomizationSummary(
            design=rv.DesignKind.RCB,
            f_stat=np.array([0.5, 2.0, np.inf, np.nan]),
            s0_sq=np.array([2.0, 1.0, 0.0, 0.0]),
            s1_sq=np.array([1.0, 2.0, 3.0, 0.0]),
            counts=np.array([1, 2, 3, 4]),
            mean_s0=0.4,
            mean_s1=1.4,
            is_exact=True,
            assignment_count=10,
            df_treatment=2,
            df_residual=2,
        )

    def test_strict_at_an_atom(self):
        summary = self._summary()
        assert summary.probability_f_above(0.5) == 5 / 10
        assert summary.probability_f_above(np.nextafter(0.5, 0.0)) == 6 / 10
        assert summary.probability_f_above(2.0) == 3 / 10

    def test_tails(self):
        summary = self._summary()
        # below the smallest F: everything but the NaN mass
        assert summary.probability_f_above(-1.0) == 1.0 - 4 / 10
        assert summary.probability_f_above(-math.inf) == 6 / 10
        # above the largest finite F: only the infinite atoms
        assert summary.probability_f_above(1e300) == 3 / 10
        assert summary.probability_f_above(math.inf) == 0.0
        assert summary.probability_f_above(math.nan) == 0.0

    def test_support_is_built_from_the_columns(self):
        support = self._summary().support
        assert [p.probability for p in support] == [0.1, 0.2, 0.3, 0.4]
        assert [p.s0_sq for p in support] == [2.0, 1.0, 0.0, 0.0]
        assert support[2].f_stat == math.inf and math.isnan(support[3].f_stat)

    @pytest.mark.parametrize("kind", VALUE_FACTORIES)
    def test_equal_summaries_compare_equal(self, kind):
        # two values built apart from equal inputs, and one from other inputs
        a, b, c = (VALUE_FACTORIES[kind](k) for k in (0, 0, 1))
        assert type(a).__name__ == kind
        assert a == b and not a != b
        assert a != c and not a == c

    @pytest.mark.parametrize("kind", VALUE_FACTORIES)
    def test_equal_summaries_hash_equal(self, kind):
        a, b, c = (VALUE_FACTORIES[kind](k) for k in (0, 0, 1))
        assert hash(a) == hash(b)
        assert len({a, b}) == 1 and len({a, b, c}) == 2

    def test_summaries_equal_in_other_bits_hash_equal(self):
        summary = self._summary()
        # another NaN bit pattern and a negative zero: equal, so the same hash
        other_nan = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), dtype=float)[0]
        twin = dataclasses.replace(
            summary,
            f_stat=np.array([0.5, 2.0, np.inf, other_nan]),
            s0_sq=np.array([2.0, 1.0, -0.0, 0.0]),
        )
        assert twin == summary and hash(twin) == hash(summary)

    def test_strict_on_a_real_table(self, tables):
        summary = rv.exact_distribution(tables["table3"])
        n = summary.assignment_count
        for f in summary.f_stat[np.isfinite(summary.f_stat)].tolist():
            above = sum(p.probability * n for p in summary.support if p.f_stat > f)
            assert summary.probability_f_above(f) * n == pytest.approx(above, abs=1e-9)

    @pytest.mark.parametrize("name", ["table2", "table3"])
    def test_matches_the_sum_over_atoms_within_one_ulp(self, tables, name):
        summary = rv.exact_distribution(tables[name])
        grid = rv.survival_curve(tables[name]).cutoffs.tolist()
        grid += summary.f_stat.tolist() + [-1.0, math.inf]
        for k in grid:
            old = math.fsum(p.probability for p in summary.support if p.f_stat > k)
            new = summary.probability_f_above(k)
            assert abs(new - old) <= math.ulp(old)


def _bound_tables(design, shape):
    """A table with max|x| = 1, and it scaled so that units * max|x| is
    2^480, the largest validate accepts, and the next float above."""
    x = np.random.default_rng(8).uniform(-1.0, 1.0, size=shape)
    x[0, 0, 0] = 1.0
    scale = 2.0**480 / (shape[0] * shape[1])
    return [
        rv.PotentialOutcomeTable(design, x * s)
        for s in (1.0, scale, np.nextafter(scale, np.inf))
    ]


@pytest.mark.parametrize("design,shape", [("rcb", (2, 4, 4)), ("ls", (4, 4, 4))])
def test_largest_allowed_outcomes_scale_exactly(design, shape):
    # scaling by a power of two is exact, so at the bound every statistic is
    # the unit table's times a power of two: nothing overflowed
    unit, largest, _ = _bound_tables(design, shape)
    k = 480 - int(np.log2(shape[0] * shape[1]))
    small, big = rv.exact_distribution(unit), rv.exact_distribution(largest)
    np.testing.assert_array_equal(big.f_stat, small.f_stat)
    np.testing.assert_array_equal(big.s0_sq, np.ldexp(small.s0_sq, 2 * k))
    np.testing.assert_array_equal(big.counts, small.counts)
    assert big.mean_s0 == math.ldexp(small.mean_s0, 2 * k)
    assert big.mean_s1 == math.ldexp(small.mean_s1, 2 * k)
    assert rv.type1_error(largest).rejection_probability == rv.type1_error(unit).rejection_probability
    ems = rv.expected_ms(largest)
    assert ems.e_s0 == math.ldexp(rv.expected_ms(unit).e_s0, 2 * k)
    assert math.isfinite(ems.e_s1)


@pytest.mark.parametrize("design,shape", [("rcb", (2, 4, 4)), ("ls", (4, 4, 4))])
@pytest.mark.parametrize("call", [rv.validate, rv.exact_distribution, rv.expected_ms])
def test_outcomes_beyond_the_magnitude_bound_rejected(design, shape, call):
    too_large = _bound_tables(design, shape)[2]
    with pytest.raises(rv.NonFiniteEntry, match="outcomes too large"):
        call(too_large)
