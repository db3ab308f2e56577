import math

import numpy as np
import pytest

import randova as rv
from randova.potential_outcomes import fisher_sharp_null_holds
from randova.enumeration import assignment_stream
from helpers import exact_stream, zero_table

ZEROS = np.zeros((2, 2, 2))
EXACT = rv.RandomizationSpace.exact()
SAMPLED = rv.RandomizationSpace.sample(5, seed=1)

BAD_SEEDS = {
    "negative seed of a sampled space": lambda: rv.RandomizationSpace.sample(5, seed=-1),
    "float seed of a sampled space": lambda: rv.RandomizationSpace.sample(5, seed=1.5),
    "bool seed of a sampled space": lambda: rv.RandomizationSpace.sample(5, seed=True),
    "str seed of a sampled space": lambda: rv.RandomizationSpace.sample(5, seed="3"),
    "negative mc seed": lambda: rv.monte_carlo_with_errors(
        rv.load_bundled_table("table4"), replications=2, seed=-3
    ),
    "bool mc seed": lambda: rv.monte_carlo_with_errors(
        rv.load_bundled_table("table4"), replications=2, seed=False
    ),
}

BAD_SETTINGS = {
    "zero mc replications": lambda: rv.monte_carlo_with_errors(
        rv.load_bundled_table("table4"), replications=0
    ),
    "fractional mc replications": lambda: rv.monte_carlo_with_errors(
        rv.load_bundled_table("table4"), replications=2.5
    ),
    "fractional sample size": lambda: rv.RandomizationSpace.sample(2.5, seed=1),
    "str sample size": lambda: rv.RandomizationSpace.sample("5", seed=1),
    "str burn_in": lambda: rv.RandomizationSpace.sample(5, seed=1, burn_in="3"),
    "fractional grid points": lambda: rv.survival_curve(
        rv.load_bundled_table("table2"), grid_points=2.5
    ),
    "str additivity tolerance": lambda: rv.check_additivity(
        rv.PotentialOutcomeTable(rv.DesignKind.RCB, ZEROS), tolerance="x"
    ),
    "NaN additivity tolerance": lambda: rv.check_additivity(
        rv.PotentialOutcomeTable(rv.DesignKind.RCB, ZEROS), tolerance=math.nan
    ),
    "fractional labels": lambda: rv.Assignment(rv.DesignKind.RCB, [[0.5, 1], [1, 0]]),
    "ragged label grid": lambda: rv.Assignment(rv.DesignKind.RCB, [[0, 1], [1]]),
    "str label grid": lambda: rv.Assignment(rv.DesignKind.RCB, [["0", "1"], ["1", "0"]]),
    "unknown design of a table": lambda: rv.PotentialOutcomeTable("xx", ZEROS),
    "ragged outcomes": lambda: rv.PotentialOutcomeTable("rcb", [[[0.0, 1.0], [1.0]]]),
    "missing outcomes": lambda: rv.PotentialOutcomeTable("rcb", None),
    "str technical error sd": lambda: rv.PotentialOutcomeTable(
        "rcb", ZEROS, technical_error_sd="x"
    ),
    "numeric str technical error sd": lambda: rv.PotentialOutcomeTable(
        "rcb", ZEROS, technical_error_sd="0.1"
    ),
    "bool technical error sd": lambda: rv.PotentialOutcomeTable(
        "rcb", ZEROS, technical_error_sd=True
    ),
    "technical error sd beyond the float range": lambda: rv.PotentialOutcomeTable(
        "rcb", ZEROS, technical_error_sd=10**400
    ),
    # 1 - alpha rounds to 1 below about 1.1e-16
    "type1 alpha below the rounding of 1 - alpha": lambda: rv.type1_error(
        rv.load_bundled_table("table4"), alpha=1e-300
    ),
    "mc alpha below the rounding of 1 - alpha": lambda: rv.monte_carlo_with_errors(
        rv.load_bundled_table("table4"), alpha=1e-17
    ),
    "fractional summary counts": lambda: rv.RandomizationSummary(
        "rcb", [1.0], [1.0], [1.0], [0.5], 1.0, 1.0, True, 1, 1, 1
    ),
    "negative sample size": lambda: rv.RandomizationSpace.sample(-1, seed=0),
    "empty sample": lambda: rv.RandomizationSpace.sample(0, seed=1),
    # refused before any replication runs: each one's probability is kept
    "mc replications above the enumeration cap": lambda: rv.monte_carlo_with_errors(
        rv.load_bundled_table("table4"), replications=10_000_001
    ),
    "mc over an empty sample": lambda: rv.monte_carlo_with_errors(
        rv.load_bundled_table("table4"), space=rv.RandomizationSpace.sample(0, seed=1)
    ),
    "one grid point": lambda: rv.survival_curve(
        rv.load_bundled_table("table2"), grid_points=1
    ),
    # refused before the grid is built: 10^11 points would take 745 GiB
    "grid points above the enumeration cap": lambda: rv.survival_curve(
        rv.load_bundled_table("table2"), grid_points=100_000_000_000
    ),
    "NaN cutoff": lambda: rv.survival_curve(
        rv.load_bundled_table("table2"), cutoff_grid=[1.0, float("nan")]
    ),
    "infinite cutoff": lambda: rv.survival_curve(
        rv.load_bundled_table("table2"), cutoff_grid=[float("inf")]
    ),
    "negative cutoff": lambda: rv.survival_curve(
        rv.load_bundled_table("table2"), cutoff_grid=[-1.0, 2.0]
    ),
    "2-d cutoff grid": lambda: rv.survival_curve(
        rv.load_bundled_table("table2"), cutoff_grid=[[1.0, 2.0], [3.0, 4.0]]
    ),
    "non-numeric cutoff grid": lambda: rv.survival_curve(
        rv.load_bundled_table("table2"), cutoff_grid=["high"]
    ),
    "negative additivity tolerance": lambda: rv.check_additivity(
        rv.PotentialOutcomeTable(rv.DesignKind.RCB, ZEROS), tolerance=-1.0
    ),
    "unknown bundled table": lambda: rv.load_bundled_table("x"),
    "sampled space without seed": lambda: rv.exact_distribution(
        rv.load_bundled_table("table2"), rv.RandomizationSpace(sample_size=10)
    ),
    "negative size of a space built directly": lambda: rv.RandomizationSpace(
        sample_size=-5, seed=1
    ),
    "burn_in of a space built directly": lambda: rv.RandomizationSpace(
        sample_size=5, seed=1, burn_in=0
    ),
    "seed of an exact space": lambda: rv.RandomizationSpace(seed=1),
    "burn_in of an exact space": lambda: rv.RandomizationSpace(burn_in=5),
    "ls_measure of an exact space": lambda: rv.RandomizationSpace(ls_measure="all"),
    **BAD_SEEDS,
    "unknown measure of a sampled space": lambda: rv.RandomizationSpace.sample(
        10, seed=1, ls_measure="bogus"
    ),
    "unknown design of a space": lambda: rv.space_cardinality("xx", 2, 2),
    # arguments of the wrong type, which would otherwise end in AttributeError
    "no table for type1": lambda: rv.type1_error(None),
    "no table for expected mean squares": lambda: rv.expected_ms(None),
    "no table for the LS difference decomposition": lambda: rv.ls_difference_decomposition(None),
    "no table for the sharp null": lambda: fisher_sharp_null_holds(None),
    "str space of an exact distribution": lambda: rv.exact_distribution(
        rv.load_bundled_table("table2"), "exact"
    ),
    "no space for type1": lambda: rv.type1_error(rv.load_bundled_table("table2"), space=None),
    "no assignment to observe": lambda: rv.observe(rv.load_bundled_table("table2"), None),
    "str table of an exact stream": lambda: assignment_stream("table2", EXACT),
    "str table of a sampled stream": lambda: assignment_stream("table2", SAMPLED),
    "no space of a stream": lambda: assignment_stream(rv.load_bundled_table("table2"), None),
    "int name of a table": lambda: rv.PotentialOutcomeTable("rcb", ZEROS, name=5),
    "bool outcomes": lambda: rv.PotentialOutcomeTable("rcb", np.ones((2, 3, 3), bool)),
    "bool labels": lambda: rv.Assignment("rcb", [[True, False], [False, True]]),
    "no table to write as a document": lambda: rv.table_to_document(None),
    "str cutoff of a probability query": lambda: rv.exact_distribution(
        rv.load_bundled_table("table2")
    ).probability_f_above("x"),
    "bool cutoff of a probability query": lambda: rv.exact_distribution(
        rv.load_bundled_table("table2")
    ).probability_f_above(True),
}


@pytest.mark.parametrize("case", BAD_SETTINGS)
def test_bad_setting_raises_invalid_argument(case):
    with pytest.raises(rv.InvalidArgument) as excinfo:
        BAD_SETTINGS[case]()
    # callers may catch it as either
    assert isinstance(excinfo.value, rv.RandovaError)
    assert isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize("setting", ["seed", "burn_in", "ls_measure"])
def test_sampler_setting_of_an_exact_space_is_named(setting):
    # an exact traversal would ignore it and silently give the exact answer
    with pytest.raises(rv.InvalidArgument, match=setting):
        BAD_SETTINGS[f"{setting} of an exact space"]()


@pytest.mark.parametrize("case", BAD_SEEDS)
def test_bad_seed_is_named(case):
    with pytest.raises(rv.InvalidArgument, match="seed must be an integer >= 0"):
        BAD_SEEDS[case]()


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_enum_cap_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv(rv.enumeration.ENUM_CAP_ENV_VAR, raw)
    with pytest.raises(rv.InvalidArgument):
        exact_stream("rcb", 2, 2)


BAD_SIZES = {
    "RCB space with no blocks": lambda: rv.space_cardinality(rv.DesignKind.RCB, 0, 3),
    "RCB space with negative blocks": lambda: rv.space_cardinality(rv.DesignKind.RCB, -1, 3),
    "RCB space with negative treatments": lambda: rv.space_cardinality(rv.DesignKind.RCB, 2, -1),
    "RCB space with no treatments": lambda: rv.space_cardinality(rv.DesignKind.RCB, 2, 0),
    "RCB space with fractional blocks": lambda: rv.space_cardinality(rv.DesignKind.RCB, 2.0, 2),
    "fractional treatment index": lambda: rv.mean_difference_variance(
        rv.load_bundled_table("table2"), 0.5, 1
    ),
    "exact stream of an RCB table with no blocks": lambda: assignment_stream(
        zero_table("rcb", 0, 3), EXACT
    ),
    "sampled stream of an RCB table with no blocks": lambda: assignment_stream(
        zero_table("rcb", 0, 3), SAMPLED
    ),
    "sampled stream of an RCB table with no treatments": lambda: assignment_stream(
        zero_table("rcb", 3, 0), SAMPLED
    ),
    "exact stream of a Latin-square table of order 0": lambda: assignment_stream(
        zero_table("ls", 0, 0), EXACT
    ),
    "sampled stream of a Latin-square table of order 0": lambda: assignment_stream(
        zero_table("ls", 0, 0), SAMPLED
    ),
    "Latin-square count of order 0": lambda: rv.space_cardinality("ls", 1, 0),
    "Latin-square count of negative order": lambda: rv.space_cardinality("ls", -3, -3),
    "Latin-square space of order 0": lambda: rv.space_cardinality(rv.DesignKind.LS, 0, 0),
    "Latin-square sampler settings of order 0": lambda: rv.enumeration.ls_sampler_settings(0),
    "Latin-square sampler settings of a str order": lambda: (
        rv.enumeration.ls_sampler_settings("x")
    ),
}


@pytest.mark.parametrize("case", BAD_SIZES)
def test_bad_size_raises_dimension_mismatch(case):
    with pytest.raises(rv.DimensionMismatch):
        BAD_SIZES[case]()


def test_bad_size_message_says_integers_and_shows_each_value():
    # a numpy integer is refused, and its repr shows why
    with pytest.raises(rv.DimensionMismatch) as refused:
        rv.space_cardinality("rcb", np.int64(3), 3)
    assert str(refused.value) == (
        "sizes must be integers >= 1, got num_blocks=np.int64(3), num_treatments=3"
    )


def test_reproduction_names_the_missing_tables():
    # it ended in a bare KeyError on the first table it lacked
    with pytest.raises(rv.InvalidArgument, match="missing table2, table3, table4$"):
        rv.run_reproduction({"table1": rv.load_bundled_table("table1")})


@pytest.mark.parametrize(
    "tables, given",
    [(5, "int"), (int, "type"), ("table1 table2 table3 table4", "str")],
    ids=["int", "class", "str of the names"],
)
def test_reproduction_refuses_what_is_not_a_mapping(tables, given):
    # each ended in a bare TypeError; the str of the names passed the
    # missing-table check as substrings
    with pytest.raises(rv.InvalidArgument, match=f"got {given}$"):
        rv.run_reproduction(tables)
