import numpy as np
import pytest

import randova as rv

BAD_SETTINGS = {
    "zero mc replications": lambda: rv.monte_carlo_with_errors(
        rv.load_bundled_table("table4"), replications=0
    ),
    "negative sample size": lambda: rv.RandomizationSpace.sample(-1, seed=0),
    "empty sample": lambda: rv.RandomizationSpace.sample(0, seed=1),
    "mc over an empty sample": lambda: rv.monte_carlo_with_errors(
        rv.load_bundled_table("table4"), space=rv.RandomizationSpace.sample(0, seed=1)
    ),
    "one grid point": lambda: rv.survival_curve(
        rv.load_bundled_table("table2"), grid_points=1
    ),
    "negative additivity tolerance": lambda: rv.check_additivity(
        rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.zeros((2, 2, 2))), tolerance=-1.0
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
    "unknown measure of a sampled space": lambda: rv.RandomizationSpace.sample(
        10, seed=1, ls_measure="bogus"
    ),
    "unknown measure of the Latin-square sampler": lambda: rv.sample_latin_squares(
        4, 3, seed=1, measure="bogus"
    ),
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


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_enum_cap_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv(rv.enumeration.ENUM_CAP_ENV_VAR, raw)
    with pytest.raises(rv.InvalidArgument):
        rv.enumerate_rcb(2, 2)


BAD_SIZES = {
    "RCB space with no blocks": lambda: rv.space_cardinality(rv.DesignKind.RCB, 0, 3),
    "RCB space with negative blocks": lambda: rv.rcb_space_size(-1, 3),
    "RCB space with negative treatments": lambda: rv.rcb_space_size(2, -1),
    "RCB enumeration with no treatments": lambda: rv.enumerate_rcb(2, 0),
    "RCB sampler with no blocks": lambda: rv.sample_rcb(0, 3, 5, seed=1),
    "RCB sampler with no treatments": lambda: rv.sample_rcb(3, 0, 5, seed=1),
    "Latin-square enumeration of order 0": lambda: rv.enumerate_latin_squares(0),
    "Latin-square sampler of order 0": lambda: rv.sample_latin_squares(0, 3, seed=1),
    "Latin-square count of order 0": lambda: rv.latin_square_count(0),
    "Latin-square count of negative order": lambda: rv.latin_square_count(-3),
    "Latin-square space of order 0": lambda: rv.space_cardinality(rv.DesignKind.LS, 0, 0),
}


@pytest.mark.parametrize("case", BAD_SIZES)
def test_bad_size_raises_dimension_mismatch(case):
    with pytest.raises(rv.DimensionMismatch):
        BAD_SIZES[case]()
