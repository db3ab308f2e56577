import randova as rv

PUBLIC_NAMES = {
    "AdditivityReport", "Assignment", "CheckResult", "Decomposition",
    "DegenerateDesign", "DesignKind", "DimensionMismatch", "ExpectedMeanSquares", "FReference",
    "InvalidAlpha", "InvalidArgument", "InvalidDegreesOfFreedom", "InvalidProbability",
    "LsMeasure", "MonteCarloReport", "NegativeArgument", "NegativeErrorSd", "NonFiniteEntry",
    "ObservedExperiment", "ParseError", "PotentialOutcomeTable", "RandomizationSpace",
    "RandomizationSummary", "RandovaError", "SameTreatment", "ShapeMismatch", "SpaceTooLarge",
    "SupportPoint", "SurvivalCurve", "TechnicalErrorsPresent", "Type1Report", "WrongDesign",
    "anova", "check_additivity", "decompose", "dumps_report", "exact_distribution",
    "expected_ms", "f_quantile", "f_survival", "load_bundled_table", "load_bundled_tables",
    "load_table", "ls_difference_decomposition", "mean_difference_variance",
    "monte_carlo_with_errors", "observe", "report_document", "run_reproduction",
    "space_cardinality", "survival_curve", "table_to_document", "type1_error", "validate",
}


def test_public_names_are_pinned():
    assert len(rv.__all__) == len(PUBLIC_NAMES) == 54
    assert set(rv.__all__) == PUBLIC_NAMES
    # every space is entered through enumeration.assignment_stream alone,
    # and the null checks are read through Type1Report.null_status
    for name in ("enumerate_rcb", "enumerate_latin_squares", "sample_rcb", "sample_latin_squares"):
        assert not hasattr(rv.enumeration, name), name
    for name in ("neyman_null_holds", "fisher_sharp_null_holds"):
        assert not hasattr(rv, name) and hasattr(rv.potential_outcomes, name), name
    # raised by fdist alone: not exported, but still a RandovaError
    assert issubclass(rv.errors.ConvergenceFailure, rv.RandovaError)


def test_every_public_name_resolves():
    for name in rv.__all__:
        assert getattr(rv, name) is not None, name
