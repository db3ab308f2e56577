"""randova: exact randomization inference for RCB and Latin square designs.

The package computes, from a full table of potential outcomes:

- exact finite-population decompositions (fertility corrections, residual
  variances and correlations) and additivity diagnostics;
- corrected closed-form expectations of the ANOVA mean sums of squares,
  the historical (incorrect) variants, and the interaction terms separating
  them;
- the exact randomization distribution of (S0^2, S1^2, F) by enumerating
  per-block permutations or Latin squares (or uniform sampling beyond the
  enumeration cap), the resulting Type I error of the standard F-test, and
  survival curves against the F reference distribution;
- a Monte Carlo study of the F-test under Normal technical errors.

All operations are pure functions over immutable values and are safe to call
concurrently.
"""

from .anova import AnovaSummary, ObservedExperiment, anova, observe
from .documents import (
    dumps_report,
    load_table,
    report_document,
    table_from_document,
    table_to_document,
)
from .enumeration import (
    Assignment,
    LsMeasure,
    RandomizationSpace,
    enumerate_latin_squares,
    enumerate_rcb,
    latin_square_count,
    rcb_space_size,
    sample_latin_squares,
    sample_rcb,
    space_cardinality,
)
from .errors import (
    ConvergenceFailure,
    DegenerateDesign,
    DimensionMismatch,
    InvalidAlpha,
    InvalidArgument,
    InvalidDegreesOfFreedom,
    InvalidProbability,
    NegativeArgument,
    NegativeErrorSd,
    NonFiniteEntry,
    ParseError,
    RandovaError,
    SameTreatment,
    ShapeMismatch,
    SpaceTooLarge,
    TechnicalErrorsPresent,
    WrongDesign,
)
from .expected_ms import (
    ExpectedMeanSquares,
    LsDifferenceDecomposition,
    MeanDifferenceVariance,
    expected_ms,
    ls_difference_decomposition,
    mean_difference_variance,
)
from .fdist import FReference, f_quantile, f_survival, regularized_incomplete_beta
from .inference import (
    MonteCarloReport,
    NullStatus,
    RandomizationSummary,
    SupportPoint,
    SurvivalCurve,
    Type1Report,
    exact_distribution,
    monte_carlo_with_errors,
    survival_curve,
    type1_error,
)
from .potential_outcomes import (
    AdditivityReport,
    Decomposition,
    DesignKind,
    PotentialOutcomeTable,
    check_additivity,
    decompose,
    fisher_sharp_null_holds,
    neyman_null_holds,
    validate,
)
from .reproduce import (
    CheckResult,
    load_bundled_table,
    load_bundled_tables,
    run_reproduction,
)

__version__ = "0.1.0"

__all__ = [
    "AdditivityReport",
    "AnovaSummary",
    "Assignment",
    "CheckResult",
    "ConvergenceFailure",
    "Decomposition",
    "DegenerateDesign",
    "DesignKind",
    "DimensionMismatch",
    "ExpectedMeanSquares",
    "FReference",
    "InvalidAlpha",
    "InvalidArgument",
    "InvalidDegreesOfFreedom",
    "InvalidProbability",
    "LsDifferenceDecomposition",
    "LsMeasure",
    "MeanDifferenceVariance",
    "MonteCarloReport",
    "NegativeArgument",
    "NegativeErrorSd",
    "NonFiniteEntry",
    "NullStatus",
    "ObservedExperiment",
    "ParseError",
    "PotentialOutcomeTable",
    "RandomizationSpace",
    "RandomizationSummary",
    "RandovaError",
    "SameTreatment",
    "ShapeMismatch",
    "SpaceTooLarge",
    "SupportPoint",
    "SurvivalCurve",
    "TechnicalErrorsPresent",
    "Type1Report",
    "WrongDesign",
    "anova",
    "check_additivity",
    "decompose",
    "dumps_report",
    "enumerate_latin_squares",
    "enumerate_rcb",
    "exact_distribution",
    "expected_ms",
    "f_quantile",
    "f_survival",
    "fisher_sharp_null_holds",
    "latin_square_count",
    "load_bundled_table",
    "load_bundled_tables",
    "load_table",
    "ls_difference_decomposition",
    "mean_difference_variance",
    "monte_carlo_with_errors",
    "neyman_null_holds",
    "observe",
    "rcb_space_size",
    "regularized_incomplete_beta",
    "report_document",
    "run_reproduction",
    "sample_latin_squares",
    "sample_rcb",
    "space_cardinality",
    "survival_curve",
    "table_from_document",
    "table_to_document",
    "type1_error",
    "validate",
]
