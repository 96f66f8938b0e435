"""Exact Hilbert-series toolkit for graded algebras and finite group actions:
Veronese sections, Molien sums, cyclotomic/Gorenstein classification,
quasi-bireflection tests and truncated minimal-resolution Betti numbers."""

from importlib import resources

from .algebras import (
    BettiTable,
    NotAnAutomorphismError,
    NotNormalError,
    NotRegularError,
    Presentation,
    Truncation,
    betti_numbers,
    brute_force_trace,
    build_truncation,
    euler_check,
    ext_growth,
    free_algebra,
    monomial_quotient,
    normal_quotient,
    quantum_affine,
    skew_symmetric_q,
    tor_inequalities,
)
from .cyclofield import CyclotomicMatrix, CyclotomicNumber, FieldFraction
from .cyclotomic import (
    BinomialProfile,
    CyclotomicFactorization,
    cyc_number,
    cyclotomic_polynomial,
    euler_phi,
    factor_cyclotomic,
    gorenstein_symmetry,
    is_cyclotomic,
    mobius,
)
from .exact import (
    AmbiguousDataError,
    NonUnitConstantError,
    NoSolutionError,
    Poly,
    RationalFunction,
    Series,
    ZeroDenominatorError,
    expand,
    normalize,
    one_minus_power,
    poly_gcd,
    reconstruct,
)
from .groups import (
    CapExceededError,
    IndexMismatchError,
    MatrixGroup,
    NonRationalResultError,
    TooLargeError,
    TraceAssignment,
    assign_charpoly_traces,
    classical_bireflection_rank,
    classify_pole,
    closure,
    generated_by_quasi_bireflections,
    hdet,
    molien,
    pole_classifications,
    reciprocal_charpoly_trace,
    subgroups,
)
from .hilbert import quotient_series, veronese_section
from .reports import ClassificationReport, classify_group, classify_series
from .scenario import (
    ParseError,
    Scenario,
    UndeclaredInputError,
    parse_matrix_literal,
    parse_scenario,
    parse_series_literal,
    run_scenario,
)

__version__ = "0.1.0"


def bundled_scenario_names():
    root = resources.files(__name__) / "scenarios"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".scn"))


def load_bundled_scenario(name):
    root = resources.files(__name__) / "scenarios"
    return (root / name).read_text(encoding="utf-8")
