"""Exact certification toolkit for reflection matrices of priority networks.

The package derives reflection matrices of multiclass static-priority
queueing networks, classifies square rational matrices (completely-S, P, M,
positive definite), and certifies or refutes the uniqueness of the all-ones
solution of the associated boundary system, everything in exact rational
arithmetic.
"""

from .classify import (
    ClassReport,
    DEFAULT_DIMENSION_CAP,
    TwoByTwoCase,
    classify_matrix,
    classify_two_by_two,
    has_staircase_sign_pattern,
    is_completely_s,
    is_m_matrix,
    is_p_matrix,
    is_positive_definite,
    is_s_matrix,
    subsets_lex,
)
from .errors import (
    DimensionCapError,
    InternalInconsistencyError,
    MatrixShapeError,
    MissingVariableError,
    NotCompletelySError,
    QSingularError,
    RationalParseError,
    ReflectoError,
    SingularMatrixError,
    SpecValidationError,
)
from .linprog import (
    Constraint,
    LinearProgram,
    LpOutcome,
    LpStatus,
    Relation,
    constraint,
    linear_program,
    lp_solve,
)
from .matrix import RatMatrix
from .network import (
    DerivedMatrices,
    Discipline,
    NetworkSpec,
    PrioritySets,
    TrafficReport,
    ValidationReport,
    build_A,
    build_A_inverse,
    build_B,
    build_F,
    build_Q,
    build_W,
    derive_matrices,
    dump_spec,
    load_spec,
    priority_sets,
    reentrant_spec,
    reflection_matrix,
    relabel_stations,
    spec_from_json_dict,
    spec_to_json_dict,
    traffic,
    validate_spec,
)
from .rational import (
    Rational,
    as_rational,
    as_rational_vector,
    format_rational,
    format_rational_vector,
    parse_rational,
    parse_rational_csv,
)
from .tightness import (
    LP_DIMENSION_CAP,
    DecisionStatus,
    ProofMethod,
    SystemRow,
    TightMatrixDecision,
    TightnessSystem,
    TightnessVerdict,
    VarIndex,
    VerificationReport,
    assignment_from_table,
    assignment_to_table,
    build_system,
    canonical_variables,
    check_tight_system,
    decide_tight_matrix,
    nonnegative_case_witness,
    parse_variable_key,
    sample_b_vectors,
    verify_assignment,
)

__version__ = "0.1.0"
