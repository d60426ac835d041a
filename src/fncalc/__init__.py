"""Exact Froelicher-Nijenhuis calculus and Lie algebroid verification.

Everything is computed over multivariate rational functions, kept
fraction-free with integer coefficients on a real chart and Gaussian-integer
coefficients on a complexified one; canonical forms make structural equality
decide mathematical equality, so every identity check is exact.
"""

from .scalar import (
    DivisionByZeroError,
    ExprSyntaxError,
    ImaginaryNotAllowedError,
    ScalarError,
    ScalarExpr,
    UnknownVariableError,
    parse_expr,
)
from .calculus import (
    CalculusError,
    Chart,
    ChartMismatchError,
    KForm,
    VectorField,
    VectorValuedForm,
    exterior_d,
    fn_bracket,
    insertion,
    lie_bracket,
    lie_derivative,
    nijenhuis_torsion,
    rn_bracket,
    wedge,
)
from .algebroid import (
    AlgebroidError,
    AxiomReport,
    BundleAlgebroid,
    BundleAxiomReport,
    CohomologyReport,
    LinearConnection,
    SingularAnchorError,
    TangentAlgebroid,
    bundle_de_rham,
    check_axioms,
    check_bundle_axioms,
    check_cohomology,
    delta_torsion,
    derivation_from_algebroid,
    fn_decompose,
    invertible_algebroid,
    verify_connection_decomposition,
    verify_trivial_isomorphism,
)
from .structures import (
    BigradedForm,
    FoliationData,
    ImageNotInvolutiveError,
    NotAlmostComplexError,
    NotAlmostProductError,
    NotConnectionError,
    NotIdempotentError,
    NotSemisprayError,
    StructureError,
    TangentChartData,
    TorsionNotZeroError,
    bigrade,
    complement_operator,
    complex_algebroid,
    complex_projectors,
    connection_algebroid,
    connection_from_semispray,
    d_components,
    foliation_connection,
    idempotent_algebroid,
    is_semispray,
    product_algebroid,
    semispray,
    tangent_chart,
    tangent_data_for_chart,
)

__version__ = "1.0.0"
