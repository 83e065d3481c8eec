"""Symbolic-numeric engine for fractional calculus and fractional forms.

The symbolic layer works over a closed class of power-product expressions
and applies the fractional power rule exactly; the numeric layer provides an
independent Grunwald-Letnikov oracle with Richardson extrapolation.  On top
of both sit fractional differential forms (wedge words of fractional-order
coordinate differentials), closedness/exactness analysis, and coordinate
transformations with the fractional Jacobian and metric.
"""

from .analysis import (
    ClosureReport,
    ExactnessResult,
    integrability_residual,
    is_closed,
    kernel_basis_1d,
    kernel_basis_dv,
    solve_exact,
)
from .charts import (
    Chart,
    JacobianMatrix,
    MetricMatrix,
    alpha_k,
    get_chart,
    inverse_residual,
    jacobian,
    line_element,
    metric,
    transform_form,
)
from .errors import (
    BoundarySingularityError,
    EvalDomainError,
    ExponentDomainError,
    FracFormsError,
    NegativeQuadraticFormError,
    NonConvergenceWarning,
    ParseError,
    PoleError,
    QuadratureDomainError,
    UnknownCoordinateError,
    UnsupportedError,
    VerificationError,
)
from .forms import (
    DiffFactor,
    Form,
    WedgeWord,
    canonical_word,
    form_from_json,
    form_to_json,
    forms_close,
    frac_exterior_deriv,
    parse_form,
    print_form,
    wedge,
)
from .oracle import (
    RichardsonResult,
    expr_evaluable,
    expr_univariate,
    gl_deriv,
    richardson,
)
from .rl import (
    SeriesResult,
    compose_residual,
    product_rule_series,
    rl_deriv,
    rl_integ,
)
from .specialfn import gamma, gamma_ratio, gen_binomial, rgamma, whole_ceil
from .symbolic import (
    Context,
    Expr,
    canonicalize,
    classical_derivative,
    eval_expr,
    exprs_close,
    monomial,
    parse_expr,
    print_expr,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySingularityError",
    "Chart",
    "ClosureReport",
    "Context",
    "DiffFactor",
    "EvalDomainError",
    "ExactnessResult",
    "ExponentDomainError",
    "Expr",
    "Form",
    "FracFormsError",
    "JacobianMatrix",
    "MetricMatrix",
    "NegativeQuadraticFormError",
    "NonConvergenceWarning",
    "ParseError",
    "PoleError",
    "QuadratureDomainError",
    "RichardsonResult",
    "SeriesResult",
    "UnknownCoordinateError",
    "UnsupportedError",
    "VerificationError",
    "WedgeWord",
    "alpha_k",
    "canonical_word",
    "canonicalize",
    "classical_derivative",
    "compose_residual",
    "eval_expr",
    "expr_evaluable",
    "expr_univariate",
    "exprs_close",
    "form_from_json",
    "form_to_json",
    "forms_close",
    "frac_exterior_deriv",
    "gamma",
    "gamma_ratio",
    "gen_binomial",
    "get_chart",
    "gl_deriv",
    "integrability_residual",
    "inverse_residual",
    "is_closed",
    "jacobian",
    "kernel_basis_1d",
    "kernel_basis_dv",
    "line_element",
    "metric",
    "monomial",
    "parse_expr",
    "parse_form",
    "print_expr",
    "print_form",
    "product_rule_series",
    "rgamma",
    "richardson",
    "rl_deriv",
    "rl_integ",
    "solve_exact",
    "transform_form",
    "wedge",
    "whole_ceil",
]
