"""Exact monotone and classical single Hurwitz numbers.

Five mutually verifying computation routes: brute-force factorization
counting, join-cut PDE solving, closed formulas, an operator-algebra genus
recursion producing rational generating-function forms, and
Lagrange-inversion coefficient extraction.  All arithmetic is exact.
"""

from .closedforms import (
    bernoulli_constant,
    classical_genus0,
    classical_genus1,
    mn_single_cycle,
    monotone_genus0,
    monotone_genus1,
)
from .combinat import bernoulli, central_binomial, rising
from .forms import LogForm, RationalForm
from .inversion import (
    aux_series,
    expand_log_form,
    expand_rational_form,
    lagrange_extract,
    value_from_form,
)
from .joincut import TruncatedH, solve_classical, solve_monotone
from .oracle import (
    ResourceLimitError,
    count_classical_transitive,
    count_monotone_transitive,
    transitive_counts,
)
from .partitions import Partition, aut_order, partitions
from .pipeline import (
    decompose_basis,
    genus1_closed,
    integrate_phi,
    rational_form,
)
from .polynomials import PolynomialQ, interpolate
from .series import DivisorSeries, MSeries
from .tables import paper_form
from .verify import polynomiality_extract, run_check, run_suite

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "aut_order",
    "partitions",
    "rising",
    "central_binomial",
    "bernoulli",
    "PolynomialQ",
    "interpolate",
    "ResourceLimitError",
    "count_monotone_transitive",
    "count_classical_transitive",
    "transitive_counts",
    "TruncatedH",
    "solve_monotone",
    "solve_classical",
    "MSeries",
    "DivisorSeries",
    "aux_series",
    "lagrange_extract",
    "expand_log_form",
    "expand_rational_form",
    "value_from_form",
    "LogForm",
    "RationalForm",
    "genus1_closed",
    "rational_form",
    "decompose_basis",
    "integrate_phi",
    "monotone_genus0",
    "monotone_genus1",
    "classical_genus0",
    "classical_genus1",
    "mn_single_cycle",
    "bernoulli_constant",
    "polynomiality_extract",
    "paper_form",
    "run_check",
    "run_suite",
    "__version__",
]
