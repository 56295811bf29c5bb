"""Exact Fourier expansions for the graded ring of degree-two modular forms
on the discriminant-6 quaternion group, with verification suites for the
generator tables, polynomial relations, span structure, and cusp-form
dimension formula.
"""
from .dims import dim_cusp, dim_modular, dimension_report, genfun_coeff
from .eisenstein import EisensteinParams, eisenstein_coefficient, eisenstein_series
from .exactnum import (bernoulli_number, fundamental_discriminant_split,
                       generalized_bernoulli, kronecker_symbol)
from .diffop import bracket
from .fourier import (FourierSeries, divide_exact, linear_combine, multiply, one,
                      power, rank_of_span, relation_nullspace, sqrt_monic)
from .lattice import enumerate_cone, grade, is_positive, layer, norm_m, quad_invariants
from .ring import (GeneratorSet, monomial_basis, verify_chi5_square_relations,
                   verify_polynomial_relations, verify_structure)

__version__ = "0.1.0"
