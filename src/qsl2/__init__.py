"""qsl2: exact computations with quantum distribution algebras of sl2.

A family of finite-dimensional algebras over the cyclotomic field Q(q),
q a primitive root of unity of odd order, filtered by a level N: level 0
is the small quantum group, and each level sits inside the next as the
coinvariants of a comodule-algebra structure.  The package provides exact
normal-form arithmetic, highest-weight representation theory with a
verified tensor-product factorization of the simples, the cleft-extension
machinery, and the characteristic-p distribution algebras of SL2 that the
construction mirrors.
"""

from .algebra import (AlgebraParams, AlgElement, all_residues_zero,
                      basis_monomials, divided_power, generator,
                      inclusion_iota, k_binom_element, projection_pi,
                      relation_residues, relations, uq_params)
from .cyclotomic import CycField, CycNum, cyclotomic_polynomial
from .errors import ResourceCapError
from .exprs import (ExprSyntaxError, ast_to_string, element_to_json, evaluate,
                    format_cyc, format_element, parse_expr)
from .hopf import (Tensor2, coinvariants, convolve, gamma, gamma_colinear,
                   hopf_axiom_check, inverse_failures, is_coinvariant, rho,
                   section, section_inverse, unit_counit_map, uq_antipode)
from .hyperalgebra import (HypParams, erratum_report, erratum_text,
                           frobenius_pi, hx_normal_order, hyp_multiply,
                           kernel_dimensions, xy_normal_order)
from .modules import (ModuleRep, SteinbergError, SteinbergResult, character,
                      element_matrix, extend_by_trivial_top, monomial_matrix,
                      primitive_vectors, pullback_via_pi, rep_relation_check,
                      simple, steinberg_intertwiner, tensor_rep, uq_simple,
                      verma)
from .qcomb import (gen_q_binom, k_binom_at_power, k_binom_laurent,
                    lucas_binom, q_binom, q_factorial, q_int)

__version__ = "0.1.0"
