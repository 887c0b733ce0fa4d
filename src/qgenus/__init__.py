"""qgenus: exact symmetric-function machinery for a square-root Euler
class genus — factorial Schur-Q style generators, a twisted half-integer
Virasoro action with intersection-number tables, the associated one-
dimensional formal group laws, companion float asymptotics, and a big-Witt
/ vertex-operator layer, with a click CLI on top."""

from .analytic import (FloatEval, epsilon_inverse, epsilon_law, epsilon_num,
                       infinity_law, ml_asymptotic, ml_exp, psi,
                       psi_hom_check, sin_half)
from .errors import (DomainError, IncompatibleOperands, InvariantError,
                     TruncationError)
from .grouplaw import (GroupLaw, genus_exponential, projective_image,
                       scalar_exponential, to_q_over_q1,
                       universal_exponential)
from .qfunctions import (QElement, QTensor, classical_q, coproduct, counit,
                         antipode, inner, lambda_duality_check, q_reduce,
                         strict_partitions, x_in_q, xpoly_to_q)
from .rings import (CycloRational, SparsePoly, Sqrt2, Universe, UPS, UQ, UT,
                    UX, dfact_odd, double_factorial)
from .series import TruncatedSeries
from .virasoro import (FockPoly, IntersectionTable, alpha_apply,
                       annihilation_check, free_energy, genus_of,
                       genus_zero_closed_form, l_apply, l_bracket_residual,
                       string_oracle, tau_series)
from .witt import (GhostVector, LatticeData, WittVector,
                   Y_multiplicativity_check, closure_report, ghost,
                   ghost_inverse, hl_q_gen, nondegeneracy_witness, pairing,
                   q_subfunctor_check, root_of_unity_check, trace,
                   vertex_Y_element, vertex_Y_lattice, vertex_Y_powersum,
                   witt_add, witt_mul, witt_neg, witt_unit, witt_zero)

__version__ = "0.1.0"

__all__ = [
    "CycloRational", "DomainError", "FloatEval", "FockPoly", "GhostVector",
    "GroupLaw", "IncompatibleOperands", "IntersectionTable", "InvariantError",
    "LatticeData",
    "QElement", "QTensor", "SparsePoly", "Sqrt2", "TruncatedSeries",
    "TruncationError", "Universe", "UPS", "UQ", "UT", "UX", "WittVector",
    "Y_multiplicativity_check", "alpha_apply", "annihilation_check",
    "antipode", "classical_q", "closure_report", "coproduct", "counit",
    "dfact_odd", "double_factorial", "epsilon_inverse", "epsilon_law",
    "epsilon_num", "free_energy", "genus_exponential", "genus_of",
    "genus_zero_closed_form", "ghost", "ghost_inverse", "hl_q_gen", "inner",
    "infinity_law", "l_apply", "l_bracket_residual", "lambda_duality_check",
    "ml_asymptotic", "ml_exp", "nondegeneracy_witness", "pairing",
    "projective_image", "psi", "psi_hom_check", "q_reduce",
    "q_subfunctor_check", "root_of_unity_check", "scalar_exponential",
    "sin_half", "strict_partitions", "string_oracle", "tau_series",
    "to_q_over_q1", "trace", "universal_exponential", "vertex_Y_element",
    "vertex_Y_lattice", "vertex_Y_powersum", "witt_add", "witt_mul",
    "witt_neg", "witt_unit", "witt_zero", "x_in_q", "xpoly_to_q",
    "__version__",
]
