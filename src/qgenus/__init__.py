"""qgenus: exact symmetric-function machinery for a square-root Euler
class genus — factorial Schur-Q style generators, a twisted half-integer
Virasoro action with intersection-number tables, the associated one-
dimensional formal group laws, companion float asymptotics, and a big-Witt
/ vertex-operator layer, with a click CLI on top.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562)."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analytic": ("FloatEval", "epsilon_inverse", "epsilon_law", "epsilon_num",
                 "infinity_law", "ml_asymptotic", "ml_exp", "psi",
                 "psi_hom_check", "sin_half"),
    "errors": ("DomainError", "IncompatibleOperands", "InvariantError",
               "TruncationError"),
    "grouplaw": ("GroupLaw", "genus_exponential", "projective_image",
                 "scalar_exponential", "to_q_over_q1", "universal_exponential"),
    "qfunctions": ("QElement", "QTensor", "classical_q", "coproduct", "counit",
                   "antipode", "inner", "lambda_duality_check", "q_reduce",
                   "strict_partitions", "x_in_q", "xpoly_to_q"),
    "rings": ("CycloRational", "SparsePoly", "Sqrt2", "Universe", "UPS", "UQ",
              "UT", "UX", "dfact_odd", "double_factorial"),
    "series": ("TruncatedSeries",),
    "virasoro": ("FockPoly", "IntersectionTable", "alpha_apply",
                 "annihilation_check", "free_energy", "genus_of",
                 "genus_zero_closed_form", "l_apply", "l_bracket_residual",
                 "string_oracle", "tau_series"),
    "witt": ("GhostVector", "LatticeData", "WittVector",
             "Y_multiplicativity_check", "closure_report", "ghost",
             "ghost_inverse", "hl_q_gen", "nondegeneracy_witness", "pairing",
             "q_subfunctor_check", "root_of_unity_check", "trace",
             "vertex_Y_element", "vertex_Y_lattice", "vertex_Y_powersum",
             "witt_add", "witt_mul", "witt_neg", "witt_unit", "witt_zero"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

# annotated so the literal-__all__ scan in tests/test_imports.py skips it
__all__: list[str] = [*_OWNER, "__version__"]


def __getattr__(name: str):
    """Import ``name`` from its module, kept as a global for later lookups."""
    if name not in _OWNER:  # "from qgenus import cli" imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_OWNER[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value
