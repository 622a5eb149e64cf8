"""Exact arithmetic for twisted derivations of number rings and the
linear codes built from their images.

Everything is integer arithmetic end to end: no floats, no approximation.
Hot kernels run compiled when the extension built, with automatic fallback
to pure Python (force it with the SIGMATAU_PURE environment variable).

Names are bound on first use (PEP 562): ``import sigmatau`` loads no
submodule, and ``sigmatau.sweep`` imports ``sigmatau.conjecture`` the first
time it is read, then keeps the function in this namespace. Submodules
resolve the same way, so ``sigmatau.codes`` needs no import of its own.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines; __all__ is every name listed here
_EXPORTS = {
    "_backend": ("BACKEND",),
    "algebra": (
        "AlgebraSpec", "Derivation", "Endomorphism", "LinearMap", "apply_map",
        "associativity_failure", "derivation_failure", "endomorphism_failure",
        "is_derivation", "is_endomorphism", "mul", "mult_matrix",
        "sigma_tau_power_sum", "spec_from_json", "spec_to_json",
    ),
    "codes": (
        "DEFAULT_BUDGET", "BudgetExceededError", "CodeReport", "IddMatrix",
        "LinearCode", "code_report", "dual_code", "hom_idd_code", "idd_matrix",
        "independent_subset_check", "is_lcd", "load_reference_fixture",
        "min_distance", "omega_reduce", "reference_code_reports",
        "report_to_json", "reports_csv", "weight_distribution",
    ),
    "conjecture": (
        "ConjectureCase", "SweepReport", "build_A", "primes_in", "summary_json",
        "sweep", "write_cases_csv",
    ),
    "derivations": (
        "DerivationSpace", "InnernessVerdict", "biquadratic_basis",
        "biquadratic_inner", "build_biquadratic_derivation",
        "build_cyclotomic_derivation", "build_quadratic_derivation",
        "classify_biquadratic", "cyclotomic_basis", "cyclotomic_inner_conjectural",
        "derivation_from_json", "derivation_to_json", "inner_derivation",
        "is_inner_generic", "quadratic_inner",
    ),
    "intlinalg": (
        "adjugate", "det_bareiss", "hermite_normal_form", "is_prime",
        "nullspace_mod_q", "rank_int", "rref_mod_q", "solve_integer",
    ),
    "rings": (
        "BiquadraticRing", "CyclotomicRing", "QuadraticRing",
        "endomorphism_by_name", "endomorphisms", "make_biquadratic",
        "make_cyclotomic", "make_quadratic", "ring_from_json", "ring_to_json",
        "zeta_power",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "_pykernels", "cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
