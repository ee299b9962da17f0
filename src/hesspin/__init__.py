"""Exact combinatorics of regular nilpotent Hessenberg varieties.

Permutations and reduced words, permissible fillings with their dimension
pairs, poset pinball rolldowns, equivariant restrictions by Billey's
formula (one recurrence over a reduced word, no subword enumeration), and
an exhaustive verification that the rolldown classes of the 334 family
form a module basis.  All arithmetic is exact.

The names below are re-exported lazily (PEP 562): ``import hesspin`` loads
no submodule, and the first access to a name imports only the module that
defines it, so ``hesspin fillings`` and ``hesspin verify --mode pinball``
never load ``billey`` or ``hess334``.
"""

from importlib import import_module

# module -> the names re-exported from it
_EXPORTS = {
    "billey": (
        "Polynomial",
        "S1Value",
        "check_upper_triangular",
        "p_restriction",
        "p_rows",
        "p_summand_counts",
        "project_s1",
        "sigma_restriction",
        "sigma_rows",
    ),
    "fillings": (
        "dimension_pairs",
        "enumerate_permissible",
        "filling_of_fixed_point",
        "hessenberg_334",
        "hessenberg_full",
        "hessenberg_identity",
        "hessenberg_peterson",
        "is_permissible",
        "omega",
        "omega_inverse",
        "reading_word",
        "single_row",
        "top_parts",
    ),
    "hess334": (
        "FixedPointClass",
        "Theorem334Report",
        "associated_subset",
        "catalog_reduced_word",
        "classify",
        "closed_form_restriction",
        "fixed_points_334",
        "peterson_fixed_point",
        "rolldown_closed_form",
        "rolldown_closed_form_word",
        "simple_summand_census",
        "type_231_fixed_point",
        "type_312_fixed_point",
        "verify_334_theorem",
    ),
    "permutations": (
        "bruhat_leq",
        "canonical_word",
        "compose",
        "from_word",
        "identity",
        "inverse",
        "inversions",
        "is_reduced_word",
    ),
    "pinball": (
        "PinballReport",
        "betti_numbers",
        "degree",
        "fixed_points",
        "is_fixed_point",
        "rolldown",
        "rolldown_table",
        "rolldown_word",
        "verify_pinball",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, imported on first access
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
