"""Exact combinatorics of regular nilpotent Hessenberg varieties.

Permutations and reduced words, permissible fillings with their dimension
pairs, poset pinball rolldowns, equivariant restrictions by Billey's
formula (one recurrence over a reduced word, no subword enumeration), and
an exhaustive verification that the rolldown classes of the 334 family
form a module basis.  All arithmetic is exact.
"""

from .billey import (
    Polynomial,
    RestrictionMatrix,
    Root,
    S1Value,
    check_upper_triangular,
    p_restriction,
    p_summand_counts,
    project_s1,
    restriction_matrix,
    sigma_restriction,
)
from .fillings import (
    dimension_pairs,
    enumerate_permissible,
    filling_of_fixed_point,
    hessenberg_334,
    hessenberg_full,
    hessenberg_identity,
    hessenberg_peterson,
    is_permissible,
    omega,
    omega_inverse,
    reading_word,
    single_row,
    top_parts,
)
from .hess334 import (
    FixedPointClass,
    Theorem334Report,
    associated_subset,
    catalog_reduced_word,
    classify,
    closed_form_restriction,
    fixed_points_334,
    rolldown_closed_form,
    verify_334_theorem,
)
from .permutations import (
    bruhat_leq,
    canonical_word,
    compose,
    from_word,
    identity,
    inverse,
    inversions,
    is_reduced_word,
)
from .pinball import (
    PinballReport,
    betti_numbers,
    degree,
    fixed_points,
    rolldown,
    rolldown_table,
    rolldown_word,
    verify_pinball,
)

__version__ = "0.1.0"
