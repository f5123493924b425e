"""Exact combinatorics of Coxeter groups.

Decides reducedness, cyclic reducedness, conjugacy (with completeness
bases and replayable certificates), torsion-freeness and straightness of
group elements exactly: reducedness and normal forms by the minimal-root
table of Brink and Howlett in exact arithmetic, the rest by word rewriting
(braid moves, cyclic shifts and cancellations).  A floating-point geometric
representation and brute-force enumeration live alongside as independent
cross-checks.
"""

from .core import (
    DEFAULT_CAP,
    INFINITY,
    BraidStep,
    CancelStep,
    CoxeterMatrix,
    Element,
    RotateStep,
    apply_step,
    braid_class,
    braid_word_path,
    canonical_word,
    commutation_class,
    conjugate,
    inverse,
    is_reduced,
    left_descents,
    multiply,
    new_system,
    power,
    reduce_word,
    reduce_word_with_path,
    right_descents,
    support,
)
from .conjugacy import (
    CompletenessBasis,
    ConjugacyStatus,
    ConjugacyVerdict,
    KappaClosure,
    MoveCertificate,
    TriState,
    are_conjugate,
    cyclic_reduce,
    elementary_related,
    format_step,
    has_cent_prime,
    is_cyclically_reduced,
    is_finite_order,
    is_min_in_conjugacy_class,
    kappa_closure,
    parse_step,
    rotations,
)
from .parabolic import (
    GeneratorSubset,
    NormaliserDecomposition,
    centralises,
    diagram_components,
    element_of_parabolic,
    generator_subset,
    is_spherical,
    is_torsion_free,
    min_coset_rep,
    normaliser_decomposition,
    normalises,
    only_infinite_irreducible_components,
    spherical_subsets,
    standard_parabolic_closure,
    torsion_witness,
)
from .straight import (
    NonTorsionFreeMember,
    PowerDefect,
    ShorterConjugate,
    StraightnessVerdict,
    cfc_straight,
    coxeter_straight,
    find_power_defect,
    is_cfc,
    is_coxeter_element,
    is_fc,
    is_fc_definitional,
    is_straight,
    power_length_profile,
)
from .oracle import (
    DEFAULT_ORACLE_LENGTH_CAP,
    DEFAULT_TOLERANCE,
    GeometricRep,
    conjugacy_class_bruteforce,
    enumerate_elements,
    geometric_rep,
    is_reduced_oracle,
    order_bruteforce,
    whole_group,
)
from . import errors

__version__ = "0.1.0"
