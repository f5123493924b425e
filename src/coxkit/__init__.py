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
    conjugate,
    inverse,
    is_reduced,
    left_descents,
    multiply,
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
    are_conjugate,
    cyclic_reduce,
    format_step,
    has_cent_prime,
    is_cyclically_reduced,
    is_finite_order,
    kappa_closure,
    parse_step,
)
from .parabolic import (
    GeneratorSubset,
    NormaliserDecomposition,
    centralises,
    diagram_components,
    generator_subset,
    is_spherical,
    is_torsion_free,
    min_coset_rep,
    normaliser_decomposition,
    normalises,
    only_infinite_irreducible_components,
    standard_parabolic_closure,
    torsion_witness,
)
from .straight import (
    NonTorsionFreeMember,
    ShorterConjugate,
    StraightnessVerdict,
    cfc_straight,
    coxeter_straight,
    is_cfc,
    is_fc,
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
)
from . import errors

__version__ = "0.1.0"
