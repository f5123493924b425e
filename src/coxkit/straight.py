"""Straightness, power-length profiles, and the fully commutative shortcuts.

An element w is straight when l(w^n) = n l(w) for all n.  The exact decision
works on the cyclic-shift closure: if the closure shortens, a strictly
shorter conjugate witnesses non-straightness; if it preserves length, every
node is cyclically reduced (asserted at runtime, never assumed) and w is
straight iff every node is torsion-free.  The power-length profile is kept as
a cross-check only: no bound is known on the exponent needed to expose a
defect, so it is never used as a decision procedure.

The fully commutative (FC) shortcut: an element whose reduced words form a
single commutation class is FC; it is CFC when additionally every closure
node is FC and the element is cyclically reduced.  For CFC elements
straightness degenerates to a diagram condition on the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import (
    DEFAULT_CAP,
    INFINITY,
    CoxeterMatrix,
    Element,
    braid_class,
    commutation_class,
    multiply,
    support,
)
from .conjugacy import (
    MoveCertificate,
    _closure_search,
    _path_certificate,
    is_cyclically_reduced,
)
from .errors import InvariantViolation, NotCFC
from . import parabolic


@dataclass(frozen=True)
class ShorterConjugate:
    """A strictly shorter conjugate reached by the move system."""

    element: Element
    certificate: MoveCertificate


@dataclass(frozen=True)
class NonTorsionFreeMember:
    """A closure node that fails torsion-freeness, with the witnessing subset."""

    element: Element
    subset: parabolic.GeneratorSubset


@dataclass(frozen=True)
class PowerDefect:
    """An exponent where the power length falls short of linear growth."""

    n: int
    length: int


Witness = Union[ShorterConjugate, NonTorsionFreeMember, PowerDefect, None]


@dataclass(frozen=True)
class StraightnessVerdict:
    straight: bool
    witness: Witness = None


def power_length_profile(w: Element, n_max: int) -> tuple:
    """Exact lengths l(w^1), ..., l(w^n_max); they may oscillate for torsion."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    out = []
    acc = w.system.identity()
    for _ in range(n_max):
        acc = multiply(acc, w)
        out.append(acc.length)
    return tuple(out)


def find_power_defect(w: Element, n_max: int = 10) -> Optional[PowerDefect]:
    """First exponent up to n_max with l(w^n) < n l(w), if any.

    A defect disproves straightness; absence proves nothing, so this is a
    cross-check, not a decision procedure.
    """
    for n, length in enumerate(power_length_profile(w, n_max), start=1):
        if length < n * w.length:
            return PowerDefect(n, length)
    return None


def is_straight(w: Element, cap: int = DEFAULT_CAP) -> StraightnessVerdict:
    """Exact straightness decision over the cyclic-shift closure.

    Not straight when the closure shortens (ShorterConjugate, replayable) or
    when some length-preserved node fails torsion-freeness
    (NonTorsionFreeMember, canonically least failing node); straight
    otherwise.
    """
    nodes, parents = _closure_search(w, cap)
    ordered = sorted(nodes)
    shortest = ordered[0]
    if shortest.length < w.length:
        cert = _path_certificate(w, parents, shortest, cap)
        return StraightnessVerdict(False, ShorterConjugate(shortest, cert))
    for node in ordered:
        if not is_cyclically_reduced(node, cap):
            raise InvariantViolation(
                f"length-preserved closure node {node} is not cyclically reduced"
            )
    for node in ordered:
        witness = parabolic.torsion_witness(node)
        if witness is not None:
            return StraightnessVerdict(
                False,
                NonTorsionFreeMember(node, parabolic.generator_subset(w.system, witness)),
            )
    return StraightnessVerdict(True)


# ---------------------------------------------------------------------------
# fully commutative elements


def is_fc(w: Element, cap: int = DEFAULT_CAP) -> bool:
    """Fully commutative: no reduced word carries a braid factor of length
    m(s,t) >= 3; scans the braid class with early exit."""
    matrix = w.system
    table = matrix.table
    for rho in braid_class(matrix, w.word, cap):
        n = len(rho)
        for pos in range(n - 1):
            a, b = rho[pos], rho[pos + 1]
            m = table[a][b]
            if m == 2 or m == INFINITY or pos + m > n:
                continue
            if all(rho[pos + i] == (a if i % 2 == 0 else b) for i in range(m)):
                return False
    return True


def is_fc_definitional(w: Element, cap: int = DEFAULT_CAP) -> bool:
    """Ground-truth FC decision: commutation moves alone already reach every
    reduced word."""
    matrix = w.system
    return commutation_class(matrix, w.word, cap) == braid_class(matrix, w.word, cap)


def is_cfc(w: Element, cap: int = DEFAULT_CAP) -> bool:
    """Cyclically fully commutative: cyclically reduced, and every node of the
    cyclic-shift closure is fully commutative."""
    if not is_cyclically_reduced(w, cap):
        return False
    nodes, _ = _closure_search(w, cap)
    return all(is_fc(v, cap) for v in nodes)


def cfc_straight(w: Element, cap: int = DEFAULT_CAP) -> bool:
    """Straightness shortcut for CFC elements: straight iff the support has
    only infinite irreducible components."""
    if not is_cfc(w, cap):
        raise NotCFC(f"element {w} is not cyclically fully commutative")
    return parabolic.only_infinite_irreducible_components(
        parabolic.standard_parabolic_closure(w)
    )


def is_coxeter_element(w: Element) -> bool:
    """Each generator exactly once in the canonical word (such words are
    automatically reduced)."""
    word = w.word
    return len(word) == w.system.rank and len(set(word)) == w.system.rank


def coxeter_straight(matrix: CoxeterMatrix) -> bool:
    """Whether the Coxeter elements of the system are straight: true iff
    every irreducible component of the full diagram is infinite."""
    return parabolic.only_infinite_irreducible_components(matrix, range(matrix.rank))
