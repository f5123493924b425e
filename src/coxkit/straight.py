"""Straightness, power-length profiles, and the fully commutative shortcuts.

An element w is straight when l(w^n) = n l(w) for all n.  The exact decision
works on the cyclic-shift closure: if the closure shortens, a strictly
shorter conjugate witnesses non-straightness; if it preserves length, every
node is cyclically reduced (its rotation targets are nodes, all of one
length) and w is straight iff every node is torsion-free.  Every node of a
length-preserving closure has that same closure, so the verdict is decided
once per such class and memoised under all of its nodes.  The power-length
profile is kept as a cross-check only: no bound is known on the exponent
needed to expose a defect, so it is never used as a decision procedure; it
reduces words, builds no normal forms, and stops walking once a copy of w
provably repeats the copy before it.

The fully commutative (FC) shortcut: an element whose reduced words form a
single commutation class is FC; it is CFC when additionally every closure
node is FC and the element is cyclically reduced.  For CFC elements
straightness degenerates to a diagram condition on the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import (
    DEFAULT_CAP,
    CoxeterMatrix,
    Element,
    support,
    _braid_moves,
    _braid_orbit,
    _root_table,
)
from .conjugacy import (
    MoveCertificate,
    cyclic_reduce,
    is_cyclically_reduced,
    kappa_closure,
)
from .errors import NotCFC
from .roots import NEG, NONMIN
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


Witness = Union[ShorterConjugate, NonTorsionFreeMember, None]


@dataclass(frozen=True)
class StraightnessVerdict:
    straight: bool
    witness: Witness = None


def power_length_profile(w: Element, n_max: int) -> tuple:
    """Exact lengths l(w^1), ..., l(w^n_max); they may oscillate for torsion.

    Only lengths are needed, so each power is kept as a reduced word: w^1 is
    the canonical word of w, and each further copy of that word is appended
    letter by letter, by the exchange walk, deleting the letter at its
    exchange position or appending it.  No normal form is built.

    The walk stops as soon as one copy provably repeats the copy before it.
    Let ``floor`` be where the unbroken run of whole copies just before the
    current one starts: 0 for w^1, which counts as whole, and the end of
    the last copy that lost a letter otherwise.  Suppose the current copy c
    loses no letter and the walk of each of its letters stops at ``NONMIN``
    at or after ``floor`` (a walk that runs off the start does not).
    Letter j of copy c+1 walks back over copy c+1's first j-1 letters,
    appended whole by induction on j, and then over copy c and the copies
    of the run, each of them the word of w: the same letters, in the same
    order, that letter j of copy c read before it stopped.  So copy c+1
    stops at the same places, one copy further on, loses no letter and
    stays inside a run one copy longer, and by induction every later copy
    is appended whole: l(w^(n+1)) = l(w^n) + l(w) from there on.  No bound
    on the depth of a walk is assumed; the rule fires only when the walks
    recorded show that it may.  A copy that loses a letter moves ``floor``
    past itself, so a profile that falls back or grows unevenly (torsion;
    A2~ ``tustuts``, 7, 12, 19, 24, ...) walks every power.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    act = _root_table(w.system)
    word = w.word
    acc = bytearray(word)
    out = [len(acc)]
    floor = 0
    while len(out) < n_max:
        whole = inside = True
        for s in word:
            beta = s
            for i in range(len(acc) - 1, -1, -1):
                beta = act[beta][acc[i]]
                if beta < 0:
                    break
            if beta == NEG:
                del acc[i]
                whole = False
            else:
                acc.append(s)
                if beta != NONMIN or i < floor:
                    inside = False
        out.append(len(acc))
        if not whole:
            floor = len(acc)
        elif inside:
            out.extend(len(acc) + k * len(word) for k in range(1, n_max - len(out) + 1))
            break
    return tuple(out)


def is_straight(w: Element, cap: int = DEFAULT_CAP) -> StraightnessVerdict:
    """Exact straightness decision over the cyclic-shift closure.

    Not straight when the closure shortens (ShorterConjugate, replayable) or
    when some length-preserved node fails torsion-freeness
    (NonTorsionFreeMember, canonically least failing node); straight
    otherwise.

    A length-preserving closure is the closure of each of its nodes (a
    rotation that keeps the length is undone by rotating back), so its
    verdict is memoised per system under every node, with the larger of the
    closure's peak and node count.  A hit over ``cap`` is decided again, so
    it refuses exactly as on a fresh system.  A shortening closure is not
    memoised: its certificate starts at w.
    """
    cache = w.system._scratch["straight"]
    hit = cache.get(w.word)
    if hit is not None and hit[1] <= cap:
        return hit[0]
    closure = kappa_closure(w, cap)
    if not closure.length_preserved:
        return StraightnessVerdict(False, ShorterConjugate(*cyclic_reduce(w, cap)))
    verdict = StraightnessVerdict(True)
    for node in closure.nodes:
        witness = parabolic.torsion_witness(node)
        if witness is not None:
            verdict = StraightnessVerdict(
                False,
                NonTorsionFreeMember(node, parabolic.generator_subset(w.system, witness)),
            )
            break
    size = max(closure.peak, len(closure.nodes))
    for node in closure.nodes:
        cache[node.word] = verdict, size
    return verdict


# ---------------------------------------------------------------------------
# fully commutative elements


def is_fc(w: Element, cap: int = DEFAULT_CAP) -> bool:
    """Fully commutative: no reduced word carries a braid factor of length
    m(s,t) >= 3 (Stembridge, J. Algebraic Combin. 5, 1996).  Searches only
    the commutation class, up to a word with such a factor: without one,
    only commutations apply, so that class is the whole braid class."""
    table = w.system.table

    def has_braid_factor(rho):
        return any(table[rho[pos]][rho[pos + 1]] > 2 for _, pos in _braid_moves(table, rho))

    _, hit = _braid_orbit(w.system, w.word, cap, commutations_only=True, stop=has_braid_factor)
    return hit is None


def is_cfc(w: Element, cap: int = DEFAULT_CAP) -> bool:
    """Cyclically fully commutative: cyclically reduced, and every node of the
    cyclic-shift closure is fully commutative."""
    if not is_cyclically_reduced(w, cap):
        return False
    return all(is_fc(v, cap) for v in kappa_closure(w, cap).nodes)


def cfc_straight(w: Element, cap: int = DEFAULT_CAP) -> bool:
    """Straightness shortcut for CFC elements: straight iff the support has
    only infinite irreducible components."""
    if not is_cfc(w, cap):
        raise NotCFC(f"element {w} is not cyclically fully commutative")
    return parabolic.only_infinite_irreducible_components(w.system, support(w))


def coxeter_straight(matrix: CoxeterMatrix) -> bool:
    """Whether the Coxeter elements of the system are straight: true iff
    every irreducible component of the full diagram is infinite."""
    return parabolic.only_infinite_irreducible_components(matrix, range(matrix.rank))
