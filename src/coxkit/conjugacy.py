"""Cyclic shifts, closure graphs, cyclic reduction, conjugacy, torsion order.

An element u is *elementary related* to v when some reduced word of u,
rotated by some amount, spells v after reduction.  Rotating a word by one
letter s is the cyclic shift u -> s u s, so the targets are computed one
memoised shift per letter.  The transitive closure of
this move system (the kappa closure) never increases length, so it is finite;
its minimal-length stratum holds cyclically reduced conjugates of u.  Two
elements with intersecting strata are certainly conjugate, and the converse
holds for elements of infinite order satisfying the centralising property
checked by :func:`has_cent_prime` — that is what lets the tester return a
definite "not conjugate" without enumerating the group.

Every positive answer carries a :class:`MoveCertificate`: a flat, replayable
list of braid moves, rotations and cancellations from the canonical word of
the start element to the canonical word of the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Optional

from .core import (
    DEFAULT_CAP,
    INFINITY,
    BraidStep,
    CancelStep,
    CoxeterMatrix,
    Element,
    RotateStep,
    Step,
    Word,
    apply_step,
    braid_word_path,
    conjugate,
    reduce_word_with_path,
    support,
    _braid_orbit,
    _exchange,
    _root_table,
    _search,
    _shift,
)
from .errors import InvariantViolation, ReplayError
from . import oracle, parabolic


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class MoveCertificate:
    """A replayable move path between two words.

    Replaying the steps from ``start`` must land exactly on ``end``; the
    verifier raises ReplayError otherwise.
    """

    start: Word
    steps: tuple
    end: Word

    def replay(self, matrix: CoxeterMatrix) -> Word:
        word = self.start
        for step in self.steps:
            word = apply_step(matrix, word, step)
        if word != self.end:
            raise ReplayError("certificate does not reach its claimed end word")
        return word

    def then(self, other: "MoveCertificate") -> "MoveCertificate":
        if self.end != other.start:
            raise ReplayError("certificates do not compose")
        return MoveCertificate(self.start, self.steps + other.steps, other.end)


def format_step(matrix: CoxeterMatrix, step: Step) -> str:
    if isinstance(step, BraidStep):
        a, b = step.pair
        return f"braid pos={step.pos} pair={matrix.names[a]},{matrix.names[b]}"
    if isinstance(step, RotateStep):
        return f"rotate k={step.k} word={matrix.word_str(step.word)}"
    if isinstance(step, CancelStep):
        return f"cancel pos={step.pos}"
    raise ValueError(f"unknown step {step!r}")


def parse_step(matrix: CoxeterMatrix, line: str) -> Step:
    """Parse the one-move-per-line format emitted by :func:`format_step`."""
    text = line.strip()
    kind, _, rest = text.partition(" ")
    try:
        if kind == "braid":
            pos_field, pair_field = rest.split()
            pos = int(pos_field.removeprefix("pos="))
            a, b = pair_field.removeprefix("pair=").split(",")
            return BraidStep(pos, (matrix.index(a), matrix.index(b)))
        if kind == "rotate":
            k_field, _, word_field = rest.partition(" ")
            k = int(k_field.removeprefix("k="))
            word = matrix.word(word_field.removeprefix("word="))
            return RotateStep(k, word)
        if kind == "cancel":
            return CancelStep(int(rest.removeprefix("pos=")))
    except (ValueError, TypeError) as exc:
        raise ReplayError(f"cannot parse move {line!r}: {exc}") from None
    raise ReplayError(f"cannot parse move {line!r}")


# ---------------------------------------------------------------------------
# the move system


def _elementary_targets(matrix: CoxeterMatrix, word: Word, cap: int = DEFAULT_CAP) -> tuple:
    """``(targets, words)`` for the element with canonical word ``word``:
    the canonical word of each element spelled by a rotation of one of its
    reduced words, in order of first appearance (reduced words shortlex,
    then rotation amount), mapped to its first witness (rho, k), and the
    number of reduced words walked.  The words are the braid-move orbit of
    ``word``, which is reduced, so no reducedness stop is needed.  Memoised
    per system; a hit over ``cap`` words is walked again, so the orbit
    search refuses as on a fresh system.  The rotation of rho by k is
    x^-1 u x with x = rho[:k]: the shift of its rotation by k - 1 by
    rho[k-1], read from the shift memo (``core._shift`` on a miss).  The
    full rotation spells u, which the first word has already reached, so
    the words after it stop one letter short."""
    cache = matrix._scratch["elementary_targets"]
    hit = cache.get(word)
    if hit is None or hit[1] > cap:
        shifts = matrix._scratch["shift"]
        words = sorted(_braid_orbit(matrix, word, cap)[0])
        found, walk = {}, len(word)
        for rho in words:
            v = word
            for k, s in enumerate(rho[:walk], 1):
                v = shifts.get((v, s)) or _shift(matrix, v, s)
                if v not in found:
                    found[v] = (rho, k)
            walk = len(word) - 1
        hit = cache[word] = (found, len(words))
    return hit


@dataclass(frozen=True)
class KappaClosure:
    """The reachable set under braid moves, cyclic shifts and cancellations.

    The record holds words: ``words``, the canonical words of the nodes in
    canonical order, and ``word_parents[v] = (previous, (rho, k))``, the move
    that first reached the node v in the search: v is spelled by rotating
    the reduced word rho of previous by k letters.  ``peak`` is the largest
    braid class among the nodes.  The element views ``nodes`` and
    ``min_stratum`` (canonically ordered) are built from the words on first
    read and cached, so a caller that reads only words builds no element
    object.  The record is read-only; two records are equal iff their starts
    and nodes are, and ``word_parents`` and ``peak`` take no part in
    comparison.
    """

    start: Element
    words: tuple
    word_parents: MappingProxyType = field(compare=False)
    peak: int = field(compare=False)

    @property
    def min_length(self) -> int:
        return len(self.words[0])

    @property
    def length_preserved(self) -> bool:
        return len(self.words[0]) == len(self.start.word)

    @cached_property
    def nodes(self) -> tuple:
        matrix = self.start.system
        return tuple(Element(matrix, v) for v in self.words)

    @cached_property
    def min_stratum(self) -> tuple:
        low = self.min_length
        return tuple(v for v in self.nodes if v.length == low)


def kappa_closure(u: Element, cap: int = DEFAULT_CAP) -> KappaClosure:
    """The closure of u, by breadth-first search over the distinct targets of
    each node.  The record is memoised per system under the start word.  A
    hit whose peak or node count is over ``cap`` is searched again over the
    memoised targets, so it refuses exactly as on a fresh system, naming the
    same search.
    """
    matrix = u.system
    cache = matrix._scratch["closure"]
    hit = cache.get(u.word)
    if hit is not None and max(hit.peak, len(hit.words)) <= cap:
        return hit
    peak = 0

    def moves(v):
        nonlocal peak
        targets, words = _elementary_targets(matrix, v, cap)
        peak = max(peak, words)
        return targets.items()

    parents = {}
    seen, _ = _search(u.word, moves, cap, "cyclic-shift closure", parents=parents)
    record = cache[u.word] = KappaClosure(
        start=u,
        words=tuple(sorted(seen, key=lambda v: (len(v), v))),
        word_parents=MappingProxyType(parents),
        peak=peak,
    )
    return record


def _hop_certificate(prev: Element, rho: Word, k: int, target: Element,
                     cap: int) -> MoveCertificate:
    """Certificate of one elementary move: braid into rho, rotate, reduce."""
    matrix = prev.system
    steps = list(braid_word_path(matrix, prev.word, rho, cap))
    steps.append(RotateStep(k, rho))
    landed, reduction = reduce_word_with_path(matrix, rho[k:] + rho[:k], cap)
    if landed != target:
        raise InvariantViolation("elementary move replays to an unexpected element")
    steps.extend(reduction)
    return MoveCertificate(prev.word, tuple(steps), target.word)


def _path_certificate(closure: KappaClosure, target: Word, cap: int) -> MoveCertificate:
    """The moves from the start of ``closure`` to its node ``target``, along
    the parent map of the search."""
    matrix, start = closure.start.system, closure.start.word
    hops = []
    cur = target
    while cur != start:
        prev, (rho, k) = closure.word_parents[cur]
        hops.append((prev, rho, k, cur))
        cur = prev
    cert = MoveCertificate(start, (), start)
    for prev, rho, k, nxt in reversed(hops):
        cert = cert.then(_hop_certificate(Element(matrix, prev), rho, k,
                                          Element(matrix, nxt), cap))
    return cert


def is_cyclically_reduced(w: Element, cap: int = DEFAULT_CAP) -> bool:
    """Every rotation of every reduced word of w stays reduced.

    First, one descent pair: for a left descent s of w, some reduced word of
    w is s*sigma with sigma spelling sw, and if s is also a right descent of
    sw, its rotation sigma*s is not reduced, so w is not cyclically reduced.
    That takes two exchange walks per letter of the support and visits no
    search node, so it answers at every cap, whatever the memos hold.
    Otherwise read off the rotation targets, every one of which must keep
    the length of w; they are memoised with the number of reduced words
    walked, so a hit over ``cap`` refuses as on a fresh system."""
    matrix, word = w.system, w.word
    act, rev = _root_table(matrix), word[::-1]
    for s in set(word):
        i = _exchange(act, rev, s)  # s*w = w minus its letter at -1 - i
        if i is not None:
            j = len(word) - 1 - i
            if _exchange(act, word[:j] + word[j + 1:], s) is not None:
                return False
    return all(len(t) == len(word) for t in _elementary_targets(matrix, word, cap)[0])


def _reduced_node(closure: KappaClosure) -> Element:
    """The element :func:`cyclic_reduce` returns: the start when the closure
    preserves length, the least node of the minimal stratum otherwise."""
    return closure.start if closure.length_preserved else Element(
        closure.start.system, closure.words[0])


def cyclic_reduce(w: Element, cap: int = DEFAULT_CAP):
    """A minimal-length element of the move closure of w, with a certificate.

    The result is cyclically reduced and conjugate to w; its length equals
    the closure minimum.  When the closure preserves length, w itself is
    already minimal and is returned with an empty certificate.
    """
    closure = kappa_closure(w, cap)
    target = _reduced_node(closure)
    return target, _path_certificate(closure, target.word, cap)


# ---------------------------------------------------------------------------
# torsion and the centralising property


def is_finite_order(w: Element, cap: int = DEFAULT_CAP) -> bool:
    """True iff some closure node has spherical support.

    Sound because such a node lies in a finite standard parabolic subgroup;
    complete because a finite-order element always reaches one by these moves.
    w is the first node, so when its own support is spherical the answer is
    True with no closure searched, at every cap.
    """
    if parabolic._is_spherical(w.system, support(w)):
        return True
    return any(parabolic._is_spherical(w.system, frozenset(v))
               for v in kappa_closure(w, cap).words)


def _spherical_reflections(matrix: CoxeterMatrix, cap: int) -> tuple:
    """R0, the canonical words of the reflections with spherical support.

    A reflection in a spherical W_I is x s x^-1 with s in I and x in W_I
    (W_I & T = T_I), so conjugating s by the letters of x never leaves I:
    R0 is searched by the cyclic shifts s*r*s (``core._shift``) that keep
    the support spherical, with every generator a move from every node.
    Memoised per system; a hit of more than ``cap`` reflections is searched
    again, so it refuses as on a fresh system."""
    hit = matrix._scratch.get("spherical_reflections")
    if hit is None or len(hit) > cap:
        gens = [bytes((s,)) for s in range(matrix.rank)]

        def moves(r):
            for s, g in enumerate(gens):
                yield g, None
                x = _shift(matrix, r, s)
                if parabolic._is_spherical(matrix, frozenset(x)):
                    yield x, None

        seen, _ = _search(gens[0], moves, cap, "spherical-reflection search")
        hit = matrix._scratch["spherical_reflections"] = tuple(sorted(seen))
    return hit


def _conjugate_within(matrix: CoxeterMatrix, v_word: Word, x_word: Word,
                      top: int) -> Optional[Word]:
    """The canonical word of v x v^-1, built as ``core._conjugate_word``
    builds it, or None as soon as it cannot end at most ``top`` letters
    long: one shift changes the length by at most 2, so while j letters of
    v remain to apply, a conjugate longer than top + 2j never gets there."""
    shifts = matrix._scratch["shift"]
    limit = top + 2 * len(v_word)
    for s in reversed(v_word):
        if len(x_word) > limit:
            return None
        x_word = shifts.get((x_word, s)) or _shift(matrix, x_word, s)
        limit -= 2
    return x_word


def has_cent_prime(u: Element, cap: int = DEFAULT_CAP) -> bool:
    """Along the whole closure of a cyclically reduced u, normalising a
    candidate, a subgroup w_I W_J w_I^-1 with I spherical, J a nonempty
    subset of I and w_I in W_I, implies centralising it.

    Cent' fails at a closure node w iff w moves some g in R0, the
    reflections with spherical support (:func:`_spherical_reflections`),
    whose w-orbit {w^k g w^-k} has supports with a spherical union K.  An
    orbit is grown one conjugation at a time and dropped as soon as the
    union is not spherical, at once on an image outside R0.

    * No such orbit implies Cent' (a NOT_CONJUGATE verdict rests on this
      direction only).  If w normalises a candidate P and does not
      centralise it, w moves a generator g = w_I s_j w_I^-1 of P, in R0;
      P is finite, so w P w^-1 = P and the w-orbit of g lies in P, inside
      W_I: the union of its supports lies in the spherical I.
    * Such an orbit breaks Cent'.  The orbit is w-stable and lies in W_K,
      so its parabolic closure Q = x W_J x^-1 (parabolic subgroups are
      closed under intersection: Qi 2007; Krammer, Groups Geom. Dyn. 3,
      2009) lies in W_K and is w-stable, and w moves g in Q.  With x = a d b,
      a in W_K, b in W_J and d minimal in W_K d W_J, d W_J d^-1 lies in W_K,
      so it is W_J' with J' = K & d J d^-1 (Kilmoyer), and Q = a W_J' a^-1
      is a candidate with I = K that w normalises and does not centralise.

    An orbit that stays spherical lies in R0, so beyond the closure and the
    check that u is cyclically reduced, a call refuses (CapExceeded) only
    when R0 has more than ``cap`` reflections.  Each image is built one
    shift at a time and dropped, as outside R0, as soon as it is too long
    to end in R0.

    Cent' is a property of the whole closure, and a length-preserving
    closure is the closure of each of its nodes, so its verdict is memoised
    under every node.  The memo is read only once the cyclic-reducedness
    test, R0 and the closure have been found at ``cap``, so a hit refuses
    exactly as a fresh call would.  A shortening closure is not memoised:
    its nodes' own closures are smaller.
    """
    if not is_cyclically_reduced(u, cap):
        raise ValueError("has_cent_prime requires a cyclically reduced element")
    matrix = u.system
    reflections = _spherical_reflections(matrix, cap)
    closure = kappa_closure(u, cap)
    cache = matrix._scratch["cent_prime"]
    hit = cache.get(u.word)
    if hit is not None:
        return hit
    spherical = frozenset(reflections)
    top = max(map(len, reflections))

    def moves_a_spherical_orbit(word):
        for g in reflections:
            union, r = frozenset(g), _conjugate_within(matrix, word, g, top)
            while r != g and r in spherical:  # else the union is not spherical
                union = union.union(r)
                if not parabolic._is_spherical(matrix, union):
                    break
                r = _conjugate_within(matrix, word, r, top)
                if r == g:
                    return True
        return False

    verdict = not any(moves_a_spherical_orbit(w) for w in closure.words)
    if closure.length_preserved:
        for w in closure.words:
            cache[w] = verdict
    return verdict


# ---------------------------------------------------------------------------
# conjugacy


class ConjugacyStatus(Enum):
    CONJUGATE = "conjugate"
    NOT_CONJUGATE = "not-conjugate"
    UNKNOWN = "unknown"


class CompletenessBasis(Enum):
    CENT_PRIME_INFINITE_ORDER = "cent-prime-infinite-order"
    BRUTE_FORCE = "brute-force"
    ABELIAN_INVARIANT = "abelian-invariant"


@dataclass(frozen=True)
class ConjugacyVerdict:
    """Outcome of the conjugacy test.

    A CONJUGATE verdict always carries a replayable witness: either a pair of
    move certificates meeting at ``meeting``, or an explicit ``conjugator`` v
    with v u1 v^-1 = u2 found by the brute-force fallback.  A NOT_CONJUGATE
    verdict always names its completeness basis.
    """

    status: ConjugacyStatus
    certificates: Optional[tuple] = None
    meeting: Optional[Element] = None
    conjugator: Optional[Element] = None
    basis: Optional[CompletenessBasis] = None


def _abelian_image(matrix: CoxeterMatrix, word: Word) -> tuple:
    """The image of the element spelled by ``word`` in the abelianisation
    W^ab = (Z/2)^c, c the number of components of the graph of odd orders
    m(s, t): the parity of its letters from each component, components
    ordered by least member.  Generators joined by an odd order are
    conjugate, and every relation keeps these parities, so conjugates have
    equal images."""
    components = parabolic._components(
        matrix, range(matrix.rank), lambda m: m != INFINITY and m % 2)
    return tuple(sum(letter in comp for letter in word) % 2 for comp in components)


def are_conjugate(u1: Element, u2: Element, *, cap: int = DEFAULT_CAP,
                  brute_force: bool = False, brute_len_cap: int = 16) -> ConjugacyVerdict:
    """Decide conjugacy through minimal strata of the move closures.

    The verdict reads only the start closures, of u1 and of u2.  Start
    closures that share a node give CONJUGATE, meeting at the least shared
    node, with a certificate from each input to it over its start closure.

    Otherwise their keys differ (equal keys are a shared node), the key of
    u being the least node of its start closure's minimal stratum.  A shortening start closure has that
    node as its cyclically reduced node v (:func:`cyclic_reduce`); v's
    closure is reachable from u and never gains length, so it lies in that
    stratum, and its least node is v.  A length-preserving start closure
    has v = u and is v's closure.  Either way the key is the least node of
    v's closure, and v's closure, which preserves length, is a class: a
    rotation that keeps the length is undone by rotating back.  So the
    closures of v1 and v2 do not meet.  (Comparing keys alone would miss
    some shared nodes: a shortening start closure's minimal stratum may
    hold other classes besides v's; in A3, s1 s2 s1 reaches both s1 and s2,
    so start closures can share a node while the keys differ.)

    Disjoint closures of v1 and v2 prove non-conjugacy under the
    completeness hypotheses (infinite order plus the centralising property,
    on either cyclically reduced node), or through the brute-force fallback
    when it can enumerate the whole group.  Otherwise images in the
    abelianisation that differ (:func:`_abelian_image`) give NOT_CONJUGATE,
    and the verdict is UNKNOWN.
    """
    if u1.system != u2.system:
        raise ValueError("elements live in different Coxeter systems")
    matrix = u1.system

    # certificates are built only for a CONJUGATE verdict, the one that
    # carries them; the words are in canonical order, so the first shared
    # one is the least
    start1, start2 = kappa_closure(u1, cap), kappa_closure(u2, cap)
    nodes2 = set(start2.words)
    meeting = next((v for v in start1.words if v in nodes2), None)
    if meeting is not None:
        return ConjugacyVerdict(
            ConjugacyStatus.CONJUGATE,
            certificates=(_path_certificate(start1, meeting, cap),
                          _path_certificate(start2, meeting, cap)),
            meeting=Element(matrix, meeting),
        )

    for v in (_reduced_node(start1), _reduced_node(start2)):
        if not is_finite_order(v, cap) and has_cent_prime(v, cap):
            return ConjugacyVerdict(
                ConjugacyStatus.NOT_CONJUGATE,
                basis=CompletenessBasis.CENT_PRIME_INFINITE_ORDER,
            )

    if brute_force:
        conjugators = oracle.enumerate_elements(matrix, brute_len_cap, cap=cap)
        exhaustive = not conjugators or conjugators[-1].length < brute_len_cap
        for v in conjugators:
            if conjugate(v, u1) == u2:
                return ConjugacyVerdict(ConjugacyStatus.CONJUGATE, conjugator=v)
        if exhaustive:
            return ConjugacyVerdict(
                ConjugacyStatus.NOT_CONJUGATE,
                basis=CompletenessBasis.BRUTE_FORCE,
            )

    if _abelian_image(matrix, u1.word) != _abelian_image(matrix, u2.word):
        return ConjugacyVerdict(
            ConjugacyStatus.NOT_CONJUGATE,
            basis=CompletenessBasis.ABELIAN_INVARIANT,
        )
    return ConjugacyVerdict(ConjugacyStatus.UNKNOWN)

