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

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Optional

from .core import (
    DEFAULT_CAP,
    BraidStep,
    CancelStep,
    CoxeterMatrix,
    Element,
    RotateStep,
    Step,
    Word,
    apply_step,
    braid_class,
    braid_word_path,
    conjugate,
    is_reduced,
    reduce_word_with_path,
    support,
    _shift,
)
from .errors import CapExceeded, InvariantViolation, ReplayError
from . import oracle, parabolic


def rotations(word: Word) -> list:
    """All cyclic rotations of a word, by one letter up to the full length."""
    n = len(word)
    if n == 0:
        return [word]
    return [word[k:] + word[:k] for k in range(1, n + 1)]


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


def _rotation_walk(u: Element, cap: int):
    """Every reduced word rho of u, shortlex, with ``common``, the length of
    its common prefix with the previous one, and a stack whose k-th word is
    the rotation of rho by k, x^-1 u x with x = rho[:k]: one memoised shift
    s*v*s of the (k-1)-th by rho[k-1] (``core._shift``).  rho resumes the
    previous word's stack after ``common`` letters; the list is reused."""
    matrix = u.system
    stack = [u.word]
    words = sorted(braid_class(matrix, u.word, cap))
    for prev, rho in zip([b""] + words, words):
        common = 0
        while common < len(prev) and prev[common] == rho[common]:
            common += 1
        del stack[common + 1:]
        for s in rho[common:]:
            stack.append(_shift(matrix, stack[-1], s))
        yield rho, common, stack


def _elementary_targets(u: Element, cap: int = DEFAULT_CAP) -> tuple:
    """``(targets, words)``: every element spelled by a rotation of a reduced
    word of u, in order of first appearance (reduced words shortlex, then
    rotation amount), each mapped to its first witness (rho, k), and the
    number of reduced words walked.  Memoised per system; a hit over ``cap``
    words is walked again, so :func:`braid_class` refuses as on a fresh
    system.  Rotations shared with the previous reduced word are skipped."""
    matrix = u.system
    cache = matrix._scratch["elementary_targets"]
    hit = cache.get(u.word)
    if hit is None or hit[1] > cap:
        found = {}
        words = 0
        for rho, common, stack in _rotation_walk(u, cap):
            words += 1
            for k in range(common + 1, len(rho) + 1):
                found.setdefault(stack[k], (rho, k))
        hit = cache[u.word] = ({Element(matrix, word): witness
                                for word, witness in found.items()}, words)
    return hit


def elementary_related(u: Element, cap: int = DEFAULT_CAP) -> frozenset:
    """Elements spelled by rotations of reduced words of u (includes u)."""
    if u.is_identity():
        return frozenset({u})
    return frozenset(_elementary_targets(u, cap)[0])


@dataclass(frozen=True)
class KappaClosure:
    """The reachable set under braid moves, cyclic shifts and cancellations.

    ``nodes`` and ``min_stratum`` are canonically ordered.  ``parents[v] =
    (previous, rho, k)`` is the move that first reached v in the search: v is
    spelled by rotating the reduced word rho of previous by k letters.  It is
    read-only and takes no part in comparison.
    """

    start: Element
    nodes: tuple
    parents: MappingProxyType = field(compare=False)
    min_length: int
    min_stratum: tuple
    length_preserved: bool


def kappa_closure(u: Element, cap: int = DEFAULT_CAP) -> KappaClosure:
    """The closure of u, by breadth-first search over the distinct targets of
    each node.  The record is memoised per system under the start word with
    its peak, the largest braid class among its nodes.  A hit whose peak or
    node count is over ``cap`` is searched again over the memoised targets,
    so it refuses exactly as on a fresh system, naming the same search.
    """
    cache = u.system._scratch["closure"]
    hit = cache.get(u.word)
    if hit is not None and max(hit[1], len(hit[0].nodes)) <= cap:
        return hit[0]
    seen = {u}
    parents = {}
    peak = 0
    queue = deque([u])
    while queue:
        cur = queue.popleft()
        targets, words = _elementary_targets(cur, cap)
        peak = max(peak, words)
        for target, (rho, k) in targets.items():
            if target in seen:
                continue
            if len(seen) >= cap:
                raise CapExceeded(f"cyclic-shift closure exceeded the node cap of {cap}")
            seen.add(target)
            parents[target] = (cur, rho, k)
            queue.append(target)
    nodes = tuple(sorted(seen, key=lambda v: (len(v.word), v.word)))
    low = nodes[0].length
    record = KappaClosure(
        start=u,
        nodes=nodes,
        parents=MappingProxyType(parents),
        min_length=low,
        min_stratum=tuple(v for v in nodes if v.length == low),
        length_preserved=(low == u.length),
    )
    cache[u.word] = record, peak
    return record


def _hop_certificate(prev: Element, rho: Word, k: int, target: Element,
                     cap: int) -> MoveCertificate:
    """Certificate of one elementary move: braid into rho, rotate, reduce."""
    steps = list(braid_word_path(prev.system, prev.word, rho, cap))
    steps.append(RotateStep(k, rho))
    rotated = rho[k:] + rho[:k]
    landed, reduction = reduce_word_with_path(prev.system, rotated, cap)
    if landed != target:
        raise InvariantViolation("elementary move replays to an unexpected element")
    steps.extend(reduction)
    return MoveCertificate(prev.word, tuple(steps), target.word)


def _path_certificate(start: Element, parents: dict, target: Element,
                      cap: int) -> MoveCertificate:
    hops = []
    cur = target
    while cur != start:
        prev, rho, k = parents[cur]
        hops.append((prev, rho, k, cur))
        cur = prev
    cert = MoveCertificate(start.word, (), start.word)
    for prev, rho, k, nxt in reversed(hops):
        cert = cert.then(_hop_certificate(prev, rho, k, nxt, cap))
    return cert


def is_cyclically_reduced(w: Element, cap: int = DEFAULT_CAP) -> bool:
    """Every rotation of every reduced word of w stays reduced."""
    cache = w.system._scratch["cyclically_reduced"]
    hit = cache.get(w.word)
    if hit is None:
        hit = all(
            is_reduced(w.system, sigma)
            for rho in sorted(braid_class(w.system, w.word, cap))
            for sigma in rotations(rho)
        )
        cache[w.word] = hit
    return hit


def cyclic_reduce(w: Element, cap: int = DEFAULT_CAP):
    """A minimal-length element of the move closure of w, with a certificate.

    The result is cyclically reduced and conjugate to w; its length equals
    the closure minimum.  When the closure preserves length, w itself is
    already minimal and is returned with an empty certificate.
    """
    closure = kappa_closure(w, cap)
    if closure.length_preserved:
        return w, MoveCertificate(w.word, (), w.word)
    target = closure.min_stratum[0]
    return target, _path_certificate(w, closure.parents, target, cap)


# ---------------------------------------------------------------------------
# torsion and the centralising property


def is_finite_order(w: Element, cap: int = DEFAULT_CAP) -> bool:
    """True iff some closure node has spherical support.

    Sound because such a node lies in a finite standard parabolic subgroup;
    complete because a finite-order element always reaches one by these moves.
    """
    return any(parabolic.is_spherical(w.system, support(v))
               for v in kappa_closure(w, cap).nodes)


def _cent_prime_candidates(matrix: CoxeterMatrix, cap: int) -> tuple:
    """Spherical subgroups of the form w_I W_J w_I^-1, deduplicated by their
    generating sets; each entry is (generators, w_I, J)."""
    cache = matrix._scratch["cent_prime_candidates"]
    hit = cache.get(cap)
    if hit is None:
        out = []
        seen_gensets = set()
        subsets = parabolic.spherical_subsets(matrix)
        for members in subsets:
            if not members:
                continue
            j_sets = [j_set for j_set in subsets if j_set and j_set <= members]
            subgroup = oracle.enumerate_elements(matrix, None, cap=cap, letters=members)
            for w_i in subgroup:
                images = {j: conjugate(w_i, matrix.generator(j)) for j in members}
                for j_set in j_sets:
                    gens = tuple(images[j] for j in sorted(j_set))
                    genset = frozenset(gens)
                    if genset in seen_gensets:
                        continue
                    seen_gensets.add(genset)
                    out.append((gens, w_i, j_set))
        hit = tuple(out)
        cache[cap] = hit
    return hit


def _cent_prime_masks(matrix: CoxeterMatrix, cap: int) -> tuple:
    """Bitmasks over the candidates, bit c for candidate c: ``generates[g]``
    marks the candidates that generator g generates, ``members[r]`` those whose
    reflection set holds r.  The reflections of a candidate are the orbit of
    its generators under conjugation by them.  Memoised per system."""
    cache = matrix._scratch["cent_prime_masks"]
    hit = cache.get(cap)
    if hit is None:
        generates, members = {}, {}
        for c, (gens, _, _) in enumerate(_cent_prime_candidates(matrix, cap)):
            orbit = list(gens)
            for x in orbit:  # grows until closed under conjugation by gens
                for g in gens:
                    y = conjugate(g, x)
                    if y not in orbit:
                        orbit.append(y)
            for g in gens:
                generates[g] = generates.get(g, 0) | 1 << c
            for r in orbit:
                members[r] = members.get(r, 0) | 1 << c
        hit = cache[cap] = (generates, members)
    return hit


def has_cent_prime(u: Element, cap: int = DEFAULT_CAP) -> bool:
    """Along the whole closure of a cyclically reduced u: normalising any
    spherical subgroup of the form w_I W_J w_I^-1 implies centralising it.

    Each node w is tested through its reflection images w g w^-1, one for
    each distinct candidate generator g; these generators form a set R0 of
    reflections.  w normalises a candidate iff every image of its generators
    lies in the candidate, and centralises it iff every such image is g.  An
    image is a reflection, and a standard parabolic meets the reflections T
    in its own ones, W_J & T = T_J = {x s_j x^-1 : x in W_J, j in J}; so the
    reflections of w_I W_J w_I^-1 are the orbit of its generators under
    conjugation by them, each (w_I x) s_j (w_I x)^-1 with w_I x in W_I, the
    generator of the singleton candidate (I, w_I x, {j}), which is in R0.
    An image r != g moves the candidates g generates and breaks those that
    miss r (:func:`_cent_prime_masks`); Cent' fails where one is moved and
    not broken.
    """
    if not is_cyclically_reduced(u, cap):
        raise ValueError("has_cent_prime requires a cyclically reduced element")
    matrix = u.system
    cache = matrix._scratch["cent_prime"]
    hit = cache.get(u.word)
    if hit is not None:
        return hit
    generates, members = _cent_prime_masks(matrix, cap)
    verdict = True
    for w in kappa_closure(u, cap).nodes:
        moved = broken = 0
        for g, mask in generates.items():
            r = conjugate(w, g)
            if r != g:
                moved |= mask
                broken |= mask & ~members.get(r, 0)
        if moved & ~broken:
            verdict = False
            break
    cache[u.word] = verdict
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


def are_conjugate(u1: Element, u2: Element, *, cap: int = DEFAULT_CAP,
                  brute_force: bool = False, brute_len_cap: int = 16) -> ConjugacyVerdict:
    """Decide conjugacy through minimal strata of the move closures.

    Intersecting strata prove conjugacy with certificates.  Disjoint strata
    prove non-conjugacy only under the completeness hypotheses (infinite
    order plus the centralising property, on either input), or through the
    brute-force fallback when it can enumerate the whole group; otherwise the
    verdict is UNKNOWN.
    """
    if u1.system != u2.system:
        raise ValueError("elements live in different Coxeter systems")
    matrix = u1.system

    v1, cert1 = cyclic_reduce(u1, cap)
    v2, cert2 = cyclic_reduce(u2, cap)
    closure1 = kappa_closure(v1, cap)
    closure2 = kappa_closure(v2, cap)
    stratum2 = set(closure2.min_stratum)
    common = [x for x in closure1.min_stratum if x in stratum2]
    if common:
        meeting = common[0]
        full1 = cert1.then(_path_certificate(v1, closure1.parents, meeting, cap))
        full2 = cert2.then(_path_certificate(v2, closure2.parents, meeting, cap))
        return ConjugacyVerdict(
            ConjugacyStatus.CONJUGATE,
            certificates=(full1, full2),
            meeting=meeting,
        )

    for v in (v1, v2):
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

    return ConjugacyVerdict(ConjugacyStatus.UNKNOWN)


# ---------------------------------------------------------------------------
# minimality


class TriState(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def is_min_in_conjugacy_class(w: Element, cap: int = DEFAULT_CAP) -> TriState:
    """Minimal length in the conjugacy class: certain when the closure
    shortens (NO), or when w is cyclically reduced with finite order or the
    centralising property (YES); UNKNOWN otherwise."""
    if not kappa_closure(w, cap).length_preserved:
        return TriState.NO
    if is_finite_order(w, cap) or has_cent_prime(w, cap):
        return TriState.YES
    return TriState.UNKNOWN
