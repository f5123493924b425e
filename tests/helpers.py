"""Shared test systems and small independent oracles.

The systems are module-level singletons so that every test module reuses the
same memo caches.  The oracles here are deliberately naive re-derivations
(fixpoint iteration, explicit subgroup enumeration) kept independent of the
engine's search machinery, plus reference engines that the engine replaced
and must still match: the normal form by reduction and then the
least-left-descent strip, and the cyclic shift s*v*s by two exchange walks
and that strip; separate breadth-first searches over explicit
braid-move steps, which the engine's one orbit search must match move for
move; the rotation-target map over the reduced words of ``braid_class``,
each walked through its full length by reference shifts; conjugation as two
products; the cyclic-shift moves, closure search
and Cent' scan that reduce every rotation, walk every move and test every
candidate subgroup w_I W_J w_I^-1, listed by enumerating every spherical
W_I, one product at a time; the closure record built eagerly, an element
object per node; the conjugacy verdict that searches the closure of each
cyclically reduced node too and certifies in two legs, and the one that
searches both start closures to the end before it looks for a shared
node; the letter parities per odd-order component by fixpoint iteration;
the torsion scan that lists the spherical subsets and conjugates a
subset's generators afresh for every subset it tests, the descent closures
grown by fixpoint over two-product conjugates, and their search
conjugating afresh for every closure it grows; the
power-length profile that multiplies out every power in normal form;
cyclic reducedness that reduces every rotation of every reduced word; the
elementary-move certificate that reduces every rotation, and the path
certificate that joins one per hop; the FC test that searches commutation
moves alone; the
spherical subsets found by testing all 2^rank subsets; and element
enumeration that multiplies every element by every generator.  Last come
the elements of a standard parabolic subgroup, enumerated in the system on
its generators, and predicates on top of the engine that the tests ask and
no decision path does: the commutation class and the definitional FC test
(commutation class equals braid class), the elements spelled by rotations
of reduced words, minimality in the conjugacy class, the first power whose
length falls short of linear growth, and Coxeter-element recognition.
"""

import itertools
import math
from collections import deque
from enum import Enum
from functools import lru_cache
from types import MappingProxyType

from coxkit import (
    DEFAULT_CAP,
    BraidStep,
    CancelStep,
    CompletenessBasis,
    ConjugacyStatus,
    ConjugacyVerdict,
    CoxeterMatrix,
    Element,
    KappaClosure,
    MoveCertificate,
    RotateStep,
    braid_class,
    canonical_word,
    centralises,
    conjugate,
    enumerate_elements,
    has_cent_prime,
    inverse,
    is_cyclically_reduced,
    is_finite_order,
    is_reduced,
    is_spherical,
    kappa_closure,
    left_descents,
    multiply,
    power_length_profile,
    support,
)
from coxkit.conjugacy import _elementary_targets
from coxkit.core import _exchange, _root_table, _search
from coxkit.errors import CapExceeded, NotReduced
from coxkit.roots import NEG

INF = math.inf

A1 = CoxeterMatrix.from_pairs(["s"], {})
A2 = CoxeterMatrix.from_pairs("st", {("s", "t"): 3})
A1A1 = CoxeterMatrix.from_pairs("st", {})
B2 = CoxeterMatrix.from_pairs("st", {("s", "t"): 4})
DINF = CoxeterMatrix.from_pairs("st", {("s", "t"): INF})
A3 = CoxeterMatrix.from_pairs(["s1", "s2", "s3"], {("s1", "s2"): 3, ("s2", "s3"): 3})
B3 = CoxeterMatrix.from_pairs(["s1", "s2", "s3"], {("s1", "s2"): 4, ("s2", "s3"): 3})
A2T = CoxeterMatrix.from_pairs("stu", {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 3})
U3 = CoxeterMatrix.from_pairs(
    "abc", {("a", "b"): INF, ("b", "c"): INF, ("a", "c"): INF}
)
H3 = CoxeterMatrix.from_pairs("abc", {("a", "b"): 5, ("b", "c"): 3})
B2T = CoxeterMatrix.from_pairs("stu", {("s", "t"): 4, ("t", "u"): 4})
G2T = CoxeterMatrix.from_pairs("stu", {("s", "t"): 6, ("t", "u"): 3})
T237 = CoxeterMatrix.from_pairs("stu", {("t", "u"): 3, ("s", "u"): 7})
A3T = CoxeterMatrix.from_pairs(
    "abcd", {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3, ("a", "d"): 3}
)

#: every system above
ALL_SYSTEMS = (A1, A2, A1A1, B2, DINF, A3, B3, A2T, U3, H3, B2T, G2T, T237, A3T)

#: D_inf x A2 and D_inf x B2 (s, t of infinite order; a, b of order 3 or 4):
#: elements of infinite order without Cent', such as s t a, which moves b
DINF_A2 = CoxeterMatrix.from_pairs("stab", {("s", "t"): INF, ("a", "b"): 3})
DINF_B2 = CoxeterMatrix.from_pairs("stab", {("s", "t"): INF, ("a", "b"): 4})

#: systems named by the word-problem equivalence sweep
WORD_PROBLEM_SYSTEMS = (A3, B3, A2T, DINF, U3)


def all_words(matrix, max_len):
    """Every word over the alphabet, lengths 0..max_len."""
    for length in range(max_len + 1):
        for letters in itertools.product(range(matrix.rank), repeat=length):
            yield bytes(letters)


def naive_braid_orbit(matrix, word):
    """Independent braid-orbit oracle: plain fixpoint iteration.

    Applies every applicable braid move to every known word until nothing new
    appears.  No queues, no early exits, no caching.
    """
    def moves(w):
        out = []
        for pos in range(len(w) - 1):
            a, b = w[pos], w[pos + 1]
            m = matrix.m(a, b)
            if m == INF or pos + m > len(w):
                continue
            factor = bytes((a if i % 2 == 0 else b) for i in range(m))
            if w[pos : pos + m] == factor:
                swapped = bytes((b if i % 2 == 0 else a) for i in range(m))
                out.append(w[:pos] + swapped + w[pos + m :])
        return out

    orbit = {word}
    while True:
        grown = set()
        for w in orbit:
            for new in moves(w):
                if new not in orbit:
                    grown.add(new)
        if not grown:
            return orbit
        orbit |= grown


def naive_is_reduced(matrix, word):
    """Reducedness by the same fixpoint iteration: no orbit word repeats."""
    return not any(
        any(w[i] == w[i + 1] for i in range(len(w) - 1))
        for w in naive_braid_orbit(matrix, word)
    )


# ---------------------------------------------------------------------------
# reference path engines


def _alternating(a, b, m):
    return bytes((a if i % 2 == 0 else b) for i in range(m))


def reference_braid_moves(matrix, word, only_commutations=False):
    """All applicable braid moves of a word, in position order, as
    ``(BraidStep, resulting word)`` pairs."""
    out = []
    n = len(word)
    for pos in range(n - 1):
        a, b = word[pos], word[pos + 1]
        if a == b:
            continue
        m = matrix.m(a, b)
        if m == INF or pos + m > n or (only_commutations and m != 2):
            continue
        if word[pos : pos + m] == _alternating(a, b, m):
            replaced = word[:pos] + _alternating(b, a, m) + word[pos + m :]
            out.append((BraidStep(pos, (a, b)), replaced))
    return out


def _first_repeat(word):
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            return i
    return None


def reference_orbit_scan(matrix, word, cap=DEFAULT_CAP, parents=None,
                         only_commutations=False):
    """Breadth-first search of the braid-move orbit, stopping at the first
    word with an equal adjacent pair: ``(seen, (word, pos))``, or
    ``(seen, None)`` once the orbit is exhausted.  ``parents`` collects
    ``word -> (previous word, BraidStep)`` at first discovery."""
    if parents is None:
        parents = {}
    p = _first_repeat(word)
    if p is not None:
        return {word}, (word, p)
    seen = {word}
    queue = deque([word])
    while queue:
        cur = queue.popleft()
        for step, nxt in reference_braid_moves(matrix, cur, only_commutations):
            if nxt in seen:
                continue
            if len(seen) >= cap:
                raise CapExceeded(f"braid-move orbit exceeded the node cap of {cap}")
            seen.add(nxt)
            parents[nxt] = (cur, step)
            p = _first_repeat(nxt)
            if p is not None:
                return seen, (nxt, p)
            queue.append(nxt)
    return seen, None


def _walk_parents(parents, target):
    chain = []
    w = target
    while w in parents:
        w, step = parents[w]
        chain.append(step)
    chain.reverse()
    return chain


def reference_reduce_word_with_path(matrix, word, cap=DEFAULT_CAP):
    """``(element, steps)``: braid into a repeat and cancel it, until the
    word is reduced, then braid into the canonical word."""
    cur = matrix.word(word)
    steps = []
    while not naive_is_reduced(matrix, cur):
        parents = {}
        _, (sigma, p) = reference_orbit_scan(matrix, cur, cap, parents)
        steps.extend(_walk_parents(parents, sigma))
        steps.append(CancelStep(p))
        cur = sigma[:p] + sigma[p + 2 :]
    canon = canonical_word(matrix, cur)
    steps.extend(reference_braid_word_path(matrix, cur, canon, cap))
    return Element(matrix, canon), steps


def reference_braid_word_path(matrix, source, target, cap=DEFAULT_CAP):
    """A shortest braid-move path from ``source`` to ``target``, the first
    one breadth-first search discovers."""
    if source == target:
        return []
    parents = {}
    seen = {source}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for step, nxt in reference_braid_moves(matrix, cur):
            if nxt in seen:
                continue
            if len(seen) >= cap:
                raise CapExceeded(f"braid-move orbit exceeded the node cap of {cap}")
            seen.add(nxt)
            parents[nxt] = (cur, step)
            if nxt == target:
                return _walk_parents(parents, target)
            queue.append(nxt)
    raise ValueError("not braid-related")


# ---------------------------------------------------------------------------
# reference normal forms


def _reduce(act, word):
    """A reduced word for ``word``, by the exchange walk of each letter
    against the letters kept before it: delete the letter at the exchange
    position, or append the new one.  Lengths only, no normal form."""
    out = bytearray()
    for s in word:
        beta = s
        for i in range(len(out) - 1, -1, -1):
            beta = act[beta][out[i]]
            if beta < 0:
                break
        if beta == NEG:
            del out[i]
        else:
            out.append(s)
    return bytes(out)


def _shortlex(matrix, act, word):
    """The shortlex-least word of the element spelled by the reduced ``word``.

    Strips the least left descent again and again, working on the reversed
    word (which spells the inverse, so left descents become right ones).  The
    first letter is always a left descent, so only smaller letters need a
    test, and only those with a finite order against it: left descents
    generate a finite group.
    """
    out = bytearray()
    rev = bytearray(word[::-1])
    candidates = matrix._descent_candidates
    while rev:
        least, pos = rev[-1], len(rev) - 1
        for t in candidates[least]:
            i = _exchange(act, rev, t)
            if i is not None:
                least, pos = t, i
                break
        out.append(least)
        del rev[pos]
    return bytes(out)


def reference_normal_form(matrix, word):
    """The normal form by reduction, then the descent strip."""
    act = _root_table(matrix)
    return _shortlex(matrix, act, _reduce(act, word))


def reference_shift(matrix, word, s):
    """The normal form of s*v*s for the reduced ``word`` v: twice, multiply
    by s on the right (the exchange walk) and reverse, which spells the
    inverse, v -> s v^-1 -> s v s; then the descent strip."""
    act, out = _root_table(matrix), word
    for _ in range(2):
        i = _exchange(act, out, s)
        out = (out + bytes((s,)) if i is None else out[:i] + out[i + 1 :])[::-1]
    return _shortlex(matrix, act, out)


# ---------------------------------------------------------------------------
# reference conjugation, cyclic-shift moves and Cent' scan


def reference_conjugate(v, x):
    """v x v^-1 as two products, each a fresh reduction."""
    return multiply(multiply(v, x), inverse(v))


def reference_elementary_targets(matrix, word, cap=DEFAULT_CAP):
    """``(targets, words)`` as the rotation-target map used to build them:
    every word of :func:`braid_class`, shortlex, walked through its full
    length one reference shift per letter, keeping each target's first
    witness ``(rho, k)``; ``words`` is the size of the braid class."""
    words = sorted(braid_class(matrix, word, cap))
    found = {}
    for rho in words:
        v = word
        for k, s in enumerate(rho, 1):
            v = reference_shift(matrix, v, s)
            found.setdefault(v, (rho, k))
    return found, len(words)


def reference_elementary_edges(u, cap=DEFAULT_CAP):
    """Outgoing moves of u as ``(reduced word, rotation amount, target)``,
    reducing every rotation of every reduced word on its own."""
    out = []
    for rho in sorted(braid_class(u.system, u.word, cap)):
        for k in range(1, len(rho) + 1):
            out.append((rho, k, u.system.element(rho[k:] + rho[:k])))
    return tuple(out)


def reference_closure(u, cap=DEFAULT_CAP):
    """Node set of the cyclic-shift closure, by fixpoint over the reference
    moves."""
    nodes = {u}
    frontier = [u]
    while frontier:
        grown = []
        for cur in frontier:
            for _, _, target in reference_elementary_edges(cur, cap):
                if target not in nodes:
                    nodes.add(target)
                    grown.append(target)
        frontier = grown
    return nodes


def reference_closure_search(u, cap=DEFAULT_CAP):
    """Closure nodes and first-discovery parents ``v -> (previous, rho, k)``
    by breadth-first search over every reference move in edge order, as the
    engine searched before it kept one witness per distinct target."""
    nodes = {u}
    parents = {}
    queue = deque([u])
    while queue:
        cur = queue.popleft()
        for rho, k, target in reference_elementary_edges(cur, cap):
            if target in nodes:
                continue
            if len(nodes) >= cap:
                raise CapExceeded(f"cyclic-shift closure exceeded the node cap of {cap}")
            nodes.add(target)
            parents[target] = (cur, rho, k)
            queue.append(target)
    return nodes, parents


@lru_cache(maxsize=4096)
def reference_hop_certificate(prev, rho, k, target, cap=DEFAULT_CAP):
    """The certificate of one elementary move by the reference path engines:
    braid into rho, rotate, then reduce the rotation.  Cached, as many paths
    share a hop."""
    steps = reference_braid_word_path(prev.system, prev.word, rho, cap)
    steps.append(RotateStep(k, rho))
    landed, reduction = reference_reduce_word_with_path(prev.system, rho[k:] + rho[:k], cap)
    assert landed == target
    steps.extend(reduction)
    return MoveCertificate(prev.word, tuple(steps), target.word)


def reference_start_closure(u, cap=DEFAULT_CAP):
    """u's closure record as ``kappa_closure`` built it before a search
    could stop early: the breadth-first search over the rotation targets,
    run to the end and memoised nowhere."""
    matrix = u.system
    peak = 0

    def moves(v):
        nonlocal peak
        targets, words = _elementary_targets(matrix, v, cap)
        peak = max(peak, words)
        return targets.items()

    parents = {}
    seen, _ = _search(u.word, moves, cap, "cyclic-shift closure", parents=parents)
    return KappaClosure(start=u, words=tuple(sorted(seen, key=lambda v: (len(v), v))),
                        word_parents=MappingProxyType(parents), peak=peak)


def reference_closure_record(u, cap=DEFAULT_CAP):
    """The public attributes of u's closure record, built eagerly as the
    engine built them before the record kept words: the same search, then
    an element object per node, and the minimal length and stratum."""
    record = reference_start_closure(u, cap)
    nodes = tuple(Element(u.system, v) for v in record.words)
    low = nodes[0].length
    return {
        "start": u,
        "nodes": nodes,
        "min_length": low,
        "min_stratum": tuple(v for v in nodes if v.length == low),
        "length_preserved": low == u.length,
        "peak": record.peak,
    }


def _joined(certificates):
    """One certificate from consecutive ones, each starting where the one
    before it ends."""
    for before, after in zip(certificates, certificates[1:]):
        assert before.end == after.start
    return MoveCertificate(certificates[0].start,
                           tuple(step for cert in certificates for step in cert.steps),
                           certificates[-1].end)


def _reference_path_certificate(closure, target, cap):
    """The certificate from the closure's start to ``target`` along its
    parents: the reference certificates of the hops, joined."""
    matrix, start = closure.start.system, closure.start.word
    hops = []
    cur = target.word
    while cur != start:
        prev, (rho, k) = closure.word_parents[cur]
        hops.append(reference_hop_certificate(Element(matrix, prev), rho, k,
                                              Element(matrix, cur), cap))
        cur = prev
    return _joined([MoveCertificate(start, (), start)] + hops[::-1])


def reference_are_conjugate(u1, u2, cap=DEFAULT_CAP):
    """The conjugacy verdict as the engine reached it when it searched two
    closures per input: the start closure of each u_i, then the closure of
    its cyclically reduced node v_i, meeting iff the least nodes of the v_i
    closures are equal, with certificates u_i -> v_i over the start closure
    then v_i -> meeting over v_i's closure; Cent' on v_1 and v_2; UNKNOWN
    otherwise (no brute-force fallback, no abelianisation)."""
    starts = [kappa_closure(u, cap) for u in (u1, u2)]
    reduced = [s.start if s.length_preserved else s.min_stratum[0] for s in starts]
    closures = [kappa_closure(v, cap) for v in reduced]
    meeting = closures[0].nodes[0]
    if meeting == closures[1].nodes[0]:
        certificates = tuple(
            _joined([_reference_path_certificate(start, v, cap),
                     _reference_path_certificate(closure, meeting, cap)])
            for start, v, closure in zip(starts, reduced, closures))
        return ConjugacyVerdict(ConjugacyStatus.CONJUGATE, certificates=certificates,
                                meeting=meeting)
    for v in reduced:
        if not is_finite_order(v, cap) and has_cent_prime(v, cap):
            return ConjugacyVerdict(ConjugacyStatus.NOT_CONJUGATE,
                                    basis=CompletenessBasis.CENT_PRIME_INFINITE_ORDER)
    return ConjugacyVerdict(ConjugacyStatus.UNKNOWN)


def reference_start_closure_verdict(u1, u2, cap=DEFAULT_CAP):
    """The conjugacy verdict as the engine reached it when it searched both
    start closures to the end: CONJUGATE at the first node of u1's closure
    that u2's closure holds, certified over each; otherwise NOT_CONJUGATE
    from Cent' on either cyclically reduced node, then from the abelian
    images; UNKNOWN otherwise (no brute-force fallback)."""
    matrix = u1.system
    starts = [reference_start_closure(u, cap) for u in (u1, u2)]
    nodes2 = set(starts[1].words)
    meeting = next((v for v in starts[0].words if v in nodes2), None)
    if meeting is not None:
        meeting = Element(matrix, meeting)
        return ConjugacyVerdict(ConjugacyStatus.CONJUGATE, meeting=meeting, certificates=tuple(
            _reference_path_certificate(start, meeting, cap) for start in starts))
    for start in starts:
        v = start.start if start.length_preserved else Element(matrix, start.words[0])
        if not is_finite_order(v, cap) and has_cent_prime(v, cap):
            return ConjugacyVerdict(ConjugacyStatus.NOT_CONJUGATE,
                                    basis=CompletenessBasis.CENT_PRIME_INFINITE_ORDER)
    if reference_abelian_image(matrix, u1.word) != reference_abelian_image(matrix, u2.word):
        return ConjugacyVerdict(ConjugacyStatus.NOT_CONJUGATE,
                                basis=CompletenessBasis.ABELIAN_INVARIANT)
    return ConjugacyVerdict(ConjugacyStatus.UNKNOWN)


def reference_abelian_image(matrix, word):
    """The letter parities per component of the graph of odd orders
    m(s, t), components ordered by least member, found by fixpoint
    iteration."""
    label = list(range(matrix.rank))
    changed = True
    while changed:
        changed = False
        for i, j in itertools.combinations(range(matrix.rank), 2):
            m = matrix.m(i, j)
            if m != INF and m % 2 == 1 and label[i] != label[j]:
                label[i] = label[j] = min(label[i], label[j])
                changed = True
    return tuple(sum(label[letter] == c for letter in word) % 2
                 for c in sorted(set(label)))


@lru_cache(maxsize=None)
def reference_cent_prime_candidates(matrix, cap=DEFAULT_CAP):
    """Spherical subgroups of the form w_I W_J w_I^-1, deduplicated by their
    generating sets; each entry is (generators, w_I, J).  Built by
    enumerating every spherical W_I, once per system: the reference scan
    reads them for every element it checks."""
    out = []
    seen_gensets = set()
    subsets = reference_spherical_subsets(matrix)
    for members in subsets:
        if not members:
            continue
        j_sets = [j_set for j_set in subsets if j_set and j_set <= members]
        for w_i in parabolic_elements(matrix, members, cap=cap):
            images = {j: conjugate(w_i, matrix.generator(j)) for j in members}
            for j_set in j_sets:
                gens = tuple(images[j] for j in sorted(j_set))
                genset = frozenset(gens)
                if genset in seen_gensets:
                    continue
                seen_gensets.add(genset)
                out.append((gens, w_i, j_set))
    return tuple(out)


def _reference_normalises_conjugated(w, gens, w_i, j_set):
    # x lies in w_I W_J w_I^-1 iff w_I^-1 x w_I has support inside J
    w_i_inv = inverse(w_i)
    for g in gens:
        conj = multiply(multiply(w, g), inverse(w))
        pulled = multiply(multiply(w_i_inv, conj), w_i)
        if not support(pulled) <= j_set:
            return False
    return True


def reference_has_cent_prime(u, cap=DEFAULT_CAP):
    """The per-candidate Cent' scan: for every closure node and every
    candidate w_I W_J w_I^-1, conjugate each generator and pull it back by
    w_I; a normalised candidate must be centralised."""
    if not is_cyclically_reduced(u, cap):
        raise ValueError("has_cent_prime requires a cyclically reduced element")
    candidates = reference_cent_prime_candidates(u.system, cap)
    for w in sorted(reference_closure(u, cap)):
        for gens, w_i, j_set in candidates:
            if _reference_normalises_conjugated(w, gens, w_i, j_set):
                if not centralises(w, gens):
                    return False
    return True


# ---------------------------------------------------------------------------
# reference torsion scan


def reference_normalises(w, members, conjugated=None):
    """Whether w normalises W_I: every generator of I, in increasing order,
    conjugated by two products, stays in W_I.  Each conjugated generator is
    appended to ``conjugated`` when given."""
    for i in sorted(members):
        if conjugated is not None:
            conjugated.append(i)
        if not support(reference_conjugate(w, w.system.generator(i))) <= members:
            return False
    return True


def reference_descent_closure(w, d):
    """The least set holding d that holds supp(w s_i w^-1) for each of its
    members i, by fixpoint iteration over two-product conjugates."""
    members = frozenset({d})
    while True:
        grown = members.union(*(support(reference_conjugate(w, w.system.generator(i)))
                                for i in members))
        if grown == members:
            return members
        members = grown


def reference_descent_search(w, conjugated):
    """The spherical descent closures as the torsion scan grows them: from
    {d}, conjugate the member added last (two products), add its support,
    and abandon the closure as soon as it is not spherical.  Appends each
    generator conjugated to ``conjugated``, once per closure that does."""
    matrix = w.system
    closures = set()
    for d in sorted(left_descents(w)):
        members, pending = {d}, [d]
        while pending:
            i = pending.pop()
            conjugated.append(i)
            grown = support(reference_conjugate(w, matrix.generator(i))) - members
            if grown:
                members |= grown
                if not is_spherical(matrix, members):
                    break
                pending.extend(sorted(grown))
        else:
            closures.add(frozenset(members))
    return closures


def reference_torsion_witness(w, conjugated=None):
    """The first spherical I, in canonical order, that meets the left
    descents of w and that w normalises, testing each subset on its own."""
    lds = left_descents(w)
    if not lds:
        return None
    for members in reference_spherical_subsets(w.system):
        if members and (lds & members) and reference_normalises(w, members, conjugated):
            return members
    return None


# ---------------------------------------------------------------------------
# reference power-length profile


def reference_power_length_profile(w, n_max):
    """Lengths l(w^1), ..., l(w^n_max), one normal-form product per power."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    out = []
    acc = w.system.identity()
    for _ in range(n_max):
        acc = multiply(acc, w)
        out.append(acc.length)
    return tuple(out)


# ---------------------------------------------------------------------------
# reference cyclic reducedness


def rotations(word):
    """All cyclic rotations of a word, by one letter up to the full length."""
    n = len(word)
    if n == 0:
        return [word]
    return [word[k:] + word[:k] for k in range(1, n + 1)]


def reference_is_cyclically_reduced(w, cap=DEFAULT_CAP):
    """Every rotation of every reduced word of w is reduced, each tested on
    its own by one reduction."""
    words = braid_class(w.system, w.word, cap)
    return all(is_reduced(w.system, sigma)
               for rho in sorted(words) for sigma in rotations(rho))


# ---------------------------------------------------------------------------
# reference spherical subsets


def reference_spherical_subsets(matrix):
    """Every subset of the generators tested on its own, all 2^rank of them,
    by size then lexicographically."""
    return tuple(frozenset(combo) for size in range(matrix.rank + 1)
                 for combo in itertools.combinations(range(matrix.rank), size)
                 if is_spherical(matrix, combo))


# ---------------------------------------------------------------------------
# reference element enumeration


def reference_enumerate_elements(matrix, max_len, cap=DEFAULT_CAP, letters=None):
    """Breadth-first right multiplication: every element below ``max_len``
    times every generator (of ``letters`` when given), one product each,
    keeping the products that gain length; canonically ordered."""
    gens = [matrix.generator(i) for i in (sorted(letters) if letters is not None
                                          else range(matrix.rank))]
    seen = {matrix.identity()}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        if max_len is not None and x.length >= max_len:
            continue
        for g in gens:
            y = multiply(x, g)
            if y.length < x.length or y in seen:
                continue
            if len(seen) >= cap:
                raise CapExceeded(f"element enumeration exceeded the node cap of {cap}")
            seen.add(y)
            queue.append(y)
    return tuple(sorted(seen))


def parabolic_elements(matrix, members, max_len=None, cap=DEFAULT_CAP):
    """The elements of the standard parabolic subgroup W_I of length at most
    ``max_len`` (all of them for None), canonically ordered: the elements of
    the system on I, found by ``enumerate_elements`` under ``cap``, with
    their words lifted back into W.  The reduced words of an element of W_I
    use only letters of I, and lifting keeps the order of the letters, so a
    lifted canonical word is canonical in W."""
    members = tuple(sorted(members))
    if not members:
        return (matrix.identity(),)
    return tuple(Element(matrix, bytes(members[i] for i in x.word))
                 for x in enumerate_elements(_parabolic_system(matrix, members), max_len,
                                             cap=cap))


@lru_cache(maxsize=None)
def _parabolic_system(matrix, members):
    return CoxeterMatrix([matrix.names[i] for i in members],
                         [[matrix.m(i, j) for j in members] for i in members])


# ---------------------------------------------------------------------------
# predicates and oracles on top of the engine


def commutation_class(matrix, word, cap=DEFAULT_CAP):
    """Orbit of a reduced word under commutation moves only (pairs with
    m = 2), by the reference orbit scan restricted to them."""
    word = matrix.word(word)
    if not is_reduced(matrix, word):
        raise NotReduced(f"word {matrix.word_str(word)} is not reduced")
    seen, _ = reference_orbit_scan(matrix, word, cap, only_commutations=True)
    return frozenset(seen)


def reference_is_fc(w, cap=DEFAULT_CAP):
    """``is_fc`` by a capped breadth-first search over commutation moves
    alone, ending at the first word with a braid factor of order 3 or more:
    the search ``is_fc`` ran before its moves were the whole braid-move
    set, with the same refusal."""
    matrix = w.system

    def has_braid_factor(word):
        return any(matrix.m(*step.pair) > 2 for step, _ in reference_braid_moves(matrix, word))

    if cap < 1:
        raise CapExceeded(f"braid-move orbit exceeded the node cap of {cap}")
    if has_braid_factor(w.word):
        return False
    seen = {w.word}
    queue = deque([w.word])
    while queue:
        cur = queue.popleft()
        for _, nxt in reference_braid_moves(matrix, cur, only_commutations=True):
            if nxt in seen:
                continue
            if len(seen) >= cap:
                raise CapExceeded(f"braid-move orbit exceeded the node cap of {cap}")
            seen.add(nxt)
            if has_braid_factor(nxt):
                return False
            queue.append(nxt)
    return True


def is_fc_definitional(w, cap=DEFAULT_CAP):
    """Ground-truth FC decision: commutation moves alone already reach every
    reduced word."""
    matrix = w.system
    return commutation_class(matrix, w.word, cap) == braid_class(matrix, w.word, cap)


def elementary_related(u, cap=DEFAULT_CAP):
    """Elements spelled by rotations of reduced words of u (u included), read
    off the engine's rotation targets."""
    if u.is_identity():
        return frozenset({u})
    return frozenset(Element(u.system, target)
                     for target in _elementary_targets(u.system, u.word, cap)[0])


class TriState(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def is_min_in_conjugacy_class(w, cap=DEFAULT_CAP):
    """Minimal length in the conjugacy class: certain when the closure
    shortens (NO), or when w is cyclically reduced with finite order or the
    centralising property (YES); UNKNOWN otherwise."""
    if not kappa_closure(w, cap).length_preserved:
        return TriState.NO
    if is_finite_order(w, cap) or has_cent_prime(w, cap):
        return TriState.YES
    return TriState.UNKNOWN


def find_power_defect(w, n_max=10):
    """The first ``(n, l(w^n))`` with n <= n_max and l(w^n) < n l(w), or
    None.  A defect disproves straightness; its absence proves nothing."""
    for n, length in enumerate(power_length_profile(w, n_max), start=1):
        if length < n * w.length:
            return n, length
    return None


def is_coxeter_element(w):
    """Each generator exactly once in the canonical word (such words are
    automatically reduced)."""
    return len(w.word) == w.system.rank == len(set(w.word))
