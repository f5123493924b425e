"""Conjugation, the cyclic-shift moves, the closure search and the Cent'
check against the engines they replaced.

``conjugate`` applies one memoised cyclic shift s*v*s per letter instead of
two products; ``torsion_witness`` grows descent closures from the supports
of the generators' conjugates, each computed at most once, instead of
listing the spherical subsets and conjugating a subset's generators afresh
for every subset.
``_elementary_targets`` walks each reduced word one shift per letter from the
memo instead of reducing every rotation, and keeps each distinct target
with its first witness; ``kappa_closure`` searches only those targets
instead of every move.  ``has_cent_prime`` follows the orbits of the
reflections with spherical support (R0) under each closure node instead of
listing every candidate subgroup w_I W_J w_I^-1 and scanning each product
by product.  All must agree with the reference engines in ``helpers``
exactly: conjugates and normaliser tests for every pair of elements of at
most 3 letters; distinct targets with their first witnesses in order of
first appearance, and closure nodes and parents (previous node, reduced
word, rotation) on every element of the sweep (949 of them); the targets,
witnesses and word counts again, on fresh systems, against the map that
walked every word of ``braid_class`` through its full length by reference
shifts, on every element of up to 6 letters in every test system, with the
same refusals below the 16 words of A3's longest element; R0 against the
generators of every reference candidate; and Cent' verdicts on every
cyclically reduced element of the sweep and of D_inf x A2 and D_inf x B2 up
to 5 letters, where Cent' also fails on elements of infinite order.

``has_cent_prime`` also memoises its verdict per length-preserving closure
and drops an image as soon as it is too long to end in R0, and a certificate
hop braids into rho, rotates and reduces, braiding a reduced rotation only as
far as its normal form.  Those must match fresh systems and the reference
engines too.
"""

import itertools

import pytest

import helpers
from coxkit import (
    DEFAULT_CAP,
    CoxeterMatrix,
    Element,
    braid_class,
    conjugate,
    enumerate_elements,
    has_cent_prime,
    is_cyclically_reduced,
    is_finite_order,
    kappa_closure,
    normalises,
    support,
    torsion_witness,
)
from coxkit.conjugacy import (
    _conjugate_within,
    _elementary_targets,
    _hop_certificate,
    _spherical_reflections,
)
from coxkit.core import _conjugate_word
from coxkit.errors import CapExceeded

# system, longest element length swept
SYSTEMS = {
    "A2~": (helpers.A2T, 7),
    "B2~": (helpers.B2T, 7),
    "G2~": (helpers.G2T, 7),
    "(2,3,7)": (helpers.T237, 7),
    "U3": (helpers.U3, 7),
    "Dinf": (helpers.DINF, 7),
    "A3": (helpers.A3, 7),
    "B3": (helpers.B3, 7),
    "H3": (helpers.H3, 7),
    "A3~": (helpers.A3T, 5),
}


@pytest.mark.parametrize("matrix, max_len", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_targets_match_reference(matrix, max_len):
    for u in enumerate_elements(matrix, max_len):
        expected = {}
        for rho, k, target in helpers.reference_elementary_edges(u):
            expected.setdefault(target.word, (rho, k))
        targets, words = _elementary_targets(matrix, u.word)
        assert list(targets.items()) == list(expected.items()), u
        assert words == len(braid_class(matrix, u.word)), u


@pytest.mark.parametrize("matrix", helpers.ALL_SYSTEMS, ids=lambda m: "".join(m.names))
def test_targets_match_the_full_rotation_walk(matrix):
    # the map searches the braid-move orbit with no reducedness stop, walks
    # the words after the first one letter short and resumes a shift by v's
    # first letter after v[1:]; none of that may change a target, a witness
    # or their order
    ours = CoxeterMatrix(matrix.names, matrix.table)
    theirs = CoxeterMatrix(matrix.names, matrix.table)
    for e in enumerate_elements(ours, 6):
        found, words = _elementary_targets(ours, e.word)
        expected, expected_words = helpers.reference_elementary_targets(theirs, e.word)
        assert list(found.items()) == list(expected.items()), e
        assert words == expected_words, e


def test_targets_refuse_as_the_full_rotation_walk():
    # A3's longest element has 16 reduced words: both maps refuse below cap
    # 16 with the braid-move search's text and agree above it
    def outcome(targets, cap):
        matrix = CoxeterMatrix(helpers.A3.names, helpers.A3.table)
        try:
            found, words = targets(matrix, matrix.word("s1 s2 s1 s3 s2 s1"), cap)
        except CapExceeded as exc:
            return str(exc)
        return list(found.items()), words

    for cap in range(1, 18):
        ours = outcome(_elementary_targets, cap)
        assert ours == outcome(helpers.reference_elementary_targets, cap), cap
        if cap < 16:
            assert ours == f"braid-move orbit exceeded the node cap of {cap}"
        else:
            assert ours[1] == 16


@pytest.mark.parametrize("matrix, max_len", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_closure_parents_match_reference(matrix, max_len):
    for u in enumerate_elements(matrix, max_len):
        closure = kappa_closure(u)
        ref_nodes, ref_parents = helpers.reference_closure_search(u)
        assert closure.nodes == tuple(sorted(ref_nodes)), u
        assert closure.word_parents == {
            v.word: (prev.word, (rho, k)) for v, (prev, rho, k) in ref_parents.items()}, u


# system, longest element length swept for Cent'
CENT_PRIME_SYSTEMS = {
    **SYSTEMS,
    "DinfxA2": (helpers.DINF_A2, 5),
    "DinfxB2": (helpers.DINF_B2, 5),
}


@pytest.mark.parametrize("matrix, max_len", CENT_PRIME_SYSTEMS.values(),
                         ids=CENT_PRIME_SYSTEMS.keys())
def test_spherical_reflections_match_reference(matrix, max_len):
    candidates = helpers.reference_cent_prime_candidates(matrix)
    generators = {g for gens, _, _ in candidates for g in gens}
    reflections = _spherical_reflections(matrix, DEFAULT_CAP)
    assert reflections == tuple(sorted(g.word for g in generators))


@pytest.mark.parametrize("matrix, max_len", CENT_PRIME_SYSTEMS.values(),
                         ids=CENT_PRIME_SYSTEMS.keys())
def test_cent_prime_matches_reference(matrix, max_len):
    verdicts = []
    for u in enumerate_elements(matrix, max_len):
        if is_cyclically_reduced(u):
            verdict = has_cent_prime(u)
            assert verdict == helpers.reference_has_cent_prime(u), u
            verdicts.append(verdict)
    assert verdicts


def test_infinite_order_elements_without_cent_prime():
    for matrix in (helpers.DINF_A2, helpers.DINF_B2):
        assert not is_finite_order(matrix.element("sta"))
        assert not has_cent_prime(matrix.element("sta"))
        assert has_cent_prime(matrix.element("st"))


def test_finite_systems_give_false_verdicts():
    for matrix in (helpers.A3, helpers.B3, helpers.H3):
        assert any(
            not has_cent_prime(u)
            for u in enumerate_elements(matrix, 7)
            if not u.is_identity() and is_cyclically_reduced(u)
        )


# system, for conjugation by every element of at most 3 letters
CONJUGATION_SYSTEMS = {
    key: SYSTEMS[key][0]
    for key in ("A3", "B3", "H3", "A2~", "B2~", "G2~", "(2,3,7)", "U3", "Dinf")
}


@pytest.mark.parametrize("matrix", CONJUGATION_SYSTEMS.values(), ids=CONJUGATION_SYSTEMS.keys())
def test_conjugate_and_normalises_match_reference(matrix):
    elements = enumerate_elements(matrix, 3)
    subsets = [frozenset(c) for n in range(matrix.rank + 1)
               for c in itertools.combinations(range(matrix.rank), n)]
    for v in elements:
        for x in elements:
            assert conjugate(v, x) == helpers.reference_conjugate(v, x), (v, x)
            assert _conjugate_word(matrix, v.word, x.word) == conjugate(v, x).word, (v, x)
        for members in subsets:
            expected = all(
                support(helpers.reference_conjugate(v, matrix.generator(i))) <= members
                for i in members
            )
            assert normalises(v, members) == expected, (v, members)


@pytest.mark.parametrize("matrix", CONJUGATION_SYSTEMS.values(), ids=CONJUGATION_SYSTEMS.keys())
def test_bounded_conjugation_drops_only_what_cannot_fit(matrix):
    # with a bound, a conjugate that fits is always built, and one that does
    # not is built or dropped (None); in A3, s1 s2 conjugates s1 to s2
    # through s2 s1 s2, so a bound of one letter must keep it
    elements = enumerate_elements(matrix, 3)
    for v in elements:
        for x in elements:
            full = _conjugate_word(matrix, v.word, x.word)
            for top in range(len(full) + 3):
                bounded = _conjugate_within(matrix, v.word, x.word, top)
                assert bounded == full or (bounded is None and len(full) > top), (v, x, top)
    a3 = helpers.A3
    assert _conjugate_within(a3, a3.word("s1 s2"), a3.word("s1"), 1) == a3.word("s2")


# system, longest element length swept by the torsion scan
TORSION_SYSTEMS = {
    **{key: (matrix, 8) for key, matrix in CONJUGATION_SYSTEMS.items()},
    "A3~": (helpers.A3T, 6),
}


@pytest.mark.parametrize("matrix, max_len", TORSION_SYSTEMS.values(), ids=TORSION_SYSTEMS.keys())
def test_torsion_witness_matches_reference(matrix, max_len):
    witnesses = set()
    for w in enumerate_elements(matrix, max_len):
        witness = torsion_witness(w)
        assert witness == helpers.reference_torsion_witness(w), w
        witnesses.add(witness)
    assert None in witnesses and len(witnesses) > 2


def test_cross_system_conjugation_rejected():
    for matrix, other in itertools.permutations(CONJUGATION_SYSTEMS.values(), 2):
        for v in (matrix.identity(), matrix.generator(0)):
            with pytest.raises(ValueError, match="different Coxeter systems"):
                conjugate(v, other.generator(1))


# ---------------------------------------------------------------------------
# the Cent' memo, the bounded conjugation and the hop certificates


def test_shortening_closure_leaves_no_cent_prime_entry():
    # cyclically reduced, but its closure reaches a length-2 conjugate: a
    # verdict found there says nothing about the nodes' own, smaller closures
    matrix = CoxeterMatrix(helpers.B3.names, helpers.B3.table)
    w = matrix.element("s2 s1 s2 s3")
    assert is_cyclically_reduced(w) and not kappa_closure(w).length_preserved
    assert has_cent_prime(w) == helpers.reference_has_cent_prime(w)
    assert not matrix._scratch.get("cent_prime")


# system, longest element length for the warm Cent' sweep
CENT_PRIME_MEMO_SYSTEMS = {
    "B3": (helpers.B3, 5),
    "DinfxA2": (helpers.DINF_A2, 5),
    "A3~": (helpers.A3T, 5),
}


@pytest.mark.parametrize("matrix, max_len", CENT_PRIME_MEMO_SYSTEMS.values(),
                         ids=CENT_PRIME_MEMO_SYSTEMS.keys())
def test_cent_prime_memo_matches_fresh_and_reference(matrix, max_len):
    # every cyclically reduced element, asked twice in two orders on one warm
    # system, against a fresh system and the per-candidate reference scan
    words = [u.word for u in enumerate_elements(matrix, max_len)
             if is_cyclically_reduced(u)]
    warm = CoxeterMatrix(matrix.names, matrix.table)
    for word in words + words[::-1]:
        verdict = has_cent_prime(warm.element(word))
        fresh = CoxeterMatrix(matrix.names, matrix.table).element(word)
        assert verdict == has_cent_prime(fresh), matrix.word_str(word)
        assert verdict == helpers.reference_has_cent_prime(fresh), matrix.word_str(word)
    memo = warm._scratch["cent_prime"]
    assert memo and False in memo.values()
    for word in memo:
        assert kappa_closure(warm.element(word)).length_preserved


@pytest.mark.parametrize("matrix", [helpers.A2T, helpers.B2T, helpers.G2T, helpers.B3],
                         ids=["A2~", "B2~", "G2~", "B3"])
def test_hop_certificates_match_reference(matrix):
    # every parent edge of every closure of elements of at most 6 letters,
    # against the reference braid-path and reduction engines, on hops that
    # keep the length and on hops that shorten it
    kept = shortened = 0
    for u in enumerate_elements(matrix, 6):
        for target, (prev, (rho, k)) in kappa_closure(u).word_parents.items():
            prev, target = Element(matrix, prev), Element(matrix, target)
            cert = _hop_certificate(prev, rho, k, target, DEFAULT_CAP)
            assert cert == helpers.reference_hop_certificate(prev, rho, k, target), (u, target)
            kept += target.length == prev.length
            shortened += target.length < prev.length
    assert kept and shortened
