"""Conjugation, the cyclic-shift moves, the closure search and the Cent'
check against the engines they replaced.

``conjugate`` applies one memoised cyclic shift s*v*s per letter instead of
two products.  ``_elementary_targets`` walks the reduced words one shift per
letter, each resuming the shifts of the previous word at their common
prefix, instead of reducing every rotation, and keeps each distinct target
with its first witness; ``kappa_closure`` searches only those targets
instead of every move.  ``has_cent_prime`` reads candidate membership of
reflection images from bitmasks over the candidates' reflection sets instead
of scanning every candidate subgroup product by product.  All must agree
with the reference engines in ``helpers`` exactly: conjugates and normaliser
tests for every pair of elements of at most 3 letters; distinct targets with
their first witnesses in order of first appearance, and closure nodes and
parents (previous node, reduced word, rotation) on every element of the
sweep (949 of them); every membership bit against the support test; and
Cent' verdicts on every cyclically reduced element (548 of them; of the 127
false ones, 57 lie in the finite systems).
"""

import itertools

import pytest

import helpers
from coxkit import (
    DEFAULT_CAP,
    braid_class,
    conjugate,
    enumerate_elements,
    has_cent_prime,
    is_cyclically_reduced,
    kappa_closure,
    normalises,
    support,
)
from coxkit.conjugacy import (
    _cent_prime_candidates,
    _cent_prime_masks,
    _elementary_targets,
)

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
            expected.setdefault(target, (rho, k))
        targets, words = _elementary_targets(u)
        assert list(targets.items()) == list(expected.items()), u
        assert words == len(braid_class(matrix, u.word)), u


@pytest.mark.parametrize("matrix, max_len", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_closure_parents_match_reference(matrix, max_len):
    for u in enumerate_elements(matrix, max_len):
        closure = kappa_closure(u)
        ref_nodes, ref_parents = helpers.reference_closure_search(u)
        assert closure.nodes == tuple(sorted(ref_nodes)), u
        assert dict(closure.parents) == ref_parents, u


@pytest.mark.parametrize("matrix, max_len", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_cent_prime_membership_matches_reference(matrix, max_len):
    candidates = _cent_prime_candidates(matrix, DEFAULT_CAP)
    generates, members = _cent_prime_masks(matrix, DEFAULT_CAP)
    assert set(members) <= set(generates)
    for c, candidate in enumerate(candidates):
        for r in generates:
            in_mask = bool(members.get(r, 0) >> c & 1)
            assert in_mask == helpers.reference_in_candidate(candidate, r), (candidate, r)


@pytest.mark.parametrize("matrix, max_len", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_cent_prime_matches_reference(matrix, max_len):
    verdicts = []
    for u in enumerate_elements(matrix, max_len):
        if is_cyclically_reduced(u):
            verdict = has_cent_prime(u)
            assert verdict == helpers.reference_has_cent_prime(u), u
            verdicts.append(verdict)
    assert verdicts


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
        for members in subsets:
            expected = all(
                support(helpers.reference_conjugate(v, matrix.generator(i))) <= members
                for i in members
            )
            assert normalises(v, members) == expected, (v, members)


def test_cross_system_conjugation_rejected():
    for matrix, other in itertools.permutations(CONJUGATION_SYSTEMS.values(), 2):
        for v in (matrix.identity(), matrix.generator(0)):
            with pytest.raises(ValueError, match="different Coxeter systems"):
                conjugate(v, other.generator(1))
