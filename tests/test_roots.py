"""The minimal-root engine: root counts, exact signs, and agreement with the
braid-move search it replaced as the word-problem engine.

The braid-move search stays in the library for braid classes and move paths,
and serves here as the oracle: a word is reduced by deleting equal adjacent
pairs found anywhere in its braid orbit (``helpers.naive_braid_orbit``), and
its normal form is the least word of the braid class of the result.
"""

import random
from decimal import Decimal, localcontext

import pytest

import helpers
from coxkit import (
    CoxeterMatrix,
    braid_class,
    canonical_word,
    enumerate_elements,
    is_reduced,
    is_reduced_oracle,
    is_straight,
    power_length_profile,
)
from coxkit.roots import NEG, NONMIN, Field, minimal_root_table

INF = helpers.INF

H3, B2T, G2T, T237, A3T = helpers.H3, helpers.B2T, helpers.G2T, helpers.T237, helpers.A3T
I2_5 = CoxeterMatrix.from_pairs("ab", {("a", "b"): 5})
# m in {4, 5, 6}: the field is Z[2cos(pi/60)], of degree 16
MIXED = CoxeterMatrix.from_pairs("abc", {("a", "b"): 4, ("b", "c"): 5, ("a", "c"): 6})


@pytest.mark.parametrize(
    "matrix, count",
    [
        # finite: every positive root is minimal
        (helpers.A3, 6),
        (helpers.B3, 9),
        (H3, 15),
        (I2_5, 5),
        # every m infinite: only the simple roots
        (helpers.U3, 3),
        (helpers.DINF, 2),
        # affine and hyperbolic
        (helpers.A2T, 6),
        (B2T, 8),
        (G2T, 12),
        (T237, 12),
        (A3T, 12),
    ],
)
def test_minimal_root_counts(matrix, count):
    assert len(minimal_root_table(matrix.table)) == count


def test_simple_roots_come_first():
    for matrix in (helpers.A3, helpers.U3, MIXED):
        table = minimal_root_table(matrix.table)
        for s in range(matrix.rank):
            assert table[s][s] == NEG
            for t in range(matrix.rank):
                if t != s:
                    assert (table[s][t] == NONMIN) == (matrix.m(s, t) == INF)


def _bfs_normal_forms(matrix, max_len):
    """Normal form of every word of up to max_len letters, by the oracle.

    Words come shortest first, so the word left after deleting a pair has
    its answer already.
    """
    forms = {}
    for word in helpers.all_words(matrix, max_len):
        orbit = helpers.naive_braid_orbit(matrix, word)
        repeat = next(
            (w[:i] + w[i + 2 :] for w in sorted(orbit) for i in range(len(w) - 1) if w[i] == w[i + 1]),
            None,
        )
        if repeat is None:
            forms[word] = (min(braid_class(matrix, word)), True)
            assert forms[word][0] == min(orbit)
        else:
            forms[word] = (forms[repeat][0], False)
    return forms


@pytest.mark.parametrize(
    "matrix",
    list(helpers.WORD_PROBLEM_SYSTEMS) + [H3, G2T, T237, MIXED],
    ids=["A3", "B3", "A2T", "DINF", "U3", "H3", "G2T", "T237", "MIXED"],
)
def test_exhaustive_differential_against_braid_search(matrix):
    # separate copies: braid_class fills the canonical-word memo of its system
    oracle, fresh = (CoxeterMatrix(matrix.names, matrix.table) for _ in range(2))
    for word, (form, reduced) in _bfs_normal_forms(oracle, 7).items():
        assert canonical_word(fresh, word) == form, fresh.word_str(word)
        assert is_reduced(fresh, word) == reduced == helpers.naive_is_reduced(fresh, word)


def _decimal_pi():
    """pi to the context precision (the series of the decimal module's recipes)."""
    with localcontext() as ctx:
        ctx.prec += 2
        three = Decimal(3)
        last, t, total, n, na, d, da = 0, three, three, 1, 0, 0, 24
        while total != last:
            last = total
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            total += t
    return +total


def _decimal_two_cos(x):
    with localcontext() as ctx:
        ctx.prec += 2
        term, total, k = Decimal(1), Decimal(1), 0
        while True:
            k += 2
            term = -term * x * x / (k * (k - 1))
            if total + term == total:
                break
            total += term
    return +(2 * total)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 12, 21, 60, 1001])
def test_sign_matches_high_precision_evaluation(order):
    field = Field(order)
    rng = random.Random(order)
    with localcontext() as ctx:
        # the minimal polynomial's coefficients grow with the degree
        ctx.prec = 80 + field.degree
        pi = _decimal_pi()
        c = _decimal_two_cos(pi / order)
        assert abs(sum(a * c**i for i, a in enumerate(field.poly))) < Decimal(10) ** -60
        # coordinates are on 1, 2cos(pi/M), 2cos(2pi/M), ...
        basis = [Decimal(1)] + [_decimal_two_cos(k * pi / order) for k in range(1, field.degree)]
        for _ in range(300):
            coords = tuple(rng.randint(-4, 4) for _ in range(field.degree))
            value = sum(a * b for a, b in zip(coords, basis))
            expected = (value > 0) - (value < 0)
            assert abs(value) > Decimal(10) ** -40 or not any(coords)
            assert field.sign(coords) == expected, coords


def test_sign_near_ties():
    # q sqrt2 - p for the convergents p/q of sqrt2, both ways round: values
    # down to 1e-10 whose signs alternate, decided exactly by p^2 vs 2q^2
    p, q = 1, 1
    for _ in range(15):
        expected = (2 * q * q > p * p) - (2 * q * q < p * p)
        for coords, sign in (((p, -q), -expected), ((-p, q), expected)):
            # a fresh field, so that no earlier sign has narrowed its interval
            assert Field(4).sign(coords) == sign, coords  # basis 1, sqrt2
        p, q = p + 2 * q, p + q


def test_sign_of_exact_identities_is_zero():
    f4, f60 = Field(4), Field(60)
    root2 = f4.two_cos(4)
    assert f4.sign(f4.add(f4.mul(root2, root2), f4.constant(-2))) == 0
    golden = f60.two_cos(5)  # 2cos(pi/5) = (1 + sqrt 5) / 2
    square = f60.mul(golden, golden)
    assert f60.sign(f60.add(square, tuple(-a - b for a, b in zip(golden, f60.constant(1))))) == 0
    assert f60.two_cos(3) == f60.constant(1)
    assert f60.two_cos(2) == f60.constant(0)


def test_b_equal_to_minus_one_is_decided_as_equality():
    # B~2: t -s-> a_t + sqrt2 a_s -u-> a_t + sqrt2 (a_s + a_u), and then
    # 2B(a_t, .) = 2 - 2 - 2 = -2 exactly: not minimal.  Deciding the tie as
    # "greater" would keep admitting new roots, and the table would not close.
    table = minimal_root_table(B2T.table)
    s, t, u = 0, 1, 2
    beta = table[table[t][s]][u]
    assert beta >= 0
    assert table[beta][t] == NONMIN
    # A~2: a_s + a_t against u is exactly -1 in the rational field
    table = minimal_root_table(helpers.A2T.table)
    assert table[table[t][s]][u] == NONMIN


def test_straight_powers_are_exactly_linear(a2t):
    straight = [w for w in enumerate_elements(a2t, 6) if w.length and is_straight(w).straight]
    assert len(straight) == 18
    for w in straight:
        assert power_length_profile(w, 10) == tuple(n * w.length for n in range(1, 11))
        for n in range(1, 16 // w.length + 1):
            assert is_reduced_oracle(a2t, w.word * n), (str(w), n)
