import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from coxkit import (
    CoxeterMatrix,
    INFINITY,
    braid_class,
    canonical_word,
    inverse,
    is_reduced,
    left_descents,
    multiply,
    power,
    reduce_word,
    right_descents,
    support,
)
from coxkit.core import _normal_form, _root_table, _search, _shift
from coxkit.errors import CapExceeded, MalformedMatrix, NotReduced, WordSyntaxError


class TestNewSystem:
    def test_affine_triangle_system_is_valid(self):
        m = CoxeterMatrix(
            "stu",
            [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
        )
        assert m.rank == 3
        assert m.m(0, 1) == 3

    def test_rank_one(self):
        m = CoxeterMatrix(["s"], [[1]])
        assert m.rank == 1

    def test_off_diagonal_one_rejected(self):
        with pytest.raises(MalformedMatrix):
            CoxeterMatrix("st", [[1, 1], [1, 1]])

    def test_asymmetry_rejected(self):
        with pytest.raises(MalformedMatrix):
            CoxeterMatrix("st", [[1, 3], [4, 1]])

    def test_bad_diagonal_rejected(self):
        with pytest.raises(MalformedMatrix):
            CoxeterMatrix("st", [[2, 3], [3, 1]])

    def test_duplicate_names_rejected(self):
        with pytest.raises(MalformedMatrix):
            CoxeterMatrix("ss", [[1, 3], [3, 1]])

    def test_empty_names_rejected(self):
        with pytest.raises(MalformedMatrix):
            CoxeterMatrix([], [])

    def test_infinite_entry_accepted(self):
        m = CoxeterMatrix("st", [[1, INFINITY], [INFINITY, 1]])
        assert m.m(0, 1) == INFINITY

    def test_from_pairs_rejects_unknown_generator(self):
        with pytest.raises(MalformedMatrix):
            CoxeterMatrix.from_pairs("st", {("s", "x"): 3})


class TestWordSyntax:
    def test_contiguous_and_spaced(self, a2t):
        assert a2t.word("tustuts") == a2t.word("t u s t u t s")

    def test_empty_forms(self, a2t):
        assert a2t.word("-") == b""
        assert a2t.word("") == b""

    def test_round_trip(self, a2t, a3):
        for matrix, text in ((a2t, "tustuts"), (a3, "s1 s2 s3"), (a2t, "-")):
            word = matrix.word(text)
            assert matrix.word(matrix.word_str(word)) == word

    def test_unknown_token_rejected(self, a2t):
        with pytest.raises(WordSyntaxError):
            a2t.word("sxy")

    def test_multichar_tokens_never_split(self, a3):
        with pytest.raises(WordSyntaxError):
            a3.word("s1s2")

    def test_invalid_bytes_rejected_on_fresh_and_warmed_system(self):
        # index 3 names no generator of a rank-3 system, but it is a valid
        # row of the minimal-root table, so only validation can catch it
        matrix = CoxeterMatrix.from_pairs("stu", {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 3})
        bad = (b"\x03", b"\x00\x03", b"\x01\x00\x01\x03")
        for word in bad:
            with pytest.raises(WordSyntaxError, match="invalid generator index"):
                canonical_word(matrix, word)
        for word in helpers.all_words(matrix, 4):
            canonical_word(matrix, word)
        for word in bad:
            with pytest.raises(WordSyntaxError, match="invalid generator index"):
                canonical_word(matrix, word)


class TestSearch:
    """The one capped breadth-first search, on the integers mod 10 with steps
    of +1 and +3, each move named by its step."""

    @staticmethod
    def moves(i):
        return ((i + 1) % 10, 1), ((i + 3) % 10, 3)

    def test_orbit_and_first_discovery_parents(self):
        parents = {}
        seen, hit = _search(0, self.moves, 10, "test orbit", parents=parents)
        assert seen == set(range(10)) and hit is None
        assert parents[1] == (0, 1) and parents[3] == (0, 3) and parents[4] == (1, 3)
        assert 0 not in parents

    def test_more_than_cap_nodes_refuse(self):
        with pytest.raises(CapExceeded, match="^test orbit exceeded the node cap of 9$"):
            _search(0, self.moves, 9, "test orbit")

    def test_stop_is_tested_on_discovery(self):
        assert _search(0, self.moves, 1, "test orbit", stop=(0).__eq__) == ({0}, 0)
        assert _search(0, self.moves, 10, "test orbit", stop=(4).__eq__) == ({0, 1, 2, 3, 4}, 4)


class TestBraidClass:
    def test_no_applicable_move(self, a2t):
        assert braid_class(a2t, a2t.word("st")) == {a2t.word("st")}

    def test_single_relation(self, a2t):
        assert braid_class(a2t, a2t.word("sts")) == {
            a2t.word("sts"),
            a2t.word("tst"),
        }

    def test_b2_long_relation(self, b2):
        # exhaustive move application: only one factor, swapped once
        assert braid_class(b2, b2.word("stst")) == {
            b2.word("stst"),
            b2.word("tsts"),
        }

    def test_rejects_non_reduced(self, a2t):
        with pytest.raises(NotReduced):
            braid_class(a2t, a2t.word("ss"))

    def test_cap_exceeded(self):
        # fresh system: the shared fixtures may already have this class cached
        matrix = CoxeterMatrix.from_pairs("st", {("s", "t"): 3})
        with pytest.raises(CapExceeded):
            braid_class(matrix, matrix.word("sts"), cap=1)

    def test_memoised_under_the_word_asked_only(self, a3):
        # fresh system: A3's longest element has 16 reduced words, and the
        # class is searched, not memoised, under any of them
        matrix = CoxeterMatrix(a3.names, a3.table)
        words = braid_class(matrix, matrix.word("s1 s2 s1 s3 s2 s1"))
        assert len(words) == 16
        assert "class" not in matrix._scratch
        others = words - {min(words)}
        assert len(others) == 15
        assert not others & matrix._scratch["canon"].keys()
        assert "reduced" not in matrix._scratch

    def test_matches_naive_fixpoint_orbit(self, a2t, b3):
        for matrix in (a2t, b3):
            for word in helpers.all_words(matrix, 5):
                if is_reduced(matrix, word):
                    assert braid_class(matrix, word) == helpers.naive_braid_orbit(
                        matrix, word
                    )


class TestIsReduced:
    def test_adjacent_repeat(self, a2t):
        assert not is_reduced(a2t, a2t.word("ss"))

    def test_worked_example_word(self, a2t):
        assert is_reduced(a2t, a2t.word("tustuts"))

    def test_commutation_exposes_repeat(self, a1a1):
        # stst -> sstt by the m=2 move
        assert not is_reduced(a1a1, a1a1.word("stst"))

    def test_matches_naive_fixpoint(self, b2, a2):
        for matrix in (b2, a2):
            for word in helpers.all_words(matrix, 6):
                assert is_reduced(matrix, word) == helpers.naive_is_reduced(
                    matrix, word
                )


class TestReduce:
    def test_ss_is_identity(self, a2t):
        assert reduce_word(a2t, a2t.word("ss")).is_identity()

    def test_square_of_worked_example(self, a2t):
        w = a2t.element("tustuts")
        square = multiply(w, w)
        assert square.length == 12
        assert square == a2t.element("tustustustus")

    def test_braid_related_words_agree(self, a2t):
        assert reduce_word(a2t, a2t.word("sts")) == reduce_word(a2t, a2t.word("tst"))

    def test_canonical_examples(self, a2t):
        assert canonical_word(a2t, a2t.word("tst")) == a2t.word("sts")
        assert canonical_word(a2t, b"") == b""
        assert canonical_word(a2t, a2t.word("uss")) == a2t.word("u")

    def test_canonical_memoised_under_input_and_answer(self, a3):
        # fresh system: the normal form is built letter by letter, so no
        # reduced word other than the answer is ever formed
        matrix = CoxeterMatrix(a3.names, a3.table)
        word = matrix.word("s1 s1 s2 s2 s3 s2 s3")
        assert canonical_word(matrix, word) == matrix.word("s2 s3 s2")
        assert matrix._scratch["canon"].keys() == {word, matrix.word("s2 s3 s2")}

    @pytest.mark.parametrize("matrix", helpers.WORD_PROBLEM_SYSTEMS,
                             ids=lambda m: "".join(m.names))
    def test_normal_form_resumes_after_a_normal_form_prefix(self, matrix):
        # _shift resumes the walk after the normal form of the word it shifts
        act = _root_table(matrix)
        words = list(helpers.all_words(matrix, 5))
        prefixes = [p for p in words if canonical_word(matrix, p) == p]
        for prefix in prefixes:
            for word in words:
                assert (_normal_form(act, word, prefix)
                        == _normal_form(act, prefix + word)), (prefix, word)

    def test_canonical_is_least_class_member(self, a2t, b3):
        for matrix in (a2t, b3):
            for word in helpers.all_words(matrix, 5):
                canon = canonical_word(matrix, word)
                assert canon == min(braid_class(matrix, canon))


class TestNormalForm:
    """The one-walk normal form against reduction plus the descent strip."""

    @pytest.mark.parametrize("matrix", helpers.ALL_SYSTEMS, ids=lambda m: "".join(m.names))
    def test_every_short_word(self, matrix):
        act = _root_table(matrix)
        for word in helpers.all_words(matrix, 6):
            assert _normal_form(act, word) == helpers.reference_normal_form(matrix, word), word

    @pytest.mark.parametrize("matrix", helpers.ALL_SYSTEMS, ids=lambda m: "".join(m.names))
    def test_random_words_and_their_shifts(self, matrix):
        # a fresh system, so that every shift is computed, not read back
        rng = random.Random(21)
        matrix = CoxeterMatrix(matrix.names, matrix.table)
        act = _root_table(matrix)
        for _ in range(40):
            word = bytes(rng.randrange(matrix.rank) for _ in range(rng.randint(10, 60)))
            canon = _normal_form(act, word)
            assert canon == helpers.reference_normal_form(matrix, word), word
            for s in range(matrix.rank):
                assert _shift(matrix, canon, s) == helpers.reference_shift(matrix, canon, s)

    @pytest.mark.parametrize("matrix", [helpers.A2T, helpers.A3T, helpers.T237],
                             ids=lambda m: "".join(m.names))
    def test_long_powers_of_coxeter_elements(self, matrix):
        # the generators in either order give a Coxeter element, whose powers
        # are reduced in these infinite systems; a fresh system computes the
        # shifts
        matrix = CoxeterMatrix(matrix.names, matrix.table)
        act = _root_table(matrix)
        for order in (bytes(range(matrix.rank)), bytes(range(matrix.rank))[::-1]):
            for length in (100, 400, 1600):
                word = (order * (length // matrix.rank + 1))[:length]
                canon = _normal_form(act, word)
                assert len(canon) == length
                assert canon == helpers.reference_normal_form(matrix, word), length
                s = word[-1]
                assert _shift(matrix, canon, s) == helpers.reference_shift(matrix, canon, s)


class TestArithmetic:
    def test_generator_squares_to_identity(self, a2t):
        s = a2t.element("s")
        assert multiply(s, s).is_identity()

    def test_inverse_reverses(self, a2t):
        assert inverse(a2t.element("stu")) == a2t.element("uts")

    def test_inverse_length_preserved(self, a2t, b3):
        for matrix in (a2t, b3):
            for word in helpers.all_words(matrix, 5):
                e = reduce_word(matrix, word)
                assert inverse(e).length == e.length

    def test_power_of_worked_example(self, a2t):
        assert power(a2t.element("tustuts"), 2).length == 12

    def test_negative_power(self, a2t):
        e = a2t.element("stu")
        assert power(e, -2) == inverse(multiply(e, e))

    def test_power_zero(self, a2t):
        assert power(a2t.element("stu"), 0).is_identity()

    @pytest.mark.parametrize("matrix", [helpers.A3, helpers.B3, helpers.H3, helpers.A2T,
                                        helpers.G2T, helpers.T237, helpers.U3])
    def test_power_matches_repeated_products(self, matrix):
        for x in {reduce_word(matrix, w) for w in helpers.all_words(matrix, 3)}:
            for sign, base in ((1, x), (-1, inverse(x))):
                acc = matrix.identity()
                for n in range(9):
                    assert power(x, sign * n) == acc, (x, sign * n)
                    acc = multiply(acc, base)

    def test_huge_exponent(self, a3):
        # repeated squaring: about 60 products, not a billion
        s1 = a3.element("s1")
        assert power(s1, 10**9 + 1) == s1
        assert power(s1, -(10**9)).is_identity()
        coxeter = a3.element("s1 s2 s3")  # order 4
        assert power(coxeter, 10**9 + 1) == coxeter

    def test_group_laws_on_small_sample(self, b3):
        elements = [reduce_word(b3, w) for w in helpers.all_words(b3, 3)]
        sample = sorted(set(elements))[:10]
        for x in sample:
            assert multiply(x, inverse(x)).is_identity()
            for y in sample[:5]:
                assert multiply(x, y).length <= x.length + y.length

    def test_cross_system_multiply_rejected(self, a2, a3):
        with pytest.raises(ValueError):
            multiply(a2.element("s"), a3.element("s1"))

    def test_element_equality_and_hash(self, a2, b2):
        twin = CoxeterMatrix.from_pairs("st", {("s", "t"): 3})
        x, y = a2.element("sts"), twin.element("tst")
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
        # same word, different system: equal hashes, unequal elements
        z = b2.element("sts")
        assert z.word == x.word and z != x and len({x, z}) == 2
        assert x != x.word and multiply(x, y).is_identity()


class TestDescentsAndSupport:
    def test_identity_has_no_descents(self, a2t):
        assert left_descents(a2t.identity()) == frozenset()
        assert right_descents(a2t.identity()) == frozenset()

    def test_long_dihedral_word(self, a2):
        e = a2.element("sts")
        assert left_descents(e) == {0, 1}

    def test_two_letter_word(self, a2t):
        assert left_descents(a2t.element("st")) == {a2t.index("s")}
        assert right_descents(a2t.element("st")) == {a2t.index("t")}

    def test_descent_definition(self, a2t, b3):
        # s is a left descent iff multiplying by s shortens by exactly one
        for matrix in (a2t, b3):
            for word in helpers.all_words(matrix, 4):
                e = reduce_word(matrix, word)
                for i in range(matrix.rank):
                    product = multiply(matrix.generator(i), e)
                    if i in left_descents(e):
                        assert product.length == e.length - 1
                    else:
                        assert product.length == e.length + 1

    def test_support_examples(self, a2t):
        assert support(a2t.identity()) == frozenset()
        assert support(a2t.element("tustuts")) == {0, 1, 2}
        assert support(a2t.element("st")) == {0, 1}

    def test_support_constant_across_class(self, a2t, b3):
        for matrix in (a2t, b3):
            for word in helpers.all_words(matrix, 5):
                e = reduce_word(matrix, word)
                letter_sets = {frozenset(w) for w in braid_class(matrix, e.word)}
                assert letter_sets == {support(e)}


class TestCommutationClass:
    def test_subset_of_braid_class(self, b3):
        for word in helpers.all_words(b3, 5):
            if is_reduced(b3, word):
                assert helpers.commutation_class(b3, word) <= braid_class(b3, word)

    def test_rejects_non_reduced(self, a2):
        with pytest.raises(NotReduced):
            helpers.commutation_class(a2, a2.word("ss"))


WORD_STRATEGY = st.lists(st.integers(min_value=0, max_value=2), max_size=9)


class TestWordProperties:
    @settings(max_examples=60, deadline=None)
    @given(letters=WORD_STRATEGY)
    def test_canonical_idempotent(self, letters):
        matrix = helpers.A2T
        word = bytes(letters)
        canon = canonical_word(matrix, word)
        assert canonical_word(matrix, canon) == canon

    @settings(max_examples=60, deadline=None)
    @given(letters=WORD_STRATEGY)
    def test_reduction_parity_and_shrinking(self, letters):
        matrix = helpers.B3
        word = bytes(letters)
        e = reduce_word(matrix, word)
        assert e.length <= len(word)
        assert e.length % 2 == len(word) % 2

    @settings(max_examples=40, deadline=None)
    @given(letters=WORD_STRATEGY)
    def test_braid_class_uniformity(self, letters):
        matrix = helpers.A2T
        e = reduce_word(matrix, bytes(letters))
        cls = braid_class(matrix, e.word)
        assert {len(w) for w in cls} == {e.length}
        assert all(canonical_word(matrix, w) == e.word for w in cls)
