import itertools

import numpy as np
import pytest

import helpers
from coxkit import (
    GeometricRep,
    conjugacy_class_bruteforce,
    enumerate_elements,
    is_finite_order,
    is_reduced,
    is_reduced_oracle,
    order_bruteforce,
)
from coxkit import core, oracle
from coxkit.cli import EXIT_USAGE, run
from coxkit.core import CoxeterMatrix
from coxkit.errors import CapExceeded


class TestGeometricRep:
    def test_generator_maps_are_involutions(self):
        for matrix in helpers.WORD_PROBLEM_SYSTEMS:
            rep = GeometricRep(matrix)
            for reflection in rep.maps:
                assert np.allclose(reflection @ reflection, np.eye(matrix.rank), atol=1e-12)

    def test_form_diagonal_exactly_one(self):
        for matrix in helpers.WORD_PROBLEM_SYSTEMS:
            rep = GeometricRep(matrix)
            assert all(rep.form[i, i] == 1.0 for i in range(matrix.rank))

    def test_infinite_order_encodes_minus_one(self, dinf):
        rep = GeometricRep(dinf)
        assert rep.form[0, 1] == -1.0


class TestIsReducedOracle:
    def test_repeat_is_negative(self, a2t):
        assert not is_reduced_oracle(a2t, a2t.word("ss"))

    def test_worked_example_word(self, a2t):
        assert is_reduced_oracle(a2t, a2t.word("tustuts"))

    def test_empty_word(self, a2t):
        assert is_reduced_oracle(a2t, b"")

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_tolerance_that_is_not_positive_and_finite(self, a2t, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            is_reduced_oracle(a2t, a2t.word("st"), tolerance=tolerance)
        # the length cap is checked first, so a call with both faults refuses
        with pytest.raises(CapExceeded):
            is_reduced_oracle(a2t, a2t.word("stu" * 6), tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_cli_refuses_bad_tolerance_as_usage_error(self, tmp_path, capsys, tolerance):
        path = tmp_path / "a2tilde.cox"
        path.write_text("generators: s t u\nm: s t 3\nm: t u 3\nm: s u 3\n")
        argv = ["oracle-is-reduced", "--matrix", str(path), f"--tolerance={tolerance}", "st"]
        assert run(argv) == EXIT_USAGE
        assert "tolerance" in capsys.readouterr().err

    def test_length_cap_enforced(self, a2t):
        with pytest.raises(CapExceeded):
            is_reduced_oracle(a2t, a2t.word("stu" * 6))

    def test_agrees_with_engine_on_short_words(self):
        # the full length-7 sweep is the acceptance suite; spot-check here
        for matrix in helpers.WORD_PROBLEM_SYSTEMS:
            for word in helpers.all_words(matrix, 4):
                assert is_reduced_oracle(matrix, word) == is_reduced(matrix, word)


class TestEnumeration:
    def test_dihedral_of_order_six(self, a2):
        assert len(enumerate_elements(a2, 3)) == 6

    def test_symmetric_group_on_four_letters(self, a3):
        assert len(enumerate_elements(a3, 6)) == 24

    def test_length_zero(self, a2t):
        elements = enumerate_elements(a2t, 0)
        assert len(elements) == 1 and elements[0].is_identity()

    def test_whole_group_b3(self, b3):
        assert len(enumerate_elements(b3, None)) == 48

    def test_whole_group_infinite_raises(self, a2t):
        with pytest.raises(CapExceeded):
            enumerate_elements(a2t, None, cap=500)

    def test_parabolic_restriction(self, a2t):
        assert len(helpers.parabolic_elements(a2t, {0, 1})) == 6

    def test_canonical_ordering(self, b3):
        elements = enumerate_elements(b3, 4)
        assert list(elements) == sorted(elements)

    def test_builds_normal_forms_without_stripping_descents(self, monkeypatch):
        # each normal form is a least left descent followed by a normal form
        # found before it: no word is reduced to its normal form and nothing
        # is memoised beyond the root table
        calls = []
        original = core._normal_form

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(core, "_normal_form", counted)
        monkeypatch.setattr(oracle, "_normal_form", counted, raising=False)
        for matrix in helpers.ALL_SYSTEMS:
            fresh = CoxeterMatrix(matrix.names, matrix.table)
            assert len(enumerate_elements(fresh, 5)) > 1
            assert not calls, matrix
            assert {name for name, memo in fresh._scratch.items() if memo} == {"roots"}

    @pytest.mark.parametrize("matrix, size", [
        (helpers.A3, 24),
        (helpers.B3, 48),
        (helpers.H3, 120),
        (CoxeterMatrix.from_pairs(["s1", "s2", "s3", "s4"],
                                  {("s1", "s2"): 4, ("s2", "s3"): 3, ("s3", "s4"): 3}), 384),
        (CoxeterMatrix.from_pairs(["s1", "s2", "s3", "s4"],
                                  {("s1", "s2"): 3, ("s2", "s3"): 3, ("s2", "s4"): 3}), 192),
    ], ids=["A3", "B3", "H3", "B4", "D4"])
    def test_whole_groups_match_the_reference(self, matrix, size):
        fresh = CoxeterMatrix(matrix.names, matrix.table)
        elements = enumerate_elements(fresh, None)
        assert len(elements) == size
        assert elements == helpers.reference_enumerate_elements(matrix, None)

    def test_lengths_respect_bound(self, a2t):
        assert all(e.length <= 5 for e in enumerate_elements(a2t, 5))

    @pytest.mark.parametrize("max_len, letters, size", [
        (None, None, 24),      # the whole of A3
        (None, {0, 1}, 6),     # the parabolic subgroup <s1, s2>
        (2, None, 9),          # lengths 0, 1 and 2
    ])
    def test_cap_boundary(self, a3, max_len, letters, size):
        # the cap counts every element found, the identity included
        def elements(cap):
            if letters is None:
                return enumerate_elements(a3, max_len, cap=cap)
            return helpers.parabolic_elements(a3, letters, max_len, cap=cap)

        assert len(elements(size)) == size
        with pytest.raises(CapExceeded) as refused:
            elements(size - 1)
        assert str(refused.value) == f"element enumeration exceeded the node cap of {size - 1}"

    @pytest.mark.parametrize("matrix", helpers.ALL_SYSTEMS, ids=lambda m: "".join(m.names))
    def test_matches_multiplying_every_pair(self, matrix):
        # by descent test against one product per (element, generator) pair,
        # over the whole system and over every pair of generators
        for letters in [None] + [set(pair) for pair in itertools.combinations(range(matrix.rank), 2)]:
            fresh = CoxeterMatrix(matrix.names, matrix.table)
            ours = (enumerate_elements(fresh, 5) if letters is None
                    else helpers.parabolic_elements(fresh, letters, 5))
            assert [x.word for x in ours] == \
                [x.word for x in helpers.reference_enumerate_elements(matrix, 5, letters=letters)]
            assert all(x.system is fresh for x in ours)

    @pytest.mark.parametrize("matrix, size", [(helpers.A3, 24), (helpers.B3, 48)],
                             ids=["A3", "B3"])
    def test_refuses_as_the_reference_around_the_group_size(self, matrix, size):
        def outcome(enumerate_, cap):
            try:
                return len(enumerate_(matrix, None, cap=cap))
            except CapExceeded as exc:
                return str(exc)

        for cap in range(size - 3, size + 3):
            ours = outcome(enumerate_elements, cap)
            assert ours == outcome(helpers.reference_enumerate_elements, cap), cap
            assert ours == (size if cap >= size else
                            f"element enumeration exceeded the node cap of {cap}"), cap


class TestBruteForceClasses:
    def test_identity_class(self, a3):
        cls = conjugacy_class_bruteforce(a3.identity(), None)
        assert len(cls) == 1 and cls[0].is_identity()

    def test_transpositions_of_s4(self, a3):
        cls = conjugacy_class_bruteforce(a3.element("s1"), 6)
        expected = {
            a3.element(text)
            for text in ("s1", "s2", "s3", "s1 s2 s1", "s2 s3 s2", "s1 s2 s3 s2 s1")
        }
        assert set(cls) == expected

    def test_dihedral_long_word_meets_shorter_conjugates(self, a2):
        cls = conjugacy_class_bruteforce(a2.element("sts"), 3)
        assert any(e.length == 1 for e in cls)


class TestBruteForceOrders:
    def test_generator_order_two(self, a2t):
        assert order_bruteforce(a2t.element("s"), 5) == 2

    def test_rotation_order_three(self, a2):
        assert order_bruteforce(a2.element("st"), 10) == 3

    def test_infinite_order_absent(self, a2t):
        assert order_bruteforce(a2t.element("stu"), 20) is None

    def test_identity_order_one(self, a2t):
        assert order_bruteforce(a2t.identity(), 5) == 1


class TestOrderConsistency:
    def test_matches_finite_order_detector(self, a3, a2t):
        # adequate cap: torsion orders are at most 3 here (A2-parabolics) and 4 (S4);
        # pushing far beyond 6 only inflates braid classes of infinite-order powers
        for matrix in (a3, a2t):
            for word in helpers.all_words(matrix, 5):
                e = matrix.element(word)
                found = order_bruteforce(e, 6) is not None
                assert found == is_finite_order(e), str(e)
