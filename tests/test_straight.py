import pytest

import helpers
from coxkit import (
    cfc_straight,
    coxeter_straight,
    enumerate_elements,
    find_power_defect,
    inverse,
    is_cfc,
    is_coxeter_element,
    is_cyclically_reduced,
    is_fc,
    is_fc_definitional,
    is_straight,
    is_torsion_free,
    multiply,
    only_infinite_irreducible_components,
    power_length_profile,
    reduce_word,
    standard_parabolic_closure,
    support,
)
from coxkit.straight import NonTorsionFreeMember, PowerDefect, ShorterConjugate
from coxkit.errors import NotCFC


def _sws(a2t):
    w = a2t.element("tustuts")
    s = a2t.element("s")
    return multiply(multiply(s, w), s)


class TestPowerLengthProfile:
    def test_identity_all_zero(self, a2t):
        assert power_length_profile(a2t.identity(), 5) == (0,) * 5

    def test_coxeter_element_linear(self, a2t):
        assert power_length_profile(a2t.element("stu"), 10) == tuple(
            3 * n for n in range(1, 11)
        )

    def test_worked_example_square_defect(self, a2t):
        profile = power_length_profile(a2t.element("tustuts"), 2)
        assert profile[1] == 12 != 14

    def test_rejects_nonpositive(self, a2t):
        with pytest.raises(ValueError):
            power_length_profile(a2t.element("s"), 0)


class TestPowerDefect:
    def test_worked_example(self, a2t):
        defect = find_power_defect(a2t.element("tustuts"), 4)
        assert defect == PowerDefect(n=2, length=12)

    def test_straight_element_has_none(self, a2t):
        assert find_power_defect(a2t.element("stu"), 10) is None

    def test_defect_implies_not_straight(self, a2t):
        for e in enumerate_elements(a2t, 5):
            if e.is_identity():
                continue
            if find_power_defect(e, 6) is not None:
                assert not is_straight(e).straight, str(e)


class TestIsStraight:
    def test_worked_example_witness(self, a2t):
        verdict = is_straight(a2t.element("tustuts"))
        assert not verdict.straight
        witness = verdict.witness
        assert isinstance(witness, NonTorsionFreeMember)
        assert witness.element == _sws(a2t)
        assert witness.subset.members == {a2t.index("t")}

    def test_coxeter_element_of_affine_group(self, a2t):
        verdict = is_straight(a2t.element("stu"))
        assert verdict.straight and verdict.witness is None

    def test_single_generator(self, a2t):
        verdict = is_straight(a2t.element("s"))
        assert not verdict.straight
        witness = verdict.witness
        assert isinstance(witness, NonTorsionFreeMember)
        assert witness.element == a2t.element("s")
        assert witness.subset.members == {a2t.index("s")}

    def test_non_cyclically_reduced_gets_shorter_conjugate(self, a2):
        verdict = is_straight(a2.element("sts"))
        witness = verdict.witness
        assert not verdict.straight
        assert isinstance(witness, ShorterConjugate)
        assert witness.element.length < 3
        assert witness.certificate.replay(a2) == witness.element.word

    def test_infinite_dihedral_translation(self, dinf):
        assert is_straight(dinf.element("st")).straight

    def test_straight_implies_linear_profile(self, a2t, dinf):
        for matrix, bound in ((a2t, 4), (dinf, 4)):
            for e in enumerate_elements(matrix, bound):
                if is_straight(e).straight and not e.is_identity():
                    profile = power_length_profile(e, 10)
                    assert profile == tuple(n * e.length for n in range(1, 11)), str(e)

    def test_conjugation_stability_at_fixed_length(self, a2t, a3):
        verdicts = {}

        def straightness(x):
            if x not in verdicts:
                verdicts[x] = is_straight(x).straight
            return verdicts[x]

        for matrix in (a2t, a3):
            conjugators = enumerate_elements(matrix, 3)
            for e in enumerate_elements(matrix, 5):
                base = straightness(e)
                for v in conjugators:
                    conj = multiply(multiply(v, e), inverse(v))
                    if conj.length == e.length:
                        assert straightness(conj) == base, (str(e), str(v))


class TestFullyCommutative:
    def test_coxeter_word_is_fc(self, a2t):
        assert is_fc(a2t.element("stu"))

    def test_braid_word_is_not_fc(self, a2):
        assert not is_fc(a2.element("sts"))

    def test_identity_is_fc(self, a2t):
        assert is_fc(a2t.identity())

    def test_free_like_word_is_fc(self, u3):
        assert is_fc(u3.element("aba"))

    def test_definitional_and_factor_paths_agree(self, a2t, b3, b2):
        for matrix in (a2t, b3, b2):
            for word in helpers.all_words(matrix, 5):
                e = reduce_word(matrix, word)
                assert is_fc(e) == is_fc_definitional(e), str(e)


class TestCyclicallyFullyCommutative:
    def test_coxeter_word(self, a2t):
        assert is_cfc(a2t.element("stu"))

    def test_braid_word_is_not(self, a2):
        assert not is_cfc(a2.element("sts"))

    def test_identity(self, a2t):
        assert is_cfc(a2t.identity())

    def test_fc_but_not_cyclically_reduced(self, u3):
        # aba is fully commutative (no moves at all) but its rotation baa
        # is unreduced, so it is not cyclically fully commutative
        e = u3.element("aba")
        assert is_fc(e) and not is_cyclically_reduced(e)
        assert not is_cfc(e)

    def test_cfc_implies_fc_and_cyclically_reduced(self, b3, a2t):
        for matrix in (b3, a2t):
            for e in enumerate_elements(matrix, 5):
                if is_cfc(e):
                    assert is_fc(e) and is_cyclically_reduced(e)


class TestCfcStraight:
    def test_coxeter_element_of_affine_group(self, a2t):
        assert cfc_straight(a2t.element("stu")) is True

    def test_commuting_pair_in_finite_group(self, a1a1):
        assert cfc_straight(a1a1.element("st")) is False

    def test_rejects_non_cfc(self, u3):
        with pytest.raises(NotCFC):
            cfc_straight(u3.element("aba"))
        # the support condition itself would have been true: one infinite component
        assert only_infinite_irreducible_components(
            u3, standard_parabolic_closure(u3.element("aba"))
        )

    def test_agrees_with_exact_decision(self, a2t, dinf):
        for matrix in (a2t, dinf):
            for e in enumerate_elements(matrix, 5):
                if is_cfc(e):
                    assert cfc_straight(e) == is_straight(e).straight, str(e)


class TestCoxeterElements:
    def test_recognition(self, a2t):
        assert is_coxeter_element(a2t.element("stu"))
        assert is_coxeter_element(a2t.element("uts"))
        assert not is_coxeter_element(a2t.element("st"))
        assert not is_coxeter_element(a2t.element("tustuts"))

    def test_affine_and_free_systems_are_straight(self, a2t, u3, dinf):
        assert coxeter_straight(a2t)
        assert coxeter_straight(u3)
        assert coxeter_straight(dinf)

    def test_finite_group_is_not(self, a3, b3, a1a1):
        assert not coxeter_straight(a3)
        assert not coxeter_straight(b3)
        assert not coxeter_straight(a1a1)

    def test_every_coxeter_element_matches_shortcut(self, a2t, a3):
        import itertools

        for matrix in (a2t, a3):
            for order in itertools.permutations(range(matrix.rank)):
                c = reduce_word(matrix, bytes(order))
                assert is_coxeter_element(c)
                assert is_straight(c).straight == coxeter_straight(matrix)


class TestFcTorsionComponents:
    def test_non_torsion_free_fc_has_spherical_component(self, a2t, b3):
        from coxkit.parabolic import _component_is_finite_type

        for matrix in (a2t, b3):
            for e in enumerate_elements(matrix, 5):
                if is_fc(e) and not is_torsion_free(e):
                    sub = standard_parabolic_closure(e)
                    assert any(
                        _component_is_finite_type(matrix, comp)
                        for comp in sub.components
                    ), str(e)
