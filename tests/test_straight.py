import random

import pytest

import helpers
from coxkit import (
    DEFAULT_CAP,
    CoxeterMatrix,
    cfc_straight,
    coxeter_straight,
    enumerate_elements,
    inverse,
    is_cfc,
    is_cyclically_reduced,
    is_fc,
    is_spherical,
    is_straight,
    is_torsion_free,
    kappa_closure,
    multiply,
    only_infinite_irreducible_components,
    power_length_profile,
    standard_parabolic_closure,
    support,
)
from coxkit import parabolic
from coxkit.core import _root_table
from coxkit.straight import NonTorsionFreeMember, ShorterConjugate
from coxkit.errors import CapExceeded, NotCFC


def _sws(a2t):
    w = a2t.element("tustuts")
    s = a2t.element("s")
    return multiply(multiply(s, w), s)


def _fresh(matrix):
    """A copy of the system with empty memos."""
    return CoxeterMatrix(matrix.names, matrix.table)


class _CountingRows(dict):
    """A root table that counts the rows read from it."""

    count = 0

    def __getitem__(self, root):
        self.count += 1
        return super().__getitem__(root)


def _straightness(w, cap=DEFAULT_CAP):
    """The verdict's repr, or the refusal message."""
    try:
        return repr(is_straight(w, cap))
    except CapExceeded as exc:
        return str(exc)


class TestPowerLengthProfile:
    def test_identity_all_zero(self, a2t):
        assert power_length_profile(a2t.identity(), 5) == (0,) * 5

    def test_coxeter_element_linear(self, a2t):
        assert power_length_profile(a2t.element("stu"), 10) == tuple(
            3 * n for n in range(1, 11)
        )

    def test_coxeter_element_matches_normal_form_products(self, a2t):
        stu = a2t.element("stu")
        assert power_length_profile(stu, 40) == helpers.reference_power_length_profile(stu, 40)

    def test_worked_example_square_defect(self, a2t):
        # every other copy loses two letters, so the walk never stops early
        profile = power_length_profile(a2t.element("tustuts"), 12)
        assert profile[1] == 12 != 14
        assert profile == (7, 12, 19, 24, 31, 36, 43, 48, 55, 60, 67, 72)

    def test_rejects_nonpositive(self, a2t):
        for n_max in (0, -1):
            with pytest.raises(ValueError):
                power_length_profile(a2t.element("s"), n_max)

    def test_finite_order_profile_oscillates(self, b3):
        assert power_length_profile(b3.element("s1 s2"), 4) == (2, 4, 2, 0)

    @pytest.mark.parametrize("matrix", helpers.ALL_SYSTEMS, ids=lambda m: "".join(m.names))
    def test_matches_normal_form_products(self, matrix):
        matrix = _fresh(matrix)
        oscillating = 0
        for e in enumerate_elements(matrix, 6):
            expected = helpers.reference_power_length_profile(e, 20)
            for n in (1, 2, 3, 7, 8, 20):
                assert power_length_profile(e, n) == expected[:n], (str(e), n)
            oscillating += any(a > b for a, b in zip(expected, expected[1:]))
        if is_spherical(matrix, range(matrix.rank)):
            # the finite groups' sweeps meet profiles that fall back
            assert oscillating

    @pytest.mark.parametrize("name, max_len", [("A2T", 8), ("G2T", 8), ("T237", 8), ("A3T", 7)],
                             ids=["A2~", "G2~", "(2,3,7)", "A3~"])
    def test_work_is_bounded_once_a_copy_repeats(self, name, max_len):
        # the walk reads as many table rows for a thousand powers as for
        # ten, on every straight element that the straight-sweep benchmark
        # profiles (A2~ stu among them)
        matrix = _fresh(getattr(helpers, name))
        elements = [e for e in enumerate_elements(matrix, max_len)
                    if e.length and is_cyclically_reduced(e) and is_straight(e).straight]
        reads = matrix._scratch["roots"] = _CountingRows(_root_table(matrix))
        for e in elements:
            counts = []
            for n in (10, 1000):
                reads.count = 0
                power_length_profile(e, n)
                counts.append(reads.count)
            assert counts[0] == counts[1], (str(e), counts)
        assert len(elements) == {"A2T": 24, "G2T": 16, "T237": 24, "A3T": 50}[name]


class TestPowerDefect:
    def test_worked_example(self, a2t):
        defect = helpers.find_power_defect(a2t.element("tustuts"), 4)
        assert defect == (2, 12)

    def test_straight_element_has_none(self, a2t):
        assert helpers.find_power_defect(a2t.element("stu"), 10) is None

    def test_defect_implies_not_straight(self, a2t):
        for e in enumerate_elements(a2t, 5):
            if e.is_identity():
                continue
            if helpers.find_power_defect(e, 6) is not None:
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


class TestStraightnessMemo:
    # one cap under the class size, tustuts (6 nodes, up to 4 reduced words)
    # refuses in the closure search, ababcbabc (6 nodes, up to 12 reduced
    # words) and s1 s2 s1 s2 (one node, 2 reduced words) in a braid-move search
    @pytest.mark.parametrize("name, word", [
        ("A2T", "tustuts"), ("G2T", "stu"), ("B3", "s1 s2 s3"), ("H3", "ababcbabc"),
        ("B3", "s1 s2 s1 s2"),
    ])
    def test_every_node_answers_as_fresh_after_one_warms(self, name, word, monkeypatch):
        matrix = getattr(helpers, name)
        closure = kappa_closure(_fresh(matrix).element(word))
        assert closure.length_preserved
        size = max(closure.peak, len(closure.nodes))
        for node in closure.nodes:
            warm = _fresh(matrix)
            verdict = _straightness(warm.element(word))
            # the class was decided once: no node is scanned again
            with monkeypatch.context() as patch:
                patch.setattr(parabolic, "torsion_witness", None)
                assert _straightness(warm.element(node.word)) == verdict
            for cap in range(1, size + 3):
                fresh = _straightness(_fresh(matrix).element(node.word), cap)
                assert _straightness(warm.element(node.word), cap) == fresh, (str(node), cap)
            assert "exceeded the node cap" in _straightness(warm.element(node.word), size - 1)
            assert _straightness(warm.element(node.word), size) == verdict

    @pytest.mark.parametrize("name, bound", [
        ("A2T", 6), ("B2T", 6), ("G2T", 6), ("T237", 6), ("B3", 6), ("A3T", 5), ("U3", 5),
    ])
    def test_warm_answers_match_fresh_systems(self, name, bound):
        matrix = getattr(helpers, name)
        words = [e.word for e in enumerate_elements(_fresh(matrix), bound)]
        expected = {word: _straightness(_fresh(matrix).element(word)) for word in words}
        warm = _fresh(matrix)
        for seed in (1, 2):
            random.Random(seed).shuffle(words)
            for word in words:
                assert _straightness(warm.element(word)) == expected[word], (seed, word)


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
                e = matrix.element(word)
                assert is_fc(e) == helpers.is_fc_definitional(e), str(e)

    @pytest.mark.parametrize("name", ["A3", "B3", "H3", "A2T", "B2T", "T237"])
    def test_capped_search_matches_reference_or_refuses(self, name):
        # the search covers at most the commutation class, so a cap of its
        # size never refuses, and a smaller one may only refuse; it refuses
        # at exactly the caps where the commutation-only search with the
        # braid-factor stop does, with the same message
        def outcome(search, w, cap):
            try:
                return search(w, cap)
            except CapExceeded as exc:
                return str(exc)

        matrix = _fresh(getattr(helpers, name))
        for w in enumerate_elements(matrix, 5):
            expected = helpers.is_fc_definitional(w)
            size = len(helpers.commutation_class(matrix, w.word))
            for cap in range(1, size + 2):
                got = outcome(is_fc, w, cap)
                assert got == outcome(helpers.reference_is_fc, w, cap), (str(w), cap)
                assert got == expected or (isinstance(got, str) and cap < size), (
                    str(w), cap)


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
        assert helpers.is_coxeter_element(a2t.element("stu"))
        assert helpers.is_coxeter_element(a2t.element("uts"))
        assert not helpers.is_coxeter_element(a2t.element("st"))
        assert not helpers.is_coxeter_element(a2t.element("tustuts"))

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
                c = matrix.element(bytes(order))
                assert helpers.is_coxeter_element(c)
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
