import pytest
from hypothesis import given, settings, strategies as st

import helpers
from coxkit import (
    CompletenessBasis,
    ConjugacyStatus,
    TriState,
    are_conjugate,
    braid_class,
    conjugacy_class_bruteforce,
    conjugate,
    cyclic_reduce,
    elementary_related,
    enumerate_elements,
    format_step,
    has_cent_prime,
    inverse,
    is_cyclically_reduced,
    is_finite_order,
    is_min_in_conjugacy_class,
    kappa_closure,
    multiply,
    parse_step,
    reduce_word,
    rotations,
    spherical_subsets,
)
from coxkit.conjugacy import MoveCertificate, _elementary_targets
from coxkit.core import BraidStep, CoxeterMatrix, RotateStep
from coxkit.errors import CapExceeded, ReplayError


def _sws(a2t):
    w = a2t.element("tustuts")
    s = a2t.element("s")
    return multiply(multiply(s, w), s)


class TestRotations:
    def test_three_letters(self, a2t):
        word = a2t.word("stu")
        assert rotations(word) == [a2t.word("tus"), a2t.word("ust"), a2t.word("stu")]

    def test_single_letter(self, a2t):
        assert rotations(a2t.word("s")) == [a2t.word("s")]

    def test_empty(self, a2t):
        assert rotations(b"") == [b""]


class TestElementaryRelated:
    def test_coxeter_word(self, a2t):
        related = elementary_related(a2t.element("stu"))
        assert related == {a2t.element(t) for t in ("stu", "tus", "ust")}

    def test_identity(self, a2t):
        assert elementary_related(a2t.identity()) == {a2t.identity()}

    def test_worked_example_contains_shift(self, a2t):
        related = elementary_related(a2t.element("tustuts"))
        assert _sws(a2t) in related


class TestKappaClosure:
    def test_coxeter_word_closure(self, a2t):
        closure = kappa_closure(a2t.element("stu"))
        assert set(closure.nodes) == {a2t.element(t) for t in ("stu", "tus", "ust")}
        assert closure.length_preserved
        assert closure.min_length == 3
        assert closure.min_stratum == closure.nodes

    def test_single_generator(self, a2t):
        closure = kappa_closure(a2t.element("s"))
        assert closure.nodes == (a2t.element("s"),)

    def test_dihedral_descends(self, a2):
        closure = kappa_closure(a2.element("sts"))
        assert closure.min_length == 1
        assert not closure.length_preserved

    def test_nodes_are_conjugate_to_start(self, a3):
        # exact classes exist in the finite system
        for word in helpers.all_words(a3, 5):
            start = reduce_word(a3, word)
            cls = set(conjugacy_class_bruteforce(start, None))
            assert set(kappa_closure(start).nodes) <= cls

    def test_edges_replay_as_conjugation(self, a2t):
        # every node's first witness of each target conjugates by the
        # rotated prefix
        for src in kappa_closure(a2t.element("tustuts")).nodes:
            targets, _ = _elementary_targets(src)
            assert targets
            for dst, (rho, k) in targets.items():
                prefix = reduce_word(a2t, rho[:k])
                assert multiply(multiply(inverse(prefix), src), prefix) == dst

    def test_symmetry_on_length_preserved_orbits(self, a2t):
        for text in ("stu", "tustuts", "usts"):
            closure = kappa_closure(a2t.element(text))
            assert closure.length_preserved
            for node in closure.nodes:
                assert set(kappa_closure(node).nodes) == set(closure.nodes)

    def test_memoised_closure_refuses_at_the_fresh_cap(self, a2t):
        # the closure is memoised per system; a hit must refuse exactly where
        # a search on a system with empty memos does
        def fresh():
            return CoxeterMatrix(a2t.names, a2t.table).element("tustuts")

        warm = fresh()
        n = len(kappa_closure(warm).nodes)
        assert n == 6
        with pytest.raises(CapExceeded) as on_fresh:
            kappa_closure(fresh(), cap=n - 1)
        with pytest.raises(CapExceeded) as on_hit:
            kappa_closure(warm, cap=n - 1)
        assert str(on_hit.value) == str(on_fresh.value)
        assert str(on_hit.value) == f"cyclic-shift closure exceeded the node cap of {n - 1}"
        assert kappa_closure(warm, cap=n) == kappa_closure(warm)
        assert kappa_closure(fresh(), cap=n).nodes == kappa_closure(warm).nodes

    def test_memo_hits_refuse_at_the_fresh_braid_cap(self, a3):
        # A3's longest element has 16 reduced words and 3 closure nodes; at
        # cap 15 the braid-move search refuses, so every memo hit must too:
        # on a fresh system, a warm one, and one with only the moves memoised
        def fresh():
            return CoxeterMatrix(a3.names, a3.table).element("s1 s2 s1 s3 s2 s1")

        warm = fresh()
        closure = kappa_closure(warm)
        assert len(braid_class(a3, warm.word)) == 16
        assert len(closure.nodes) == 3
        moves_only = fresh()
        for node in closure.nodes:
            elementary_related(moves_only.system.element(node.word))
        message = "braid-move orbit exceeded the node cap of 15"
        for w in (fresh(), warm, moves_only):
            with pytest.raises(CapExceeded, match=message):
                kappa_closure(w, cap=15)
            with pytest.raises(CapExceeded, match=message):
                braid_class(w.system, w.word, cap=15)
            assert kappa_closure(w, cap=16) == closure
            assert len(braid_class(w.system, w.word, cap=16)) == 16

    @pytest.mark.parametrize("word", ["s1 s2 s3", "s2 s1 s3 s2", "s1 s2 s1 s3 s2 s1"])
    def test_memo_hits_name_the_search_that_refuses(self, a3, word):
        # s1 s2 s3 has one reduced word but other closure nodes have two, so
        # at cap 1 a fresh search stops in the closure, not a braid class
        def refusal(w, cap):
            try:
                kappa_closure(w, cap)
            except CapExceeded as exc:
                return str(exc)

        warm = a3.element(word)
        kappa_closure(warm)
        for cap in range(1, 17):
            fresh = CoxeterMatrix(a3.names, a3.table).element(word)
            assert refusal(warm, cap) == refusal(fresh, cap), cap
        assert refusal(warm, 1).startswith(
            "cyclic-shift" if word == "s1 s2 s3" else "braid-move")

    def test_memoised_closure_is_read_only(self, a2t):
        closure = kappa_closure(a2t.element("tustuts"))
        assert kappa_closure(a2t.element("tustuts")) is closure
        other = kappa_closure(CoxeterMatrix(a2t.names, a2t.table).element("tustuts"))
        assert other == closure and hash(other) == hash(closure)
        with pytest.raises(TypeError):
            closure.parents[a2t.identity()] = None
        with pytest.raises(AttributeError):
            closure.nodes = ()


class TestCyclicReducedness:
    def test_worked_example(self, a2t):
        assert is_cyclically_reduced(a2t.element("tustuts"))

    def test_dihedral_long_word(self, a2):
        assert not is_cyclically_reduced(a2.element("sts"))

    def test_identity(self, a2t):
        assert is_cyclically_reduced(a2t.identity())

    def test_length_preservation_implies_cyclically_reduced(self, a2t, b3):
        # the converse is false: see test_known_non_minimal_cyclically_reduced
        for matrix in (a2t, b3):
            for word in helpers.all_words(matrix, 4):
                e = reduce_word(matrix, word)
                if kappa_closure(e).length_preserved:
                    assert is_cyclically_reduced(e)
                if not is_cyclically_reduced(e):
                    assert not kappa_closure(e).length_preserved

    def test_known_non_minimal_cyclically_reduced(self, b3):
        # every rotation of its unique reduced word is reduced, yet a chain of
        # shifts through a same-length neighbour reaches a length-2 conjugate
        w = b3.element("s2 s1 s2 s3")
        assert is_cyclically_reduced(w)
        closure = kappa_closure(w)
        assert not closure.length_preserved
        assert closure.min_length == 2


class TestCyclicReduce:
    def test_dihedral_long_word(self, a2):
        target, cert = cyclic_reduce(a2.element("sts"))
        assert target.length == 1
        assert cert.replay(a2) == target.word

    def test_worked_example_fixed(self, a2t):
        w = a2t.element("tustuts")
        target, cert = cyclic_reduce(w)
        assert target == w and target.length == 7
        assert cert.steps == ()

    def test_identity(self, a2t):
        target, cert = cyclic_reduce(a2t.identity())
        assert target.is_identity() and cert.steps == ()

    def test_descent_soundness_sweep(self, a2t):
        for word in helpers.all_words(a2t, 5):
            e = reduce_word(a2t, word)
            target, cert = cyclic_reduce(e)
            assert target.length <= e.length
            assert (target.length == e.length) == is_cyclically_reduced(e)
            assert cert.replay(a2t) == target.word
            assert is_cyclically_reduced(target)


class TestCertificates:
    def test_replay_rejects_wrong_claim(self, a2t):
        word = a2t.word("stu")
        cert = MoveCertificate(word, (RotateStep(1, word),), word)
        with pytest.raises(ReplayError):
            cert.replay(a2t)

    def test_replay_rejects_braid_moves_that_are_no_moves(self, a2t):
        word = a2t.word("stu")
        # a pair of equal generators would leave the word unchanged
        cert = MoveCertificate(word, (parse_step(a2t, "braid pos=1 pair=t,t"),), word)
        with pytest.raises(ReplayError):
            cert.replay(a2t)
        for pair in ((0, 3), (3, 0), (-1, 0), (0, -3)):
            with pytest.raises(ReplayError):
                MoveCertificate(word, (BraidStep(0, pair),), word).replay(a2t)

    def test_format_parse_round_trip(self, a2, b3):
        _, cert = cyclic_reduce(a2.element("sts"))
        assert cert.steps, "expected a nontrivial certificate"
        for step in cert.steps:
            line = format_step(a2, step)
            assert parse_step(a2, line) == step
        # multi-character generator names survive the line format, and the
        # two-hop descent of the non-minimal cyclically reduced element replays
        target, cert3 = cyclic_reduce(b3.element("s2 s1 s2 s3"))
        assert target.length == 2
        assert cert3.replay(b3) == target.word
        for step in cert3.steps:
            assert parse_step(b3, format_step(b3, step)) == step

    def test_certificate_rotations_rebuild_a_conjugator(self, a2t, b3):
        # each rotation by k conjugates by the rotated-away prefix, so the
        # product of all prefixes conjugates the start to the end
        for matrix, text in ((a2t, "ststu"), (a2t, "ustsu"), (b3, "s2 s1 s2 s3")):
            e = matrix.element(text)
            target, cert = cyclic_reduce(e)
            assert cert.replay(matrix) == target.word
            conjugator = matrix.identity()
            for step in cert.steps:
                if isinstance(step, RotateStep):
                    prefix = reduce_word(matrix, step.word[: step.k])
                    conjugator = multiply(conjugator, prefix)
            assert multiply(multiply(inverse(conjugator), e), conjugator) == target


class TestConjugacy:
    def test_worked_example_shift(self, a2t):
        verdict = are_conjugate(a2t.element("tustuts"), _sws(a2t))
        assert verdict.status is ConjugacyStatus.CONJUGATE
        first, second = verdict.certificates
        assert first.replay(a2t) == verdict.meeting.word
        assert second.replay(a2t) == verdict.meeting.word

    def test_trivial_cyclic_shift(self, a2t):
        verdict = are_conjugate(a2t.element("stu"), a2t.element("tus"))
        assert verdict.status is ConjugacyStatus.CONJUGATE

    def test_element_conjugate_to_itself(self, a2t):
        for text in ("-", "s", "tustuts"):
            verdict = are_conjugate(a2t.element(text), a2t.element(text))
            assert verdict.status is ConjugacyStatus.CONJUGATE

    def test_disjoint_strata_unknown_without_fallback(self, a3):
        verdict = are_conjugate(a3.element("s1"), a3.element("s3"))
        assert verdict.status is ConjugacyStatus.UNKNOWN
        assert verdict.basis is None

    def test_brute_force_fallback_finds_conjugator(self, a3):
        verdict = are_conjugate(a3.element("s1"), a3.element("s3"), brute_force=True)
        assert verdict.status is ConjugacyStatus.CONJUGATE
        v = verdict.conjugator
        assert multiply(multiply(v, a3.element("s1")), inverse(v)) == a3.element("s3")

    def test_brute_force_fallback_refutes(self, a3):
        verdict = are_conjugate(
            a3.element("s1"), a3.element("s1 s2"), brute_force=True
        )
        assert verdict.status is ConjugacyStatus.NOT_CONJUGATE
        assert verdict.basis is CompletenessBasis.BRUTE_FORCE

    def test_centralising_property_refutes(self, a2t):
        # the two Coxeter orientations are not conjugate in the affine triangle
        verdict = are_conjugate(a2t.element("stu"), a2t.element("uts"))
        assert verdict.status is ConjugacyStatus.NOT_CONJUGATE
        assert verdict.basis is CompletenessBasis.CENT_PRIME_INFINITE_ORDER

    def test_conjugate_verdicts_inside_brute_classes(self, a3):
        elements = [reduce_word(a3, w) for w in helpers.all_words(a3, 3)]
        elements = sorted(set(elements))
        for x in elements:
            cls = set(conjugacy_class_bruteforce(x, None))
            for y in elements:
                verdict = are_conjugate(x, y)
                if verdict.status is ConjugacyStatus.CONJUGATE:
                    assert y in cls


class TestFiniteOrder:
    def test_identity(self, a2t):
        assert is_finite_order(a2t.identity())

    def test_dihedral_long_word(self, a2):
        assert is_finite_order(a2.element("sts"))

    def test_coxeter_element_of_affine_group(self, a2t):
        assert not is_finite_order(a2t.element("stu"))


def _cent_prime_definitional(u, cap=100_000):
    """Independent scan: explicit subgroup element sets for membership."""
    matrix = u.system
    nodes = kappa_closure(u, cap).nodes
    for w in nodes:
        w_inv = inverse(w)
        for members in spherical_subsets(matrix):
            if not members:
                continue
            subgroup_i = enumerate_elements(matrix, None, cap=cap, letters=members)
            for w_i in subgroup_i:
                for j_set in spherical_subsets(matrix):
                    if not j_set or not j_set <= members:
                        continue
                    gens = [
                        multiply(multiply(w_i, matrix.generator(j)), inverse(w_i))
                        for j in sorted(j_set)
                    ]
                    conjugated = {
                        multiply(multiply(w_i, x), inverse(w_i))
                        for x in enumerate_elements(matrix, None, cap=cap, letters=j_set)
                    }
                    if all(
                        multiply(multiply(w, g), w_inv) in conjugated for g in gens
                    ):
                        if any(multiply(multiply(w, g), w_inv) != g for g in gens):
                            return False
    return True


class TestCentralisingProperty:
    def test_identity(self, a2t):
        assert has_cent_prime(a2t.identity())

    def test_single_generator_in_dihedral(self, a2):
        # the whole finite group is a candidate subgroup; s fails to centralise it
        assert not has_cent_prime(a2.element("s"))

    def test_coxeter_element_regression(self, a2t):
        # frozen from the exhaustive scan at the default caps
        assert has_cent_prime(a2t.element("stu"))

    def test_worked_example_regression(self, a2t):
        assert has_cent_prime(a2t.element("tustuts"))

    def test_requires_cyclically_reduced(self, a2):
        with pytest.raises(ValueError):
            has_cent_prime(a2.element("sts"))

    def test_matches_definitional_scan(self, a2, a2t):
        for matrix, texts in (
            (a2, ("s", "t", "st", "ts")),
            (a2t, ("s", "stu", "uts", "st", "usts", "tustuts")),
        ):
            for text in texts:
                e = matrix.element(text)
                assert has_cent_prime(e) == _cent_prime_definitional(e), text


class TestMinimality:
    def test_dihedral_long_word(self, a2):
        assert is_min_in_conjugacy_class(a2.element("sts")) is TriState.NO

    def test_single_generator(self, a2t):
        assert is_min_in_conjugacy_class(a2t.element("s")) is TriState.YES

    def test_worked_example(self, a2t):
        # cyclically reduced, infinite order, centralising property verified
        assert is_min_in_conjugacy_class(a2t.element("tustuts")) is TriState.YES

    def test_agrees_with_brute_force_in_finite_group(self, a3):
        for word in helpers.all_words(a3, 4):
            e = reduce_word(a3, word)
            verdict = is_min_in_conjugacy_class(e)
            cls = conjugacy_class_bruteforce(e, None)
            truly_minimal = e.length == min(x.length for x in cls)
            if verdict is TriState.YES:
                assert truly_minimal
            elif verdict is TriState.NO:
                assert not truly_minimal


FUZZ_SYSTEMS = (helpers.A2T, helpers.B2T, helpers.G2T, helpers.T237, helpers.U3)


@settings(max_examples=1000, deadline=None)
@given(
    matrix=st.sampled_from(FUZZ_SYSTEMS),
    u_letters=st.lists(st.integers(0, 2), max_size=7),
    v_letters=st.lists(st.integers(0, 2), max_size=4),
)
def test_conjugates_are_never_refuted(matrix, u_letters, v_letters):
    # v u v^-1 is conjugate to u: NOT_CONJUGATE would be unsound, and every
    # certificate must replay from its input to the meeting element
    u = reduce_word(matrix, u_letters)
    w = conjugate(reduce_word(matrix, v_letters), u)
    verdict = are_conjugate(u, w)
    assert verdict.status is not ConjugacyStatus.NOT_CONJUGATE
    if verdict.certificates is not None:
        for cert, start in zip(verdict.certificates, (u, w)):
            assert cert.start == start.word
            assert cert.replay(matrix) == verdict.meeting.word
