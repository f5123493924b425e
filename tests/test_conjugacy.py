import contextlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from coxkit import (
    CompletenessBasis,
    ConjugacyStatus,
    ConjugacyVerdict,
    are_conjugate,
    braid_class,
    conjugacy_class_bruteforce,
    conjugate,
    cyclic_reduce,
    enumerate_elements,
    format_step,
    has_cent_prime,
    inverse,
    is_cyclically_reduced,
    is_cfc,
    is_fc,
    is_finite_order,
    is_straight,
    kappa_closure,
    multiply,
    parse_step,
    reduce_word,
)
from coxkit.conjugacy import MoveCertificate, _elementary_targets, _reduced_node
from coxkit.core import DEFAULT_CAP, BraidStep, CoxeterMatrix, RotateStep
from coxkit.errors import CapExceeded, ReplayError
from coxkit.straight import NonTorsionFreeMember


def _sws(a2t):
    w = a2t.element("tustuts")
    s = a2t.element("s")
    return multiply(multiply(s, w), s)


class TestRotations:
    def test_three_letters(self, a2t):
        word = a2t.word("stu")
        assert helpers.rotations(word) == [a2t.word("tus"), a2t.word("ust"), a2t.word("stu")]

    def test_single_letter(self, a2t):
        assert helpers.rotations(a2t.word("s")) == [a2t.word("s")]

    def test_empty(self, a2t):
        assert helpers.rotations(b"") == [b""]


class TestElementaryRelated:
    def test_coxeter_word(self, a2t):
        related = helpers.elementary_related(a2t.element("stu"))
        assert related == {a2t.element(t) for t in ("stu", "tus", "ust")}

    def test_identity(self, a2t):
        assert helpers.elementary_related(a2t.identity()) == {a2t.identity()}

    def test_worked_example_contains_shift(self, a2t):
        related = helpers.elementary_related(a2t.element("tustuts"))
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
            targets, _ = _elementary_targets(a2t, src.word)
            assert targets
            for dst, (rho, k) in targets.items():
                prefix = reduce_word(a2t, rho[:k])
                assert multiply(multiply(inverse(prefix), src), prefix).word == dst

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
            helpers.elementary_related(moves_only.system.element(node.word))
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

    @pytest.mark.parametrize("check", [is_cyclically_reduced, has_cent_prime, is_straight])
    def test_verdict_memos_refuse_at_the_fresh_cap(self, a2t, check):
        # tustuts has 3 reduced words: at cap 2 a fresh call refuses in the
        # braid-move search, so a verdict given once at the default cap must too
        def refusal(w, cap):
            try:
                return repr(check(w, cap))
            except CapExceeded as exc:
                return str(exc)

        def fresh():
            return CoxeterMatrix(a2t.names, a2t.table).element("tustuts")

        warm = fresh()
        verdict = check(warm)
        if check is is_straight:
            # a length-preserving closure with a node that is not torsion-free
            assert isinstance(verdict.witness, NonTorsionFreeMember)
        else:
            assert verdict is True
        for cap in range(1, 9):
            assert refusal(warm, cap) == refusal(fresh(), cap), cap
        assert refusal(warm, 2) == "braid-move orbit exceeded the node cap of 2"
        assert refusal(warm, 6) == repr(verdict)

    def test_memoised_closure_is_read_only(self, a2t):
        closure = kappa_closure(a2t.element("tustuts"))
        assert kappa_closure(a2t.element("tustuts")) is closure
        other = kappa_closure(CoxeterMatrix(a2t.names, a2t.table).element("tustuts"))
        assert other == closure and hash(other) == hash(closure)
        with pytest.raises(TypeError):
            closure.word_parents[b""] = None
        with pytest.raises(AttributeError):
            closure.nodes = ()

    @pytest.mark.parametrize("matrix", helpers.ALL_SYSTEMS, ids=lambda m: "".join(m.names))
    def test_element_views_match_the_eager_record(self, matrix):
        # the record keeps words and builds its element views on first read;
        # on fresh systems they equal a record built eagerly from the search
        lazy, eager = (CoxeterMatrix(matrix.names, matrix.table) for _ in range(2))
        for u in enumerate_elements(lazy, 5):
            closure = kappa_closure(u)
            assert not {"nodes", "min_stratum"} & vars(closure).keys(), u
            expected = helpers.reference_closure_record(eager.element(u.word))
            for name in ("min_stratum", "nodes", "min_length",
                         "length_preserved", "peak", "start"):
                assert getattr(closure, name) == expected[name], (u, name)
            assert closure.words == tuple(v.word for v in closure.nodes)


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

    @pytest.mark.parametrize("matrix", [helpers.A3, helpers.B3, helpers.H3, helpers.A2T,
                                        helpers.G2T, helpers.T237, helpers.U3])
    def test_matches_every_rotation_reduced(self, matrix):
        # the rotation targets against the engine they replaced, each on its
        # own system so neither reads the other's memos
        ours = CoxeterMatrix(matrix.names, matrix.table)
        theirs = CoxeterMatrix(matrix.names, matrix.table)
        for e in enumerate_elements(matrix, 6):
            assert is_cyclically_reduced(ours.element(e.word)) == \
                helpers.reference_is_cyclically_reduced(theirs.element(e.word)), e

    def test_answers_from_the_descent_pair_at_every_cap(self, a3):
        # A3's longest element has 16 reduced words, and the reference
        # refuses in their braid-move search below cap 16; the descent pair
        # visits no search node, so the engine answers at every cap, on a
        # warm system as on a fresh one
        def outcome(check, w, cap):
            try:
                return repr(check(w, cap))
            except CapExceeded as exc:
                return str(exc)

        def fresh():
            return CoxeterMatrix(a3.names, a3.table).element("s1 s2 s1 s3 s2 s1")

        warm = fresh()
        assert not is_cyclically_reduced(warm)
        for cap in range(1, 18):
            assert outcome(is_cyclically_reduced, fresh(), cap) == "False", cap
            assert outcome(is_cyclically_reduced, warm, cap) == "False", cap
            assert outcome(helpers.reference_is_cyclically_reduced, fresh(), cap) == (
                f"braid-move orbit exceeded the node cap of {cap}" if cap < 16 else "False")

    @pytest.mark.parametrize("matrix, max_len", [(helpers.A2T, 7), (helpers.G2T, 7),
                                                 (helpers.T237, 7), (helpers.A3T, 6)],
                             ids=["A2~", "G2~", "(2,3,7)", "A3~"])
    def test_matches_the_reference_through_the_descent_pair(self, matrix, max_len):
        # most of the elements that are not cyclically reduced are rejected
        # from one descent pair, before any braid class is searched
        ours = CoxeterMatrix(matrix.names, matrix.table)
        theirs = CoxeterMatrix(matrix.names, matrix.table)
        rejected = walked = 0
        for e in enumerate_elements(matrix, max_len):
            before = len(ours._scratch["elementary_targets"])
            verdict = is_cyclically_reduced(ours.element(e.word))
            assert verdict == helpers.reference_is_cyclically_reduced(theirs.element(e.word)), e
            if len(ours._scratch["elementary_targets"]) == before:
                assert not verdict, e
                rejected += 1
            else:
                walked += not verdict
        assert rejected > walked

    def test_descent_pair_answers_below_the_word_count(self, a2t):
        # sts has 2 reduced words: the reference refuses at cap 1 in their
        # braid-move search, while the descent pair s, ts rejects at every
        # cap and walks no reduced word
        def fresh():
            return CoxeterMatrix(a2t.names, a2t.table).element("sts")

        warm = fresh()
        assert not is_cyclically_reduced(warm)
        with pytest.raises(CapExceeded, match="braid-move orbit exceeded the node cap of 1"):
            helpers.reference_is_cyclically_reduced(fresh(), 1)
        for cap in (1, 2, 3):
            w = fresh()
            assert not is_cyclically_reduced(w, cap)
            assert not is_cyclically_reduced(warm, cap)
            assert w.word not in w.system._scratch["elementary_targets"]
        assert warm.word not in warm.system._scratch["elementary_targets"]


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

    @pytest.mark.parametrize("matrix", [helpers.A2T, helpers.B3, helpers.DINF_A2],
                             ids=["A2~", "B3", "DinfxA2"])
    def test_closures_meet_iff_their_least_nodes_are_equal(self, matrix):
        # the closures of cyclically reduced conjugates preserve length, so
        # their minimal strata intersect iff the closures share a least node,
        # and that node is the meeting
        elements = enumerate_elements(matrix, 5)
        closures = {u: kappa_closure(cyclic_reduce(u)[0]) for u in elements}
        met = 0
        for u1, u2 in itertools.product(elements, repeat=2):
            closure1, closure2 = closures[u1], closures[u2]
            meet = bool(set(closure1.min_stratum) & set(closure2.min_stratum))
            assert meet == (closure1.nodes[0] == closure2.nodes[0]), (u1, u2)
            met += meet
            if meet:
                assert are_conjugate(u1, u2).meeting == closure1.nodes[0], (u1, u2)
        assert len(elements) < met < len(elements) ** 2

    @pytest.mark.parametrize("matrix, max_len", [
        (helpers.A3, 4), (helpers.B3, 4), (helpers.A2T, 4), (helpers.B2T, 4),
        (helpers.G2T, 4), (helpers.T237, 4), (helpers.DINF_A2, 4), (helpers.U3, 3),
    ], ids=["A3", "B3", "A2~", "B2~", "G2~", "(2,3,7)", "DinfxA2", "U3"])
    def test_matches_the_two_closure_reference(self, matrix, max_len):
        # the verdict from the start closures alone against the flow that
        # also searched the closure of each cyclically reduced node: equal
        # status, meeting, certificates and basis on every pair, but for an
        # UNKNOWN pair whose start closures share a node (CONJUGATE at the
        # least shared node) or that the abelianisation separates
        elements = enumerate_elements(matrix, max_len)
        for u1, u2 in itertools.product(elements, repeat=2):
            verdict, expected = are_conjugate(u1, u2), helpers.reference_are_conjugate(u1, u2)
            if expected.status is ConjugacyStatus.UNKNOWN:
                start1, start2 = kappa_closure(u1), kappa_closure(u2)
                shared = set(start1.nodes) & set(start2.nodes)
                if shared:
                    meeting = min(shared)
                    certificates = tuple(
                        helpers._reference_path_certificate(start, meeting, DEFAULT_CAP)
                        for start in (start1, start2))
                    expected = ConjugacyVerdict(ConjugacyStatus.CONJUGATE, meeting=meeting,
                                                certificates=certificates)
                elif (helpers.reference_abelian_image(matrix, u1.word)
                      != helpers.reference_abelian_image(matrix, u2.word)):
                    expected = ConjugacyVerdict(ConjugacyStatus.NOT_CONJUGATE,
                                                basis=CompletenessBasis.ABELIAN_INVARIANT)
            assert verdict == expected, (u1, u2)

    @pytest.mark.parametrize("matrix", helpers.ALL_SYSTEMS, ids=lambda m: "".join(m.names))
    def test_key_is_the_least_node_of_the_reduced_closure(self, matrix):
        # the least node of the start closure's minimal stratum is the least
        # node of the cyclically reduced node's closure
        for u in enumerate_elements(matrix, 6):
            closure = kappa_closure(u)
            assert closure.min_stratum[0] == kappa_closure(_reduced_node(closure)).nodes[0], u

    def test_verdict_builds_no_element_views(self, a2t):
        # the verdict reads the start closures' words only
        fresh = CoxeterMatrix(a2t.names, a2t.table)
        for pair in (("tustuts", "stsustu"), ("stu", "uts"), ("sts", "tst")):
            u1, u2 = (fresh.element(text) for text in pair)
            are_conjugate(u1, u2)
            for u in (u1, u2):
                assert not {"nodes", "min_stratum"} & vars(kappa_closure(u)).keys()

    @pytest.mark.parametrize("matrix, pair", [(helpers.A2T, ("-", "s")),
                                              (helpers.DINF_A2, ("s", "a")),
                                              (helpers.B3, ("s1", "s2"))],
                             ids=["A2~", "DinfxA2", "B3"])
    def test_abelianisation_refutes(self, matrix, pair):
        # the letter parities per odd-order component differ, so no Cent'
        # and no enumeration is needed to refute
        verdict = are_conjugate(*(matrix.element(text) for text in pair))
        assert verdict.status is ConjugacyStatus.NOT_CONJUGATE
        assert verdict.basis is CompletenessBasis.ABELIAN_INVARIANT


class TestFiniteOrder:
    def test_identity(self, a2t):
        assert is_finite_order(a2t.identity())

    def test_dihedral_long_word(self, a2):
        assert is_finite_order(a2.element("sts"))

    def test_coxeter_element_of_affine_group(self, a2t):
        assert not is_finite_order(a2t.element("stu"))

    def test_spherical_support_answers_with_no_closure(self):
        # the longest element of A5 has spherical support, so it lies in a
        # finite group: True at cap 1, with no closure searched
        a5 = CoxeterMatrix.from_pairs([f"s{i}" for i in range(1, 6)],
                                      {(f"s{i}", f"s{i + 1}"): 3 for i in range(1, 5)})
        w0 = a5.element("s1 s2 s1 s3 s2 s1 s4 s3 s2 s1 s5 s4 s3 s2 s1")
        assert w0.length == 15
        assert is_finite_order(w0, cap=1)
        assert "closure" not in a5._scratch


def _cent_prime_definitional(u, cap=100_000):
    """Independent scan: explicit subgroup element sets for membership."""
    matrix = u.system
    nodes = kappa_closure(u, cap).nodes
    for w in nodes:
        w_inv = inverse(w)
        for members in helpers.reference_spherical_subsets(matrix):
            if not members:
                continue
            subgroup_i = helpers.parabolic_elements(matrix, members, cap=cap)
            for w_i in subgroup_i:
                for j_set in helpers.reference_spherical_subsets(matrix):
                    if not j_set or not j_set <= members:
                        continue
                    gens = [
                        multiply(multiply(w_i, matrix.generator(j)), inverse(w_i))
                        for j in sorted(j_set)
                    ]
                    conjugated = {
                        multiply(multiply(w_i, x), inverse(w_i))
                        for x in helpers.parabolic_elements(matrix, j_set, cap=cap)
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

    def test_memoises_the_spherical_reflections(self, a2t):
        matrix = CoxeterMatrix(a2t.names, a2t.table)
        assert has_cent_prime(matrix.element("tustuts"))
        reflections = matrix._scratch["spherical_reflections"]
        assert reflections == tuple(sorted(
            matrix.word(word) for word in ("s", "t", "u", "sts", "sus", "tut")))
        assert has_cent_prime(matrix.element("stu"))
        assert matrix._scratch["spherical_reflections"] is reflections
        assert "cent_prime_masks" not in matrix._scratch

    def test_refuses_only_while_the_spherical_reflections_exceed_the_cap(self, a3):
        # A3 has 24 elements but 6 reflections: the orbit rule enumerates no
        # element, so s1 is answered from cap 6 on, on a fresh system and on
        # one whose reflections are memoised
        warm = CoxeterMatrix(a3.names, a3.table)
        assert has_cent_prime(warm.element("s1")) is False
        for matrix in (CoxeterMatrix(a3.names, a3.table), warm):
            with pytest.raises(CapExceeded,
                               match="spherical-reflection search exceeded the node cap of 5"):
                has_cent_prime(matrix.element("s1"), cap=5)
            assert has_cent_prime(matrix.element("s1"), cap=6) is False

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
        assert helpers.is_min_in_conjugacy_class(a2.element("sts")) is helpers.TriState.NO

    def test_single_generator(self, a2t):
        assert helpers.is_min_in_conjugacy_class(a2t.element("s")) is helpers.TriState.YES

    def test_worked_example(self, a2t):
        # cyclically reduced, infinite order, centralising property verified
        assert helpers.is_min_in_conjugacy_class(a2t.element("tustuts")) is helpers.TriState.YES

    def test_agrees_with_brute_force_in_finite_group(self, a3):
        for word in helpers.all_words(a3, 4):
            e = reduce_word(a3, word)
            verdict = helpers.is_min_in_conjugacy_class(e)
            cls = conjugacy_class_bruteforce(e, None)
            truly_minimal = e.length == min(x.length for x in cls)
            if verdict is helpers.TriState.YES:
                assert truly_minimal
            elif verdict is helpers.TriState.NO:
                assert not truly_minimal


CAPPED = (is_cyclically_reduced, kappa_closure, cyclic_reduce, helpers.elementary_related,
          is_finite_order, has_cent_prime, helpers.is_min_in_conjugacy_class, is_straight,
          is_fc, is_cfc)


@pytest.mark.parametrize("check", CAPPED, ids=lambda check: check.__name__)
def test_cap_contract(check):
    # a call refuses iff its own search on a fresh system exceeds the cap, so
    # a warm system (every entry point run at the default cap on every
    # element) answers as a fresh one, a call that answers at some cap
    # answers at every larger one, and every answer is the default-cap one
    def outcome(w, cap):
        try:
            return "answer", check(w, cap)
        except CapExceeded as exc:
            return "refusal", str(exc)
        except ValueError as exc:
            return "answer", f"ValueError: {exc}"

    for matrix, max_len in ((helpers.A3, 6), (helpers.A2T, 4)):
        words = [e.word for e in enumerate_elements(matrix, max_len)]
        warm = CoxeterMatrix(matrix.names, matrix.table)
        for word in words:
            for entry in CAPPED:
                with contextlib.suppress(ValueError):
                    entry(warm.element(word))
        for word in words:
            default = outcome(warm.element(word), DEFAULT_CAP)
            seen = []
            for cap in range(1, 18):
                fresh = outcome(CoxeterMatrix(matrix.names, matrix.table).element(word), cap)
                assert outcome(warm.element(word), cap) == fresh, (word, cap)
                seen.append(fresh)
            answered = [o for o in seen if o[0] == "answer"]
            assert seen[len(seen) - len(answered):] == answered, word
            assert all(o == default for o in answered), word


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


def test_are_conjugate_keeps_the_cap_contract():
    # as test_cap_contract, for pairs: a warm system (every pair decided at
    # the default cap) answers or refuses as a fresh one, an answer persists
    # at every larger cap, and every answer is the default-cap one
    def outcome(matrix, pair, cap):
        u1, u2 = (matrix.element(word) for word in pair)
        try:
            return "answer", repr(are_conjugate(u1, u2, cap=cap))
        except CapExceeded as exc:
            return "refusal", str(exc)

    for matrix, max_len in ((helpers.A3, 3), (helpers.A2T, 3)):
        words = [e.word for e in enumerate_elements(matrix, max_len)]
        pairs = list(itertools.product(words, repeat=2))
        warm = CoxeterMatrix(matrix.names, matrix.table)
        defaults = {pair: outcome(warm, pair, DEFAULT_CAP) for pair in pairs}
        for pair in pairs:
            seen = []
            for cap in range(1, 18):
                fresh = outcome(CoxeterMatrix(matrix.names, matrix.table), pair, cap)
                assert outcome(warm, pair, cap) == fresh, (pair, cap)
                seen.append(fresh)
            answered = [o for o in seen if o[0] == "answer"]
            assert seen[len(seen) - len(answered):] == answered, pair
            assert all(o == defaults[pair] for o in answered), pair
