"""Acceptance suite: one test per criterion, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines immediately).  Criterion 3 compares cyclic reducedness
with minimal length in the conjugacy class over every element of A3 and B3.
One direction holds in every Coxeter group: an element of minimal length in
its class is cyclically reduced, since a rotation of a reduced word spells a
conjugate.  The converse fails at exactly two elements, both in B3:
s2 s1 s2 s3 and s3 s2 s1 s2 are cyclically reduced (every rotation of their
unique reduced word is reduced) yet conjugate to a length-2 element.  That
exception set was established three ways: the braid closure engine, the
reflection-representation cross-check, and an independent count over B3 as
signed permutations and A3 as permutations of four letters, with lengths,
reduced words and classes found by breadth-first search.  The criterion pins
the set exactly, so a new exception or a vanished one fails it.  The
companion check below it records the equivalence that does hold: the
cyclic-shift closure preserves length iff the element has minimal length in
its conjugacy class.
"""

import itertools
import time

import helpers
from coxkit import (
    cfc_straight,
    conjugacy_class_bruteforce,
    cyclic_reduce,
    enumerate_elements,
    has_cent_prime,
    inverse,
    is_cyclically_reduced,
    is_cfc,
    is_fc,
    is_finite_order,
    is_reduced,
    is_reduced_oracle,
    is_straight,
    is_torsion_free,
    kappa_closure,
    multiply,
    normaliser_decomposition,
    normalises,
    power_length_profile,
    standard_parabolic_closure,
    torsion_witness,
)
from coxkit.parabolic import _component_is_finite_type
from coxkit.straight import NonTorsionFreeMember, ShorterConjugate


def _report(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_worked_example_regression(a2t):
    started = time.monotonic()
    w = a2t.element("tustuts")
    s = a2t.element("s")
    sws = multiply(multiply(s, w), s)

    assert is_reduced(a2t, a2t.word("tustuts"))
    assert is_cyclically_reduced(w)

    square = multiply(w, w)
    assert square == a2t.element("tustustustus")
    assert square.length == 12

    verdict = is_straight(w)
    assert not verdict.straight
    assert isinstance(verdict.witness, NonTorsionFreeMember)
    assert verdict.witness.subset.members == {a2t.index("t")}

    assert is_torsion_free(w)
    assert torsion_witness(sws) == {a2t.index("t")}

    # the shifted element factors through {t} on either side
    t, piece = a2t.element("t"), a2t.element("stustu")
    assert sws == multiply(t, piece) == multiply(piece, t)

    decomposition = normaliser_decomposition(sws, {a2t.index("t")})
    assert decomposition.torsion_part == a2t.element("t")
    assert decomposition.straight_part == a2t.element("stustu")

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "worked-example regression")


def test_criterion_2_word_problem_oracle_equivalence():
    started = time.monotonic()
    disagreements = []
    for matrix in helpers.WORD_PROBLEM_SYSTEMS:
        for word in helpers.all_words(matrix, 7):
            if is_reduced(matrix, word) != is_reduced_oracle(matrix, word):
                disagreements.append((matrix.names, matrix.word_str(word)))
    elapsed = time.monotonic() - started
    assert not disagreements, disagreements
    assert elapsed < 600.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, "word-problem oracle equivalence")


def test_criterion_3_cyclic_reducedness_vs_minimal_length(a3, b3):
    # minimal length implies cyclically reduced with no exception; the
    # converse fails at exactly the two B3 elements of the module docstring
    expected = {("B3", "s2 s1 s2 s3"): 2, ("B3", "s3 s2 s1 s2"): 2}
    minimal_not_cyclically_reduced = []
    cyclically_reduced_not_minimal = {}
    for label, matrix in (("A3", a3), ("B3", b3)):
        for w in enumerate_elements(matrix, None):
            least = min(x.length for x in conjugacy_class_bruteforce(w, None))
            cyclically_reduced = is_cyclically_reduced(w)
            if w.length == least and not cyclically_reduced:
                minimal_not_cyclically_reduced.append(f"{label}: {w}")
            if cyclically_reduced and w.length != least:
                cyclically_reduced_not_minimal[(label, str(w))] = least
    assert not minimal_not_cyclically_reduced, minimal_not_cyclically_reduced
    assert cyclically_reduced_not_minimal == expected, cyclically_reduced_not_minimal

    # each exception is shorter by a replayed certificate, and the target
    # word is confirmed reduced by the reflection representation
    for _, word in expected:
        w = b3.element(word)
        target, certificate = cyclic_reduce(w)
        assert target.length == 2, str(target)
        assert certificate.start == w.word, word
        assert certificate.replay(b3) == target.word, word
        assert is_reduced_oracle(b3, target.word), str(target)
    _report(
        3,
        "minimal length implies cyclically reduced; "
        "the converse fails at exactly two B3 elements",
    )


def test_criterion_3_companion_length_preservation_vs_minimal_length(a3, b3):
    # the sound form of the same statement, with zero exceptions
    for matrix in (a3, b3):
        for w in enumerate_elements(matrix, None):
            least = min(x.length for x in conjugacy_class_bruteforce(w, None))
            assert kappa_closure(w).length_preserved == (w.length == least), str(w)
    _report("3b", "closure length preservation = minimal length")


def test_criterion_4_conjugates_reach_the_closure(a2t):
    qualifying = [
        u
        for u in enumerate_elements(a2t, 7)
        if is_cyclically_reduced(u) and not is_finite_order(u) and has_cent_prime(u)
    ]
    assert len(qualifying) >= 20, f"only {len(qualifying)} qualifying elements"
    conjugators = enumerate_elements(a2t, 4)
    exceptions = []
    for u in qualifying:
        nodes = set(kappa_closure(u).nodes)
        for v in conjugators:
            conjugate = multiply(multiply(v, u), inverse(v))
            target, certificate = cyclic_reduce(conjugate)
            if target not in nodes:
                exceptions.append((str(u), str(v), str(target)))
    assert not exceptions, exceptions
    _report(4, "cyclically reduced conjugates are shift-reachable")


def test_criterion_5_coxeter_elements(a2t, u3, a3):
    for matrix, expect_straight in ((a2t, True), (u3, True), (a3, False)):
        for order in itertools.permutations(range(matrix.rank)):
            c = matrix.element(bytes(order))
            verdict = is_straight(c)
            assert verdict.straight == expect_straight, (matrix.names, str(c))
            if expect_straight:
                profile = power_length_profile(c, 10)
                assert profile == tuple(n * c.length for n in range(1, 11)), str(c)
    _report(5, "Coxeter elements straight iff no finite component")


def _torsion_free_definitional(w):
    matrix = w.system
    for members in helpers.reference_spherical_subsets(matrix):
        if not members:
            continue
        for torsion in helpers.parabolic_elements(matrix, members):
            if torsion.is_identity():
                continue
            cofactor = multiply(inverse(torsion), w)
            if torsion.length + cofactor.length == w.length and normalises(
                cofactor, members
            ):
                return False
    return True


def test_criterion_6_torsion_freeness_vs_definition(a2t, b3):
    disagreements = []
    for matrix in (a2t, b3):
        for w in enumerate_elements(matrix, 5):
            if is_torsion_free(w) != _torsion_free_definitional(w):
                disagreements.append((matrix.names, str(w)))
    assert not disagreements, disagreements
    _report(6, "torsion-freeness matches the definitional scan")


def test_criterion_7_straightness_consistency_sweep(a2t):
    failures = []
    for w in enumerate_elements(a2t, 6):
        if not is_cyclically_reduced(w):
            continue
        verdict = is_straight(w)
        if verdict.straight:
            profile = power_length_profile(w, 10)
            if profile != tuple(n * w.length for n in range(1, 11)):
                failures.append(("nonlinear profile", str(w), profile))
        else:
            witness = verdict.witness
            if isinstance(witness, ShorterConjugate):
                if not (
                    witness.element.length < w.length
                    and witness.certificate.replay(a2t) == witness.element.word
                ):
                    failures.append(("shorter-conjugate witness", str(w)))
            elif isinstance(witness, NonTorsionFreeMember):
                member, subset = witness.element, witness.subset.members
                good = (
                    not is_torsion_free(member)
                    and normalises(member, subset)
                    and torsion_witness(member) == subset
                )
                if not good:
                    failures.append(("non-torsion-free witness", str(w)))
            else:
                failures.append(("missing witness", str(w)))
    assert not failures, failures
    _report(7, "straightness decisions and witnesses verify")


def test_criterion_8_fully_commutative_sweeps(a2t, b3):
    fc_disagreements = []
    cfc_disagreements = []
    component_failures = []
    for matrix in (b3, a2t):
        for w in enumerate_elements(matrix, 6):
            factor_path = is_fc(w)
            if factor_path != helpers.is_fc_definitional(w):
                fc_disagreements.append((matrix.names, str(w)))
            if factor_path and not is_torsion_free(w):
                closure = standard_parabolic_closure(w)
                if not any(
                    _component_is_finite_type(matrix, comp)
                    for comp in closure.components
                ):
                    component_failures.append((matrix.names, str(w)))
            if is_cfc(w) and cfc_straight(w) != is_straight(w).straight:
                cfc_disagreements.append((matrix.names, str(w)))
    for matrix in (helpers.A3, helpers.H3, helpers.G2T, helpers.U3, helpers.B2T,
                   helpers.T237, helpers.A3T):
        for w in enumerate_elements(matrix, 6):
            if is_fc(w) != helpers.is_fc_definitional(w):
                fc_disagreements.append((matrix.names, str(w)))
    assert not fc_disagreements, fc_disagreements
    assert not cfc_disagreements, cfc_disagreements
    assert not component_failures, component_failures
    _report(8, "FC paths agree; CFC shortcut matches; spherical components present")
