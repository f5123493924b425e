"""The braid-orbit search against the reference path engines it replaced.

Braid classes, the fully-commutative test, reduction paths and braid-move
paths all come from one breadth-first search.  Certificates print these paths, so they
must match the reference engines in ``helpers`` move for move, and the node
cap must refuse at exactly the same count.  A reduction finds the normal form
first, so once its word is reduced it braids only as far as the normal form.
"""

import pytest

import helpers
from coxkit import (
    BraidStep,
    CoxeterMatrix,
    Element,
    apply_step,
    braid_class,
    braid_word_path,
    canonical_word,
    is_fc,
    reduce_word_with_path,
)
from coxkit.errors import CapExceeded, NotReduced, ReplayError

SYSTEMS = {
    "A3": helpers.A3,
    "B3": helpers.B3,
    "H3": helpers.H3,
    "A2~": helpers.A2T,
    "G2~": helpers.G2T,
    "(2,3,7)": helpers.T237,
    "U3": helpers.U3,
}


@pytest.mark.parametrize("matrix", SYSTEMS.values(), ids=SYSTEMS.keys())
def test_searches_match_reference_on_short_words(matrix):
    for word in helpers.all_words(matrix, 6):
        element, steps = reduce_word_with_path(matrix, word)
        assert (element, steps) == helpers.reference_reduce_word_with_path(matrix, word)
        orbit, repeat = helpers.reference_orbit_scan(matrix, word)
        if repeat is not None:
            with pytest.raises(NotReduced):
                braid_class(matrix, word)
            continue
        cls = braid_class(matrix, word)
        assert cls == orbit
        commuting, _ = helpers.reference_orbit_scan(matrix, word, only_commutations=True)
        assert is_fc(matrix.element(word)) == (commuting == cls)
        for target in (min(cls), max(cls)):
            assert braid_word_path(matrix, word, target) == (
                helpers.reference_braid_word_path(matrix, word, target))


def _refuses(search, cap):
    try:
        search(cap)
    except CapExceeded:
        return True
    return False


def _fresh_a3():
    # a new system, so no memo answers before the search runs
    return CoxeterMatrix(helpers.A3.names, helpers.A3.table)


def test_cap_refuses_at_the_reference_count():
    # the longest element of A3 has 16 reduced words
    w0 = helpers.A3.word("s1 s2 s1 s3 s2 s1")
    assert len(braid_class(helpers.A3, w0)) == 16
    top = max(braid_class(helpers.A3, w0))

    pairs = [
        (lambda cap: braid_class(_fresh_a3(), w0, cap),
         lambda cap: helpers.reference_orbit_scan(_fresh_a3(), w0, cap)),
        (lambda cap: is_fc(_fresh_a3().element("s2 s1 s3 s2"), cap),
         lambda cap: helpers.reference_is_fc(_fresh_a3().element("s2 s1 s3 s2"), cap)),
        (lambda cap: braid_word_path(_fresh_a3(), w0, top, cap),
         lambda cap: helpers.reference_braid_word_path(_fresh_a3(), w0, top, cap)),
        (lambda cap: reduce_word_with_path(_fresh_a3(), w0 + w0[-1:], cap),
         lambda cap: helpers.reference_reduce_word_with_path(_fresh_a3(), w0 + w0[-1:], cap)),
    ]
    for engine, reference in pairs:
        for cap in range(1, 18):
            assert _refuses(engine, cap) == _refuses(reference, cap), cap
    assert _refuses(pairs[0][0], 15) and not _refuses(pairs[0][0], 16)


def test_reduced_words_braid_only_to_the_normal_form():
    # every reduced word of the longest element of A3 answers at exactly the
    # caps where the braid path to the normal form does, with its moves: the
    # search stops at the normal form, not at the end of the class
    w0 = helpers.A3.word("s1 s2 s1 s3 s2 s1")
    canon = canonical_word(helpers.A3, w0)
    for word in sorted(braid_class(helpers.A3, w0)):
        for cap in range(1, 17):
            try:
                path = helpers.reference_braid_word_path(_fresh_a3(), word, canon, cap)
            except CapExceeded:
                assert _refuses(lambda c: reduce_word_with_path(_fresh_a3(), word, c), cap)
                continue
            element, steps = reduce_word_with_path(_fresh_a3(), word, cap)
            assert (element.word, steps) == (canon, path), (word, cap)
    assert reduce_word_with_path(_fresh_a3(), canon, 1) == (Element(helpers.A3, canon), [])


def test_braid_relations_of_every_order():
    # the relation words are never spelled out, so a huge order costs nothing
    huge = CoxeterMatrix.from_pairs("st", {("s", "t"): 10**18})
    assert braid_class(huge, "stst") == {huge.word("stst")}
    for m in (2, 3, 7, 64, 65, 100):
        dihedral = CoxeterMatrix.from_pairs("st", {("s", "t"): m})
        st = bytes(i % 2 for i in range(m))
        ts = bytes(1 - i % 2 for i in range(m))
        assert braid_class(dihedral, st) == {st, ts} == helpers.naive_braid_orbit(dihedral, st)
        assert apply_step(dihedral, st, BraidStep(0, (0, 1))) == ts
        assert apply_step(dihedral, ts, BraidStep(0, (1, 0))) == st
        for word, step in ((ts, BraidStep(0, (0, 1))), (st[:-1], BraidStep(0, (0, 1))),
                           (b"\x00" + st, BraidStep(1, (1, 0)))):
            with pytest.raises(ReplayError, match="does not apply at position"):
                apply_step(dihedral, word, step)
        with pytest.raises(NotReduced):
            braid_class(dihedral, st + b"\x01")
        # a repeated letter is no braid move: t s s ... is not t t s ...
        with pytest.raises(ValueError, match="not braid-related"):
            braid_word_path(dihedral, ts[:1] + st[:1] + st, ts[:1] * 2 + st)
