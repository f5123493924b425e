import itertools
from collections import Counter

import pytest

import helpers
from coxkit import (
    CoxeterMatrix,
    centralises,
    diagram_components,
    enumerate_elements,
    generator_subset,
    inverse,
    is_spherical,
    is_torsion_free,
    left_descents,
    min_coset_rep,
    multiply,
    normaliser_decomposition,
    normalises,
    only_infinite_irreducible_components,
    standard_parabolic_closure,
    support,
    torsion_witness,
)
from coxkit import parabolic
from coxkit.errors import CapExceeded, NotNormalising, NotSpherical


def _tripod(p, q, r, extra=None):
    """Coxeter system whose diagram is three simply laced arms of lengths
    p <= q <= r glued at a centre, optionally extended by one more node."""
    arms = [[f"a{i}" for i in range(p)], [f"b{i}" for i in range(q)],
            [f"c{i}" for i in range(r)]]
    names = ["z"] + [n for arm in arms for n in arm]
    orders = {}
    for arm in arms:
        prev = "z"
        for name in arm:
            orders[(prev, name)] = 3
            prev = name
    return CoxeterMatrix.from_pairs(names, orders)


def _path(labels):
    names = [f"p{i}" for i in range(len(labels) + 1)]
    orders = {(names[i], names[i + 1]): m for i, m in enumerate(labels)}
    return CoxeterMatrix.from_pairs(names, orders)


class TestSphericity:
    def test_empty_subset(self, a2t):
        assert is_spherical(a2t, set())

    def test_dihedral_pair_inside_affine_triangle(self, a2t):
        assert is_spherical(a2t, {0, 1})

    def test_affine_triangle_is_infinite(self, a2t):
        assert not is_spherical(a2t, {0, 1, 2})

    def test_infinite_dihedral(self, dinf):
        assert not is_spherical(dinf, {0, 1})

    @pytest.mark.parametrize("matrix", helpers.ALL_SYSTEMS, ids=lambda m: "".join(m.names))
    def test_unvalidated_form_agrees_with_the_public_one(self, matrix):
        # each on its own fresh system, so neither reads the other's memo
        ours = CoxeterMatrix(matrix.names, matrix.table)
        theirs = CoxeterMatrix(matrix.names, matrix.table)
        for size in range(matrix.rank + 1):
            for combo in itertools.combinations(range(matrix.rank), size):
                assert parabolic._is_spherical(ours, frozenset(combo)) == \
                    is_spherical(theirs, combo), combo

    def test_public_test_validates_its_indices(self, a2t):
        for subset in ({0, 3}, {-1}, {"s"}):
            with pytest.raises(ValueError):
                is_spherical(a2t, subset)

    def test_classification_table(self):
        # finite types of every family
        assert is_spherical(_path([3, 3, 3]), range(4))          # A4
        assert is_spherical(_path([4, 3, 3]), range(4))          # B4
        assert is_spherical(_tripod(1, 1, 1), range(4))          # D4
        assert is_spherical(_tripod(1, 1, 3), range(6))          # D6
        assert is_spherical(_tripod(1, 2, 2), range(6))          # E6
        assert is_spherical(_tripod(1, 2, 3), range(7))          # E7
        assert is_spherical(_tripod(1, 2, 4), range(8))          # E8
        assert is_spherical(_path([3, 4, 3]), range(4))          # F4
        assert is_spherical(_path([5, 3]), range(3))             # H3
        assert is_spherical(_path([5, 3, 3]), range(4))          # H4
        assert is_spherical(_path([7]), range(2))                # I2(7)
        # infinite neighbours of the list
        assert not is_spherical(_tripod(1, 2, 5), range(9))      # affine E8
        assert not is_spherical(_tripod(2, 2, 2), range(7))      # affine E6
        assert not is_spherical(_path([3, 6]), range(3))         # affine G2
        assert not is_spherical(_path([4, 3, 4]), range(4))      # affine B3-like
        assert not is_spherical(_path([5, 3, 3, 3]), range(5))   # H5 does not exist
        assert not is_spherical(_path([5, 3, 5]), range(4))

    def test_ground_truth_by_enumeration(self, a2t, b3, dinf):
        # a subset is spherical iff enumerating its parabolic terminates
        for matrix in (a2t, b3, dinf):
            for size in range(matrix.rank + 1):
                for combo in itertools.combinations(range(matrix.rank), size):
                    claimed = is_spherical(matrix, combo)
                    try:
                        helpers.parabolic_elements(matrix, combo, cap=2000)
                        actual = True
                    except CapExceeded:
                        actual = False
                    assert claimed == actual, (matrix.names, combo)

    def test_spherical_subsets_ordering(self, a2t):
        # the canonical order of torsion witnesses
        subsets = helpers.reference_spherical_subsets(a2t)
        assert subsets[0] == frozenset()
        assert len(subsets) == 7  # everything except the full set
        sizes = [len(s) for s in subsets]
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("matrix", helpers.ALL_SYSTEMS + (_tripod(1, 2, 4),),
                             ids=lambda m: "".join(m.names))
    def test_spherical_subsets_match_every_subset_tested(self, matrix):
        # a subset of a spherical set is spherical, which the torsion scan
        # relies on when it abandons a closure that stops being spherical:
        # growing each spherical set by a larger index finds every spherical
        # subset, in the same order as testing all 2^rank of them
        fresh = CoxeterMatrix(matrix.names, matrix.table)
        level, grown = [()], []
        while level:
            grown.extend(frozenset(combo) for combo in level)
            level = [combo + (j,) for combo in level
                     for j in range(combo[-1] + 1 if combo else 0, fresh.rank)
                     if is_spherical(fresh, combo + (j,))]
        assert tuple(grown) == helpers.reference_spherical_subsets(matrix)

    def test_spherical_subsets_test_only_extensions_of_spherical_ones(self):
        # rank 20, every order infinite: the torsion scan tests only the
        # closures it grows from a spherical set, not 2^20 subsets
        rank = 20
        matrix = CoxeterMatrix.from_pairs(
            [f"s{i}" for i in range(rank)],
            {(f"s{i}", f"s{j}"): helpers.INF for i in range(rank) for j in range(i + 1, rank)})
        for i in range(rank):
            assert torsion_witness(matrix.generator(i)) == frozenset({i})
        assert torsion_witness(matrix.identity()) is None
        assert torsion_witness(matrix.element("s0 s1")) is None
        assert torsion_witness(matrix.element(" ".join(matrix.names))) is None
        assert 0 < len(matrix._scratch["spherical"]) < (rank + 1) * rank


class TestComponents:
    def test_commuting_pair_splits(self, a1a1):
        assert diagram_components(a1a1, {0, 1}) == (frozenset({0}), frozenset({1}))

    def test_triangle_is_connected(self, a2t):
        assert diagram_components(a2t, {0, 1, 2}) == (frozenset({0, 1, 2}),)

    def test_empty(self, a2t):
        assert diagram_components(a2t, set()) == ()

    def test_subset_str(self, a2t):
        assert str(generator_subset(a2t, {0, 2})) == "{s,u}"


class TestParabolicMembership:
    # w lies in W_I iff its smallest standard parabolic closure lies in I
    def test_identity_in_everything(self, a2t):
        assert standard_parabolic_closure(a2t.identity()).members <= frozenset()

    def test_missing_letter(self, a2t):
        assert not standard_parabolic_closure(a2t.element("st")).members <= {0}

    def test_dihedral_word(self, a2):
        assert standard_parabolic_closure(a2.element("sts")).members <= {0, 1}


class TestNormalises:
    def test_empty_subset(self, a2t):
        assert normalises(a2t.element("stu"), set())

    def test_worked_example_commuting_piece(self, a2t):
        # stustu commutes with t, hence normalises {t}
        assert normalises(a2t.element("stustu"), {a2t.index("t")})

    def test_single_generator_fails(self, a2t):
        assert not normalises(a2t.element("s"), {a2t.index("t")})


class TestMinCosetRep:
    def test_strip_single_descent(self, a2t):
        rep = min_coset_rep({a2t.index("s")}, a2t.element("st"))
        assert rep == a2t.element("t")

    def test_no_descents_in_subset(self, a2t):
        w = a2t.element("stu")
        assert min_coset_rep({a2t.index("u")}, w) == w

    def test_worked_example(self, a2t):
        w = multiply(a2t.element("t"), a2t.element("stustu"))
        assert min_coset_rep({a2t.index("t")}, w) == a2t.element("stustu")

    def test_length_additive_factorisation(self, b3):
        members = {0, 1}
        for word in helpers.all_words(b3, 5):
            w = b3.element(word)
            rep = min_coset_rep(members, w)
            cofactor = multiply(w, inverse(rep))
            assert support(cofactor) <= members
            assert cofactor.length + rep.length == w.length


class TestNormaliserDecomposition:
    def test_empty_subset(self, a2t):
        w = a2t.element("stu")
        decomposition = normaliser_decomposition(w, set())
        assert decomposition.torsion_part.is_identity()
        assert decomposition.straight_part == w

    def test_single_generator(self, a2t):
        s = a2t.element("s")
        decomposition = normaliser_decomposition(s, {a2t.index("s")})
        assert decomposition.torsion_part == s
        assert decomposition.straight_part.is_identity()

    def test_worked_example_split(self, a2t):
        w = a2t.element("tustuts")
        s = a2t.element("s")
        sws = multiply(multiply(s, w), s)
        decomposition = normaliser_decomposition(sws, {a2t.index("t")})
        assert decomposition.torsion_part == a2t.element("t")
        assert decomposition.straight_part == a2t.element("stustu")

    def test_roundtrip_and_additivity(self, a2t):
        w = multiply(a2t.element("t"), a2t.element("stustu"))
        d = normaliser_decomposition(w, {a2t.index("t")})
        assert multiply(d.torsion_part, d.straight_part) == w
        assert d.torsion_part.length + d.straight_part.length == w.length

    def test_roundtrip_sweep_over_normalising_pairs(self, a2t, b3):
        for matrix in (a2t, b3):
            for word in helpers.all_words(matrix, 4):
                w = matrix.element(word)
                for members in helpers.reference_spherical_subsets(matrix):
                    if not normalises(w, members):
                        continue
                    d = normaliser_decomposition(w, members)
                    assert multiply(d.torsion_part, d.straight_part) == w
                    assert (
                        d.torsion_part.length + d.straight_part.length == w.length
                    )
                    assert support(d.torsion_part) <= members
                    assert normalises(d.straight_part, members)

    def test_not_spherical_rejected(self, a2t):
        with pytest.raises(NotSpherical):
            normaliser_decomposition(a2t.element("stu"), {0, 1, 2})

    def test_not_normalising_rejected(self, a2t):
        with pytest.raises(NotNormalising):
            normaliser_decomposition(a2t.element("s"), {a2t.index("t")})


class TestTorsionFreeness:
    def test_worked_example_element(self, a2t):
        assert is_torsion_free(a2t.element("tustuts"))

    def test_shifted_worked_example(self, a2t):
        w = a2t.element("tustuts")
        s = a2t.element("s")
        sws = multiply(multiply(s, w), s)
        witness = torsion_witness(sws)
        assert witness == {a2t.index("t")}

    def test_generators_are_torsion(self, a2t):
        for g in map(a2t.generator, range(a2t.rank)):
            assert torsion_witness(g) == support(g)

    def test_identity_is_torsion_free(self, a2t):
        assert is_torsion_free(a2t.identity())

    def test_each_generator_conjugated_at_most_once(self, monkeypatch):
        """The search conjugates every generator it tests once, however many
        descent closures hold it, and exactly the generators that a search
        conjugating afresh for each closure conjugates, on every node of the
        affine A3 of at most 6 letters whose left descents meet three or
        more spherical subsets and on which a subset-by-subset scan
        conjugates some generator more than once."""
        matrix = helpers.A3T
        conjugated = Counter()

        def counting(m, v_word, x_word):
            conjugated[x_word] += 1
            return original(m, v_word, x_word)

        original = parabolic._conjugate_word
        monkeypatch.setattr(parabolic, "_conjugate_word", counting)
        nodes = 0
        for w in enumerate_elements(matrix, 6):
            lds = left_descents(w)
            if sum(1 for members in helpers.reference_spherical_subsets(matrix) if members & lds) < 3:
                continue
            requested = []
            expected = helpers.reference_torsion_witness(w, requested)
            if max(Counter(requested).values()) < 2:
                continue
            nodes += 1
            conjugated.clear()
            assert torsion_witness(w) == expected, w
            assert set(conjugated.values()) == {1}, w
            searched = []
            closures = helpers.reference_descent_search(w, searched)
            assert min(closures, key=lambda c: (len(c), sorted(c)), default=None) == expected, w
            assert set(conjugated) == {bytes((i,)) for i in searched}, w
        assert nodes > 100

    @pytest.mark.parametrize("matrix, max_len",
                             [(m, 6) for m in helpers.ALL_SYSTEMS] + [(_tripod(1, 2, 4), 4)],
                             ids=lambda p: "".join(p.names) if isinstance(p, CoxeterMatrix) else str(p))
    def test_witness_is_the_least_spherical_descent_closure(self, matrix, max_len):
        # the 14 systems and E8, each on a fresh system against the
        # subset-by-subset scan, and against the descent closures grown by
        # fixpoint: the witness is the least spherical one
        fresh = CoxeterMatrix(matrix.names, matrix.table)
        witnesses = set()
        for w in enumerate_elements(matrix, max_len):
            witness = torsion_witness(fresh.element(w.word))
            assert witness == helpers.reference_torsion_witness(w), w
            closures = [helpers.reference_descent_closure(w, d) for d in left_descents(w)]
            least = min((c for c in closures if is_spherical(matrix, c)),
                        key=lambda c: (len(c), sorted(c)), default=None)
            assert witness == least, w
            witnesses.add(witness)
        assert len(witnesses) > 1

    def test_commuting_generators_grow_closures_not_subsets(self):
        # rank 20, every order 2: all 2^20 subsets are spherical, and the
        # witness of s0 s1 is the closure of its least left descent alone
        rank = 20
        matrix = CoxeterMatrix.from_pairs([f"s{i}" for i in range(rank)], {})
        w = matrix.element("s0 s1")
        assert not is_torsion_free(w)
        assert torsion_witness(w) == {0}
        # conjugation by w fixes every generator, so no closure grows and no
        # subset is tested; a sphericity question does land in that memo
        spherical = matrix._scratch["spherical"]
        assert not spherical
        assert standard_parabolic_closure(w).spherical
        assert spherical == {frozenset({0, 1}): True}


class TestClosureAndComponents:
    def test_identity_closure_empty(self, a2t):
        assert standard_parabolic_closure(a2t.identity()).members == frozenset()

    def test_coxeter_word_closure(self, a2t):
        sub = standard_parabolic_closure(a2t.element("stu"))
        assert sub.members == {0, 1, 2}
        assert len(sub.components) == 1
        assert not sub.spherical

    def test_commuting_pair_closure(self, a1a1):
        sub = standard_parabolic_closure(a1a1.element("st"))
        assert sub.components == (frozenset({0}), frozenset({1}))

    def test_only_infinite_components(self, a2t):
        assert only_infinite_irreducible_components(a2t, {0, 1, 2})
        assert not only_infinite_irreducible_components(a2t, {0})
        assert only_infinite_irreducible_components(a2t, set())


class TestCentralises:
    def test_identity_centralises(self, a2t):
        assert centralises(a2t.identity(), map(a2t.generator, range(a2t.rank)))

    def test_worked_example_commutation(self, a2t):
        assert centralises(a2t.element("stustu"), [a2t.element("t")])

    def test_dihedral_generators_do_not_commute(self, a2):
        assert not centralises(a2.element("s"), [a2.element("t")])
