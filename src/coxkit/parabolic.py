"""Generator subsets, finite-type classification, normaliser decomposition,
and the torsion-freeness criterion.

Sphericity (finiteness of a standard parabolic subgroup) is decided from the
classification of finite Coxeter diagrams: a subset is spherical iff every
connected component of its induced diagram is isomorphic, as an edge-labelled
graph, to one of A_n, B_n, D_n, E6, E7, E8, F4, H3, H4 or a dihedral I2(m)
with m finite.  Components are matched against generated templates after
screening by edge count and label multiset.

An element is torsion-free when it has no length-additive factorisation
w = w_I * n_I with I spherical, w_I a nontrivial element of W_I and n_I
normalising W_I.  Because the normaliser of a spherical W_I splits as
W_I x| N_I with additive lengths, this is equivalent to the scan implemented
by :func:`torsion_witness`: no spherical I is normalised by w while meeting
the left descents of w.  w normalises W_I iff supp(w s_i w^-1) lies in I for
every i in I, so the normalised sets holding a left descent d all hold the
least one, grown from {d} by those supports; the search grows one such set
per left descent, conjugating each generator by w at most once, and never
lists the spherical subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import networkx as nx
from networkx.algorithms.isomorphism import categorical_edge_match

from .core import (
    INFINITY,
    CoxeterMatrix,
    Element,
    _conjugate_word,
    _search,
    conjugate,
    inverse,
    left_descents,
    multiply,
    support,
)
from .errors import NotNormalising, NotSpherical

def _members(matrix: CoxeterMatrix, subset: Iterable[int]) -> frozenset:
    members = frozenset(subset)
    for i in members:
        if not isinstance(i, int) or not 0 <= i < matrix.rank:
            raise ValueError(f"invalid generator index {i!r}")
    return members


@dataclass(frozen=True)
class GeneratorSubset:
    """A subset of the generators with its diagram components and sphericity."""

    system: CoxeterMatrix
    members: frozenset
    components: tuple  # of frozensets, ordered by least member
    spherical: bool

    def names(self) -> tuple:
        return tuple(self.system.names[i] for i in sorted(self.members))

    def __str__(self):
        return "{" + ",".join(self.names()) + "}"


def _components(matrix: CoxeterMatrix, members, joined) -> tuple:
    """The connected components of the graph on ``members`` with an edge
    between i and j when ``joined(m(i, j))`` holds, as frozensets ordered by
    least member."""
    remaining = set(members)
    table = matrix.table

    def neighbours(i):
        orders = table[i]
        return ((j, None) for j in remaining if joined(orders[j]))

    components = []
    while remaining:  # the seeds rise, so components come ordered by least member
        comp, _ = _search(min(remaining), neighbours, INFINITY, "component search")
        components.append(frozenset(comp))
        remaining -= comp
    return tuple(components)


def diagram_components(matrix: CoxeterMatrix, subset: Iterable[int]) -> tuple:
    """Partition into diagram-connected pieces (edges where m(s,t) != 2)."""
    return _components(matrix, _members(matrix, subset), lambda m: m != 2)


def _path_graph(labels) -> nx.Graph:
    g = nx.Graph()
    g.add_node(0)
    for i, m in enumerate(labels):
        g.add_edge(i, i + 1, m=m)
    return g


def _tripod_graph(p: int, q: int, r: int) -> nx.Graph:
    """Three simply-laced arms of lengths p, q, r glued at one centre node."""
    g = nx.Graph()
    centre = 0
    g.add_node(centre)
    node = 0
    for arm in (p, q, r):
        prev = centre
        for _ in range(arm):
            node += 1
            g.add_edge(prev, node, m=3)
            prev = node
    return g


def _finite_templates(n: int):
    """Connected finite-type diagrams on n >= 3 nodes (rank 1 and 2 are
    decided directly)."""
    yield _path_graph([3] * (n - 1))                      # A_n
    yield _path_graph([4] + [3] * (n - 2))                # B_n
    if n >= 4:
        yield _tripod_graph(1, 1, n - 3)                  # D_n
    if n in (6, 7, 8):
        yield _tripod_graph(1, 2, n - 4)                  # E6, E7, E8
    if n == 4:
        yield _path_graph([3, 4, 3])                      # F4
    if n == 3:
        yield _path_graph([5, 3])                         # H3
    if n == 4:
        yield _path_graph([5, 3, 3])                      # H4


def _component_graph(matrix: CoxeterMatrix, comp: frozenset) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(comp)
    for i, j in itertools.combinations(sorted(comp), 2):
        m = matrix.m(i, j)
        if m != 2:
            g.add_edge(i, j, m=m)
    return g


def _component_is_finite_type(matrix: CoxeterMatrix, comp: frozenset) -> bool:
    n = len(comp)
    if n == 1:
        return True
    graph = _component_graph(matrix, comp)
    labels = sorted(data["m"] for _, _, data in graph.edges(data=True))
    if any(m == INFINITY for m in labels):
        return False
    if n == 2:
        return True  # I2(m) with m finite
    if len(labels) != n - 1:
        return False  # finite diagrams are trees
    match = categorical_edge_match("m", None)
    for template in _finite_templates(n):
        t_labels = sorted(data["m"] for _, _, data in template.edges(data=True))
        if t_labels != labels:
            continue
        if nx.is_isomorphic(graph, template, edge_match=match):
            return True
    return False


def is_spherical(matrix: CoxeterMatrix, subset: Iterable[int]) -> bool:
    """True iff the subset generates a finite standard parabolic subgroup."""
    return _is_spherical(matrix, _members(matrix, subset))


def _is_spherical(matrix: CoxeterMatrix, members: frozenset) -> bool:
    """:func:`is_spherical` for a frozenset of valid generator indices, as the
    engine builds them: memoised per system, with no validation."""
    cache = matrix._scratch["spherical"]
    hit = cache.get(members)
    if hit is None:
        hit = cache[members] = all(
            _component_is_finite_type(matrix, comp)
            for comp in diagram_components(matrix, members)
        )
    return hit


def generator_subset(matrix: CoxeterMatrix, subset: Iterable[int]) -> GeneratorSubset:
    members = _members(matrix, subset)
    return GeneratorSubset(
        system=matrix,
        members=members,
        components=diagram_components(matrix, members),
        spherical=_is_spherical(matrix, members),
    )


def normalises(w: Element, subset: Iterable[int]) -> bool:
    """True iff conjugation by w keeps every generator of the subset in W_I:
    supp(w s_i w^-1) lies in I for every i in I, tested in increasing order."""
    members = _members(w.system, subset)
    return all(frozenset(_conjugate_word(w.system, w.word, bytes((i,)))) <= members
               for i in sorted(members))


def centralises(w: Element, generators: Iterable[Element]) -> bool:
    """True iff conjugation by w fixes each given element."""
    return all(conjugate(w, g) == g for g in generators)


def min_coset_rep(subset: Iterable[int], w: Element) -> Element:
    """The unique shortest element of the coset W_I * w (strip left descents in I)."""
    members = _members(w.system, subset)
    cur = w
    while True:
        ds = sorted(left_descents(cur) & members)
        if not ds:
            return cur
        cur = multiply(w.system.generator(ds[0]), cur)


@dataclass(frozen=True)
class NormaliserDecomposition:
    """w = torsion_part * straight_part with additive lengths, torsion_part in
    W_I and straight_part in the complement N_I of the normaliser."""

    torsion_part: Element
    straight_part: Element


def normaliser_decomposition(w: Element, subset: Iterable[int]) -> NormaliserDecomposition:
    matrix = w.system
    sub = generator_subset(matrix, subset)
    if not sub.spherical:
        raise NotSpherical(f"subset {sub} does not generate a finite subgroup")
    if not normalises(w, sub.members):
        raise NotNormalising(f"element {w} does not normalise W_{sub}")
    n_part = min_coset_rep(sub.members, w)
    w_part = multiply(w, inverse(n_part))
    if not (support(w_part) <= sub.members
            and w_part.length + n_part.length == w.length
            and not (left_descents(n_part) & sub.members)
            and normalises(n_part, sub.members)):
        raise NotNormalising(f"element {w} admits no semidirect splitting over {sub}")
    return NormaliserDecomposition(w_part, n_part)


def torsion_witness(w: Element) -> Optional[frozenset]:
    """A spherical subset witnessing a torsion factor of w, or None.

    The witness is the first spherical I, in canonical order (by size, then
    lexicographically), that w normalises while having a left descent inside
    it; I ranges over every spherical subset, not only subsets of the
    support.  w normalises W_I iff I is closed: supp(w s_i w^-1) lies in I
    for every i in I.  For a left descent d, the least closed set holding d,
    cl(d), is grown from {d} by adding those supports; a closed I holding d
    holds cl(d), and a subset of a spherical set is spherical, so the witness
    is the least spherical cl(d).  cl(d) is grown from {d} by conjugating
    the member added last, and abandoned as soon as it is not spherical.
    The closures share their conjugates, so each generator is conjugated by
    w at most once: at most rank conjugations, however many spherical
    subsets the system has.
    """
    matrix = w.system
    images = {}

    def closure(d):
        members, pending = frozenset({d}), [d]
        while pending:
            i = pending.pop()
            image = images.get(i)
            if image is None:
                image = images[i] = frozenset(_conjugate_word(matrix, w.word, bytes((i,))))
            grown = image - members
            if grown:
                members |= grown
                if not _is_spherical(matrix, members):
                    return None
                pending.extend(sorted(grown))
        return members

    closures = {closure(d) for d in left_descents(w)} - {None}
    return min(closures, key=lambda c: (len(c), sorted(c)), default=None)


def is_torsion_free(w: Element) -> bool:
    """No length-additive factorisation w_I * n_I with nontrivial spherical
    torsion part; equivalent to having no torsion witness."""
    return torsion_witness(w) is None


def standard_parabolic_closure(w: Element) -> GeneratorSubset:
    """The smallest standard parabolic subgroup containing w: its support."""
    return generator_subset(w.system, support(w))


def only_infinite_irreducible_components(matrix: CoxeterMatrix, subset: Iterable[int]) -> bool:
    """True iff the subset is empty or no component matches a finite type."""
    return all(
        not _component_is_finite_type(matrix, comp)
        for comp in diagram_components(matrix, subset)
    )
