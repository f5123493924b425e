"""Independent ground-truth engines used to cross-check the word engine.

The geometric side is the standard reflection representation on the span of
the simple roots, with bilinear form B(a_s, a_t) = -cos(pi / m(s, t)) (and -1
for infinite orders).  A word is reduced iff each prefix sends the next simple
root to a positive root, which a floating-point sign test decides robustly at
bounded word length.  Exactness is delegated to the combinatorial engine; the
oracle only needs reliable signs, and says so loudly (NumericallyAmbiguous)
when it cannot tell.

The enumeration side is breadth-first multiplication with canonical-form
deduplication, giving brute-force element sets, conjugacy classes and orders.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_CAP,
    INFINITY,
    CoxeterMatrix,
    Element,
    WordLike,
    _exchange,
    _root_table,
    _search,
    conjugate,
    multiply,
)
from .errors import CapExceeded, NumericallyAmbiguous

DEFAULT_TOLERANCE = 1e-9

#: Longest word the floating-point reducedness test accepts by default.
DEFAULT_ORACLE_LENGTH_CAP = 16


class GeometricRep:
    """The bilinear form on the root space and the per-generator linear maps."""

    def __init__(self, matrix: CoxeterMatrix):
        n = matrix.rank
        form = np.empty((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(n):
                m = matrix.m(i, j)
                if m == 1:
                    form[i, j] = 1.0
                elif m == 2:
                    form[i, j] = 0.0
                elif m == INFINITY:
                    form[i, j] = -1.0
                else:
                    form[i, j] = -math.cos(math.pi / m)
        maps = []
        for i in range(n):
            # s_i acts by v -> v - 2 B(a_i, v) a_i
            reflection = np.eye(n)
            reflection[i, :] -= 2.0 * form[i, :]
            maps.append(reflection)
        self.form = form
        self.maps = tuple(maps)


def is_reduced_oracle(matrix: CoxeterMatrix, word: WordLike, *,
                      tolerance: float = DEFAULT_TOLERANCE,
                      length_cap: int = DEFAULT_ORACLE_LENGTH_CAP) -> bool:
    """Positivity test for reducedness in the geometric representation.

    True iff every prefix maps the next simple root to a positive root.  The
    word length is capped so that accumulated floating error stays far below
    the tolerance.
    """
    word = matrix.word(word)
    if len(word) > length_cap:
        raise CapExceeded(
            f"oracle word-length cap {length_cap} exceeded (word has {len(word)} letters)"
        )
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    rep = GeometricRep(matrix)
    prefix = np.eye(matrix.rank)
    for letter in word:
        root = prefix[:, letter]
        has_pos = bool((root > tolerance).any())
        has_neg = bool((root < -tolerance).any())
        if has_pos == has_neg:
            raise NumericallyAmbiguous(
                f"sign of root undecidable at tolerance {tolerance}"
            )
        if has_neg:
            return False
        prefix = prefix @ rep.maps[letter]
    return True


def enumerate_elements(matrix: CoxeterMatrix, max_len: Optional[int], *,
                       cap: int = DEFAULT_CAP) -> tuple:
    """All elements of length <= max_len, canonically ordered.

    Breadth-first left multiplication by generators: y = g*x is kept only
    when g is not a left descent of x and is the least left descent of y, so
    each element is found once, and its normal form is g followed by that of
    x (a suffix of a shortlex-least word is shortlex-least): no product, no
    memo entry.  A left descent t < g of y generates a finite group with g,
    so only ``_descent_candidates[g]`` are tested.  The search holds
    reversed words, whose right descents are the left ones.
    ``max_len=None`` bounds no length, so it returns the whole group for
    finite systems (and raises CapExceeded for infinite ones).
    """
    gens = range(matrix.rank)
    act, candidates = _root_table(matrix), matrix._descent_candidates

    def moves(rev):
        if max_len is None or len(rev) < max_len:
            for g in gens:
                if _exchange(act, rev, g) is None:
                    grown = rev + bytes((g,))
                    if all(_exchange(act, grown, t) is None for t in candidates[g]):
                        yield grown, g

    seen, _ = _search(b"", moves, cap, "element enumeration")
    words = sorted((rev[::-1] for rev in seen), key=lambda word: (len(word), word))
    return tuple(Element(matrix, word) for word in words)


def conjugacy_class_bruteforce(w: Element, conjugator_len_cap: Optional[int], *,
                               cap: int = DEFAULT_CAP) -> tuple:
    """{ v w v^-1 : l(v) <= conjugator_len_cap }, canonically ordered.

    For a finite system with a cap at least the longest-element length this
    is the exact conjugacy class.
    """
    matrix = w.system
    out = set()
    for v in enumerate_elements(matrix, conjugator_len_cap, cap=cap):
        out.add(conjugate(v, w))
    return tuple(sorted(out))


def order_bruteforce(w: Element, n_cap: int) -> Optional[int]:
    """Smallest n <= n_cap with w^n = 1, or None if there is none below the cap."""
    acc = w
    for n in range(1, n_cap + 1):
        if acc.is_identity():
            return n
        acc = multiply(acc, w)
    return None
