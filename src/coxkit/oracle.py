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
    conjugate,
    multiply,
)
from .errors import CapExceeded, NumericallyAmbiguous

DEFAULT_TOLERANCE = 1e-9

#: Longest word the floating-point reducedness test accepts by default.
DEFAULT_ORACLE_LENGTH_CAP = 16


class GeometricRep:
    """Per-generator linear maps on the root space, with a sign tolerance."""

    def __init__(self, matrix: CoxeterMatrix, tolerance: float = DEFAULT_TOLERANCE):
        if not 0 < tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
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
        self.matrix = matrix
        self.form = form
        self.maps = tuple(maps)
        self.tolerance = tolerance


def geometric_rep(matrix: CoxeterMatrix, tolerance: float = DEFAULT_TOLERANCE) -> GeometricRep:
    cache = matrix._scratch["georep"]
    rep = cache.get(tolerance)
    if rep is None:
        rep = GeometricRep(matrix, tolerance)
        cache[tolerance] = rep
    return rep


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
    rep = geometric_rep(matrix, tolerance)
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
                       cap: int = DEFAULT_CAP, letters=None) -> tuple:
    """All elements of length <= max_len, canonically ordered.

    Breadth-first right multiplication with canonical-form deduplication.
    ``max_len=None`` runs until the frontier empties, so it returns the whole
    group for finite systems (and raises CapExceeded for infinite ones).
    ``letters`` restricts multiplication to a generator subset, enumerating
    the standard parabolic subgroup it generates.
    """
    gens = sorted(letters) if letters is not None else range(matrix.rank)
    gens = [matrix.generator(i) for i in gens]
    identity = matrix.identity()
    seen = {identity}
    frontier = [identity]
    depth = 0
    while frontier and (max_len is None or depth < max_len):
        grown = []
        for x in frontier:
            for g in gens:
                y = multiply(x, g)
                if y.length == x.length + 1 and y not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"element enumeration exceeded the node cap of {cap}")
                    seen.add(y)
                    grown.append(y)
        grown.sort()
        frontier = grown
        depth += 1
    return tuple(sorted(seen))


def whole_group(matrix: CoxeterMatrix, *, cap: int = DEFAULT_CAP, letters=None) -> tuple:
    """Every element of a finite system (CapExceeded if the group is infinite)."""
    return enumerate_elements(matrix, None, cap=cap, letters=letters)


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
