"""Correctness checks that do not rely on the engine being timed.

The word engine answers by braid-move search; these checks use other
arguments:

* certificates are replayed by an independent move interpreter;
* two words are compared as group elements in the standard geometric
  representation, which is faithful, in floating point;
* a word is reduced iff every prefix sends the next simple root to a positive
  root (the same representation);
* conjugate elements agree on every abelian invariant: the length parity and,
  for each component of the graph of odd orders m(s, t), the parity of the
  number of letters from that component.
"""

import math

import numpy as np


class CheckFailed(Exception):
    pass


def replay(table, start: bytes, steps) -> bytes:
    """Apply certificate moves to ``start``, validating each one."""
    word = bytes(start)
    for step in steps:
        kind = type(step).__name__
        if kind == "BraidStep":
            a, b = step.pair
            m = table[a][b]
            if not isinstance(m, int) or a == b:
                raise CheckFailed(f"braid move on a pair with m={m}")
            pos = step.pos
            if pos < 0 or word[pos:pos + m] != bytes((a, b) * m)[:m]:
                raise CheckFailed(f"braid move does not apply at {pos}")
            word = word[:pos] + bytes((b, a) * m)[:m] + word[pos + m:]
        elif kind == "RotateStep":
            if step.word != word or not 0 <= step.k <= len(word):
                raise CheckFailed("rotation does not apply")
            word = word[step.k:] + word[:step.k]
        elif kind == "CancelStep":
            pos = step.pos
            if pos < 0 or pos + 1 >= len(word) or word[pos] != word[pos + 1]:
                raise CheckFailed(f"cancellation does not apply at {pos}")
            word = word[:pos] + word[pos + 2:]
        else:
            raise CheckFailed(f"unknown move {step!r}")
    return word


class GeometricRep:
    """The standard reflection representation, B(a_s, a_t) = -cos(pi/m)."""

    def __init__(self, table):
        n = len(table)
        form = np.array([
            [1.0 if i == j else -1.0 if table[i][j] == math.inf
             else -math.cos(math.pi / table[i][j]) for j in range(n)]
            for i in range(n)
        ])
        self.gens = []
        for i in range(n):
            g = np.eye(n)
            g[i, :] -= 2.0 * form[i, :]
            self.gens.append(g)
        self.rank = n

    def matrix(self, word: bytes):
        out = np.eye(self.rank)
        for letter in word:
            out = out @ self.gens[letter]
        return out

    def same_element(self, a: bytes, b: bytes) -> bool:
        x, y = self.matrix(a), self.matrix(b)
        scale = max(1.0, float(np.abs(x).max()), float(np.abs(y).max()))
        return bool(np.abs(x - y).max() <= 1e-9 * scale)

    def is_reduced(self, word: bytes) -> bool:
        prefix = np.eye(self.rank)
        for letter in word:
            root = prefix[:, letter]
            tol = 1e-9 * max(1.0, float(np.abs(root).max()))
            negative, positive = (root < -tol).any(), (root > tol).any()
            if negative and positive:
                raise CheckFailed("root sign undecidable in floating point")
            if negative:
                return False
            prefix = prefix @ self.gens[letter]
        return True


def abelian_invariant(table, word: bytes) -> tuple:
    """Length parity, then letter-count parity per odd-order component."""
    n = len(table)
    component = list(range(n))

    def find(i):
        while component[i] != i:
            i = component[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            m = table[i][j]
            if isinstance(m, int) and m % 2 == 1:
                component[find(j)] = find(i)
    parity = {}
    for letter in word:
        root = find(letter)
        parity[root] = parity.get(root, 0) ^ 1
    return (len(word) % 2,) + tuple(parity.get(r, 0) for r in sorted({find(i) for i in range(n)}))
