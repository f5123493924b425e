"""Core word engine for Coxeter systems.

Everything here is exact and purely combinatorial.  Reducedness and normal
forms come from the table of minimal roots of Brink and Howlett (see
``roots``), built once per system in exact arithmetic:

  * walking the simple root of s backward through a reduced word w by the
    table reaches "negative" at position i exactly when w*s is not reduced,
    and then w*s is w with letter i deleted (the exchange condition);
  * a word is reduced iff each letter passes that test against the prefix
    before it; appending letters one at a time and deleting at the exchange
    position reduces any word;
  * the same walk builds the shortlex-least reduced word (``_normal_form``).

So the word layer (``canonical_word``, ``is_reduced``, products, inverses,
descents, and conjugates, built by ``_conjugate_word`` one cyclic shift
s*v*s at a time through ``_shift`` and dropped as soon as they cannot end
within a length bound, when one is given) never searches and takes no node
cap.
Braid classes, the fully-commutative test and braid-move paths are found by
searching the graph of braid moves, ``_braid_orbit`` (Tits: two reduced words
spell the same element iff braid moves connect them).  That search, the
cyclic-shift closure and element enumeration are all ``_search``, one capped
breadth-first search and the only place the node cap is checked: exceeding
it raises CapExceeded rather than returning a guess.  Every function that
takes a ``cap`` keeps one contract, so refusals are monotone in the cap and
independent of memo state:

  * a call refuses iff the search nodes that its own algorithm visits on a
    fresh system exceed the cap (a search always visits its start, so a
    cap of 0 refuses);
  * a memo hit refuses exactly as that fresh call would;
  * a test that visits no search node answers at every cap.

All values are immutable after construction; the per-system dictionaries on
:class:`CoxeterMatrix` are memo caches only, and hold only what is read
again: normal forms and cyclic shifts, never a braid class.

Words are stored as ``bytes`` of generator indices (rank is capped at 255):
hashing and slicing of bytes dominate the closure searches and are far
cheaper than tuples.  Shortlex order on words of equal length coincides with
the bytes ordering.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from operator import eq
from typing import Optional, Sequence, Union

from .errors import (
    CapExceeded,
    MalformedMatrix,
    NotReduced,
    ReplayError,
    WordSyntaxError,
)
from .roots import NEG, minimal_root_table

INFINITY = math.inf

#: Default node cap for braid-move and cyclic-shift closure searches.
DEFAULT_CAP = 1_000_000

#: A word is a bytes object of generator indices into the ambient matrix.
Word = bytes

WordLike = Union[str, bytes, Sequence[int]]


def _check_order(value) -> bool:
    if value == INFINITY:
        return True
    return isinstance(value, int) and not isinstance(value, bool) and value >= 2


class CoxeterMatrix:
    """A Coxeter system (W, S): generator names plus the order table m(s, t).

    ``table[i][j]`` is the order of the product of generators i and j:
    1 on the diagonal, an integer >= 2 or ``INFINITY`` off it, symmetric.
    Instances are immutable and hashable; two systems are equal iff they have
    the same names in the same order and the same table.
    """

    __slots__ = ("names", "table", "_index", "_single_char", "_hash", "_scratch",
                 "_descent_candidates")

    def __init__(self, names: Sequence[str], table: Sequence[Sequence]) -> None:
        names = tuple(names)
        if not names:
            raise MalformedMatrix("at least one generator is required")
        if len(names) > 255:
            raise MalformedMatrix("at most 255 generators are supported")
        index = {}
        for pos, name in enumerate(names):
            if not isinstance(name, str) or not name:
                raise MalformedMatrix(f"generator names must be nonempty strings, got {name!r}")
            if any(ch.isspace() for ch in name) or "," in name or name == "-" or name.startswith("#"):
                raise MalformedMatrix(f"generator name {name!r} would be unreadable in word syntax")
            if name in index:
                raise MalformedMatrix(f"duplicate generator name {name!r}")
            index[name] = pos
        n = len(names)
        rows = tuple(tuple(row) for row in table)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise MalformedMatrix(f"order table must be {n}x{n}")
        for i in range(n):
            if rows[i][i] != 1:
                raise MalformedMatrix(f"m({names[i]},{names[i]}) must be 1")
            for j in range(i + 1, n):
                if not _check_order(rows[i][j]):
                    raise MalformedMatrix(
                        f"m({names[i]},{names[j]}) must be an integer >= 2 or INFINITY, got {rows[i][j]!r}"
                    )
                if rows[j][i] != rows[i][j]:
                    raise MalformedMatrix(f"order table is not symmetric at ({names[i]},{names[j]})")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_single_char", all(len(nm) == 1 for nm in names))
        object.__setattr__(self, "_hash", hash((names, rows)))
        # memo caches shared with sibling modules; never part of equality
        object.__setattr__(self, "_scratch", defaultdict(dict))
        # for each generator, the smaller ones with a finite order against it
        object.__setattr__(self, "_descent_candidates", tuple(
            tuple(j for j in range(i) if rows[i][j] != INFINITY) for i in range(n)))

    def __setattr__(self, name, value):
        raise AttributeError("CoxeterMatrix is immutable")

    @classmethod
    def from_pairs(cls, names: Sequence[str], orders=None) -> "CoxeterMatrix":
        """Build a system from ``{(s, t): m}`` pairs; unlisted pairs default to 2."""
        names = tuple(names)
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        table = [[2] * n for _ in range(n)]
        for i in range(n):
            table[i][i] = 1
        for (a, b), m in (orders or {}).items():
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise MalformedMatrix(f"order given for undeclared generator {missing!r}")
            i, j = index[a], index[b]
            table[i][j] = table[j][i] = m
        return cls(names, table)

    # -- basic queries ----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.names)

    def m(self, i: int, j: int):
        return self.table[i][j]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise WordSyntaxError(f"unknown generator {name!r}") from None

    def __eq__(self, other):
        if not isinstance(other, CoxeterMatrix):
            return NotImplemented
        return self.names == other.names and self.table == other.table

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CoxeterMatrix(names={self.names!r})"

    # -- words and elements ----------------------------------------------

    def word(self, text: WordLike) -> Word:
        """Read a word: a string of tokens, or a sequence of generator indices.

        String syntax: whitespace-separated generator tokens; a run of
        single-character tokens may be written contiguously; ``-`` (or the
        empty string) is the empty word.
        """
        if isinstance(text, bytes):
            if text and max(text) >= len(self.names):
                raise WordSyntaxError("word contains an invalid generator index")
            return text
        if isinstance(text, str):
            s = text.strip()
            if s in ("", "-"):
                return b""
            letters = []
            for piece in s.split():
                if piece in self._index:
                    letters.append(self._index[piece])
                elif self._single_char and all(ch in self._index for ch in piece):
                    letters.extend(self._index[ch] for ch in piece)
                else:
                    raise WordSyntaxError(
                        f"cannot read {piece!r} as generators of this system"
                    )
            return bytes(letters)
        letters = list(text)
        for letter in letters:
            if not isinstance(letter, int) or not 0 <= letter < len(self.names):
                raise WordSyntaxError(f"invalid generator index {letter!r}")
        return bytes(letters)

    def word_str(self, word: Word) -> str:
        """Render a word in the same syntax :meth:`word` reads."""
        if not word:
            return "-"
        if self._single_char:
            return "".join(self.names[i] for i in word)
        return " ".join(self.names[i] for i in word)

    def identity(self) -> "Element":
        return Element(self, b"")

    def generator(self, which: Union[int, str]) -> "Element":
        i = which if isinstance(which, int) else self.index(which)
        if not 0 <= i < self.rank:
            raise WordSyntaxError(f"invalid generator index {i!r}")
        return Element(self, bytes([i]))

    def element(self, word: WordLike) -> "Element":
        """Parse and reduce a word to the element it spells."""
        return Element(self, canonical_word(self, self.word(word)))


# ---------------------------------------------------------------------------
# word moves


@dataclass(frozen=True)
class BraidStep:
    """Replace the alternating factor stst... of length m(s,t) at ``pos`` by tsts..."""

    pos: int
    pair: tuple


@dataclass(frozen=True)
class RotateStep:
    """Left-rotate the named word by ``k`` letters; the word is recorded for replay."""

    k: int
    word: Word


@dataclass(frozen=True)
class CancelStep:
    """Delete the equal adjacent pair at positions pos, pos+1."""

    pos: int


Step = Union[BraidStep, RotateStep, CancelStep]

def apply_step(matrix: CoxeterMatrix, word: Word, step: Step) -> Word:
    """Apply one move to a word, validating its applicability."""
    if isinstance(step, BraidStep):
        a, b = step.pair
        generators = range(matrix.rank)
        if a == b or a not in generators or b not in generators:
            raise ReplayError(f"braid pair {step.pair!r} is not two distinct generators")
        m = matrix.m(a, b)
        if m == INFINITY:
            raise ReplayError(
                f"no braid relation between {matrix.names[a]} and {matrix.names[b]}"
            )
        pos = step.pos
        if (pos < 0 or pos + m > len(word) or word[pos] != a or word[pos + 1] != b
                or word[pos + 2 : pos + m] != word[pos : pos + m - 2]):
            raise ReplayError(f"braid move does not apply at position {pos}")
        return word[:pos] + word[pos + 1 : pos + m] + word[pos + m - 2 : pos + m - 1] + word[pos + m :]
    if isinstance(step, RotateStep):
        if word != step.word:
            raise ReplayError("rotation applied to an unexpected word")
        if not 0 <= step.k <= len(word):
            raise ReplayError(f"rotation amount {step.k} out of range")
        return word[step.k :] + word[: step.k]
    if isinstance(step, CancelStep):
        p = step.pos
        if p < 0 or p + 1 >= len(word) or word[p] != word[p + 1]:
            raise ReplayError(f"no equal adjacent pair at position {p}")
        return word[:p] + word[p + 2 :]
    raise ReplayError(f"unknown move {step!r}")


def _has_repeat(word: Word) -> bool:
    """Whether the word has an equal adjacent pair, so is not reduced."""
    return any(map(eq, word, word[1:]))


def _search(start, moves, cap, what, *, stop=None, parents=None):
    """Breadth-first search from ``start``, the one search behind braid
    classes, cyclic-shift closures, element enumeration and diagram
    components.

    ``moves(node)`` yields ``(next, back)`` pairs.  Returns ``(seen, hit)``:
    ``hit`` is the first node, in order of discovery and ``start`` included,
    for which ``stop`` holds; the search ends there.  Without such a node the
    orbit is exhausted and ``hit`` is None.  ``parents`` (when given) collects
    first-discovery back-pointers ``next -> (node, back)``.  More than ``cap``
    nodes raise CapExceeded naming ``what``; ``start`` is always visited, so
    a ``cap`` below 1 refuses before anything is tested.
    """
    if cap < 1:
        raise CapExceeded(f"{what} exceeded the node cap of {cap}")
    if stop is not None and stop(start):
        return {start}, start
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt, back in moves(cur):
            if nxt in seen:
                continue
            if len(seen) >= cap:
                raise CapExceeded(f"{what} exceeded the node cap of {cap}")
            seen.add(nxt)
            if parents is not None:
                parents[nxt] = (cur, back)
            if stop is not None and stop(nxt):
                return seen, nxt
            queue.append(nxt)
    return seen, None


def _braid_moves(table, cur: Word):
    """The braid moves that apply to ``cur``, as ``(next word, position)``."""
    n = len(cur)
    for pos in range(n - 1):
        m = table[cur[pos]][cur[pos + 1]]
        if m == 2:  # a commuting pair always swaps
            yield cur[:pos] + cur[pos + 1 : pos + 2] + cur[pos : pos + 1] + cur[pos + 2 :], pos
            continue
        # m is 1 on a repeated letter, and an infinite m never fits
        if m == 1 or pos + m > n:
            continue
        # the m letters from pos alternate when each repeats the one two
        # places back; the move reads them from pos + 1, then repeats the
        # second-to-last
        if cur[pos + 2 : pos + m] == cur[pos : pos + m - 2]:
            swapped = cur[pos + 1 : pos + m] + cur[pos + m - 2 : pos + m - 1]
            yield cur[:pos] + swapped + cur[pos + m :], pos


def _braid_orbit(matrix, word, cap, *, stop=None, parents=None):
    """:func:`_search` of the braid-move orbit of ``word``; ``parents`` maps a
    word to ``(previous word, position of the move)``."""
    table = matrix.table
    return _search(word, lambda cur: _braid_moves(table, cur), cap, "braid-move orbit",
                   stop=stop, parents=parents)


def _root_table(matrix: CoxeterMatrix) -> dict:
    """The minimal-root transition table, built on first use: root -> row."""
    table = matrix._scratch.get("roots")
    if table is None:
        table = dict(enumerate(minimal_root_table(matrix.table)))
        matrix._scratch["roots"] = table
    return table


def _exchange(act: dict, word, s: int) -> Optional[int]:
    """For a reduced word w: the position i with w*s = w minus letter i, or
    None when w*s is reduced."""
    beta = s
    for i in range(len(word) - 1, -1, -1):
        beta = act[beta][word[i]]
        if beta < 0:
            return i if beta == NEG else None
    return None


def _normal_form(act: dict, word: Word, prefix: Word = b"") -> Word:
    """The normal form (shortlex-least reduced word) of ``prefix + word``,
    for ``prefix`` itself a normal form: by (1) below every letter of it
    would stay where it is, so the walk resumes after it.

    Each letter s is walked back through ``out`` by the exchange walk.  When
    the walk reaches ``NEG`` at position i, letter i is deleted.  Otherwise
    s has no exchange position, and t is inserted before ``out[k]`` for the
    least k at which the walk, just after ``out[k]``, holds the simple root
    of some t < ``out[k]`` (simple roots are the indices below the rank; the
    negative sentinels pass the same test), or s is appended if there is no
    such k.  Why, for NF(v) = a_1...a_n:

    1. every factor of a normal form is a normal form;
    2. if l(vs) > l(v), D_L(vs) = D_L(v) + {t}, t existing iff v s v^-1 = t
       is in S: by exchange, a new left descent deletes the last letter;
    3. so by (1), (2) and induction, NF(vs) = a_1...a_k t a_(k+1)...a_n for
       the least k with v_k s v_k^-1 = t < a_(k+1), v_k = a_(k+1)...a_n,
       and k = n (append s) if there is none;
    4. the walk holds v_k(a_s) just after a_(k+1), and may stop at the first
       negative sentinel: a root b = x(a_s) (x the letters walked) that
       reached ``NONMIN`` never becomes simple.  Else b dominates a
       positive root c != b, and u(b) = a_t for the letters u still to
       walk.  By W-invariance a_s dominates x^-1(c), so x^-1(c) < 0, as a
       simple root dominates no other positive root; c is a left inversion
       of x and u x is reduced, so u(c) > 0, and a_t cannot dominate
       u(c) != a_t;
    5. if l(vs) < l(v), the exchange position i is unique, and (3) applied
       to (vs)s gives NF(vs) = NF(v) minus letter i.
    """
    out = bytearray(prefix)
    for s in word:
        beta, k, t = s, len(out), s
        for i in range(len(out) - 1, -1, -1):
            a = out[i]
            beta = act[beta][a]
            if beta < a:
                if beta < 0:
                    break
                k, t = i, beta
        if beta == NEG:
            del out[i]
        else:
            out.insert(k, t)
    return bytes(out)


def is_reduced(matrix: CoxeterMatrix, word: WordLike) -> bool:
    """Decide reducedness: no letter is deleted while the normal form of the
    word is built."""
    word = matrix.word(word)
    return len(_normal_form(_root_table(matrix), word)) == len(word)


def braid_class(matrix: CoxeterMatrix, word: WordLike, cap: int = DEFAULT_CAP) -> frozenset:
    """The set of words reachable from a reduced word by braid moves.

    By Tits' theorem this is exactly the set of reduced words of the element.
    It is searched on every call and not memoised.  No decision path calls
    it: the rotation targets and ``is_fc`` search the braid-move orbit
    themselves, with their own stops.
    """
    word = matrix.word(word)
    seen, repeat = _braid_orbit(matrix, word, cap, stop=_has_repeat)
    if repeat is not None:
        raise NotReduced(f"word {matrix.word_str(word)} is not reduced")
    return frozenset(seen)


def canonical_word(matrix: CoxeterMatrix, word: WordLike) -> Word:
    """Shortlex-least reduced word of the element spelled by ``word``: one
    exchange walk per letter, no search; memoised under the input and itself."""
    if not isinstance(word, bytes):
        word = matrix.word(word)
    cache = matrix._scratch["canon"]
    canon = cache.get(word)
    if canon is None:
        word = matrix.word(word)  # a miss is validated; every memo key was when stored
        canon = cache[word] = _normal_form(_root_table(matrix), word)
        cache[canon] = canon
    return canon


def _walk_parents(parents, target) -> list:
    """The braid moves leading to ``target`` along first-discovery pointers."""
    chain = []
    w = target
    while w in parents:
        w, pos = parents[w]
        chain.append(BraidStep(pos, (w[pos], w[pos + 1])))
    chain.reverse()
    return chain


def reduce_word_with_path(matrix: CoxeterMatrix, word: WordLike, cap: int = DEFAULT_CAP):
    """``(element, steps)``: the element ``word`` spells and a replayable
    move path from the word to its canonical word.

    The canonical word comes first, with no search.  Only a reduced word is
    as long, so while the word is longer, braid moves reach a word with an
    equal adjacent pair, which is cancelled; then :func:`braid_word_path`
    reaches the canonical word.  Each search stops at the first word it
    looks for.
    """
    cur = matrix.word(word)
    canon = canonical_word(matrix, cur)
    steps = []
    while len(cur) > len(canon):
        parents = {}
        _, sigma = _braid_orbit(matrix, cur, cap, stop=_has_repeat, parents=parents)
        steps.extend(_walk_parents(parents, sigma))
        p = next(i for i in range(len(sigma) - 1) if sigma[i] == sigma[i + 1])
        steps.append(CancelStep(p))
        cur = sigma[:p] + sigma[p + 2 :]
    steps.extend(braid_word_path(matrix, cur, canon, cap))
    return Element(matrix, canon), steps


def braid_word_path(matrix: CoxeterMatrix, source: WordLike, target: WordLike,
                    cap: int = DEFAULT_CAP) -> list:
    """A braid-move path between two words of one braid class."""
    source = matrix.word(source)
    target = matrix.word(target)
    parents = {}
    _, hit = _braid_orbit(matrix, source, cap, stop=target.__eq__, parents=parents)
    if hit is None:
        raise ValueError(
            f"{matrix.word_str(source)} and {matrix.word_str(target)} are not braid-related"
        )
    return _walk_parents(parents, target)


# ---------------------------------------------------------------------------
# elements


@dataclass(frozen=True)
class Element:
    """A group element, held as its shortlex-least reduced word.

    Do not construct directly from an arbitrary word; go through
    :meth:`CoxeterMatrix.element`, which canonicalises.
    """

    system: CoxeterMatrix
    word: Word

    @property
    def length(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return not self.word

    def inverse(self) -> "Element":
        return inverse(self)

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return multiply(self, other)

    def __pow__(self, n: int) -> "Element":
        return power(self, n)

    def __eq__(self, other):  # words differ far more often; systems are nearly always one object
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word == other.word and (
            self.system is other.system or self.system == other.system)

    def __hash__(self):  # bytes cache their hash
        return hash(self.word)

    def __lt__(self, other: "Element") -> bool:
        return (len(self.word), self.word) < (len(other.word), other.word)

    def __str__(self):
        return self.system.word_str(self.word)

    def __repr__(self):
        return f"Element({self.system.word_str(self.word)!r})"


def _same_system(x: Element, y: Element) -> CoxeterMatrix:
    if x.system is not y.system and x.system != y.system:
        raise ValueError("elements live in different Coxeter systems")
    return x.system


def multiply(x: Element, y: Element) -> Element:
    matrix = _same_system(x, y)
    return Element(matrix, canonical_word(matrix, x.word + y.word))


def inverse(x: Element) -> Element:
    # the reverse of a reduced word is reduced; only canonicalisation remains
    return Element(x.system, canonical_word(x.system, x.word[::-1]))


def power(x: Element, n: int) -> Element:
    """x^n by repeated squaring: O(log |n|) products."""
    if n < 0:
        x, n = inverse(x), -n
    acc = x.system.identity()
    while n:
        if n & 1:
            acc = multiply(acc, x)
        n >>= 1
        if n:
            x = multiply(x, x)
    return acc


def _shift(matrix: CoxeterMatrix, word: Word, s: int) -> Word:
    """The canonical word of s*v*s for the canonical ``word`` v, memoised per
    system: :func:`_normal_form` of the word s v s, or, when v starts with s,
    of v[1:] s, resumed after the normal form v[1:] (one exchange walk)."""
    cache = matrix._scratch["shift"]
    hit = cache.get((word, s))
    if hit is None:
        letter, act = bytes((s,)), _root_table(matrix)
        hit = cache[word, s] = (_normal_form(act, letter, word[1:]) if word[:1] == letter
                                else _normal_form(act, letter + word + letter))
    return hit


def _conjugate_word(matrix: CoxeterMatrix, v_word: Word, x_word: Word,
                    top: Optional[int] = None) -> Optional[Word]:
    """The canonical word of v x v^-1 for the canonical words of v and x:
    a_1(...(a_l x a_l)...)a_1 for v = a_1...a_l, one shift per letter from
    the right, read from the shift memo (:func:`_shift` on a miss).  None as
    soon as it cannot end at most ``top`` letters long: one shift changes
    the length by at most 2, so while j letters of v remain to apply, a
    conjugate longer than top + 2j never gets there.  No conjugate is longer
    than l(x) + 2 l(v), the bound taken when ``top`` is None, so then none
    is dropped (an integer bound keeps the test cheap)."""
    if top is None:
        top = len(x_word) + 2 * len(v_word)
    shifts = matrix._scratch["shift"]
    limit = top + 2 * len(v_word)
    for s in reversed(v_word):
        if len(x_word) > limit:
            return None
        x_word = shifts.get((x_word, s)) or _shift(matrix, x_word, s)
        limit -= 2
    return x_word


def conjugate(v: Element, x: Element) -> Element:
    """v x v^-1, by :func:`_conjugate_word`."""
    matrix = _same_system(v, x)
    return Element(matrix, _conjugate_word(matrix, v.word, x.word))


def _descents(matrix: CoxeterMatrix, word: Word) -> frozenset:
    act = _root_table(matrix)
    return frozenset(s for s in range(matrix.rank) if _exchange(act, word, s) is not None)


def left_descents(x: Element) -> frozenset:
    """{s : l(s*x) < l(x)}; equivalently the first letters over all reduced words.

    These are the right descents of the reversed word, which spells x^-1.
    """
    return _descents(x.system, x.word[::-1])


def right_descents(x: Element) -> frozenset:
    """{s : l(x*s) < l(x)}, by the exchange walk of each generator."""
    return _descents(x.system, x.word)


def support(x: Element) -> frozenset:
    """Generator indices occurring in the canonical word (the same for every
    reduced word, since braid moves preserve the letter set)."""
    return frozenset(x.word)
