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
  * the shortlex-least reduced word, the normal form, is built by stripping
    the least left descent again and again.

So the word layer (``canonical_word``, ``is_reduced``, products, inverses,
descents, and conjugates, built one cyclic shift s*v*s at a time by
``_shift``) never searches and takes no node cap.  Braid classes, commutation
classes and braid-move paths are found by one breadth-first search of the
graph of braid moves, ``_braid_orbit`` (Tits: two reduced words spell the same
element iff braid moves connect them); it carries a node cap, and exceeding it
raises CapExceeded rather than returning a guess.
All values are immutable after construction; the per-system dictionaries on
:class:`CoxeterMatrix` are memo caches only.

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

# braid classes up to this size are cached once per member word
_MEMBER_CACHE_LIMIT = 20_000

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

    def generators(self) -> tuple:
        return tuple(Element(self, bytes([i])) for i in range(self.rank))

    def element(self, word: WordLike) -> "Element":
        """Parse and reduce a word to the element it spells."""
        return reduce_word(self, self.word(word))


def new_system(names: Sequence[str], entries: Sequence[Sequence]) -> CoxeterMatrix:
    """Validate and build an immutable system descriptor from a full table."""
    return CoxeterMatrix(names, entries)


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

_ALT_MEMO = {}


def _alternating(a: int, b: int, m: int) -> Word:
    pattern = _ALT_MEMO.get((a, b, m))
    if pattern is None:
        pattern = bytes((a if i % 2 == 0 else b) for i in range(m))
        _ALT_MEMO[(a, b, m)] = pattern
    return pattern


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
        if step.pos < 0 or word[step.pos : step.pos + m] != _alternating(a, b, m):
            raise ReplayError(f"braid move does not apply at position {step.pos}")
        return word[: step.pos] + _alternating(b, a, m) + word[step.pos + m :]
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


def _braid_orbit(matrix, word, cap, *, commutations_only=False, stop=None, parents=None):
    """Breadth-first search of the braid-move orbit of ``word``.

    Returns ``(seen, hit)``: ``hit`` is the first word, in order of discovery
    and the start word included, for which ``stop`` holds; the search ends
    there.  Without such a word the orbit is exhausted and ``hit`` is None.
    ``parents`` (when given) collects first-discovery back-pointers
    ``word -> (previous word, position of the move)``.  More than ``cap``
    words raise CapExceeded.
    """
    if stop is not None and stop(word):
        return {word}, word
    seen = {word}
    queue = deque([word])
    table = matrix.table
    alternating = _alternating
    while queue:
        cur = queue.popleft()
        n = len(cur)
        for pos in range(n - 1):
            a, b = cur[pos], cur[pos + 1]
            m = table[a][b]
            if m == INFINITY or pos + m > n or (commutations_only and m != 2):
                continue
            if cur[pos : pos + m] != alternating(a, b, m):
                continue
            nxt = cur[:pos] + alternating(b, a, m) + cur[pos + m :]
            if nxt in seen:
                continue
            if len(seen) >= cap:
                raise CapExceeded(f"braid-move orbit exceeded the node cap of {cap}")
            seen.add(nxt)
            if parents is not None:
                parents[nxt] = (cur, pos)
            if stop is not None and stop(nxt):
                return seen, nxt
            queue.append(nxt)
    return seen, None


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


def _reduce(act: dict, word: Word, trail: list) -> Word:
    """A reduced word for the element spelled by ``word``.

    Appends letter after letter, deleting at the exchange position (the walk
    of :func:`_exchange`, inlined: this loop is the engine's hot path).  Each
    word met after a deletion, the rest of the input still appended, spells
    the same element and goes to ``trail``.
    """
    out = bytearray()
    for k, s in enumerate(word):
        beta = s
        for i in range(len(out) - 1, -1, -1):
            beta = act[beta][out[i]]
            if beta < 0:
                break
        if beta == NEG:
            del out[i]
            trail.append(bytes(out) + word[k + 1 :])
        else:
            out.append(s)
    return bytes(out)


def _shortlex(matrix: CoxeterMatrix, act: dict, word: Word) -> Word:
    """The shortlex-least word of the element spelled by the reduced ``word``.

    Strips the least left descent again and again, working on the reversed
    word (which spells the inverse, so left descents become right ones).  The
    first letter is always a left descent, so only smaller letters need a
    test, and only those with a finite order against it: left descents
    generate a finite group.
    """
    out = bytearray()
    rev = bytearray(word[::-1])
    candidates = matrix._descent_candidates
    while rev:
        least, pos = rev[-1], len(rev) - 1
        for t in candidates[least]:
            i = _exchange(act, rev, t)
            if i is not None:
                least, pos = t, i
                break
        out.append(least)
        del rev[pos]
    return bytes(out)


def is_reduced(matrix: CoxeterMatrix, word: WordLike) -> bool:
    """Decide reducedness: no letter is deleted while reducing the word."""
    word = matrix.word(word)
    cache = matrix._scratch["reduced"]
    hit = cache.get(word)
    if hit is None:
        hit = len(_reduce(_root_table(matrix), word, [])) == len(word)
        cache[word] = hit
    return hit


def braid_class(matrix: CoxeterMatrix, word: WordLike, cap: int = DEFAULT_CAP) -> frozenset:
    """The set of words reachable from a reduced word by braid moves.

    By Tits' theorem this is exactly the set of reduced words of the element.
    A memo hit over ``cap`` words is searched again, so it refuses as on a
    fresh system.
    """
    word = matrix.word(word)
    classes = matrix._scratch["class"]
    hit = classes.get(word)
    if hit is not None and len(hit) <= cap:
        return hit
    seen, repeat = _braid_orbit(matrix, word, cap, stop=_has_repeat)
    reduced = matrix._scratch["reduced"]
    if repeat is not None:
        for w in seen:
            reduced[w] = False
        raise NotReduced(f"word {matrix.word_str(word)} is not reduced")
    cls = frozenset(seen)
    if len(seen) <= _MEMBER_CACHE_LIMIT:
        canon = matrix._scratch["canon"]
        least = min(seen)
        for w in seen:
            reduced[w] = True
            classes[w] = cls
            canon[w] = least
    else:
        reduced[word] = True
    return cls


def commutation_class(matrix: CoxeterMatrix, word: WordLike, cap: int = DEFAULT_CAP) -> frozenset:
    """Orbit of a reduced word under commutation moves only (pairs with m = 2)."""
    word = matrix.word(word)
    if not is_reduced(matrix, word):
        raise NotReduced(f"word {matrix.word_str(word)} is not reduced")
    seen, _ = _braid_orbit(matrix, word, cap, commutations_only=True)
    return frozenset(seen)


def canonical_word(matrix: CoxeterMatrix, word: WordLike) -> Word:
    """Shortlex-least reduced word of the element spelled by ``word``.

    Reduces by the exchange walk, then strips least left descents; no search.
    The answer is memoised under the input, the words met while reducing it,
    the reduced word and the answer itself.
    """
    if not isinstance(word, bytes):
        word = matrix.word(word)
    cache = matrix._scratch["canon"]
    canon = cache.get(word)
    if canon is None:
        word = matrix.word(word)  # a miss is validated; every memo key was when stored
        act = _root_table(matrix)
        trail = [word]
        reduced = _reduce(act, word, trail)
        canon = cache.get(reduced)
        if canon is None:
            canon = _shortlex(matrix, act, reduced)
            cache[reduced] = canon
            cache[canon] = canon
        for w in trail:
            cache[w] = canon
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
    """Like :func:`reduce_word`, also returning the replayable move path.

    Braid moves reach a word with an equal adjacent pair, which is cancelled,
    until the braid orbit has none; then braid moves reach the canonical word.
    """
    cur = matrix.word(word)
    steps = []
    while True:
        parents = {}
        _, sigma = _braid_orbit(matrix, cur, cap, stop=_has_repeat, parents=parents)
        if sigma is None:
            canon = canonical_word(matrix, cur)
            steps.extend(_walk_parents(parents, canon))
            return Element(matrix, canon), steps
        steps.extend(_walk_parents(parents, sigma))
        p = next(i for i in range(len(sigma) - 1) if sigma[i] == sigma[i + 1])
        steps.append(CancelStep(p))
        cur = sigma[:p] + sigma[p + 2 :]


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
    :meth:`CoxeterMatrix.element` or :func:`reduce_word`, which canonicalise.
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


def reduce_word(matrix: CoxeterMatrix, word: WordLike) -> Element:
    """Reduce a word and return the element it spells."""
    return Element(matrix, canonical_word(matrix, word))


def multiply(x: Element, y: Element) -> Element:
    matrix = _same_system(x, y)
    cache = matrix._scratch["mul"]
    key = (x.word, y.word)
    hit = cache.get(key)
    if hit is None:
        hit = canonical_word(matrix, x.word + y.word)
        cache[key] = hit
    return Element(matrix, hit)


def inverse(x: Element) -> Element:
    cache = x.system._scratch["inv"]
    hit = cache.get(x.word)
    if hit is None:
        # the reverse of a reduced word is reduced; only canonicalisation remains
        hit = canonical_word(x.system, x.word[::-1])
        cache[x.word] = hit
    return Element(x.system, hit)


def power(x: Element, n: int) -> Element:
    if n < 0:
        return power(inverse(x), -n)
    acc = x.system.identity()
    for _ in range(n):
        acc = multiply(acc, x)
    return acc


def _shift(matrix: CoxeterMatrix, word: Word, s: int) -> Word:
    """The canonical word of s*v*s for the reduced ``word`` v, memoised per
    system; no search.  Twice, multiply by s on the right (the exchange walk)
    and reverse, which spells the inverse: v -> s v^-1 -> s v s."""
    cache = matrix._scratch["shift"]
    hit = cache.get((word, s))
    if hit is None:
        act, out = _root_table(matrix), word
        for _ in range(2):
            i = _exchange(act, out, s)
            out = (out + bytes((s,)) if i is None else out[:i] + out[i + 1 :])[::-1]
        hit = cache[word, s] = _shortlex(matrix, act, out)
    return hit


def conjugate(v: Element, x: Element) -> Element:
    """v x v^-1 = a_1(...(a_l x a_l)...)a_1 for v = a_1...a_l, one shift per letter."""
    matrix = _same_system(v, x)
    word = x.word
    for s in reversed(v.word):
        word = _shift(matrix, word, s)
    return Element(matrix, word)


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
