"""A fixed reference computation that measures the machine's current speed.

The benchmark's machine is a small shared virtual machine whose speed changes
by up to 1.9x for minutes at a time (other tenants' load on the host), so raw
wall times of the same code move by more than any useful regression bound
between runs.  Each workload process therefore runs this computation between
its sessions, and the timings it reports are scaled by the ratio of
``NOMINAL_S`` to the best time of this computation in the same run.

The computation does what dominates coxkit's own time, in the benchmark's own
code, which no change to coxkit touches: a breadth-first search over the
braid-move class of a word (bytes slicing, set and dict traffic).  It is the
class of the longest element of the symmetric group S5 (768 reduced words),
computed REPEAT times, which takes about as long as coxkit's costlier
queries: a sample much shorter than they are fits into the machine's brief
fast stretches, which those queries cannot.
"""

import time

#: Nominal time of one reference computation, in seconds: the scale of the
#: normalised timings (about its best time in a fast spell of the 2-core
#: reference machine).
NOMINAL_S = 0.020
REPEAT = 3

_LONGEST = bytes((0, 1, 0, 2, 1, 0, 3, 2, 1, 0))  # longest element of S5 = A4


def _order(a, b):
    return 3 if abs(a - b) == 1 else 2


def braid_class(word):
    """Every word reachable from ``word`` by braid moves, with the move that
    first reached it."""
    seen = {word: None}
    todo = [word]
    while todo:
        w = todo.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a == b:
                continue
            m = _order(a, b)
            if w[i:i + m] != bytes((a, b) * m)[:m]:
                continue
            v = w[:i] + bytes((b, a) * m)[:m] + w[i + m:]
            if v not in seen:
                seen[v] = (i, a, b)
                todo.append(v)
    return seen


def sample():
    """Seconds taken by one reference computation."""
    start = time.perf_counter()
    sizes = [len(braid_class(_LONGEST)) for _ in range(REPEAT)]
    elapsed = time.perf_counter() - start
    if sizes != [768] * REPEAT:
        raise RuntimeError(f"reference braid classes have {sizes} words, not 768")
    return elapsed
