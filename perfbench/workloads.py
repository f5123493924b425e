"""The two workloads: query generation, one pass of queries, answer checks.

The seed fixes a workload's queries.  A pass runs all of them in library
sessions whose systems are built fresh, so every memo cache starts empty, as
it does for every CLI call and every new ``CoxeterMatrix``; a workload calls
``query.end_session`` when one ends.  A run repeats the same pass, and each
query's time is its best over the passes.  Every answer is checked when its
session ends, outside the timed queries, by the arguments in ``checks.py``;
criterion-7 style witness re-verification is the one check that calls back
into coxkit.
"""

import json
import math
import os
import random
import subprocess
import sys

from checks import CheckFailed, GeometricRep, abelian_invariant, replay

INF = math.inf

#: name -> (generator names, orders m(s, t) other than 2)
SYSTEMS = {
    "A2~": ("stu", {("s", "t"): 3, ("t", "u"): 3, ("s", "u"): 3}),
    "B2~": ("stu", {("s", "t"): 4, ("t", "u"): 4}),
    "G2~": ("stu", {("s", "t"): 6, ("t", "u"): 3}),
    "(2,3,7)": ("stu", {("t", "u"): 3, ("s", "u"): 7}),
    "A3~": ("abcd", {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3, ("a", "d"): 3}),
    "U3": ("abc", {("a", "b"): INF, ("b", "c"): INF, ("a", "c"): INF}),
}

_REPS = {}


def build(name):
    import coxkit

    names, orders = SYSTEMS[name]
    return coxkit.CoxeterMatrix.from_pairs(names, orders)


def memo_entries(systems):
    """Entries of the systems' memo dicts."""
    return sum(len(cache) for m in systems for cache in m._scratch.values())


def rep(matrix):
    """Independent representation of a system, shared across passes."""
    key = (matrix.names, matrix.table)
    if key not in _REPS:
        _REPS[key] = GeometricRep(matrix.table)
    return _REPS[key]


# ---------------------------------------------------------------------------
# straight-sweep


class StraightSweep:
    """Every cyclically reduced element up to a length, one session per
    system: is_straight, then the power-length profile of each straight one,
    as two queries.

    Each session sweeps in enumeration order, as research sweeps do, and the
    seed orders the four sessions.  A shuffled sweep order, or sessions
    interleaved by the seed, moved the median query time by a fifth to a
    third between seeds (memo reuse and cache locality depend on the order).
    One session runs at a time: with all four systems' memo caches alive, the
    larger working set made the run far more sensitive to memory contention
    from other tenants of the machine.
    """

    # system -> (max element length, total word length of the power profile)
    plan = {"A2~": (8, 28), "G2~": (8, 28), "(2,3,7)": (8, 28), "A3~": (7, 20)}
    # system -> (cyclically reduced elements, straight ones) up to that length
    expected = {"A2~": (45, 24), "G2~": (39, 16), "(2,3,7)": (48, 24), "A3~": (104, 50)}

    def prepare(self, seed):
        order = sorted(self.plan)
        random.Random(seed).shuffle(order)
        return order

    def run(self, order, query):
        for name in order:
            query.end_session(self._session(name, query))

    def _session(self, name, query):
        import coxkit

        matrix = build(name)
        length, total = self.plan[name]
        found = query(f"sweep {name} {length}", lambda: [
            w for w in coxkit.enumerate_elements(matrix, length)
            if w.length and coxkit.is_cyclically_reduced(w)
        ], ("sweep", name))
        for w in found or ():
            verdict = query(f"straight {name} {w}", lambda: coxkit.is_straight(w),
                            ("straight", name, w))
            if verdict is not None and verdict.straight:
                n = total // w.length
                query(f"profile {name} {w} {n}", lambda: coxkit.power_length_profile(w, n),
                      ("profile", name, w, n))
        return memo_entries([matrix])

    def check(self, result, meta, tally):
        """Returns whether the query was decided; raises CheckFailed."""
        import coxkit
        from coxkit.straight import NonTorsionFreeMember, ShorterConjugate

        if meta[0] == "sweep":
            tally["found", meta[1]] = len(result)
            return True
        if meta[0] == "profile":
            _, name, w, n = meta
            if result != tuple(k * w.length for k in range(1, n + 1)):
                raise CheckFailed(f"{w}: profile {result} is not linear")
            if not rep(w.system).is_reduced(w.word * n):
                raise CheckFailed(f"{w}: w^{n} is not reduced in the representation")
            return True
        _, name, w = meta
        matrix = w.system
        if result.straight:
            tally["straight", name] += 1
            return True
        witness = result.witness
        if isinstance(witness, ShorterConjugate):
            tally["conjugacy.certificate_steps"] += len(witness.certificate.steps)
            end = replay(matrix.table, witness.certificate.start, witness.certificate.steps)
            if not (end == witness.element.word and witness.element.length < w.length
                    and rep(matrix).same_element(witness.certificate.start, w.word)):
                raise CheckFailed(f"{w}: shorter-conjugate witness does not replay")
        elif isinstance(witness, NonTorsionFreeMember):
            member, subset = witness.element, witness.subset.members
            if (coxkit.is_torsion_free(member) or not coxkit.normalises(member, subset)
                    or coxkit.torsion_witness(member) != subset):
                raise CheckFailed(f"{w}: non-torsion-free witness does not re-verify")
        else:
            raise CheckFailed(f"{w}: not straight, without a witness")
        return True

    def finish(self, tally):
        got = {name: (tally["found", name], tally["straight", name]) for name in self.plan}
        if got != self.expected:
            raise CheckFailed(f"sweep counts {got} differ from {self.expected}")


# ---------------------------------------------------------------------------
# conjugacy-stream


def _random_word(rng, length, rank):
    letters = []
    while len(letters) < length:
        x = rng.randrange(rank)
        if not letters or letters[-1] != x:
            letters.append(x)
    return letters


class ConjugacyStream:
    """Random pairs, half (u, v u v^-1) and half (u, w) with w random, in
    short sessions so that memo reuse stays low.

    The pairs come from one fixed pool, dealt into the sessions in a fixed way,
    and each system's pairs keep their pool order; the seed decides how the
    systems' pairs interleave in each session and the order of the sessions.
    Every system has its own memo caches, so this leaves the work of a pass
    alone.  Which pairs share a session, and which u pays for the first Cent'
    proof of a session (0.3-1.4 s on Ã3), decide much of that work: pairs drawn
    from the seed moved the run's throughput by 15-40% between seeds, and pairs
    dealt by the seed by up to 30%.
    """

    sessions = 2
    # system -> (lengths of u and w, lengths of v, pairs per session)
    plan = {
        "A2~": ((6, 7, 8), (2, 3, 4), 30),
        "B2~": ((6, 7, 8), (2, 3, 4), 30),
        "G2~": ((6, 7, 8), (2, 3, 4), 30),
        "(2,3,7)": ((6, 7, 8), (2, 3, 4), 30),
        "A3~": ((4, 5), (2, 3), 30),
        "U3": ((6, 8, 10), (3, 4), 30),
    }

    def prepare(self, seed):
        pool, deal = random.Random(0), random.Random(seed)
        dealt = [{} for _ in range(self.sessions)]  # system -> iterator over its pairs
        for name, (lengths, v_lengths, count) in self.plan.items():
            rank = len(SYSTEMS[name][0])
            pairs = []
            for i in range(count * self.sessions):
                u = _random_word(pool, pool.choice(lengths), rank)
                if i % 2 == 0:
                    v = _random_word(pool, pool.choice(v_lengths), rank)
                    w, known = v + u + v[::-1], True
                else:
                    w, known = _random_word(pool, len(u), rank), False
                pairs.append((name, bytes(u), bytes(w), known))
            for k, session in enumerate(dealt):
                session[name] = iter(pairs[k * count:(k + 1) * count])
        sessions = []
        for session in dealt:
            # a seeded interleaving that keeps each system's pool order
            turns = [name for name, (_, _, count) in self.plan.items() for _ in range(count)]
            deal.shuffle(turns)
            sessions.append([next(session[name]) for name in turns])
        deal.shuffle(sessions)
        return sessions

    def run(self, sessions, query):
        for pairs in sessions:
            query.end_session(self._session(pairs, query))

    def _session(self, pairs, query):
        import coxkit

        systems = {name: build(name) for name in self.plan}
        for name, u, w, known in pairs:
            matrix = systems[name]
            text_u, text_w = matrix.word_str(u), matrix.word_str(w)
            query(f"conjugate {name} {text_u} {text_w}", lambda: coxkit.are_conjugate(
                matrix.element(text_u), matrix.element(text_w)), (matrix, u, w, known))
        return memo_entries(systems.values())

    def check(self, verdict, meta, tally):
        from coxkit import ConjugacyStatus

        matrix, u, w, known = meta
        status = verdict.status
        if known and status is ConjugacyStatus.NOT_CONJUGATE:
            raise CheckFailed(f"known-conjugate pair {u!r} {w!r} reported not conjugate")
        if status is ConjugacyStatus.CONJUGATE:
            if abelian_invariant(matrix.table, u) != abelian_invariant(matrix.table, w):
                raise CheckFailed(f"pair {u!r} {w!r} separated by abelianisation reported conjugate")
            meeting = verdict.meeting.word
            for word, cert in zip((u, w), verdict.certificates):
                tally["conjugacy.certificate_steps"] += len(cert.steps)
                if replay(matrix.table, cert.start, cert.steps) != meeting or cert.end != meeting:
                    raise CheckFailed(f"certificate for {word!r} does not replay to the meeting word")
                if not rep(matrix).same_element(cert.start, word):
                    raise CheckFailed(f"certificate for {word!r} starts at another element")
        elif status is ConjugacyStatus.NOT_CONJUGATE and verdict.basis is None:
            raise CheckFailed(f"not-conjugate verdict for {u!r} {w!r} names no basis")
        return status is not ConjugacyStatus.UNKNOWN

    def finish(self, tally):
        pass


# ---------------------------------------------------------------------------
# the CLI, probed in the traced run

# the four README examples, byte for byte
README_CASES = (
    (("is-straight", "--matrix", "systems/a2tilde.cox", "tustuts"),
     "false\nwitness: non-torsion-free member stsustu I={t}\n"),
    (("is-torsion-free", "--matrix", "systems/a2tilde.cox", "stustut"),
     "false\nwitness: I={t}\n"),
    (("is-conjugate", "--matrix", "systems/a2tilde.cox", "stu", "uts"),
     "not-conjugate\nbasis: cent-prime-infinite-order\n"),
    (("cyclic-reduce", "--matrix", "systems/b3.cox", "s2 s1 s2 s3"),
     "s1 s2\ncertificate:\nrotate k=1 word=s2 s1 s2 s3\nbraid pos=1 pair=s2,s3\n"
     "rotate k=3 word=s1 s3 s2 s3\nbraid pos=0 pair=s3,s1\ncancel pos=1\n"),
)


def run_cli(argv, root, timeout=60):
    """One fresh CLI process under the tracer (cli_traced.py): its exit code,
    stdout, spans and memo entries."""
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "cli_traced.py"), *argv],
                          cwd=root, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"traced CLI failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.splitlines()[-1])
