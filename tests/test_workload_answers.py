"""The benchmark workloads' answers stay the same.

One seed-1 pass of each workload in ``perfbench/workloads.py`` runs through a
recording query.  Each answer is rendered with all its fields (verdict,
basis, meeting word, conjugator, certificate steps, witness element and
subset, power profile) and hashed under its query key; the hashes must match
``tests/workload_answers.json``.  A change that alters an answer on purpose
regenerates that file, from the repository root, with::

    PYTHONPATH=src python tests/test_workload_answers.py

and says so in CHANGES.md.
"""

import dataclasses
import enum
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ANSWERS = ROOT / "tests" / "workload_answers.json"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEED = 1
WORKLOADS = {"straight-sweep": workloads.StraightSweep,
             "conjugacy-stream": workloads.ConjugacyStream}


def render(value) -> str:
    """Every field of an answer, words as generator indices; an element's
    system is its session's and is left out."""
    if dataclasses.is_dataclass(value):
        fields = (f"{f.name}={render(getattr(value, f.name))}"
                  for f in dataclasses.fields(value) if f.name != "system")
        return f"{type(value).__name__}({', '.join(fields)})"
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(map(render, value)) + "]"
    if isinstance(value, frozenset):
        return "{" + ", ".join(map(render, sorted(value))) + "}"
    return repr(value)


class RecordingQuery:
    """The query interface of the workloads: runs each query at once and
    keeps the hash of its rendered answer under its key."""

    def __init__(self):
        self.answers = {}

    def __call__(self, key, fn, meta):
        result = fn()
        self.answers[key] = hashlib.sha256(render(result).encode()).hexdigest()[:16]
        return result

    def end_session(self, memo_entries=0):
        pass


def answers() -> dict:
    out = {}
    for name, workload in WORKLOADS.items():
        workload = workload()
        query = RecordingQuery()
        workload.run(workload.prepare(SEED), query)
        out[name] = query.answers
    return out


def test_workload_answers_match_the_recorded_ones():
    expected = json.loads(ANSWERS.read_text())
    got = answers()
    assert got.keys() == expected.keys()
    for name, recorded in expected.items():
        assert list(got[name]) == list(recorded), name
        assert [key for key in recorded if got[name][key] != recorded[key]] == [], name


if __name__ == "__main__":
    ANSWERS.write_text(json.dumps(answers(), indent=1) + "\n")
