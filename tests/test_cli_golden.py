"""Byte-for-byte CLI regression: every subcommand, text and --json modes.

``cli_golden.json`` holds one record per invocation: the argument vector, the
exit code, stdout and stderr.  The invocations run through ``cli.run`` with
the repository root as working directory, so the relative ``systems/*.cox``
paths that ``--json`` echoes as ``inputs.matrix`` read the same everywhere.
Besides one or more answers per subcommand, the records cover the refusals
and errors: node cap exceeded (exit 2), unknown verdict (3), and bad words,
a missing file, a non-CFC element, a non-spherical or non-normalised subset
and a zero power bound (all 1).  ``--help`` is left out: argparse formats it
differently across Python versions.
"""

import json
import pathlib

import pytest

from coxkit.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text("utf-8"))

SUBCOMMANDS = {
    "reduce", "canonical", "length", "is-reduced", "mult", "inverse", "power",
    "support", "descents", "is-spherical", "components", "closure",
    "is-cyclically-reduced", "cyclic-reduce", "kappa-class", "min-stratum",
    "is-conjugate", "is-finite-order", "cent-prime", "is-torsion-free",
    "normaliser-decompose", "is-straight", "power-profile", "is-fc", "is-cfc",
    "cfc-straight", "coxeter-straight", "oracle-is-reduced", "enumerate",
    "brute-class", "brute-order",
}


def test_records_cover_every_subcommand_in_both_modes():
    answered = {(r["argv"][0], "--json" in r["argv"]) for r in RECORDS if r["code"] == 0}
    assert len(SUBCOMMANDS) == 31
    assert answered == {(name, mode) for name in SUBCOMMANDS for mode in (False, True)}
    assert {r["code"] for r in RECORDS} == {0, 1, 2, 3}


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_invocation_is_byte_identical(record, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = run(list(record["argv"]))
    captured = capsys.readouterr()
    assert code == record["code"]
    assert captured.out == record["stdout"]
    assert captured.err == record["stderr"]
