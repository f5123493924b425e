"""Command-line front end.

Systems are described by small text files::

    # affine triangle group
    generators: s t u
    m: s t 3
    m: t u 3
    m: s u 3

One ``generators:`` line declares the tokens; ``m:`` lines give orders (an
integer >= 2 or the literal ``inf``); unlisted pairs default to 2; blank
lines and ``#`` comments are ignored.  Words on the command line are
whitespace-separated tokens, or contiguous strings when every token is a
single character; ``-`` is the empty word.

Exit codes: 0 success, 1 usage or parse error, 2 node cap exceeded,
3 unknown verdict (or numerically ambiguous oracle).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import conjugacy, core, oracle, parabolic, straight
from .core import DEFAULT_CAP, INFINITY, CoxeterMatrix
from .errors import (
    CapExceeded,
    CoxeterError,
    NumericallyAmbiguous,
    SystemFileError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_UNKNOWN = 3


# ---------------------------------------------------------------------------
# system files


def parse_system_file(path: str) -> CoxeterMatrix:
    """Parse a system definition file; diagnostics carry line and column."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SystemFileError(str(exc), path) from None
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the text before the first bad byte decodes; a mark put at its end
        # stands where that byte does
        before = (data[: exc.start].decode("utf-8") + "^").splitlines()
        raise SystemFileError(f"byte 0x{data[exc.start]:02x} is not UTF-8 text", path,
                              len(before), len(before[-1])) from None

    names = None
    pairs = {}  # normalised (a, b) -> value
    deferred = []  # (token, line, col) generator references to check late

    def fail(message, line, col):
        raise SystemFileError(message, path, line, col)

    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", raw)]
        head, head_col = tokens[0]
        if head == "generators:":
            if names is not None:
                fail("duplicate generators: line", lineno, head_col)
            if len(tokens) == 1:
                fail("no generators listed", lineno, head_col)
            names = []
            for token, col in tokens[1:]:
                if token in names:
                    fail(f"duplicate generator {token!r}", lineno, col)
                names.append(token)
        elif head == "m:":
            if len(tokens) != 4:
                fail("expected: m: <generator> <generator> <value>", lineno, head_col)
            (a, col_a), (b, col_b), (value_text, col_v) = tokens[1], tokens[2], tokens[3]
            if a == b:
                fail("the two generators of an m: line must differ", lineno, col_b)
            if value_text == "inf":
                value = INFINITY
            else:
                try:
                    value = int(value_text)
                except ValueError:
                    fail(f"order must be an integer >= 2 or 'inf', got {value_text!r}",
                         lineno, col_v)
                if value < 2:
                    fail(f"order must be >= 2, got {value}", lineno, col_v)
            key = (min(a, b), max(a, b))
            if key in pairs:
                fail(f"pair {a},{b} listed twice", lineno, col_a)
            pairs[key] = value
            deferred.append((a, lineno, col_a))
            deferred.append((b, lineno, col_b))
        else:
            fail(f"unrecognised directive {head!r}", lineno, head_col)

    if names is None:
        fail("missing generators: line", 1, 1)
    for token, lineno, col in deferred:
        if token not in names:
            fail(f"undeclared generator {token!r}", lineno, col)
    try:
        return CoxeterMatrix.from_pairs(names, pairs)
    except CoxeterError as exc:
        raise SystemFileError(str(exc), path) from None


# ---------------------------------------------------------------------------
# output helpers


class Printer:
    """Collects one command's output; emits text lines or one JSON object."""

    def __init__(self, command: str, json_mode: bool, inputs: dict):
        self.json_mode = json_mode
        self.lines = []
        self.payload = {
            "command": command,
            "inputs": inputs,
            "result": None,
            "witness": None,
            "basis": None,
            "certificate": None,
        }

    def line(self, *texts):
        self.lines.extend(str(text) for text in texts)

    def result(self, value, *texts):
        """Set the JSON result and add its text lines."""
        self.payload["result"] = value
        self.line(*texts)

    def flush(self):
        if self.json_mode:
            print(json.dumps(self.payload))
        else:
            for line in self.lines:
                print(line)


def _names(matrix, members) -> list:
    return [matrix.names[i] for i in sorted(members)]


def _subset_str(matrix, members) -> str:
    return "{" + ",".join(_names(matrix, members)) + "}"


def _components_str(matrix, components) -> str:
    return " ".join(_subset_str(matrix, c) for c in components) if components else "{}"


def _subset_from_args(matrix, tokens) -> frozenset:
    return frozenset(matrix.index(token) for token in tokens)


def _cert_lines(matrix, cert) -> list:
    return [conjugacy.format_step(matrix, step) for step in cert.steps]


# ---------------------------------------------------------------------------
# command handlers: each returns an exit code.  The three shared handlers print
# what the command's table entry computes: a verdict or a length, a word or a
# word list.


def cmd_verdict(matrix, args, out):
    verdict = args.compute(matrix, args)
    out.result(verdict, str(verdict).lower())
    return EXIT_OK


def cmd_word(matrix, args, out):
    word = matrix.word_str(args.compute(matrix, args).word)
    out.result(word, word)
    return EXIT_OK


def cmd_words(matrix, args, out):
    words = [matrix.word_str(e.word) for e in args.compute(matrix, args)]
    out.result(words, *words)
    return EXIT_OK


def cmd_support(matrix, args, out):
    members = core.support(matrix.element(args.word))
    out.result(_names(matrix, members), _subset_str(matrix, members))
    return EXIT_OK


def cmd_descents(matrix, args, out):
    e = matrix.element(args.word)
    left, right = core.left_descents(e), core.right_descents(e)
    out.result(
        {"left": _names(matrix, left), "right": _names(matrix, right)},
        f"left: {_subset_str(matrix, left)}",
        f"right: {_subset_str(matrix, right)}",
    )
    return EXIT_OK


def cmd_components(matrix, args, out):
    comps = parabolic.diagram_components(matrix, _subset_from_args(matrix, args.subset))
    out.result([_names(matrix, c) for c in comps], _components_str(matrix, comps))
    return EXIT_OK


def cmd_closure(matrix, args, out):
    sub = parabolic.standard_parabolic_closure(matrix.element(args.word))
    out.result(
        {
            "members": _names(matrix, sub.members),
            "components": [_names(matrix, c) for c in sub.components],
            "spherical": sub.spherical,
        },
        _subset_str(matrix, sub.members),
        f"components: {_components_str(matrix, sub.components)}",
        f"spherical: {str(sub.spherical).lower()}",
    )
    return EXIT_OK


def cmd_cyclic_reduce(matrix, args, out):
    target, cert = conjugacy.cyclic_reduce(matrix.element(args.word), args.cap)
    word = matrix.word_str(target.word)
    lines = _cert_lines(matrix, cert)
    out.result(word, word, "certificate:", *lines)
    out.payload["certificate"] = lines
    return EXIT_OK


def cmd_kappa_class(matrix, args, out):
    closure = conjugacy.kappa_closure(matrix.element(args.word), args.cap)
    words = [matrix.word_str(v) for v in closure.words]
    out.result(
        {
            "nodes": words,
            "min_length": closure.min_length,
            "length_preserved": closure.length_preserved,
        },
        *words,
    )
    return EXIT_OK


def cmd_is_conjugate(matrix, args, out):
    verdict = conjugacy.are_conjugate(
        matrix.element(args.left),
        matrix.element(args.right),
        cap=args.cap,
        brute_force=args.brute,
        brute_len_cap=args.brute_len,
    )
    out.result(verdict.status.value, verdict.status.value)
    if verdict.basis is not None:
        out.payload["basis"] = verdict.basis.value
        out.line(f"basis: {verdict.basis.value}")
    if verdict.conjugator is not None:
        conjugator = matrix.word_str(verdict.conjugator.word)
        out.payload["witness"] = {"conjugator": conjugator}
        out.line(f"conjugator: {conjugator}")
    if verdict.certificates is not None:
        first, second = (_cert_lines(matrix, cert) for cert in verdict.certificates)
        meeting = matrix.word_str(verdict.meeting.word)
        out.payload["witness"] = {"meeting": meeting}
        out.payload["certificate"] = {"from_first": first, "from_second": second}
        out.line(f"meeting: {meeting}", "certificate[1]:", *first, "certificate[2]:", *second)
    return EXIT_UNKNOWN if verdict.status is conjugacy.ConjugacyStatus.UNKNOWN else EXIT_OK


def cmd_is_torsion_free(matrix, args, out):
    witness = parabolic.torsion_witness(matrix.element(args.word))
    out.result(witness is None, str(witness is None).lower())
    if witness is not None:
        out.payload["witness"] = {"subset": _names(matrix, witness)}
        out.line(f"witness: I={_subset_str(matrix, witness)}")
    return EXIT_OK


def cmd_normaliser_decompose(matrix, args, out):
    decomposition = parabolic.normaliser_decomposition(
        matrix.element(args.word), _subset_from_args(matrix, args.subset)
    )
    torsion = matrix.word_str(decomposition.torsion_part.word)
    complement = matrix.word_str(decomposition.straight_part.word)
    out.result(
        {"torsion_part": torsion, "straight_part": complement},
        f"torsion_part={torsion} straight_part={complement}",
    )
    return EXIT_OK


def cmd_is_straight(matrix, args, out):
    verdict = straight.is_straight(matrix.element(args.word), args.cap)
    out.result(verdict.straight, str(verdict.straight).lower())
    witness = verdict.witness
    if witness is None:
        return EXIT_OK
    element = matrix.word_str(witness.element.word)
    if isinstance(witness, straight.ShorterConjugate):
        lines = _cert_lines(matrix, witness.certificate)
        out.payload["witness"] = {"kind": "shorter-conjugate", "element": element}
        out.payload["certificate"] = lines
        out.line(f"witness: shorter conjugate {element}", "certificate:", *lines)
    else:
        out.payload["witness"] = {
            "kind": "non-torsion-free-member",
            "element": element,
            "subset": _names(matrix, witness.subset.members),
        }
        out.line(f"witness: non-torsion-free member {element} I={witness.subset}")
    return EXIT_OK


def cmd_power_profile(matrix, args, out):
    profile = list(straight.power_length_profile(matrix.element(args.word), args.n))
    out.result(profile, ",".join(map(str, profile)))
    return EXIT_OK


def cmd_brute_order(matrix, args, out):
    order = oracle.order_bruteforce(matrix.element(args.word), args.n_cap)
    out.result(order, "absent" if order is None else order)
    return EXIT_OK


# ---------------------------------------------------------------------------
# the command table


# argument lists (WORDS, PAIR) and single arguments (WORD, SUBSET)
WORDS = [("word", {"nargs": "+", "help": "word (tokens, or contiguous string)"})]
WORD = ("word", {"help": "word"})
PAIR = [("left", {"help": "first word"}), ("right", {"help": "second word"})]
SUBSET = ("subset", {"nargs": "*", "help": "generator tokens"})


def _count(text: str) -> int:
    """argparse type of a bound or cap: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _int(name, help_text, kind=int):
    return (name, {"type": kind, "help": help_text})


# name, handler, help, arguments, and for the shared handlers what they print.
# Handlers are named, not held: build_parser() looks each one up in this module
# when it runs, so a wrapper installed on the module attribute after import
# (perfbench/cli_traced.py times handlers that way) is the one that runs.
COMMANDS = [
    ("reduce", "cmd_word", "reduce a word to its canonical form", WORDS,
     lambda m, a: m.element(a.word)),
    ("canonical", "cmd_word", "canonical (shortlex-least reduced) word", WORDS,
     lambda m, a: m.element(a.word)),
    ("length", "cmd_verdict", "length of the element a word spells", WORDS,
     lambda m, a: m.element(a.word).length),
    ("is-reduced", "cmd_verdict", "decide reducedness of a word", WORDS,
     lambda m, a: core.is_reduced(m, a.word)),
    ("inverse", "cmd_word", "canonical word of the inverse", WORDS,
     lambda m, a: core.inverse(m.element(a.word))),
    ("support", "cmd_support", "generators occurring in reduced words", WORDS),
    ("descents", "cmd_descents", "left and right descent sets", WORDS),
    ("closure", "cmd_closure", "standard parabolic closure of an element", WORDS),
    ("is-cyclically-reduced", "cmd_verdict", "decide cyclic reducedness", WORDS,
     lambda m, a: conjugacy.is_cyclically_reduced(m.element(a.word), a.cap)),
    ("cyclic-reduce", "cmd_cyclic_reduce",
     "minimal conjugate under shifts, with certificate", WORDS),
    ("kappa-class", "cmd_kappa_class", "nodes of the cyclic-shift closure", WORDS),
    ("min-stratum", "cmd_words", "minimal-length stratum of the closure", WORDS,
     lambda m, a: conjugacy.kappa_closure(m.element(a.word), a.cap).min_stratum),
    ("is-finite-order", "cmd_verdict", "decide finiteness of the order", WORDS,
     lambda m, a: conjugacy.is_finite_order(m.element(a.word), a.cap)),
    ("cent-prime", "cmd_verdict", "centralising property along the closure", WORDS,
     lambda m, a: conjugacy.has_cent_prime(m.element(a.word), a.cap)),
    ("is-torsion-free", "cmd_is_torsion_free",
     "decide torsion-freeness (witness subset on failure)", WORDS),
    ("is-straight", "cmd_is_straight", "decide straightness (witness on failure)", WORDS),
    ("is-fc", "cmd_verdict", "decide full commutativity", WORDS,
     lambda m, a: straight.is_fc(m.element(a.word), a.cap)),
    ("is-cfc", "cmd_verdict", "decide cyclic full commutativity", WORDS,
     lambda m, a: straight.is_cfc(m.element(a.word), a.cap)),
    ("cfc-straight", "cmd_verdict", "straightness shortcut for CFC elements", WORDS,
     lambda m, a: straight.cfc_straight(m.element(a.word), a.cap)),
    ("oracle-is-reduced", "cmd_verdict", "reducedness via the geometric representation",
     WORDS, lambda m, a: oracle.is_reduced_oracle(
         m, a.word, tolerance=a.tolerance, length_cap=a.oracle_length_cap)),
    ("mult", "cmd_word", "product of two elements", PAIR,
     lambda m, a: core.multiply(m.element(a.left), m.element(a.right))),
    ("power", "cmd_word", "n-th power of an element",
     [WORD, _int("n", "exponent (may be negative)")],
     lambda m, a: core.power(m.element(a.word), a.n)),
    ("is-spherical", "cmd_verdict", "finiteness of a standard parabolic", [SUBSET],
     lambda m, a: parabolic.is_spherical(m, _subset_from_args(m, a.subset))),
    ("components", "cmd_components", "diagram components of a subset", [SUBSET]),
    ("is-conjugate", "cmd_is_conjugate", "conjugacy verdict with basis and certificates",
     PAIR + [("--brute", {"action": "store_true",
                          "help": "enable the brute-force fallback"}),
             ("--brute-len", {"type": _count, "default": 16, "metavar": "N",
                              "help": "conjugator length cap for the fallback"})]),
    ("normaliser-decompose", "cmd_normaliser_decompose",
     "split w = w_I * n_I over a spherical subset", [WORD, SUBSET]),
    ("power-profile", "cmd_power_profile", "lengths of w^1..w^N",
     [WORD, _int("n", "largest exponent")]),
    ("coxeter-straight", "cmd_verdict",
     "whether Coxeter elements of this system are straight", [],
     lambda m, a: straight.coxeter_straight(m)),
    ("enumerate", "cmd_words", "elements up to a length",
     [_int("max_len", "maximum length", _count)],
     lambda m, a: oracle.enumerate_elements(m, a.max_len, cap=a.cap)),
    ("brute-class", "cmd_words", "brute-force conjugacy class",
     [WORD, _int("len_cap", "conjugator length cap", _count)],
     lambda m, a: oracle.conjugacy_class_bruteforce(m.element(a.word), a.len_cap, cap=a.cap)),
    ("brute-order", "cmd_brute_order", "brute-force order search",
     [WORD, _int("n_cap", "largest exponent tried", _count)]),
]


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # route usage errors to exit code 1 (argparse defaults to 2)
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--matrix", required=True, metavar="FILE",
                        help="system definition file")
    common.add_argument("--json", action="store_true",
                        help="print one JSON result object per line")
    common.add_argument("--cap", type=_count, default=DEFAULT_CAP, metavar="N",
                        help="closure node cap (default %(default)s)")
    common.add_argument("--tolerance", type=float, default=oracle.DEFAULT_TOLERANCE,
                        metavar="X", help="oracle sign tolerance")
    common.add_argument("--oracle-length-cap", type=_count,
                        default=oracle.DEFAULT_ORACLE_LENGTH_CAP, metavar="N",
                        help="oracle word-length cap")

    parser = _Parser(prog="coxkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, handler, help_text, arguments, *compute in COMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=globals()[handler], compute=compute[0] if compute else None)
        for dest, options in arguments:
            p.add_argument(dest, **options)
    return parser


def run(argv) -> int:
    """Dispatch one invocation; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"coxkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # --help and friends
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if isinstance(getattr(args, "word", None), list):
        args.word = " ".join(args.word)

    try:
        matrix = parse_system_file(args.matrix)
        out = Printer(args.command, args.json, _inputs_of(args))
        code = args.handler(matrix, args, out)
        out.flush()
        return code
    except CapExceeded as exc:
        print(f"coxkit: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NumericallyAmbiguous as exc:
        print(f"coxkit: numerically ambiguous: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (CoxeterError, ValueError) as exc:
        print(f"coxkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _inputs_of(args) -> dict:
    keys = ("matrix", "word", "left", "right", "subset", "n", "max_len", "len_cap", "n_cap")
    return {key: getattr(args, key) for key in keys if hasattr(args, key)}


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so that the
        # flush at exit does not fail again, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
