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
import re
import sys

from . import conjugacy, oracle, parabolic, straight
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
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise SystemFileError(str(exc), path) from None

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
        self.command = command
        self.json_mode = json_mode
        self.inputs = inputs
        self.lines = []
        self.payload = {
            "command": command,
            "inputs": inputs,
            "result": None,
            "witness": None,
            "basis": None,
            "certificate": None,
        }

    def line(self, text):
        self.lines.append(str(text))

    def flush(self, stream=None):
        stream = stream or sys.stdout
        if self.json_mode:
            print(json.dumps(self.payload), file=stream)
        else:
            for line in self.lines:
                print(line, file=stream)


def _bool_str(value: bool) -> str:
    return "true" if value else "false"


def _subset_str(matrix, members) -> str:
    return "{" + ",".join(matrix.names[i] for i in sorted(members)) + "}"


def _cert_lines(matrix, cert) -> list:
    return [conjugacy.format_step(matrix, step) for step in cert.steps]


def _word_out(matrix, word) -> str:
    return matrix.word_str(word)


# ---------------------------------------------------------------------------
# command handlers: each returns an exit code


def _join_word(args_word) -> str:
    return " ".join(args_word)


def cmd_reduce(matrix, args, out):
    e = matrix.element(_join_word(args.word))
    out.payload["result"] = _word_out(matrix, e.word)
    out.line(_word_out(matrix, e.word))
    return EXIT_OK


def cmd_length(matrix, args, out):
    e = matrix.element(_join_word(args.word))
    out.payload["result"] = e.length
    out.line(e.length)
    return EXIT_OK


def cmd_is_reduced(matrix, args, out):
    from .core import is_reduced

    verdict = is_reduced(matrix, _join_word(args.word))
    out.payload["result"] = verdict
    out.line(_bool_str(verdict))
    return EXIT_OK


def cmd_mult(matrix, args, out):
    from .core import multiply

    x = matrix.element(args.left)
    y = matrix.element(args.right)
    e = multiply(x, y)
    out.payload["result"] = _word_out(matrix, e.word)
    out.line(_word_out(matrix, e.word))
    return EXIT_OK


def cmd_inverse(matrix, args, out):
    e = matrix.element(_join_word(args.word)).inverse()
    out.payload["result"] = _word_out(matrix, e.word)
    out.line(_word_out(matrix, e.word))
    return EXIT_OK


def cmd_power(matrix, args, out):
    from .core import power

    e = power(matrix.element(args.word), args.n)
    out.payload["result"] = _word_out(matrix, e.word)
    out.line(_word_out(matrix, e.word))
    return EXIT_OK


def cmd_support(matrix, args, out):
    from .core import support

    members = support(matrix.element(_join_word(args.word)))
    out.payload["result"] = [matrix.names[i] for i in sorted(members)]
    out.line(_subset_str(matrix, members))
    return EXIT_OK


def cmd_descents(matrix, args, out):
    from .core import left_descents, right_descents

    e = matrix.element(_join_word(args.word))
    left = left_descents(e)
    right = right_descents(e)
    out.payload["result"] = {
        "left": [matrix.names[i] for i in sorted(left)],
        "right": [matrix.names[i] for i in sorted(right)],
    }
    out.line(f"left: {_subset_str(matrix, left)}")
    out.line(f"right: {_subset_str(matrix, right)}")
    return EXIT_OK


def _subset_from_args(matrix, tokens) -> frozenset:
    return frozenset(matrix.index(token) for token in tokens)


def cmd_is_spherical(matrix, args, out):
    verdict = parabolic.is_spherical(matrix, _subset_from_args(matrix, args.subset))
    out.payload["result"] = verdict
    out.line(_bool_str(verdict))
    return EXIT_OK


def cmd_components(matrix, args, out):
    comps = parabolic.diagram_components(matrix, _subset_from_args(matrix, args.subset))
    out.payload["result"] = [[matrix.names[i] for i in sorted(c)] for c in comps]
    out.line(" ".join(_subset_str(matrix, c) for c in comps) if comps else "{}")
    return EXIT_OK


def cmd_closure(matrix, args, out):
    sub = parabolic.standard_parabolic_closure(matrix.element(_join_word(args.word)))
    out.payload["result"] = {
        "members": [matrix.names[i] for i in sorted(sub.members)],
        "components": [[matrix.names[i] for i in sorted(c)] for c in sub.components],
        "spherical": sub.spherical,
    }
    out.line(_subset_str(matrix, sub.members))
    out.line(
        "components: "
        + (" ".join(_subset_str(matrix, c) for c in sub.components) if sub.components else "{}")
    )
    out.line(f"spherical: {_bool_str(sub.spherical)}")
    return EXIT_OK


def cmd_is_cyclically_reduced(matrix, args, out):
    verdict = conjugacy.is_cyclically_reduced(
        matrix.element(_join_word(args.word)), args.cap
    )
    out.payload["result"] = verdict
    out.line(_bool_str(verdict))
    return EXIT_OK


def cmd_cyclic_reduce(matrix, args, out):
    target, cert = conjugacy.cyclic_reduce(
        matrix.element(_join_word(args.word)), args.cap
    )
    out.payload["result"] = _word_out(matrix, target.word)
    out.payload["certificate"] = _cert_lines(matrix, cert)
    out.line(_word_out(matrix, target.word))
    out.line("certificate:")
    for line in _cert_lines(matrix, cert):
        out.line(line)
    return EXIT_OK


def cmd_kappa_class(matrix, args, out):
    closure = conjugacy.kappa_closure(
        matrix.element(_join_word(args.word)), args.cap
    )
    words = [_word_out(matrix, v.word) for v in closure.nodes]
    out.payload["result"] = {
        "nodes": words,
        "min_length": closure.min_length,
        "length_preserved": closure.length_preserved,
    }
    for word in words:
        out.line(word)
    return EXIT_OK


def cmd_min_stratum(matrix, args, out):
    closure = conjugacy.kappa_closure(
        matrix.element(_join_word(args.word)), args.cap
    )
    words = [_word_out(matrix, v.word) for v in closure.min_stratum]
    out.payload["result"] = words
    for word in words:
        out.line(word)
    return EXIT_OK


def cmd_is_conjugate(matrix, args, out):
    verdict = conjugacy.are_conjugate(
        matrix.element(args.left),
        matrix.element(args.right),
        cap=args.cap,
        brute_force=args.brute,
        brute_len_cap=args.brute_len,
    )
    out.payload["result"] = verdict.status.value
    out.line(verdict.status.value)
    if verdict.basis is not None:
        out.payload["basis"] = verdict.basis.value
        out.line(f"basis: {verdict.basis.value}")
    if verdict.conjugator is not None:
        out.payload["witness"] = {"conjugator": _word_out(matrix, verdict.conjugator.word)}
        out.line(f"conjugator: {_word_out(matrix, verdict.conjugator.word)}")
    if verdict.certificates is not None:
        first, second = verdict.certificates
        out.payload["witness"] = {"meeting": _word_out(matrix, verdict.meeting.word)}
        out.payload["certificate"] = {
            "from_first": _cert_lines(matrix, first),
            "from_second": _cert_lines(matrix, second),
        }
        out.line(f"meeting: {_word_out(matrix, verdict.meeting.word)}")
        out.line("certificate[1]:")
        for line in _cert_lines(matrix, first):
            out.line(line)
        out.line("certificate[2]:")
        for line in _cert_lines(matrix, second):
            out.line(line)
    return EXIT_UNKNOWN if verdict.status is conjugacy.ConjugacyStatus.UNKNOWN else EXIT_OK


def cmd_is_finite_order(matrix, args, out):
    verdict = conjugacy.is_finite_order(
        matrix.element(_join_word(args.word)), args.cap
    )
    out.payload["result"] = verdict
    out.line(_bool_str(verdict))
    return EXIT_OK


def cmd_cent_prime(matrix, args, out):
    verdict = conjugacy.has_cent_prime(
        matrix.element(_join_word(args.word)), args.cap
    )
    out.payload["result"] = verdict
    out.line(_bool_str(verdict))
    return EXIT_OK


def cmd_is_torsion_free(matrix, args, out):
    witness = parabolic.torsion_witness(matrix.element(_join_word(args.word)))
    verdict = witness is None
    out.payload["result"] = verdict
    out.line(_bool_str(verdict))
    if witness is not None:
        out.payload["witness"] = {"subset": [matrix.names[i] for i in sorted(witness)]}
        out.line(f"witness: I={_subset_str(matrix, witness)}")
    return EXIT_OK


def cmd_normaliser_decompose(matrix, args, out):
    decomposition = parabolic.normaliser_decomposition(
        matrix.element(args.word),
        _subset_from_args(matrix, args.subset),
    )
    torsion = _word_out(matrix, decomposition.torsion_part.word)
    complement = _word_out(matrix, decomposition.straight_part.word)
    out.payload["result"] = {"torsion_part": torsion, "straight_part": complement}
    out.line(f"torsion_part={torsion} straight_part={complement}")
    return EXIT_OK


def cmd_is_straight(matrix, args, out):
    verdict = straight.is_straight(
        matrix.element(_join_word(args.word)), args.cap
    )
    out.payload["result"] = verdict.straight
    out.line(_bool_str(verdict.straight))
    witness = verdict.witness
    if isinstance(witness, straight.ShorterConjugate):
        out.payload["witness"] = {
            "kind": "shorter-conjugate",
            "element": _word_out(matrix, witness.element.word),
        }
        out.payload["certificate"] = _cert_lines(matrix, witness.certificate)
        out.line(f"witness: shorter conjugate {_word_out(matrix, witness.element.word)}")
        out.line("certificate:")
        for line in _cert_lines(matrix, witness.certificate):
            out.line(line)
    elif isinstance(witness, straight.NonTorsionFreeMember):
        out.payload["witness"] = {
            "kind": "non-torsion-free-member",
            "element": _word_out(matrix, witness.element.word),
            "subset": [matrix.names[i] for i in sorted(witness.subset.members)],
        }
        out.line(
            "witness: non-torsion-free member "
            f"{_word_out(matrix, witness.element.word)} I={witness.subset}"
        )
    return EXIT_OK


def cmd_power_profile(matrix, args, out):
    profile = straight.power_length_profile(matrix.element(args.word), args.n)
    out.payload["result"] = list(profile)
    out.line(",".join(str(n) for n in profile))
    return EXIT_OK


def cmd_is_fc(matrix, args, out):
    verdict = straight.is_fc(matrix.element(_join_word(args.word)), args.cap)
    out.payload["result"] = verdict
    out.line(_bool_str(verdict))
    return EXIT_OK


def cmd_is_cfc(matrix, args, out):
    verdict = straight.is_cfc(matrix.element(_join_word(args.word)), args.cap)
    out.payload["result"] = verdict
    out.line(_bool_str(verdict))
    return EXIT_OK


def cmd_cfc_straight(matrix, args, out):
    verdict = straight.cfc_straight(
        matrix.element(_join_word(args.word)), args.cap
    )
    out.payload["result"] = verdict
    out.line(_bool_str(verdict))
    return EXIT_OK


def cmd_coxeter_straight(matrix, args, out):
    verdict = straight.coxeter_straight(matrix)
    out.payload["result"] = verdict
    out.line(_bool_str(verdict))
    return EXIT_OK


def cmd_oracle_is_reduced(matrix, args, out):
    verdict = oracle.is_reduced_oracle(
        matrix,
        matrix.word(_join_word(args.word)),
        tolerance=args.tolerance,
        length_cap=args.oracle_length_cap,
    )
    out.payload["result"] = verdict
    out.line(_bool_str(verdict))
    return EXIT_OK


def cmd_enumerate(matrix, args, out):
    elements = oracle.enumerate_elements(matrix, args.max_len, cap=args.cap)
    words = [_word_out(matrix, e.word) for e in elements]
    out.payload["result"] = words
    for word in words:
        out.line(word)
    return EXIT_OK


def cmd_brute_class(matrix, args, out):
    elements = oracle.conjugacy_class_bruteforce(
        matrix.element(args.word), args.len_cap, cap=args.cap
    )
    words = [_word_out(matrix, e.word) for e in elements]
    out.payload["result"] = words
    for word in words:
        out.line(word)
    return EXIT_OK


def cmd_brute_order(matrix, args, out):
    order = oracle.order_bruteforce(matrix.element(args.word), args.n_cap)
    out.payload["result"] = order
    out.line("absent" if order is None else order)
    return EXIT_OK


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
    common.add_argument("--cap", type=int, default=DEFAULT_CAP, metavar="N",
                        help="closure node cap (default %(default)s)")
    common.add_argument("--tolerance", type=float, default=oracle.DEFAULT_TOLERANCE,
                        metavar="X", help="oracle sign tolerance")
    common.add_argument("--oracle-length-cap", type=int,
                        default=oracle.DEFAULT_ORACLE_LENGTH_CAP, metavar="N",
                        help="oracle word-length cap")

    parser = _Parser(prog="coxkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, handler, help_text, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(handler=handler)
        return p

    def word_arg(p, nargs="+"):
        p.add_argument("word", nargs=nargs, help="word (tokens, or contiguous string)")

    for name, handler, help_text in [
        ("reduce", cmd_reduce, "reduce a word to its canonical form"),
        ("canonical", cmd_reduce, "canonical (shortlex-least reduced) word"),
        ("length", cmd_length, "length of the element a word spells"),
        ("is-reduced", cmd_is_reduced, "decide reducedness of a word"),
        ("inverse", cmd_inverse, "canonical word of the inverse"),
        ("support", cmd_support, "generators occurring in reduced words"),
        ("descents", cmd_descents, "left and right descent sets"),
        ("closure", cmd_closure, "standard parabolic closure of an element"),
        ("is-cyclically-reduced", cmd_is_cyclically_reduced,
         "decide cyclic reducedness"),
        ("cyclic-reduce", cmd_cyclic_reduce,
         "minimal conjugate under shifts, with certificate"),
        ("kappa-class", cmd_kappa_class, "nodes of the cyclic-shift closure"),
        ("min-stratum", cmd_min_stratum, "minimal-length stratum of the closure"),
        ("is-finite-order", cmd_is_finite_order, "decide finiteness of the order"),
        ("cent-prime", cmd_cent_prime, "centralising property along the closure"),
        ("is-torsion-free", cmd_is_torsion_free,
         "decide torsion-freeness (witness subset on failure)"),
        ("is-straight", cmd_is_straight, "decide straightness (witness on failure)"),
        ("is-fc", cmd_is_fc, "decide full commutativity"),
        ("is-cfc", cmd_is_cfc, "decide cyclic full commutativity"),
        ("cfc-straight", cmd_cfc_straight, "straightness shortcut for CFC elements"),
        ("oracle-is-reduced", cmd_oracle_is_reduced,
         "reducedness via the geometric representation"),
    ]:
        p = add(name, handler, help_text)
        word_arg(p)

    p = add("mult", cmd_mult, "product of two elements")
    p.add_argument("left", help="first word")
    p.add_argument("right", help="second word")

    p = add("power", cmd_power, "n-th power of an element")
    p.add_argument("word", help="word")
    p.add_argument("n", type=int, help="exponent (may be negative)")

    p = add("is-spherical", cmd_is_spherical, "finiteness of a standard parabolic")
    p.add_argument("subset", nargs="*", help="generator tokens")

    p = add("components", cmd_components, "diagram components of a subset")
    p.add_argument("subset", nargs="*", help="generator tokens")

    p = add("is-conjugate", cmd_is_conjugate,
            "conjugacy verdict with basis and certificates")
    p.add_argument("left", help="first word")
    p.add_argument("right", help="second word")
    p.add_argument("--brute", action="store_true",
                   help="enable the brute-force fallback")
    p.add_argument("--brute-len", type=int, default=16, metavar="N",
                   help="conjugator length cap for the fallback")

    p = add("normaliser-decompose", cmd_normaliser_decompose,
            "split w = w_I * n_I over a spherical subset")
    p.add_argument("word", help="word")
    p.add_argument("subset", nargs="*", help="generator tokens")

    p = add("power-profile", cmd_power_profile, "lengths of w^1..w^N")
    p.add_argument("word", help="word")
    p.add_argument("n", type=int, help="largest exponent")

    add("coxeter-straight", cmd_coxeter_straight,
        "whether Coxeter elements of this system are straight")

    p = add("enumerate", cmd_enumerate, "elements up to a length")
    p.add_argument("max_len", type=int, help="maximum length")

    p = add("brute-class", cmd_brute_class, "brute-force conjugacy class")
    p.add_argument("word", help="word")
    p.add_argument("len_cap", type=int, help="conjugator length cap")

    p = add("brute-order", cmd_brute_order, "brute-force order search")
    p.add_argument("word", help="word")
    p.add_argument("n_cap", type=int, help="largest exponent tried")

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
    except CoxeterError as exc:
        print(f"coxkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"coxkit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _inputs_of(args) -> dict:
    inputs = {"matrix": args.matrix}
    for key in ("word", "left", "right", "subset", "n", "max_len", "len_cap", "n_cap"):
        if hasattr(args, key):
            value = getattr(args, key)
            if isinstance(value, list):
                value = " ".join(value) if key == "word" else value
            inputs[key] = value
    return inputs


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
