import json
import os
import subprocess
import sys

import pytest

from coxkit import apply_step, parse_step
from coxkit.cli import (
    EXIT_CAP,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    parse_system_file,
    run,
)
from coxkit.errors import SystemFileError

A2T_TEXT = """\
# affine triangle group
generators: s t u
m: s t 3
m: t u 3
m: s u 3
"""

A3_TEXT = """\
generators: s1 s2 s3
m: s1 s2 3
m: s2 s3 3
"""


@pytest.fixture()
def a2t_file(tmp_path):
    path = tmp_path / "a2tilde.cox"
    path.write_text(A2T_TEXT)
    return str(path)


@pytest.fixture()
def a3_file(tmp_path):
    path = tmp_path / "a3.cox"
    path.write_text(A3_TEXT)
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSystemFiles:
    def test_parse(self, a2t_file):
        matrix = parse_system_file(a2t_file)
        assert matrix.names == ("s", "t", "u")
        assert matrix.m(0, 1) == 3

    def test_unlisted_pairs_default_to_two(self, tmp_path):
        path = tmp_path / "partial.cox"
        path.write_text("generators: a b c\nm: a b 5\n")
        matrix = parse_system_file(str(path))
        assert matrix.m(0, 2) == 2 and matrix.m(0, 1) == 5

    def test_inf_literal(self, tmp_path):
        path = tmp_path / "dinf.cox"
        path.write_text("generators: s t\nm: s t inf\n")
        matrix = parse_system_file(str(path))
        assert matrix.m(0, 1) == float("inf")

    @pytest.mark.parametrize(
        "data,line,column",
        [
            (b"generators: s t\nm: s t 1\n", 2, 8),          # order below 2
            (b"generators: s t\nm: s t 3\nm: t s 4\n", 3, 4),  # pair listed twice
            (b"generators: s t\nm: s x 3\n", 2, 6),          # undeclared generator
            (b"generators: s s\n", 1, 15),                   # duplicate generator
            (b"m: s t 3\n", 1, 1),                           # missing generators line
            (b"generators: s t\nm: s s 4\n", 2, 6),          # equal pair
            (b"generators: s t\nwat: 1\n", 2, 1),            # unknown directive
            (b"generators: s t\nm: s t x\n", 2, 8),          # unreadable order
            (b"\xffgenerators: s t\n", 1, 1),                # not UTF-8 text
            (b"generators: s t\nm: s t \xe9\n", 2, 8),
            # the column counts characters, so the two-byte e is one column
            (b"generators: s\xc3\xa9 t\nm: s\xc3\xa9 t \xff3\n", 2, 9),
        ],
    )
    def test_diagnostics_carry_line_and_column(self, tmp_path, data, line, column):
        path = tmp_path / "bad.cox"
        path.write_bytes(data)
        with pytest.raises(SystemFileError) as info:
            parse_system_file(str(path))
        assert info.value.line == line
        assert info.value.column == column
        assert str(path) in str(info.value)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cox"
        path.write_text("\n# hello\ngenerators: s\n\n")
        assert parse_system_file(str(path)).rank == 1


class TestBasicCommands:
    def test_length_of_cancelling_word(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "length", "--matrix", a2t_file, "ss")
        assert code == EXIT_OK and out == "0\n"

    def test_reduce_prints_canonical_word(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "reduce", "--matrix", a2t_file, "tst")
        assert code == EXIT_OK and out == "sts\n"

    def test_word_as_separate_tokens(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "reduce", "--matrix", a2t_file, "t", "s", "t")
        assert out == "sts\n"

    def test_mult(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "mult", "--matrix", a2t_file, "st", "ts")
        assert code == EXIT_OK and out == "-\n"

    def test_power(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "power", "--matrix", a2t_file, "stu", "3")
        assert out == "stustustu\n"

    def test_descents(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "descents", "--matrix", a2t_file, "st")
        assert out == "left: {s}\nright: {t}\n"

    def test_support_and_closure(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "support", "--matrix", a2t_file, "tustuts")
        assert out == "{s,t,u}\n"
        code, out, _ = invoke(capsys, "closure", "--matrix", a2t_file, "stu")
        assert out.splitlines()[0] == "{s,t,u}"
        assert out.splitlines()[2] == "spherical: false"

    def test_is_spherical(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "is-spherical", "--matrix", a2t_file, "s", "t")
        assert out == "true\n"
        code, out, _ = invoke(capsys, "is-spherical", "--matrix", a2t_file, "s", "t", "u")
        assert out == "false\n"

    def test_components(self, capsys, a3_file):
        code, out, _ = invoke(capsys, "components", "--matrix", a3_file, "s1", "s3")
        assert out == "{s1} {s3}\n"

    def test_enumerate(self, capsys, a3_file):
        code, out, _ = invoke(capsys, "enumerate", "--matrix", a3_file, "1")
        assert out == "-\ns1\ns2\ns3\n"


class TestVerdictCommands:
    def test_worked_example_straightness(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "is-straight", "--matrix", a2t_file, "tustuts")
        lines = out.splitlines()
        assert code == EXIT_OK
        assert lines[0] == "false"
        assert lines[1] == "witness: non-torsion-free member stsustu I={t}"

    def test_straight_coxeter_element(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "is-straight", "--matrix", a2t_file, "stu")
        assert code == EXIT_OK and out == "true\n"

    def test_torsion_free_witness(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "is-torsion-free", "--matrix", a2t_file, "stustut")
        assert out == "false\nwitness: I={t}\n"
        code, out, _ = invoke(capsys, "is-torsion-free", "--matrix", a2t_file, "tustuts")
        assert out == "true\n"

    def test_normaliser_decompose(self, capsys, a2t_file):
        code, out, _ = invoke(
            capsys, "normaliser-decompose", "--matrix", a2t_file, "stustut", "t"
        )
        assert out == "torsion_part=t straight_part=stustu\n"

    def test_unknown_conjugacy_exit_code(self, capsys, a3_file):
        code, out, _ = invoke(capsys, "is-conjugate", "--matrix", a3_file, "s1", "s3")
        assert code == EXIT_UNKNOWN
        assert out == "unknown\n"

    def test_brute_force_conjugacy(self, capsys, a3_file):
        code, out, _ = invoke(
            capsys, "is-conjugate", "--matrix", a3_file, "--brute", "s1", "s3"
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "conjugate"
        assert out.splitlines()[1].startswith("conjugator: ")

    def test_conjugate_with_certificates(self, capsys, a2t_file):
        code, out, _ = invoke(
            capsys, "is-conjugate", "--matrix", a2t_file, "tustuts", "stsustu"
        )
        lines = out.splitlines()
        assert code == EXIT_OK and lines[0] == "conjugate"
        assert any(line.startswith("meeting: ") for line in lines)

    def test_not_conjugate_with_basis(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "is-conjugate", "--matrix", a2t_file, "stu", "uts")
        assert code == EXIT_OK
        assert out == "not-conjugate\nbasis: cent-prime-infinite-order\n"

    def test_cyclic_reduce_certificate_replays(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "cyclic-reduce", "--matrix", a2t_file, "ustsu")
        lines = out.splitlines()
        assert lines[1] == "certificate:"
        matrix = parse_system_file(a2t_file)
        word = matrix.word("ustsu")  # CLI reduces first; ustsu is already reduced
        for line in lines[2:]:
            word = apply_step(matrix, word, parse_step(matrix, line))
        assert matrix.word_str(word) == lines[0]

    def test_kappa_class_and_min_stratum(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "kappa-class", "--matrix", a2t_file, "stu")
        assert out == "stu\ntus\nust\n"
        code, out, _ = invoke(capsys, "min-stratum", "--matrix", a2t_file, "stu")
        assert out == "stu\ntus\nust\n"

    def test_boolean_commands(self, capsys, a2t_file):
        for command, word, expected in [
            ("is-reduced", "tustuts", "true"),
            ("is-cyclically-reduced", "tustuts", "true"),
            ("is-finite-order", "stu", "false"),
            ("cent-prime", "stu", "true"),
            ("is-fc", "stu", "true"),
            ("is-cfc", "stu", "true"),
            ("cfc-straight", "stu", "true"),
            ("oracle-is-reduced", "tustuts", "true"),
        ]:
            code, out, _ = invoke(capsys, command, "--matrix", a2t_file, word)
            assert code == EXIT_OK and out == f"{expected}\n", command

    def test_coxeter_straight(self, capsys, a2t_file, a3_file):
        assert invoke(capsys, "coxeter-straight", "--matrix", a2t_file)[1] == "true\n"
        assert invoke(capsys, "coxeter-straight", "--matrix", a3_file)[1] == "false\n"

    def test_power_profile(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "power-profile", "--matrix", a2t_file, "tustuts", "2")
        assert out == "7,12\n"

    def test_brute_class_and_order(self, capsys, a3_file):
        code, out, _ = invoke(capsys, "brute-class", "--matrix", a3_file, "s1", "6")
        assert len(out.splitlines()) == 6
        code, out, _ = invoke(capsys, "brute-order", "--matrix", a3_file, "s1 s2", "10")
        assert out == "3\n"
        code, out, _ = invoke(capsys, "brute-order", "--matrix", a3_file, "s1", "1")
        assert out == "absent\n"


class TestJsonMode:
    def test_single_object_per_line(self, capsys, a2t_file):
        code, out, _ = invoke(
            capsys, "is-straight", "--matrix", a2t_file, "--json", "tustuts"
        )
        payload = json.loads(out)
        assert payload["command"] == "is-straight"
        assert payload["result"] is False
        assert payload["witness"]["kind"] == "non-torsion-free-member"
        assert payload["witness"]["subset"] == ["t"]

    def test_words_round_trip(self, capsys, a2t_file):
        matrix = parse_system_file(a2t_file)
        code, out, _ = invoke(
            capsys, "kappa-class", "--matrix", a2t_file, "--json", "tustuts"
        )
        payload = json.loads(out)
        original = matrix.element("tustuts")
        nodes = {matrix.element(word) for word in payload["result"]["nodes"]}
        assert matrix.element(payload["result"]["nodes"][0]).system == matrix
        assert original in nodes

    def test_inputs_recorded(self, capsys, a3_file):
        code, out, _ = invoke(
            capsys, "mult", "--matrix", a3_file, "--json", "s1", "s2"
        )
        payload = json.loads(out)
        assert payload["inputs"]["left"] == "s1"
        assert payload["inputs"]["right"] == "s2"


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["not-a-command"]) == EXIT_USAGE

    def test_missing_matrix_flag(self, capsys, a2t_file):
        assert run(["reduce", "tustuts"]) == EXIT_USAGE

    def test_bad_word(self, capsys, a2t_file):
        code, _, err = invoke(capsys, "reduce", "--matrix", a2t_file, "sxz")
        assert code == EXIT_USAGE and "sxz" in err

    def test_cap_exceeded(self, capsys, a2t_file):
        code, _, err = invoke(
            capsys, "kappa-class", "--matrix", a2t_file, "--cap", "2", "tustuts"
        )
        assert code == EXIT_CAP and "cap" in err.lower()

    def test_not_cfc_is_usage_error(self, capsys, a2t_file):
        code, _, err = invoke(capsys, "cfc-straight", "--matrix", a2t_file, "sts")
        assert code == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == EXIT_OK

    @pytest.mark.parametrize(
        "argv, argument",
        [
            (["enumerate", "--", "-1"], "max_len"),
            (["brute-class", "s", "--", "-1"], "len_cap"),
            (["brute-order", "s", "--", "-1"], "n_cap"),
            (["kappa-class", "--cap", "-1", "stu"], "--cap"),
            (["oracle-is-reduced", "--oracle-length-cap", "-1", "-"], "--oracle-length-cap"),
            (["is-conjugate", "--brute", "--brute-len", "-1", "s", "t"], "--brute-len"),
        ],
        ids=["max_len", "len_cap", "n_cap", "cap", "oracle-length-cap", "brute-len"],
    )
    def test_negative_bound_is_usage_error(self, capsys, a2t_file, argv, argument):
        code, out, err = invoke(capsys, argv[0], "--matrix", a2t_file, *argv[1:])
        assert code == EXIT_USAGE and out == ""
        assert f"argument {argument}: must be a non-negative integer, got -1" in err

    def test_zero_bound_is_accepted(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "enumerate", "--matrix", a2t_file, "0")
        assert code == EXIT_OK and out == "-\n"

    def test_non_integer_bound_keeps_its_message(self, capsys, a2t_file):
        code, _, err = invoke(capsys, "enumerate", "--matrix", a2t_file, "x")
        assert code == EXIT_USAGE and "argument max_len: invalid int value: 'x'" in err

    def test_negative_exponent_stays_signed(self, capsys, a2t_file):
        code, out, _ = invoke(capsys, "power", "--matrix", a2t_file, "stu", "--", "-1")
        assert code == EXIT_OK and out == "uts\n"

    @pytest.mark.parametrize("argv", [
        ["length", "abc"],             # written at the final flush
        ["enumerate", "10"],           # about 30 kB, written while printing
    ], ids=["short", "long"])
    def test_closed_pipe_exits_without_a_traceback(self, tmp_path, argv):
        path = tmp_path / "u3.cox"
        path.write_text("generators: a b c\nm: a b inf\nm: b c inf\nm: a c inf\n")
        # the reader closes its end before anything is written
        reader, writer = os.pipe()
        os.close(reader)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "coxkit", argv[0], "--matrix", str(path), *argv[1:]],
                stdout=writer, stderr=subprocess.PIPE,
            )
        finally:
            os.close(writer)
        assert result.returncode == 1
        assert result.stderr == b""


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, a2t_file):
        outputs = set()
        for _ in range(2):
            _, out, _ = invoke(
                capsys, "is-conjugate", "--matrix", a2t_file, "tustuts", "stsustu"
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_module_entry_point(self, a2t_file):
        result = subprocess.run(
            [sys.executable, "-m", "coxkit", "length", "--matrix", a2t_file, "tustuts"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "7\n"

    def test_byte_identical_across_processes(self, a2t_file):
        # fresh interpreters must agree byte for byte (no hash-order leakage)
        argv = [
            sys.executable, "-m", "coxkit",
            "is-conjugate", "--matrix", a2t_file, "--json", "tustuts", "stsustu",
        ]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout and first.stdout == second.stdout


class TestSmallSystems:
    def test_rank_one_through_the_cli(self, tmp_path, capsys):
        path = tmp_path / "a1.cox"
        path.write_text("generators: s\n")
        assert invoke(capsys, "length", "--matrix", str(path), "sss")[1] == "1\n"
        assert invoke(capsys, "is-straight", "--matrix", str(path), "s")[1].startswith(
            "false"
        )
        assert invoke(capsys, "enumerate", "--matrix", str(path), "5")[1] == "-\ns\n"

    def test_identity_everywhere(self, capsys, a2t_file):
        assert invoke(capsys, "reduce", "--matrix", a2t_file, "-")[1] == "-\n"
        assert invoke(capsys, "is-cyclically-reduced", "--matrix", a2t_file, "-")[1] == "true\n"
        assert invoke(capsys, "is-torsion-free", "--matrix", a2t_file, "-")[1] == "true\n"
        assert invoke(capsys, "is-straight", "--matrix", a2t_file, "-")[1] == "true\n"
        assert invoke(capsys, "support", "--matrix", a2t_file, "-")[1] == "{}\n"
