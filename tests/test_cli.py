import contextlib
import io

import pytest

from clusterchar import cli
from clusterchar.cli import run
from clusterchar.grassmannian import CountingPolynomial
from clusterchar.laurent import from_dict, laurent_render

pytestmark = pytest.mark.usefixtures("data_dir")


def _run(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_xvalue_a4(capsys, data_dir):
    code, out, _ = _run(
        capsys, "xvalue", data_dir / "a4.alg", data_dir / "a4_M.mod"
    )
    assert code == 0
    assert "X = (x1*x3 + x2*x4 + x4) / (x1*x2)" in out
    assert "laurent: x2^-1*x3 + x1^-1*x4 + x1^-1*x2^-1*x4" in out


def test_boolean_matrix_entry_exits_2(capsys, data_dir, tmp_path):
    mod = tmp_path / "bool.mod"
    mod.write_text(
        "[module]\nalgebra: %s\ndims: 1 1 0 0\nmatrix d: [[True]]\n"
        % (data_dir / "a4.alg")
    )
    code, out, err = _run(capsys, "xvalue", data_dir / "a4.alg", mod)
    assert code == 2
    assert out == ""
    assert "non-integer entry True in matrix for arrow 'd'" in err


def test_xvalue_d4_uses_vertex_labels(capsys, data_dir):
    code, out, _ = _run(
        capsys, "xvalue", data_dir / "d4.alg", data_dir / "d4_M.mod"
    )
    assert code == 0
    assert "X = (x0^2 + 2*x0*x3 + x1*x2*x3 + x3^2) / (x0*x1*x2)" in out


def test_xvalue_with_shifts(capsys, data_dir):
    code, out, _ = _run(
        capsys,
        "xvalue",
        data_dir / "a4.alg",
        data_dir / "a4_M.mod",
        "--shifts",
        "3",
    )
    assert code == 0
    assert "X = (x1*x3^2 + x2*x3*x4 + x3*x4) / (x1*x2)" in out


def test_index_a4(capsys, data_dir):
    code, out, _ = _run(capsys, "index", data_dir / "a4.alg", data_dir / "a4_M.mod")
    assert code == 0
    assert "ind = [P_2] - [P_3]" in out
    assert "coind = [P_1] - [P_4]" in out


def test_index_d4(capsys, data_dir):
    code, out, _ = _run(capsys, "index", data_dir / "d4.alg", data_dir / "d4_M.mod")
    assert code == 0
    assert "ind = [P_0] - [P_3]" in out
    assert "coind = -[P_0] + [P_1] + [P_2]" in out


def test_form_matrix_output(capsys, data_dir):
    code, out, _ = _run(capsys, "form-matrix", data_dir / "a4.alg")
    assert code == 0
    assert out == "0 1 0 0\n-1 0 -1 1\n0 1 0 -1\n0 -1 1 0\n"


def test_algebra_check(capsys, data_dir):
    code, out, _ = _run(capsys, "algebra", "check", data_dir / "a4.alg")
    assert code == 0
    assert "dim B = 9" in out
    assert "P_2 dims: 1 1 1 0" in out
    assert "I_1 dims: 1 1 0 1" in out


def test_grassmannian_command(capsys, data_dir):
    code, out, _ = _run(
        capsys,
        "grassmannian",
        data_dir / "a4.alg",
        data_dir / "a4_M.mod",
        "--dim",
        "1,0,0,0",
    )
    assert code == 0
    assert "counting polynomial: 1" in out
    assert "chi = 1" in out


def test_grassmannian_primes_override(capsys, data_dir):
    code, out, _ = _run(
        capsys,
        "grassmannian",
        data_dir / "a4.alg",
        data_dir / "a4_M.mod",
        "--dim",
        "1,1,0,0",
        "--primes",
        "5,7,11",
    )
    assert code == 0
    assert "chi = 1" in out


def test_mutate_command(capsys, data_dir):
    code, out, _ = _run(capsys, "mutate", data_dir / "an2.mat", "--seq", "1")
    assert code == 0
    assert "x1 = x1^-1*x2 + x1^-1" in out
    assert "0 -1" in out


def test_enumerate_command(capsys, data_dir):
    code, out, _ = _run(
        capsys, "enumerate", data_dir / "an3.mat", "--max-seeds", "1000"
    )
    assert code == 0
    assert out.startswith("9 cluster variables\n")


def test_enumerate_cap_counts_seeds_visited(capsys, data_dir):
    # A3: 14 clusters, each mutated in 3 directions, plus the initial seed
    code, out, err = _run(capsys, "enumerate", data_dir / "an3.mat", "--max-seeds", "42")
    assert code == 3
    assert out == ""
    assert "more than 42 seeds" in err
    code, out, _ = _run(capsys, "enumerate", data_dir / "an3.mat", "--max-seeds", "43")
    assert code == 0
    assert out.startswith("9 cluster variables\n")
    assert len(out.splitlines()) == 10


@pytest.mark.parametrize("size", ["0", "-2"])
def test_enumerate_rejects_matrix_size_below_one(capsys, tmp_path, size):
    path = tmp_path / "bad.mat"
    path.write_text(size + "\n")
    code, out, err = _run(capsys, "enumerate", path)
    assert code == 2
    assert out == ""
    assert "matrix size must be at least 1" in err


def test_enumerate_rejects_superscript_matrix_size(capsys, tmp_path):
    # "\u00b2".isdigit() holds, but int() rejects it
    path = tmp_path / "bad.mat"
    path.write_text("\u00b2\n0 1\n-1 0\n", encoding="utf-8")
    code, out, err = _run(capsys, "enumerate", path)
    assert code == 2
    assert out == ""
    assert "matrix file must start with the size n" in err


@pytest.mark.parametrize("size", ["--2", "+2", "\u0662"])
def test_enumerate_rejects_malformed_matrix_size(capsys, tmp_path, size):
    path = tmp_path / "bad.mat"
    path.write_text(size + "\n0 1\n-1 0\n", encoding="utf-8")
    code, out, err = _run(capsys, "enumerate", path)
    assert code == 2
    assert out == ""
    assert "matrix file must start with the size n" in err


@pytest.mark.parametrize("entry", ["1_0", "+1", "--1", "\u0661"])
def test_mutate_rejects_malformed_matrix_entry(capsys, tmp_path, entry):
    path = tmp_path / "bad.mat"
    path.write_text("2\n0 %s\n-1 0\n" % entry, encoding="utf-8")
    code, out, err = _run(capsys, "mutate", path, "--seq", "1")
    assert code == 2
    assert out == ""
    assert "non-integer matrix entry" in err


def test_algebra_check_rejects_superscript_coefficient(capsys, tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text(
        "[quiver]\nvertices: 1 2 3\narrow: a 1 2\narrow: b 2 3\n"
        "[relations]\nrel: \u00b2*b.a\n",
        encoding="utf-8",
    )
    code, out, err = _run(capsys, "algebra", "check", path)
    assert code == 2
    assert out == ""
    assert "bad relation coefficient" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_enumerate_rejects_nonpositive_cap(capsys, data_dir, cap):
    code, out, err = _run(capsys, "enumerate", data_dir / "an3.mat", "--max-seeds", cap)
    assert code == 2
    assert out == ""
    assert "seed cap" in err


def _index_of_a4_M_squared(capsys, data_dir, tmp_path, *shifts):
    mod = tmp_path / "a4_MM.mod"
    mod.write_text("[module]\ndims: 2 2 0 0\nmatrix d: [[1, 0], [0, 1]]\n")
    code, out, _ = _run(capsys, "index", data_dir / "a4.alg", mod, *shifts)
    assert code == 0
    return out


@pytest.mark.parametrize(
    "render, expected",
    [
        (
            lambda *_: laurent_render(from_dict(2, {(2, -1): -2, (0, 1): 3, (0, 0): -1})),
            "-2*x1^2*x2^-1 + 3*x2 - 1",
        ),
        (lambda *_: str(CountingPolynomial((1, -1, 2))), "2*q^2 - q + 1"),
        (lambda *_: str(CountingPolynomial((-2,))), "-2"),
        (_index_of_a4_M_squared, "ind = 2*[P_2] - 2*[P_3]\ncoind = 2*[P_1] - 2*[P_4]\n"),
        (
            lambda *a: _index_of_a4_M_squared(*a, "--shifts", "1,1"),
            "ind = -2*[P_1] + 2*[P_2] - 2*[P_3]\ncoind = -2*[P_4]\n",
        ),
    ],
)
def test_signed_terms_magnitudes_and_leading_sign(capsys, data_dir, tmp_path, render, expected):
    assert render(capsys, data_dir, tmp_path) == expected


def test_verify_triangle_pass(capsys, data_dir):
    code, out, _ = _run(
        capsys,
        "verify-triangle",
        data_dir / "an2.alg",
        data_dir / "an2_S1.mod",
        data_dir / "an2_S2.mod",
        data_dir / "an2_zero.mod",
        data_dir / "an2_M12.mod",
    )
    assert code == 0
    assert "multiplication identity holds" in out


def test_verify_triangle_fail_exit_code(capsys, data_dir):
    code, out, _ = _run(
        capsys,
        "verify-triangle",
        data_dir / "an2.alg",
        data_dir / "an2_S1.mod",
        data_dir / "an2_S2.mod",
        data_dir / "an2_M12.mod",
        data_dir / "an2_M12.mod",
    )
    assert code == 1
    assert "MISMATCH" in out


def test_verify_an_command(capsys):
    code, out, _ = _run(capsys, "verify-an", "--n", "2")
    assert code == 0
    assert "PASS" in out
    assert "5/5 cluster variables matched" in out


@pytest.mark.parametrize("pairs", ["-1", "-5"])
def test_verify_an_rejects_negative_max_pairs(capsys, pairs):
    code, out, err = _run(capsys, "verify-an", "--n", "3", "--max-pairs", pairs)
    assert code == 2
    assert out == ""
    assert "max_pairs" in err


def test_verify_an_rejects_n_above_default_max(capsys):
    code, out, err = _run(capsys, "verify-an", "--n", "9")
    assert code == 2
    assert out == ""
    assert "2..8" in err


def test_grassmannian_dim_above_module_exits_2(capsys, data_dir):
    code, out, err = _run(
        capsys,
        "grassmannian",
        data_dir / "a4.alg",
        data_dir / "a4_M.mod",
        "--dim",
        "2,1,0,0",
    )
    assert code == 2
    assert out == ""
    assert "error: submodule dimension vector out of range" in err


def test_missing_file_exits_2(capsys, data_dir):
    code, _, err = _run(capsys, "xvalue", data_dir / "a4.alg", "no_such.mod")
    assert code == 2
    assert "error:" in err


def test_bad_flag_exits_2(capsys, data_dir):
    code, _, _ = _run(capsys, "xvalue", data_dir / "a4.alg", data_dir / "a4_M.mod", "--bogus")
    assert code == 2


def test_bad_module_data_exits_2(tmp_path, capsys, data_dir):
    bad = tmp_path / "bad.mod"
    bad.write_text("[module]\ndims: 1 1 0 0\nmatrix d: [[0.5]]\n")
    code, _, err = _run(capsys, "xvalue", data_dir / "a4.alg", bad)
    assert code == 2
    assert "non-integer" in err


@pytest.mark.parametrize(
    "body, message",
    [
        ("algebra: a4.alg\nalgebra: d4.alg\ndims: 1 1 0 0\n", "line 3: repeated algebra line"),
        ("dims: 1 1 0 0\ndims: 1 0 0 0\n", "line 3: repeated dims line"),
        (
            "dims: 1 1 0 0\nmatrix d: [[1]]\nmatrix d: [[0]]\n",
            "line 4: repeated matrix line for arrow 'd'",
        ),
    ],
    ids=["algebra", "dims", "matrix"],
)
def test_repeated_module_line_exits_2(tmp_path, capsys, data_dir, body, message):
    mod = tmp_path / "twice.mod"
    mod.write_text("[module]\n" + body)
    code, out, err = _run(capsys, "xvalue", data_dir / "a4.alg", mod)
    assert (code, out) == (2, "")
    assert "error: %s" % message in err


def test_insufficient_primes_exit_3(capsys, data_dir, tmp_path):
    mod = tmp_path / "ksq.mod"
    mod.write_text("[module]\ndims: 2\n")
    alg = tmp_path / "pt.alg"
    alg.write_text("[quiver]\nvertices: 1\n")
    code, _, err = _run(
        capsys, "grassmannian", alg, mod, "--dim", "1", "--primes", "2,3"
    )
    assert code == 3
    assert "primes" in err


def test_deterministic_output(capsys, data_dir):
    _, out1, _ = _run(capsys, "xvalue", data_dir / "a4.alg", data_dir / "a4_M.mod")
    _, out2, _ = _run(capsys, "xvalue", data_dir / "a4.alg", data_dir / "a4_M.mod")
    assert out1 == out2
    _, e1, _ = _run(capsys, "enumerate", data_dir / "an4.mat", "--max-seeds", "5000")
    _, e2, _ = _run(capsys, "enumerate", data_dir / "an4.mat", "--max-seeds", "5000")
    assert e1 == e2


def test_parser_state_does_not_leak_between_calls(capsys, data_dir):
    plain = ("xvalue", data_dir / "a4.alg", data_dir / "a4_M.mod")
    shifted = plain + ("--shifts", "1")
    forward = [_run(capsys, *shifted), _run(capsys, *plain)]
    backward = [_run(capsys, *plain), _run(capsys, *shifted)]
    assert forward == backward[::-1]
    assert forward[0][1] != forward[1][1]


def _parse(parser, argv):
    """Exit code, stdout and stderr of parsing argv (0 when it parses)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_one_subcommand_parser_matches_the_full_parser(command):
    alone = cli.build_parser(command)
    (sub,) = alone._subparsers._group_actions
    assert list(sub.choices) == [command]
    for rest in ([], ["-h"], ["a", "b", "c", "d", "e", "--bogus"], ["--n", "x"]):
        argv = [command] + rest
        assert _parse(alone, argv) == _parse(cli.build_parser(), argv), argv


def test_extra_arguments_show_every_subcommand(capsys, data_dir):
    code, out, err = _run(capsys, "form-matrix", data_dir / "a4.alg", "extra")
    assert (code, out) == (2, "")
    # the usage line wraps with the terminal width
    assert " ".join(err.split()) == (
        "usage: clusterchar [-h] {%s} ... "
        "clusterchar: error: unrecognized arguments: extra" % ",".join(cli._COMMANDS)
    )


def test_entry_point_module(data_dir):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "clusterchar.cli", "form-matrix", str(data_dir / "a4.alg")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "0 1 0 0"
