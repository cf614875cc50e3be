import argparse
import contextlib
import importlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterchar import cli, forms, grassmannian, modules, polygon
from clusterchar.cli import run
from clusterchar.grassmannian import CountingPolynomial
from clusterchar.laurent import from_dict, laurent_render, variable

pytestmark = pytest.mark.usefixtures("data_dir")

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize("body, shown", [
    ("[[1,\xa0]]", r"'\xa0'"),
    ("[[\u200b1]]", r"'\u200b1'"),
    ("[[\u0661]]", "'\u0661'"),
])
def test_a_matrix_entry_not_plain_ascii_is_quoted(capsys, data_dir, tmp_path, body, shown):
    # white space and invisible characters would otherwise print blank or vanish
    mod = tmp_path / "unicode.mod"
    mod.write_text("[module]\ndims: 1 1 0 0\nmatrix d: %s\n" % body, encoding="utf-8")
    code, out, err = _run(capsys, "xvalue", data_dir / "a4.alg", mod)
    assert (code, out) == (2, "")
    assert "non-integer entry %s in matrix for arrow 'd'" % shown in err


@pytest.mark.parametrize("body, message", [
    ("[[1_0]]", "non-integer entry 1_0"),
    ("[[+1]]", "non-integer entry +1"),
    ("[[0x1]]", "non-integer entry 0x1"),
    ("[[0b1]]", "non-integer entry 0b1"),
    ("[[- 1]]", "non-integer entry - 1"),
    ("((1,),)", "is not a list of rows"),
    ("[[1,]]", "unreadable matrix data"),
    ("[[1],]", "unreadable matrix data"),
    ("[(1,)]", "is not a list of rows"),
])
def test_matrix_spelling_outside_the_grammar_exits_2(capsys, data_dir, tmp_path, body, message):
    # entries are read by ascii_int, as every integer a user types
    mod = tmp_path / "spelling.mod"
    mod.write_text("[module]\ndims: 1 1 0 0\nmatrix d: %s\n" % body)
    code, out, err = _run(capsys, "xvalue", data_dir / "a4.alg", mod)
    assert (code, out) == (2, "")
    assert message in err and "arrow 'd'" in err


def _a4_module_with_d(data_dir, tmp_path, entry):
    """A module over a4 isomorphic over Q to a4_M: d acts as ``entry``."""
    mod = tmp_path / ("d%d.mod" % entry)
    mod.write_text(
        "[module]\nalgebra: %s\ndims: 1 1 0 0\nmatrix d: [[%d]]\n"
        % (data_dir / "a4.alg", entry)
    )
    return mod


@pytest.mark.parametrize("entry", [6, 2])
def test_tree_module_needs_no_good_prime(capsys, data_dir, tmp_path, entry):
    # the fixed-point count reads only which entries are nonzero
    mod = _a4_module_with_d(data_dir, tmp_path, entry)
    code, out, _ = _run(capsys, "xvalue", data_dir / "a4.alg", mod)
    _, expected, _ = _run(capsys, "xvalue", data_dir / "a4.alg", data_dir / "a4_M.mod")
    assert code == 0
    assert out == expected


def _an3_module_with_ba_2(data_dir, tmp_path):
    """Each arrow keeps its rank mod 2, but b.a acts as 2; the coefficient
    quiver has a cycle.  The module is P_1 + S_2 (ker a2 misses the image
    of a1): the character counts it as the Fitting split's summands, the
    `grassmannian` fit whole, at the primes `test_grassmannian` pins."""
    mod = tmp_path / "ba2.mod"
    mod.write_text(
        "[module]\nalgebra: %s\ndims: 1 2 1\nmatrix a1: [[1], [1]]\n"
        "matrix a2: [[1, 1]]\n" % (data_dir / "an3.alg")
    )
    return mod


def test_default_primes_skip_a_bad_reduction_along_a_path(capsys, data_dir, tmp_path):
    # counted whole, the fit needs three primes and skips 2, where b.a
    # loses its rank; split, both summands are tree modules, answered with
    # no prime.  Either way the value is the one over Q
    mod = _an3_module_with_ba_2(data_dir, tmp_path)
    code, out, _ = _run(capsys, "xvalue", data_dir / "an3.alg", mod)
    assert code == 0
    assert out == (
        "X = (x1^2*x2 + x1^2 + 2*x1*x2*x3 + 2*x1*x3 + x2*x3^2 + x3^2) / (x1*x2^2*x3)\n"
        "laurent: x1*x2^-1*x3^-1 + x1*x2^-2*x3^-1 + 2*x2^-1 + 2*x2^-2 "
        "+ x1^-1*x2^-1*x3 + x1^-1*x2^-2*x3\n"
    )


KRONECKER_ALG = "[quiver]\nvertices: 1 2\narrow: a 1 2\narrow: b 1 2\n"
KRONECKER_JORDAN_X = (
    "X = (x1^4 + x1^2*x2^2 + 2*x1^2 + x2^4 + 2*x2^2 + 1) / (x1^2*x2^2)\n"
    "laurent: x1^2*x2^-2 + 1 + 2*x2^-2 + x1^-2*x2^2 + 2*x1^-2 + x1^-2*x2^-2\n"
)


@pytest.mark.parametrize("b,primes", [
    ("[[2, 1], [0, 2]]", (3, 5, 7)),
    ("[[1, 1], [0, 1]]", (2, 3, 5)),
])
def test_xvalue_skips_a_bad_reduction_along_a_path(monkeypatch, capsys, tmp_path, b, primes):
    # a = I and b a Jordan block: indecomposable, so it does not split,
    # and not a tree module, so it is point-counted whole.  With
    # eigenvalue 2, b loses its rank mod 2, which the fit skips; with
    # eigenvalue 1 it keeps it.  Both lie in a homogeneous tube at its
    # second level, so X is the same
    alg, mod = tmp_path / "kronecker.alg", tmp_path / "jordan.mod"
    alg.write_text(KRONECKER_ALG)
    mod.write_text("[module]\ndims: 2 2\nmatrix a: [[1, 0], [0, 1]]\nmatrix b: %s\n" % b)
    chosen = []

    def recording(ranked, needed):
        chosen.append(good_primes(ranked, needed))
        return chosen[-1]

    good_primes = grassmannian._good_primes
    monkeypatch.setattr(grassmannian, "_good_primes", recording)
    assert _run(capsys, "xvalue", alg, mod) == (0, KRONECKER_JORDAN_X, "")
    assert chosen == [primes]


def test_default_primes_skip_a_bad_reduction_in_a_single_fit(
    capsys, data_dir, tmp_path
):
    # the fit needs two primes.  Mod a prime dividing d, a line at vertex
    # 2 is a submodule, so a fit at 2 and 3 with d acting as 6 verifies
    # chi = 1; the fit skips the bad primes (3 for d = 3; 2 and 3 for
    # d = 6) and finds the value over Q
    argv = ["grassmannian", data_dir / "a4.alg"]
    _, expected, _ = _run(capsys, *argv, data_dir / "a4_M.mod", "--dim", "0,1,0,0")
    assert "chi = 0" in expected
    for entry in (3, 6):
        mod = _a4_module_with_d(data_dir, tmp_path, entry)
        code, out, _ = _run(capsys, *argv, mod, "--dim", "0,1,0,0")
        assert (code, out) == (0, expected)


D4_STAR_X = (
    "X = (x1^2*x2^2*x3^2 + 3*x1*x2*x3*x4 + 2*x1*x2*x3 + x4^3 + 3*x4^2 + 3*x4 + 1)"
    " / (x1*x2*x3*x4^2)\n"
    "laurent: x1*x2*x3*x4^-2 + 3*x4^-1 + 2*x4^-2 + x1^-1*x2^-1*x3^-1*x4"
    " + 3*x1^-1*x2^-1*x3^-1 + 3*x1^-1*x2^-1*x3^-1*x4^-1 + x1^-1*x2^-1*x3^-1*x4^-2\n"
)
GOOD_PRIME_HOLE = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
# k = 1 pins the value over Q; the product of the primes up to 47 and 2
# reduce to another module mod some good prime
GOOD_PRIME_CASES = [
    1,
    pytest.param(614889782588491410, marks=GOOD_PRIME_HOLE, id="primorial_47"),
    pytest.param(2, marks=GOOD_PRIME_HOLE),
]


@pytest.mark.parametrize("k", GOOD_PRIME_CASES)
def test_d4_star_reduction_where_only_images_meet(capsys, tmp_path, k):
    # over the D4 star 1 -> 4 <- 2, 3 -> 4 every k != 0 gives one module
    # over Q, and every path keeps its rank mod every prime.  Mod a prime
    # dividing k the images of c and a coincide, so the count is of
    # another module: k = 2 fails to verify at 5, and k = 2*3*...*47
    # verifies the other module's value at the good primes up to 47
    alg = tmp_path / "d4_star.alg"
    alg.write_text(
        "[quiver]\nvertices: 1 2 3 4\narrow: a 1 4\narrow: b 2 4\narrow: c 3 4\n"
    )
    mod = tmp_path / "star.mod"
    mod.write_text(
        "[module]\ndims: 1 1 1 2\nmatrix a: [[1], [0]]\nmatrix b: [[0], [1]]\n"
        "matrix c: [[1], [%d]]\n" % k
    )
    assert _run(capsys, "xvalue", alg, mod) == (0, D4_STAR_X, "")
    assert _run(capsys, "grassmannian", alg, mod, "--dim", "1,0,1,1") == (
        0, "degree bound = 1\ncounting polynomial: 0\nchi = 0\n", ""
    )


KRONECKER_X_DELTA_SQUARED = (
    "X = (x1^4 + 2*x1^2*x2^2 + 2*x1^2 + x2^4 + 2*x2^2 + 1) / (x1^2*x2^2)\n"
    "laurent: x1^2*x2^-2 + 2 + 2*x2^-2 + x1^-2*x2^2 + 2*x1^-2 + x1^-2*x2^-2\n"
)


def _kronecker_r0_rk(tmp_path, k):
    """a = 1 and b = [[0, 1], [0, k]] give R_0 + R_k over the Kronecker
    quiver, not rigid.  Every arrow keeps its rank mod every prime and
    dim End is 2 on both sides, yet mod a prime dividing k the module is
    the self-extension R_0[2]."""
    alg = tmp_path / "kronecker.alg"
    alg.write_text("[quiver]\nvertices: 1 2\narrow: a 1 2\narrow: b 1 2\n")
    mod = tmp_path / "r0_rk.mod"
    mod.write_text(
        "[module]\ndims: 2 2\nmatrix a: [[1, 0], [0, 1]]\n"
        "matrix b: [[0, 1], [0, %d]]\n" % k
    )
    return alg, mod


@pytest.mark.parametrize("k", [1, 614889782588491410, 2], ids=["1", "primorial_47", "2"])
def test_xvalue_splits_a_kronecker_sum_of_two_regular_simples(capsys, tmp_path, k):
    # the character splits the module into R_0 and R_k by the Fitting
    # lemma and counts R_k alone, where b loses its rank mod a prime
    # dividing k, so such a prime is skipped
    alg, mod = _kronecker_r0_rk(tmp_path, k)
    assert _run(capsys, "xvalue", alg, mod) == (0, KRONECKER_X_DELTA_SQUARED, "")


@pytest.mark.parametrize("k", GOOD_PRIME_CASES)
def test_kronecker_sum_of_two_regular_simples(capsys, tmp_path, k):
    # `grassmannian` counts the whole module: k = 2*3*...*47 prints the
    # counts of R_0[2] (constant term 1, chi = 1), and k = 2 fails to
    # interpolate
    alg, mod = _kronecker_r0_rk(tmp_path, k)
    assert _run(capsys, "grassmannian", alg, mod, "--dim", "1,1") == (
        0, "degree bound = 2\ncounting polynomial: 2\nchi = 2\n", ""
    )


def test_algebra_check_refuses_a_relation_inhomogeneous_in_length(
    capsys, tmp_path
):
    # b.a and f.e.d both run 1 -> 5
    path = tmp_path / "inhomogeneous.alg"
    path.write_text(
        "[quiver]\nvertices: 1 2 3 4 5\n"
        "arrow: a 1 2\narrow: b 2 5\narrow: d 1 3\narrow: e 3 4\narrow: f 4 5\n"
        "[relations]\nrel: b.a - f.e.d\n"
    )
    code, out, err = _run(capsys, "algebra", "check", path)
    assert code == 2
    assert out == ""
    assert "not homogeneous in (source, target, length)" in err


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


def _a3_with_zero_composite(tmp_path):
    """Linear A3 with b.a = 0, and P_1 over it."""
    alg = tmp_path / "a3_ba.alg"
    alg.write_text(
        "[quiver]\nvertices: 1 2 3\narrow: a 1 2\narrow: b 2 3\n"
        "[relations]\nrel: b.a\n"
    )
    mod = tmp_path / "p1.mod"
    mod.write_text("[module]\ndims: 1 1 0\nmatrix a: [[1]]\n")
    return alg, mod


def test_index_refused_where_the_form_does_not_descend(capsys, tmp_path):
    # linear A3 with b.a = 0 has global dimension 2, so it is no
    # cluster-tilted algebra: ind(P_1) = [P_1], but coind - (E - E^T) dim
    # gives [P_1] - [P_3]
    alg, mod = _a3_with_zero_composite(tmp_path)
    code, out, err = _run(capsys, "index", alg, mod)
    assert code == 3
    assert out == ""
    assert err.startswith("error: index mismatch: ")
    code, out, _ = _run(capsys, "form-matrix", alg)
    assert code == 0
    assert out == "0 -1 0\n1 0 -1\n0 1 0\n"


def test_character_refused_where_the_form_does_not_descend(capsys, tmp_path):
    # each value checks the index of its module, so xvalue refuses what
    # index refuses instead of printing (x1 + x2*x3 + x3) / (x1*x2)
    alg, mod = _a3_with_zero_composite(tmp_path)
    code, out, err = _run(capsys, "xvalue", alg, mod)
    assert code == 3
    assert out == ""
    assert err.startswith("error: index mismatch: ")


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


def _module_with_dims(data_dir, tmp_path, dims):
    mod = tmp_path / "dims.mod"
    mod.write_text("[module]\ndims: %s\n" % dims, encoding="utf-8")
    return ["xvalue", data_dir / "a4.alg", mod]


def _relation_with_coefficient(data_dir, tmp_path, coeff):
    alg = tmp_path / "coeff.alg"
    alg.write_text(
        "[quiver]\nvertices: 1 2 3\narrow: a 1 2\narrow: b 2 3\n"
        "[relations]\nrel: %s*b.a\n" % coeff,
        encoding="utf-8",
    )
    return ["algebra", "check", alg]


# every integer a user types is an optional "-" and ASCII digits
# (quiver.ascii_int); int() alone reads each of these as a number
@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda d, t: _module_with_dims(d, t, "\u0661 1 0 0"), "line 2: bad dims line"),
        (lambda d, t: _module_with_dims(d, t, "1_0 0 0 0"), "line 2: bad dims line"),
        (lambda d, t: _relation_with_coefficient(d, t, "\u0661"), "bad relation coefficient"),
        (lambda d, t: _relation_with_coefficient(d, t, "+-1"), "bad relation coefficient"),
        (lambda d, t: ["mutate", d / "an3.mat", "--seq", "\u0661,2"], "integer list"),
        (lambda d, t: ["grassmannian", d / "a4.alg", d / "a4_M.mod", "--dim", "1,+1,0,0"],
         "integer list"),
        (lambda d, t: ["enumerate", d / "an3.mat", "--max-seeds", "\u0664\u0663"],
         "argument --max-seeds: invalid ascii_int value"),
        (lambda d, t: ["verify-an", "--n", "\u0663"], "argument --n: invalid ascii_int value"),
    ],
    ids=["dims-arabic", "dims-underscore", "coefficient-arabic", "coefficient-signed",
         "seq", "dim", "max-seeds", "n"],
)
def test_integers_are_ascii_digits(capsys, data_dir, tmp_path, argv, message):
    code, out, err = _run(capsys, *argv(data_dir, tmp_path))
    assert (code, out) == (2, "")
    assert message in err


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


def test_verify_an_reports_a_failed_triangle_and_bijection(capsys, monkeypatch):
    # the oracle has x1*x2 in place of x1, and the third triangle fails
    x1, x2 = variable(2, 0), variable(2, 1)
    oracle = polygon.enumerate_cluster_variables
    monkeypatch.setattr(
        polygon, "enumerate_cluster_variables",
        lambda b: frozenset(x1 * x2 if v == x1 else v for v in oracle(b)),
    )
    check, calls = polygon.verify_triangle, []

    def verify_triangle(*objects):
        calls.append(objects)
        report = check(*objects)
        return report._replace(ok=False) if len(calls) == 3 else report

    monkeypatch.setattr(polygon, "verify_triangle", verify_triangle)
    code, out, err = _run(capsys, "verify-an", "--n", "2")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL triangle {0,3} x {1,4}",
        "FAIL bijection: 5 character values vs 5 cluster variables",
    ]
    assert lines[-3:] == [
        "     only from arcs: x1",
        "     only from mutation: x1*x2",
        "n=2: 5 arcs, 5 crossing pairs, 13 checks passed, 1 failed, "
        "4/5 cluster variables matched: FAIL",
    ]


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


def test_failed_internal_check_exits_3(capsys, data_dir, monkeypatch):
    # no input reaches the form matrix's check: every relation has length
    # >= 2, so each <S_i, S_j> equals E_ij on any algebra, and a failure is
    # an internal fault, not a bad file.  Here P_i stands in for S_i
    monkeypatch.setattr(forms, "simple", modules.projective)
    code, out, err = _run(capsys, "form-matrix", data_dir / "a4.alg")
    assert (code, out) == (3, "")
    assert err == (
        "error: form matrix mismatch: <S_1, S_2> = 1 from the relations, 0 from the arrows\n"
    )


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


def _parse(parse, argv):
    """Exit code, stdout, stderr and namespace (without ``func``) of
    ``parse(argv)``: code 0 when it parses, namespace None when it exits."""
    out, err = io.StringIO(), io.StringIO()
    namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(argv))
            namespace.pop("func")
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def _argv_shapes(command):
    """argv shapes for ``command``: help anywhere, missing and extra
    positionals, unknown, abbreviated, ``=``-joined and repeated options,
    ``--`` and bad values."""
    _, _, arguments = cli._COMMANDS[command]
    positionals = [names[0] for names, _ in arguments if not names[0].startswith("-")]
    options = [names[0] for names, _ in arguments if names[0].startswith("-")]
    given = ["check" if p == "action" else "f_" + p for p in positionals]
    required = []
    for names, spec in arguments:
        if spec.get("required"):
            required += [names[0], "3"]
    valid = [command] + given + required
    shapes = [
        [command], valid, valid + ["-h"], valid + ["--help"],
        [command, "-h"], [command, "--help"], [command] + given[:1] + ["-h"],
        valid + ["extra"], valid + ["--bogus"], valid + ["--bogus=1"], valid + ["-x"],
        valid + ["--shif", "1"], valid + ["--max", "5"], valid + ["--n", "x"],
        valid + ["--n", "-3"], valid + ["--"], [command, "--"],
        [command] + required + ["--"] + given, [command] + required + ["--", "-h"],
        [command, "bogus"] + given[1:] + required,
    ]
    if given:
        shapes.append([command] + given[:-1] + required)
    for opt in options:
        shapes += [
            valid + [opt], valid + [opt + "=1"], valid + [opt, "1", opt, "2"],
            valid + [opt[:-1], "1"], valid + [opt, "x"], valid + [opt, "+1"],
            valid + [opt, "1_0"], valid + [opt, "-1"], valid + [opt, "x", opt, "1"],
        ]
    return shapes


def _argument_units(command):
    """``command``'s arguments, each a valid positional or an option with
    a valid value, in table order."""
    return [
        [name, "3"] if name.startswith("-") else ["check" if name == "action" else "f_" + name]
        for (name,), _ in cli._COMMANDS[command][2]
    ]


_OPTIONS = sorted({
    names[0] for _, _, arguments in cli._COMMANDS.values()
    for names, _ in arguments if names[0].startswith("-")
})
_WORDS = sorted(cli._COMMANDS) + ["", "1", "+1", "1_0", "check", "a.alg", "m.mod"]
_DASHED = (
    _OPTIONS + [opt[:-1] for opt in _OPTIONS] + [opt + "=1" for opt in _OPTIONS]
    + ["-h", "--help", "--", "-", "-1"]
)


@st.composite
def _argvs(draw):
    """Tokens in any order; mostly a subcommand's name, then its own
    arguments shuffled, some dropped or given another token, among stray
    tokens and options (its own ones repeated) with odd values."""
    tokens = st.one_of(st.sampled_from(_WORDS), st.sampled_from(_DASHED))
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(tokens, max_size=8))
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    units = [
        [draw(tokens) if draw(st.integers(0, 4)) == 4 else token for token in unit]
        for unit in _argument_units(command) if draw(st.integers(0, 4)) < 4
    ]
    own = [unit[0] for unit in _argument_units(command) if unit[0].startswith("-")]
    units += draw(st.lists(st.one_of(
        tokens.map(lambda token: [token]),
        st.tuples(st.sampled_from(own or _OPTIONS), tokens).map(list),
    ), max_size=3))
    return [command] + [token for unit in draw(st.permutations(units)) for token in unit]


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_one_subcommand_parser_matches_the_full_parser(command, monkeypatch):
    # usage lines wrap with the terminal width
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in _argv_shapes(command):
            assert _parse(cli.parse_args, argv) == _parse(_full_parse, argv), (columns, argv)


def test_a_call_without_a_subcommand_parses_as_the_full_parser(monkeypatch):
    shapes = [[], ["-h"], ["--help"], ["bogus"], ["xval", "a"], ["-x"],
              ["--", "xvalue", "a", "m"], ["-h", "xvalue"], ["--help=1"]]
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in shapes:
            assert _parse(cli.parse_args, argv) == _parse(_full_parse, argv), (columns, argv)


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_plain_argv_parses_as_the_full_parser(argv):
    # the plain path takes only what argparse takes alike; the rest reaches
    # argparse, whose usage lines wrap with the terminal width
    for columns in ("80", "200"):
        with mock.patch.dict(os.environ, {"COLUMNS": columns}):
            assert _parse(cli.parse_args, argv) == _parse(_full_parse, argv), (columns, argv)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_plain_path_takes_every_subcommand(command):
    argv = [command] + [token for unit in _argument_units(command) for token in unit]
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(_full_parse(argv))


def test_a_plain_call_builds_no_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    args = cli.parse_args(["xvalue", "a.alg", "m.mod", "--shifts", "1"])
    assert (args.command, args.shifts, built) == ("xvalue", "1", [])
    # help and errors take the subcommand's parser alone
    for argv, code in ((["xvalue", "-h"], 0), (["verify-an", "--n", "x"], 2)):
        built.clear()
        assert (_parse(cli.parse_args, argv)[0], built) == (code, ["clusterchar " + argv[0]])


def test_extra_arguments_show_every_subcommand(capsys, data_dir):
    code, out, err = _run(capsys, "form-matrix", data_dir / "a4.alg", "extra")
    assert (code, out) == (2, "")
    # the usage line wraps with the terminal width
    assert " ".join(err.split()) == (
        "usage: clusterchar [-h] {%s} ... "
        "clusterchar: error: unrecognized arguments: extra" % ",".join(cli._COMMANDS)
    )


def test_entry_point_module(data_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "clusterchar.cli", "form-matrix", str(data_dir / "a4.alg")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "0 1 0 0"


def _python_S(code, *args):
    """Exit code, stdout and stderr of ``python -S -c code args``; -S keeps
    modules that a site .pth file would load out of view."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_imports_without_dataclasses():
    # every call starts a process, so start-up is part of every call's cost
    assert _python_S(
        "import sys, clusterchar.cli; print(sorted("
        "{'argparse', 'ast', 'dataclasses', 'gettext', 'inspect'} & set(sys.modules)))"
    ) == (0, "[]\n", "")


def test_argparse_is_imported_only_off_the_plain_path(data_dir):
    assert _python_S(
        "import contextlib, io, sys\n"
        "from clusterchar import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.run(['form-matrix', sys.argv[1]])]\n"
        "    seen = ['argparse' in sys.modules]\n"
        "    codes.append(cli.run(['xvalue', '-h']))\n"
        "print(codes, seen + ['argparse' in sys.modules])",
        str(data_dir / "a4.alg"),
    ) == (0, "[0, 0] [False, True]\n", "")


def test_console_script_targets_import():
    tomllib = pytest.importorskip("tomllib")
    pyproject = ROOT / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, name = scripts["clusterchar"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


def test_readme_command_line_block_runs(capsys, monkeypatch):
    # a documented command whose flag or file is gone fails here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands
    monkeypatch.chdir(ROOT)
    for argv in commands:
        assert argv[0] == "clusterchar"
        code, _, err = _run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
