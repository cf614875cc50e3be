"""Batch command-line interface.

Plain deterministic text on stdout, diagnostics on stderr.  Exit codes:
0 all requested checks pass; 1 a verification failed; 2 file, format or
argument problems; 3 mathematical consistency violations and exhausted
resource caps.
"""

from __future__ import annotations

import argparse
import sys

from . import laurent
from .character import CCObject, cc_value, verify_triangle
from .errors import (
    ConsistencyError,
    DimensionError,
    InputError,
    LaurentDivisionError,
    NonPolynomialCountError,
    ResourceLimitError,
)
from .forms import antisym_form_matrix, coindex, index
from .grassmannian import counting_polynomial, degree_bound
from .modules import injective, load_module_file, projective
from .mutation import (
    enumerate_cluster_variables,
    initial_seed,
    load_matrix_file,
    mutate_seed,
)
from .polygon import verify_an
from .quiver import load_algebra_file

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT = 2
EXIT_MATH = 3


def _var_names(algebra) -> tuple[str, ...]:
    return tuple("x%s" % v for v in algebra.quiver.vertices)


def _render_k0(coeffs, labels) -> str:
    return laurent.render_terms((c, "[P_%s]" % label) for c, label in zip(coeffs, labels))


def _parse_shifts(algebra, text: str | None) -> tuple[int, ...]:
    mults = [0] * algebra.quiver.n
    if text:
        for label in text.split(","):
            mults[algebra.quiver.vertex_index(label.strip())] += 1
    return tuple(mults)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise InputError("expected a comma-separated integer list, got %r" % text)


def _parse_primes(text: str | None):
    return None if text is None else _parse_int_list(text)


def _load_object(path, algebra, shifts_text) -> CCObject:
    module = load_module_file(path, algebra=algebra)
    return CCObject(module, _parse_shifts(algebra, shifts_text))


def _cmd_algebra(args) -> int:
    if args.action != "check":
        raise InputError("unknown algebra action %r" % args.action)
    algebra = load_algebra_file(args.algebra)
    q = algebra.quiver
    print("vertices: %s" % " ".join(q.vertices))
    for a in q.arrows:
        print("arrow %s: %s -> %s" % (a.name, q.vertices[a.source], q.vertices[a.target]))
    print("dim B = %d" % algebra.dim())
    print("nilpotency bound = %d" % algebra.nilpotency_bound)
    for i, label in enumerate(q.vertices):
        print("P_%s dims: %s" % (label, " ".join(str(d) for d in projective(algebra, i).dims)))
    for i, label in enumerate(q.vertices):
        print("I_%s dims: %s" % (label, " ".join(str(d) for d in injective(algebra, i).dims)))
    return EXIT_OK


def _cmd_xvalue(args) -> int:
    algebra = load_algebra_file(args.algebra)
    obj = _load_object(args.module, algebra, args.shifts)
    value = cc_value(obj, primes=_parse_primes(args.primes))
    names = _var_names(algebra)
    print("X = %s" % laurent.render_fraction(value, names))
    print("laurent: %s" % laurent.laurent_render(value, names))
    return EXIT_OK


def _cmd_form_matrix(args) -> int:
    algebra = load_algebra_file(args.algebra)
    for row in antisym_form_matrix(algebra):
        print(" ".join(str(x) for x in row))
    return EXIT_OK


def _cmd_index(args) -> int:
    algebra = load_algebra_file(args.algebra)
    module = load_module_file(args.module, algebra=algebra)
    shifts = _parse_shifts(algebra, args.shifts)
    ind = index(module)
    coind = coindex(module)
    # a shifted summand contributes -[P_i] to both (its own index/coindex)
    ind = tuple(x - s for x, s in zip(ind, shifts))
    coind = tuple(x - s for x, s in zip(coind, shifts))
    labels = algebra.quiver.vertices
    print("ind = %s" % _render_k0(ind, labels))
    print("coind = %s" % _render_k0(coind, labels))
    return EXIT_OK


def _cmd_grassmannian(args) -> int:
    algebra = load_algebra_file(args.algebra)
    module = load_module_file(args.module, algebra=algebra)
    e = tuple(_parse_int_list(args.dim))
    poly = counting_polynomial(module, e, primes=_parse_primes(args.primes))
    print("degree bound = %d" % degree_bound(module, e))
    print("counting polynomial: %s" % poly)
    print("chi = %d" % poly.evaluate(1))
    return EXIT_OK


def _cmd_mutate(args) -> int:
    matrix = load_matrix_file(args.matrix)
    seed = initial_seed(matrix)
    n = len(matrix)
    for k in _parse_int_list(args.seq):
        if not 1 <= k <= n:
            raise InputError("mutation index %d out of range 1..%d" % (k, n))
        seed = mutate_seed(seed, k - 1)
    print("matrix:")
    for row in seed.matrix:
        print(" ".join(str(x) for x in row))
    for i, v in enumerate(seed.variables):
        print("x%d = %s" % (i + 1, laurent.laurent_render(v)))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    matrix = load_matrix_file(args.matrix)
    variables = enumerate_cluster_variables(matrix, seed_cap=args.max_seeds)
    rendered = sorted(laurent.laurent_render(v) for v in variables)
    print("%d cluster variables" % len(rendered))
    for text in rendered:
        print(text)
    return EXIT_OK


def _cmd_verify_triangle(args) -> int:
    algebra = load_algebra_file(args.algebra)
    l = _load_object(args.left, algebra, args.shifts_l)
    m = _load_object(args.middle, algebra, args.shifts_m)
    b = _load_object(args.b, algebra, args.shifts_b)
    bp = _load_object(args.b_prime, algebra, args.shifts_bp)
    report = verify_triangle(l, m, b, bp, primes=_parse_primes(args.primes))
    print(report.render(_var_names(algebra)))
    return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED


def _cmd_verify_an(args) -> int:
    report = verify_an(args.n, max_pairs=args.max_pairs)
    for line in report.lines:
        print(line)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterchar",
        description="cluster characters over quiver algebras, with oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="inspect an algebra file")
    p.add_argument("action", choices=["check"])
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("xvalue", help="character value of a module file")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--shifts", help="comma list of vertex labels (repeat = multiplicity)")
    p.add_argument("--primes", help="comma list of primes for point counting")
    p.set_defaults(func=_cmd_xvalue)

    p = sub.add_parser("form-matrix", help="antisymmetrized form on the simples")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_form_matrix)

    p = sub.add_parser("index", help="index and coindex of a module file")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--shifts", help="comma list of vertex labels (repeat = multiplicity)")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("grassmannian", help="counting polynomial and chi")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--dim", required=True, help="submodule dimension vector e1,e2,...")
    p.add_argument("--primes", help="comma list of primes")
    p.set_defaults(func=_cmd_grassmannian)

    p = sub.add_parser("mutate", help="mutate the initial seed of a matrix file")
    p.add_argument("matrix")
    p.add_argument("--seq", required=True, help="1-based mutation directions k1,k2,...")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("enumerate", help="breadth-first cluster-variable enumeration")
    p.add_argument("matrix")
    p.add_argument(
        "--max-seeds",
        type=int,
        default=500_000,
        metavar="N",
        help="exit 3 once more than N seeds are visited: the initial seed and "
        "every mutation result, revisits of a cluster included",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-triangle", help="check X_L X_M = X_B + X_B'")
    p.add_argument("algebra")
    p.add_argument("left")
    p.add_argument("middle")
    p.add_argument("b")
    p.add_argument("b_prime")
    p.add_argument("--shifts-l")
    p.add_argument("--shifts-m")
    p.add_argument("--shifts-b")
    p.add_argument("--shifts-bp")
    p.add_argument("--primes")
    p.set_defaults(func=_cmd_verify_triangle)

    p = sub.add_parser("verify-an", help="exhaustive type-A verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-pairs", type=int, default=None)
    p.set_defaults(func=_cmd_verify_an)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except (InputError, DimensionError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (
        ConsistencyError,
        NonPolynomialCountError,
        LaurentDivisionError,
        ResourceLimitError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MATH


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
