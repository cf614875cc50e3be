"""Batch command-line interface.

Plain deterministic text on stdout, diagnostics on stderr.  Exit codes:
0 all requested checks pass; 1 a verification failed; 2 file, format or
argument problems (`InputError`, `OSError`); 3 any other package error:
mathematical consistency violations and exhausted resource caps.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import laurent
from .character import CCObject, cc_value, verify_triangle
from .errors import ClusterCharError, InputError
from .forms import antisym_form_matrix, indices
from .grassmannian import counting_polynomial, degree_bound
from .modules import injective, load_module_file, projective
from .mutation import (
    DEFAULT_SEED_CAP,
    enumerate_cluster_variables,
    initial_seed,
    load_matrix_file,
    mutate_seed,
)
from .polygon import verify_an
from .quiver import ascii_int, load_algebra_file

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
        return [ascii_int(t.strip()) for t in text.split(",")]
    except ValueError:
        raise InputError("expected a comma-separated integer list, got %r" % text)


def _load_object(path, algebra, shifts_text) -> CCObject:
    module = load_module_file(path, algebra)
    return CCObject(module, _parse_shifts(algebra, shifts_text))


def _cmd_algebra(args) -> int:
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
    value = cc_value(obj)
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
    module = load_module_file(args.module, algebra)
    shifts = _parse_shifts(algebra, args.shifts)
    ind, coind = indices(module)
    # a shifted summand contributes -[P_i] to both (its own index/coindex)
    ind = tuple(x - s for x, s in zip(ind, shifts))
    coind = tuple(x - s for x, s in zip(coind, shifts))
    labels = algebra.quiver.vertices
    print("ind = %s" % _render_k0(ind, labels))
    print("coind = %s" % _render_k0(coind, labels))
    return EXIT_OK


def _cmd_grassmannian(args) -> int:
    algebra = load_algebra_file(args.algebra)
    module = load_module_file(args.module, algebra)
    e = tuple(_parse_int_list(args.dim))
    poly = counting_polynomial(module, e)
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
    report = verify_triangle(l, m, b, bp)
    print(report.render(_var_names(algebra)))
    return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED


def _cmd_verify_an(args) -> int:
    report = verify_an(args.n)
    for line in report.lines:
        print(line)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED


_SHIFTS_HELP = "comma list of vertex labels (repeat = multiplicity)"
_MAX_SEEDS_HELP = (
    "exit 3 once more than N seeds are visited: the initial seed and "
    "every mutation result, revisits of a cluster included; a matrix with "
    "an entry of absolute value 2 or more, or an acyclic one that is not "
    "Dynkin, is infinite type and exits 3 at once"
)

# subcommand -> (help, handler, its add_argument calls as (names, options))
_COMMANDS = {
    "algebra": ("inspect an algebra file", _cmd_algebra, [
        (("action",), {"choices": ["check"]}),
        (("algebra",), {}),
    ]),
    "xvalue": ("character value of a module file", _cmd_xvalue, [
        (("algebra",), {}),
        (("module",), {}),
        (("--shifts",), {"help": _SHIFTS_HELP}),
    ]),
    "form-matrix": ("antisymmetrized form on the simples", _cmd_form_matrix, [
        (("algebra",), {}),
    ]),
    "index": ("index and coindex of a module file", _cmd_index, [
        (("algebra",), {}),
        (("module",), {}),
        (("--shifts",), {"help": _SHIFTS_HELP}),
    ]),
    "grassmannian": ("counting polynomial and chi", _cmd_grassmannian, [
        (("algebra",), {}),
        (("module",), {}),
        (("--dim",), {"required": True, "help": "submodule dimension vector e1,e2,..."}),
    ]),
    "mutate": ("mutate the initial seed of a matrix file", _cmd_mutate, [
        (("matrix",), {}),
        (("--seq",), {"required": True, "help": "1-based mutation directions k1,k2,..."}),
    ]),
    "enumerate": ("breadth-first cluster-variable enumeration", _cmd_enumerate, [
        (("matrix",), {}),
        (("--max-seeds",), {"type": ascii_int, "default": DEFAULT_SEED_CAP, "metavar": "N",
                            "help": _MAX_SEEDS_HELP}),
    ]),
    "verify-triangle": ("check X_L X_M = X_B + X_B'", _cmd_verify_triangle, [
        (("algebra",), {}),
        (("left",), {}),
        (("middle",), {}),
        (("b",), {}),
        (("b_prime",), {}),
        (("--shifts-l",), {}),
        (("--shifts-m",), {}),
        (("--shifts-b",), {}),
        (("--shifts-bp",), {}),
    ]),
    "verify-an": ("exhaustive type-A verification", _cmd_verify_an, [
        (("--n",), {"type": ascii_int, "required": True}),
    ]),
}


def _add_arguments(parser, name: str) -> None:
    _, func, arguments = _COMMANDS[name]
    for names, options in arguments:
        parser.add_argument(*names, **options)
    parser.set_defaults(func=func)


def build_parser():
    """The argument parser with every subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="clusterchar",
        description="cluster characters over quiver algebras, with oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _plain_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` gives for a plain
    ``argv``, read straight from `_COMMANDS`; None for any other.

    Plain is a subcommand's name, then its positionals and its options in
    any order: each option by its exact name and at most once, followed
    by its value; no positional or value starts with ``-``; every
    positional and required option is there, and every value passes its
    ``type`` and ``choices``.  Help, ``--``, ``=``-joined or abbreviated
    options, values such as ``-1`` and every error are argparse's.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    positionals, options = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        value = next(tokens, "-")  # an option last in argv has no value
        if token in options or value.startswith("-"):
            return None
        options[token] = value
    texts = iter(positionals)
    values = {"command": argv[0], "func": func}
    for (name,), spec in arguments:
        optional = name.startswith("-")
        text = options.pop(name, None) if optional else next(texts, None)
        dest = name.lstrip("-").replace("-", "_")
        if text is None:
            if not optional or spec.get("required"):
                return None
            values[dest] = spec.get("default")
            continue
        try:
            value = spec.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    if options or next(texts, None) is not None:
        return None
    return SimpleNamespace(**values)


def parse_args(argv):
    """``build_parser().parse_args(argv)``, building no parser for a
    plain ``argv`` (`_plain_args`) and one, not ten, for most others.

    A call naming a subcommand parses the rest of ``argv`` with that
    subcommand's parser alone, which is what the full parser hands it:
    help, missing arguments and bad values are that parser's to report.
    Only arguments left over, and an ``argv`` without a subcommand, take
    the full parser, whose usage line lists every subcommand.  argparse
    is imported only off the plain path.
    """
    argv = list(argv)
    args = _plain_args(argv)
    if args is not None:
        return args
    import argparse

    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog="clusterchar " + argv[0])
        _add_arguments(parser, argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def run(argv) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ClusterCharError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MATH


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
