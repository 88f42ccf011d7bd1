"""Command-line front end for verification and decomposition runs.

Subcommands: gen, verify, bracket, res, decompose, dims, coeff.  All
numeric output is exact (p/q); identical invocations produce identical
output.  Exit codes: 0 all checks passed, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .rationals import rat_str
from .ratfun import RationalFunction
from .series import DepthSeries
from . import anatomy, dsh_check, gens, modforms, resflt


def emit(value, fmt):
    """Serialize a result value as canonical text or JSON."""
    if fmt == "json":
        if hasattr(value, "to_json_dict"):
            return json.dumps(value.to_json_dict(), sort_keys=True)
        return json.dumps(value, sort_keys=True)
    if isinstance(value, RationalFunction):
        return value.text()
    if isinstance(value, DepthSeries):
        return "\n".join("depth %d: %s" % (d, f.text())
                         for d, f in sorted(value.components.items())) or "0"
    if hasattr(value, "text"):
        return value.text()
    return str(value)


def _load_series(path):
    with open(path) as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError("%s is not a DepthSeries JSON file (nested too "
                             "deeply)" % path) from None
    try:
        return DepthSeries.from_json_dict(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError("%s is not a DepthSeries JSON file (%s: %s)"
                         % (path, type(exc).__name__, exc))


def _require_at_least(option, value, low):
    if value < low:
        raise ValueError("%s must be at least %d, got %d" % (option, low, value))


GENERATOR_HELP = ("generator name: psi-1, psi0, psi3, psi5, .., chi-1, "
                  "chi3, .., z3, Q4, sd:D, cn:N, mono:K")


def cmd_gen(args):
    if args.kind in ("psi", "chi"):
        _require_at_least("--depth", args.depth, 1)
        series = gens.generator("%s%d" % (args.kind, args.weight), args.depth)
    elif args.kind == "sd":
        series = gens.generator("sd:%d" % args.d, args.d)
    elif args.kind == "vine":
        _require_at_least("--n", args.n, 1)
        vines = gens.enumerate_vines(args.n)
        if args.format == "json":
            data = [{"composition": list(v.composition),
                     "height": v.height,
                     "x_T": gens.vine_poly(v).text()} for v in vines]
            print(json.dumps(data, sort_keys=True))
        else:
            for v in vines:
                print("g%s  height %d  x_T = %s" % (
                    "".join(str(i) for i in v.composition), v.height,
                    gens.vine_poly(v).text()))
        return 0
    else:  # pragma: no cover
        raise AssertionError
    print(emit(series, args.format))
    return 0


def cmd_verify(args):
    # the first double shuffle equations sit in depth 2
    _require_at_least("--max-depth", args.max_depth, 2)
    series = gens.generator(args.gen, args.max_depth)
    reports = dsh_check.is_in_pdmr(series, args.max_depth)
    reports.sort(key=lambda r: (r.indices, r.family))
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports],
                         sort_keys=True))
    else:
        for r in reports:
            print("%-10s %-8s %s" % (r.family, r.indices,
                                     "pass" if r.passed else "FAIL"))
    print(dsh_check.summary_line(reports))
    return 0 if dsh_check.all_pass(reports) else 1


def cmd_bracket(args):
    # the bracket of two generators starts in depth 2
    _require_at_least("--max-depth", args.max_depth, 2)
    left = gens.generator(args.f, args.max_depth)
    right = gens.generator(args.g, args.max_depth)
    from .series import series_ihara_bracket
    print(emit(series_ihara_bracket(left, right), args.format))
    return 0


def cmd_res(args):
    _require_at_least("--iterate", args.iterate, 0)
    series = _load_series(args.element)
    comp = series.component(args.depth)
    out = resflt.iterated_R(comp, args.iterate)
    print(emit(out, args.format))
    return 0


def cmd_decompose(args):
    expr = anatomy.solve_sigma(args.weight, args.max_depth,
                               basis=args.basis)
    if args.format == "json":
        print(json.dumps(expr.to_json_dict(), sort_keys=True))
    else:
        print(expr.text())
        if expr.kernel_dim:
            print("kernel dimension: %d (free coefficients pinned to zero)"
                  % expr.kernel_dim)
    return 0


DIM_SPACES = ("ls1", "ls2", "ls3", "ls4", "Pe", "Po", "C2")


def _dims_row(space, w):
    if space == "ls1":
        return modforms.ls_dimension(1, w) if w >= 2 else 0
    if space.startswith("ls"):
        return modforms.ls_dimension(int(space[2:]), w)
    if space == "Pe":
        return len(modforms.period_space(w, "even"))
    if space == "Po":
        return len(modforms.period_space(w, "odd"))
    if space == "C2":
        return len(modforms.c2_space(w))
    raise ValueError(space)


def cmd_dims(args):
    _require_at_least("--max-weight", args.max_weight, args.min_weight)
    rows = []
    for w in range(args.min_weight, args.max_weight + 1):
        rows.append((w, _dims_row(args.space, w)))
    if args.format == "json":
        print(json.dumps({"space": args.space,
                          "dims": {str(w): d for w, d in rows}},
                         sort_keys=True))
    else:
        print("weight  dim(%s)" % args.space)
        for w, d in rows:
            print("%6d  %d" % (w, d))
    return 0


def cmd_coeff(args):
    word = tuple(int(x) for x in args.word.split(","))
    expr = anatomy.solve_sigma(args.weight, args.max_depth)
    series = anatomy.evaluate(expr, len(word))
    value = anatomy.coefficient_of_word(series, word)
    if args.format == "json":
        print(json.dumps({"weight": args.weight, "word": list(word),
                          "coeff": rat_str(value)}, sort_keys=True))
    else:
        print(rat_str(value))
    return 0


FORMATS = ("text", "json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dshuffle",
        description="Exact double shuffle calculus with poles")
    parser.add_argument("--format", choices=FORMATS, default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a generator")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("psi")
    g.add_argument("--weight", type=int, required=True)
    g.add_argument("--depth", type=int, required=True)
    g = gsub.add_parser("chi")
    g.add_argument("--weight", type=int, required=True)
    g.add_argument("--depth", type=int, required=True)
    g = gsub.add_parser("sd")
    g.add_argument("--d", type=int, required=True)
    g = gsub.add_parser("vine")
    g.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="double shuffle membership")
    p.add_argument("--gen", required=True, help=GENERATOR_HELP)
    p.add_argument("--max-depth", type=int, default=4)

    p = sub.add_parser("bracket", help="Ihara bracket of two generators")
    p.add_argument("--f", required=True, help=GENERATOR_HELP)
    p.add_argument("--g", required=True, help=GENERATOR_HELP)
    p.add_argument("--max-depth", type=int, default=4)

    p = sub.add_parser("res", help="iterated residue of a component")
    p.add_argument("--element", required=True, help="DepthSeries JSON file")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--iterate", type=int, default=1)

    p = sub.add_parser("decompose", help="anatomical decomposition")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--basis", choices=("psi", "chi"), default="psi")

    p = sub.add_parser("dims", help="dimension tables")
    p.add_argument("--space", choices=DIM_SPACES, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--min-weight", type=int, default=1)

    p = sub.add_parser("coeff", help="word coefficient of a solved element")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--word", required=True, help="comma-separated, e.g. 5,2,2")
    p.add_argument("--max-depth", type=int, default=4)

    # --format is accepted after the subcommand too
    for p in list(sub.choices.values()) + list(gsub.choices.values()):
        p.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS)
    return parser


COMMANDS = {
    "gen": cmd_gen,
    "verify": cmd_verify,
    "bracket": cmd_bracket,
    "res": cmd_res,
    "decompose": cmd_decompose,
    "dims": cmd_dims,
    "coeff": cmd_coeff,
}


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():  # pragma: no cover
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
