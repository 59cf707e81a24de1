"""Command-line front end: one subcommand per pipeline.

Exit codes: 0 success, 2 input error, 3 enumeration-cap error, 64 unknown
subcommand.  Diagnostics go to stderr; results go to stdout as JSON (the
default) or text.  All outputs are deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .errors import InputError, SizeGuardError, TropidealError
from .groebner import (groebner_complex, nullstellensatz, tropical_basis,
                       variety)
from .ideals import (check_compatibility, compare, contains, initial_ideal,
                     nonrealizable_ideal, point_ideal, tropicalize)
from .matroids import check_valuated_exchange, circuits
from .polynomials import least_coefficients, tropical_roots
from .semiring import Trop

SUBCOMMANDS = (
    "check-matroid", "circuits", "tropicalize", "point-ideal", "nonrealizable",
    "compatibility", "hilbert", "contains", "initial", "groebner-complex",
    "variety", "tropical-basis", "nullstellensatz", "factor-univariate",
    "compare",
)


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON in %s: %s" % (path, exc))
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))


def _inline_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("malformed inline JSON: %s" % (exc,))


def _emit(obj, output: str, text_renderer=None):
    if output == "text" and text_renderer is not None:
        print(text_renderer(obj))
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _common(parser: argparse.ArgumentParser):
    parser.add_argument("--output", choices=("json", "text"), default="json")
    parser.add_argument("--cap", type=int, default=None)
    parser.add_argument("--verbose", action="store_true")


def _load_ideal(args):
    return jsonio.ideal_from_json(_read_json(args.ideal))


def _complex_text(obj) -> str:
    lines = []
    for stratum in obj.get("strata", []):
        lines.append("sigma=%s" % (stratum["sigma"],))
        for cell in stratum["cells"]:
            lines.append("  cell dim=%s label=%s" % (cell["dim"], cell["label"]))
            for row in cell["eq"]:
                lines.append("    %s = %s" % (" ".join(row[:-1]), row[-1]))
            for row in cell["ineq"]:
                lines.append("    %s <= %s" % (" ".join(row[:-1]), row[-1]))
            extra = [k for k in ("fingerprint", "in_variety") if k in cell]
            if extra:
                lines.append("    " + " ".join("%s=%s" % (k, cell[k]) for k in extra))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: tropideal <subcommand> [options]\nsubcommands: %s"
              % ", ".join(SUBCOMMANDS))
        return 0 if argv else 64
    name = argv[0]
    if name not in SUBCOMMANDS:
        sys.stderr.write("unknown subcommand %r\nusage: tropideal <subcommand>; "
                         "one of: %s\n" % (name, ", ".join(SUBCOMMANDS)))
        return 64
    parser = argparse.ArgumentParser(prog="tropideal %s" % name)
    _common(parser)
    if name in ("check-matroid", "circuits"):
        parser.add_argument("--matroid", required=True)
    if name in ("compatibility", "hilbert", "contains", "initial", "groebner-complex",
                "variety", "tropical-basis", "nullstellensatz", "compare"):
        parser.add_argument("--ideal", required=True)
    if name == "tropicalize":
        parser.add_argument("--input", required=True)
        parser.add_argument("--degree", type=int, required=True)
    if name == "point-ideal":
        parser.add_argument("--point", required=True)
        parser.add_argument("--degree", type=int, required=True)
    if name == "nonrealizable":
        parser.add_argument("--n", type=int, required=True)
        parser.add_argument("--degree", type=int, required=True)
    if name == "hilbert":
        parser.add_argument("--degree", type=int, required=True)
    if name == "contains":
        parser.add_argument("--poly", required=True)
    if name == "initial":
        parser.add_argument("--weight", required=True)
    if name == "variety":
        parser.add_argument("--presentation", choices=("affine", "projective"),
                            default="projective")
    if name == "factor-univariate":
        parser.add_argument("--poly", required=True)
    if name == "compare":
        parser.add_argument("--other", required=True)

    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        return _dispatch(name, args)
    except SizeGuardError as exc:
        sys.stderr.write("size guard: %s\n" % (exc,))
        return 3
    except TropidealError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


def _dispatch(name: str, args) -> int:
    cap, fmt = args.cap, args.output
    if name == "check-matroid":
        M = jsonio.vmatroid_from_json(_read_json(args.matroid))
        witness = check_valuated_exchange(M, cap=cap)
        if witness is None:
            _emit({"ok": True}, fmt, lambda o: "ok")
        else:
            A, B, a = witness
            _emit({"ok": False,
                   "witness": {"A": sorted(map(str, A)), "B": sorted(map(str, B)),
                               "a": str(a)}},
                  fmt, lambda o: "violation: %s" % (o["witness"],))
        return 0

    if name == "circuits":
        M = jsonio.vmatroid_from_json(_read_json(args.matroid))
        out = [[str(c) for c in H] for H in circuits(M, cap=cap)]
        _emit({"ground": [str(e) for e in M.ground], "circuits": out}, fmt)
        return 0

    if name == "tropicalize":
        inp = jsonio.classical_input_from_json(_read_json(args.input))
        I = tropicalize(inp, args.degree, cap=cap)
        _emit(jsonio.ideal_to_json(I), fmt)
        return 0

    if name == "point-ideal":
        point = jsonio.weight_from_json(_inline_json(args.point))
        I = point_ideal(point, args.degree, cap=cap)
        _emit(jsonio.ideal_to_json(I), fmt)
        return 0

    if name == "nonrealizable":
        I = nonrealizable_ideal(args.n, args.degree, cap=cap)
        _emit(jsonio.ideal_to_json(I), fmt)
        return 0

    if name == "compatibility":
        I = _load_ideal(args)
        witness = check_compatibility(I, cap=cap)
        if witness is None:
            _emit({"ok": True}, fmt, lambda o: "ok")
        else:
            _emit({"ok": False, "witness": {
                "degree": witness.degree, "variable": witness.variable,
                "U": [jsonio._ground_label(u) for u in witness.U],
                "V": [jsonio._ground_label(v) for v in witness.V]}}, fmt)
        return 0

    if name == "hilbert":
        I = _load_ideal(args)
        value = I.hilbert(args.degree)
        _emit({"degree": args.degree, "hilbert": value}, fmt,
              lambda o: str(o["hilbert"]))
        return 0

    if name == "contains":
        I = _load_ideal(args)
        f = jsonio.poly_from_json(_inline_json(args.poly))
        _emit({"contains": contains(I, f, cap=cap)}, fmt,
              lambda o: str(o["contains"]).lower())
        return 0

    if name == "initial":
        I = _load_ideal(args)
        w = jsonio.weight_from_json(_inline_json(args.weight))
        _emit(jsonio.ideal_to_json(initial_ideal(I, w)), fmt)
        return 0

    if name == "groebner-complex":
        I = _load_ideal(args)
        G = groebner_complex(I, cap=cap)
        _emit(jsonio.groebner_complex_to_json(G, verbose=args.verbose), fmt, _complex_text)
        return 0

    if name == "variety":
        I = _load_ideal(args)
        V = variety(I, args.presentation, cap=cap)
        _emit(jsonio.variety_to_json(V, verbose=args.verbose), fmt, _complex_text)
        return 0

    if name == "tropical-basis":
        I = _load_ideal(args)
        polys = tropical_basis(I, cap=cap)
        _emit({"basis": [jsonio.poly_to_json(f) for f in polys]}, fmt)
        return 0

    if name == "nullstellensatz":
        I = _load_ideal(args)
        cert = nullstellensatz(I, cap=cap)
        _emit(jsonio.certificate_to_json(cert), fmt,
              lambda o: o["kind"] + ("" if "degree" not in o else " degree=%d" % o["degree"]))
        return 0

    if name == "factor-univariate":
        f = jsonio.poly_from_json(_inline_json(args.poly))
        roots = tropical_roots(f)
        least = least_coefficients(f)
        low = f.min_support_degree()
        _emit({"roots": [[str(Trop(r)), m] for r, m in roots],
               "x_power": low,
               "leading": str(f.coeff((f.degree(),))),
               "least_coefficients": jsonio.poly_to_json(least)}, fmt)
        return 0

    if name == "compare":
        I = _load_ideal(args)
        J = jsonio.ideal_from_json(_read_json(args.other))
        report = compare(I, J, cap=cap)
        _emit({"relation": report.relation,
               "hilbert_left": list(report.hilbert_left),
               "hilbert_right": list(report.hilbert_right),
               "equal_through_degree": report.equal_through_degree,
               "first_difference": report.first_difference}, fmt,
              lambda o: o["relation"])
        return 0

    raise InputError("unhandled subcommand %r" % (name,))


if __name__ == "__main__":
    sys.exit(main())
