"""Command-line front end: one subcommand per pipeline, all listed in `COMMANDS`.

Exit codes: 0 success (a reader that closes stdout early included), 2
input error (a flag the subcommand does not read included), 3
enumeration-cap error, 64 unknown subcommand.  Diagnostics go
to stderr; results go to stdout as JSON (the default) or, where the
subcommand has a text form, `--output text`.  All outputs are deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import jsonio
from .config import Budget
from .errors import InputError, SizeGuardError, TropidealError
from .groebner import (groebner_complex, nullstellensatz, tropical_basis,
                       variety)
from .ideals import (check_compatibility, compare, contains, initial_ideal,
                     nonrealizable_ideal, point_ideal, tropicalize)
from .matroids import check_valuated_exchange, circuits
from .polynomials import least_coefficients, tropical_roots
from .semiring import Trop


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise InputError("malformed JSON in %s: %s" % (path, exc))


def _inline_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError("malformed inline JSON: %s" % (exc,))


def _emit(obj, output: str, text_renderer=None):
    """Print obj as text when asked and the renderer gives some, else as JSON."""
    text = text_renderer(obj) if output == "text" and text_renderer is not None else None
    print(json.dumps(obj, indent=2, sort_keys=True) if text is None else text)


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


# Handlers: parsed arguments -> output object.  They call the library by its
# module-global names at run time, so rebinding a name here reaches them all.

def _check_matroid(args):
    M = jsonio.vmatroid_from_json(_read_json(args.matroid))
    witness = check_valuated_exchange(M, Budget(args.cap))
    if witness is None:
        return {"ok": True}
    A, B, a = witness
    return {"ok": False,
            "witness": {"A": sorted(map(str, A)), "B": sorted(map(str, B)), "a": str(a)}}


def _circuits(args):
    M = jsonio.vmatroid_from_json(_read_json(args.matroid))
    out = [[str(c) for c in H] for H in circuits(M, Budget(args.cap))]
    return {"ground": [str(e) for e in M.ground], "circuits": out}


def _tropicalize(args):
    inp = jsonio.classical_input_from_json(_read_json(args.input))
    return jsonio.ideal_to_json(tropicalize(inp, args.degree, Budget(args.cap)))


def _point_ideal(args):
    point = jsonio.weight_from_json(_inline_json(args.point))
    return jsonio.ideal_to_json(point_ideal(point, args.degree, Budget(args.cap)))


def _nonrealizable(args):
    return jsonio.ideal_to_json(nonrealizable_ideal(args.n, args.degree, Budget(args.cap)))


def _compatibility(args):
    witness = check_compatibility(_load_ideal(args), Budget(args.cap))
    if witness is None:
        return {"ok": True}
    return {"ok": False, "witness": {
        "degree": witness.degree, "variable": witness.variable,
        "U": [jsonio._ground_label(u) for u in witness.U],
        "V": [jsonio._ground_label(v) for v in witness.V]}}


def _hilbert(args):
    return {"degree": args.degree, "hilbert": _load_ideal(args).hilbert(args.degree)}


def _contains(args):
    I = _load_ideal(args)
    f = jsonio.poly_from_json(_inline_json(args.poly))
    return {"contains": contains(I, f, Budget(args.cap))}


def _initial(args):
    I = _load_ideal(args)
    w = jsonio.weight_from_json(_inline_json(args.weight))
    return jsonio.ideal_to_json(initial_ideal(I, w))


def _groebner_complex(args):
    G = groebner_complex(_load_ideal(args), Budget(args.cap))
    return jsonio.groebner_complex_to_json(G, verbose=args.verbose)


def _variety(args):
    V = variety(groebner_complex(_load_ideal(args), Budget(args.cap)), args.presentation)
    return jsonio.variety_to_json(V, verbose=args.verbose)


def _tropical_basis(args):
    polys = tropical_basis(groebner_complex(_load_ideal(args), Budget(args.cap)))
    return {"basis": [jsonio.poly_to_json(f) for f in polys]}


def _nullstellensatz(args):
    return jsonio.certificate_to_json(nullstellensatz(_load_ideal(args), Budget(args.cap)))


def _factor_univariate(args):
    f = jsonio.poly_from_json(_inline_json(args.poly))
    least = least_coefficients(f, Budget(args.cap))
    roots = tropical_roots(f)
    return {"roots": [[str(Trop(r)), m] for r, m in roots],
            "x_power": f.min_support_degree(),
            "leading": str(f.coeff((f.degree(),))),
            "least_coefficients": jsonio.poly_to_json(least)}


def _compare(args):
    I = _load_ideal(args)
    J = jsonio.ideal_from_json(_read_json(args.other))
    return dataclasses.asdict(compare(I, J, Budget(args.cap)))


# How each flag parses; a flag not listed is a required string.
_INT = {"type": int, "required": True}
FLAGS = {"--n": _INT, "--degree": _INT,
         "--presentation": {"choices": ("affine", "projective"), "default": "projective"},
         "--cap": {"type": int, "default": None},
         "--verbose": {"action": "store_true"}}

# name -> (flags it reads, handler, text renderer or None).  A subcommand with
# a text renderer also reads --output; a renderer returning None falls back to JSON.
COMMANDS = {
    "check-matroid": (("--matroid", "--cap"), _check_matroid,
                      lambda o: "ok" if o["ok"] else "violation: %s" % (o["witness"],)),
    "circuits": (("--matroid", "--cap"), _circuits, None),
    "tropicalize": (("--input", "--degree", "--cap"), _tropicalize, None),
    "point-ideal": (("--point", "--degree", "--cap"), _point_ideal, None),
    "nonrealizable": (("--n", "--degree", "--cap"), _nonrealizable, None),
    "compatibility": (("--ideal", "--cap"), _compatibility,
                      lambda o: "ok" if o["ok"] else None),
    "hilbert": (("--ideal", "--degree"), _hilbert, lambda o: str(o["hilbert"])),
    "contains": (("--ideal", "--poly", "--cap"), _contains,
                 lambda o: str(o["contains"]).lower()),
    "initial": (("--ideal", "--weight"), _initial, None),
    "groebner-complex": (("--ideal", "--cap", "--verbose"), _groebner_complex, _complex_text),
    "variety": (("--ideal", "--presentation", "--cap", "--verbose"), _variety, _complex_text),
    "tropical-basis": (("--ideal", "--cap"), _tropical_basis, None),
    "nullstellensatz": (("--ideal", "--cap"), _nullstellensatz,
                        lambda o: o["kind"] + (" degree=%d" % o["degree"] if "degree" in o else "")),
    "factor-univariate": (("--poly", "--cap"), _factor_univariate, None),
    "compare": (("--ideal", "--other", "--cap"), _compare, lambda o: o["relation"]),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: tropideal <subcommand> [options]\nsubcommands: %s"
              % ", ".join(COMMANDS))
        return 0 if argv else 64
    name = argv[0]
    if name not in COMMANDS:
        sys.stderr.write("unknown subcommand %r\nusage: tropideal <subcommand>; "
                         "one of: %s\n" % (name, ", ".join(COMMANDS)))
        return 64
    flags, handler, text = COMMANDS[name]
    parser = argparse.ArgumentParser(prog="tropideal %s" % name)
    if text is not None:
        parser.add_argument("--output", choices=("json", "text"), default="json")
    for flag in flags:
        parser.add_argument(flag, **FLAGS.get(flag, {"required": True}))
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        _emit(handler(args), getattr(args, "output", "json"), text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; devnull takes the flush at exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except SizeGuardError as exc:
        sys.stderr.write("size guard: %s\n" % (exc,))
        return 3
    except TropidealError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
