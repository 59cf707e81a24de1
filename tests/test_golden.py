"""Golden corpus: byte-identical stdout and exit codes of small CLI runs.

Each case runs `tropideal.cli.main(argv)` in process.  The expected stdout
of case NAME is `tests/golden/NAME.out`; the inputs live in
`tests/golden/inputs/`.  After a change that is meant to alter output,
re-record with `PYTHONPATH=src python tests/test_golden.py --record` and
review the diff of the `.out` files.  `--record NAME...` records only the
named cases, so adding a case never rewrites an existing `.out`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tropideal import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"


def _inp(name: str) -> str:
    return str(INPUTS / name)


def _terms(*pairs) -> str:
    return json.dumps({"vars": len(pairs[0][0]),
                       "terms": [{"exp": list(u), "coeff": c} for u, c in pairs]})


# name -> (argv, exit code)
CASES = {
    "point-ideal-inf": (["point-ideal", "--point", '["0", "3/2", "inf"]', "--degree", "2"], 0),
    "initial-point": (["initial", "--ideal", _inp("point.json"),
                       "--weight", '["0", "1", "2"]'], 0),
    "initial-tower-inf": (["initial", "--ideal", _inp("tower.json"),
                           "--weight", '["0", "inf", "1/2"]'], 0),
    "factor-univariate": (["factor-univariate", "--poly",
                           _terms(((3,), "0"), ((2,), "1"), ((1,), "-1/2"), ((0,), "4"))], 0),
    "variety-affine": (["variety", "--ideal", _inp("tower.json"),
                        "--presentation", "affine"], 0),
    "groebner-complex-text": (["groebner-complex", "--ideal", _inp("point.json"),
                               "--output", "text"], 0),
    "check-matroid-violation": (["check-matroid", "--matroid", _inp("violating.json")], 0),
    "check-matroid-stiefel-scan": (["check-matroid", "--matroid",
                                    _inp("stiefel_u3_16.json")], 0),
    "check-matroid-tower-layer": (["check-matroid", "--matroid",
                                   _inp("tower_d3_layer3.json")], 0),
    "check-matroid-tower-planted": (["check-matroid", "--matroid",
                                     _inp("tower_d3_layer3_planted.json")], 0),
    "circuits": (["circuits", "--matroid", _inp("uniform.json")], 0),
    "circuits-tower-layer": (["circuits", "--matroid", _inp("tower_d3_layer3.json")], 0),
    "circuits-mixed-denominators": (["circuits", "--matroid",
                                     _inp("mixed_denominators.json")], 0),
    "check-matroid-mixed-denominators": (["check-matroid", "--matroid",
                                          _inp("mixed_denominators.json")], 0),
    "compatibility-failing": (["compatibility", "--ideal", _inp("incompatible.json")], 0),
    "tropicalize-padic": (["tropicalize", "--input", _inp("padic.json"), "--degree", "2"], 0),
    "tropicalize-trivial": (["tropicalize", "--input", _inp("trivial.json"),
                             "--degree", "2"], 0),
    "tropicalize-example27-g-d4": (["tropicalize", "--input", _inp("example27_g.json"),
                                    "--degree", "4"], 0),
    "tropicalize-padic-d3": (["tropicalize", "--input", _inp("padic.json"), "--degree", "3"], 0),
    "variety-example27-g-d4": (["variety", "--ideal", _inp("example27_g_d4.json")], 0),
    "variety-tower-d3": (["variety", "--verbose", "--ideal", _inp("tower_d3.json")], 0),
    "variety-point-d4": (["variety", "--verbose", "--ideal", _inp("point_d4.json")], 0),
    "groebner-complex-padic-d3": (["groebner-complex", "--ideal", _inp("padic_d3.json")], 0),
    "groebner-complex-point-inf-d4": (["groebner-complex", "--ideal", _inp("point_inf_d4.json"),
                                       "--verbose"], 0),
    "groebner-complex-tower-d3": (["groebner-complex", "--ideal", _inp("tower_d3.json"),
                                   "--verbose"], 0),
    "groebner-complex-point-d4": (["groebner-complex", "--ideal", _inp("point_d4.json"),
                                   "--verbose"], 0),
    "groebner-complex-example27-g-d4": (["groebner-complex", "--ideal",
                                         _inp("example27_g_d4.json"), "--verbose"], 0),
    "tropicalize-not-prime": (["tropicalize", "--input", _inp("not_prime.json"),
                               "--degree", "1"], 2),
    "hilbert-text": (["hilbert", "--ideal", _inp("tower.json"), "--degree", "2",
                      "--output", "text"], 0),
    "contains-line": (["contains", "--ideal", _inp("tower.json"), "--poly",
                       _terms(((1, 0, 0), "0"), ((0, 1, 0), "0"), ((0, 0, 1), "0"))], 0),
    "tropical-basis-tower": (["tropical-basis", "--ideal", _inp("tower.json")], 0),
    "tropical-basis-point-inf-d4": (["tropical-basis", "--ideal", _inp("point_inf_d4.json")], 0),
    "tropical-basis-padic-d3": (["tropical-basis", "--ideal", _inp("padic_d3.json")], 0),
    "nullstellensatz-text": (["nullstellensatz", "--ideal", _inp("point.json"),
                              "--output", "text"], 0),
    "nullstellensatz-point-inf-d4": (["nullstellensatz", "--ideal", _inp("point_inf_d4.json")], 0),
    "compare-tower-point": (["compare", "--ideal", _inp("tower.json"),
                             "--other", _inp("point.json")], 0),
    "nonrealizable-n2-d3": (["nonrealizable", "--n", "2", "--degree", "3"], 0),
    "cap-refusal": (["nonrealizable", "--n", "2", "--degree", "3", "--cap", "100"], 3),
    "unknown-subcommand": (["frobnicate", "--ideal", _inp("point.json")], 64),
}


def run_case(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    argv, expected_code = CASES[name]
    code, out = run_case(argv)
    assert code == expected_code
    assert out.encode() == (GOLDEN / (name + ".out")).read_bytes()


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record [NAME...]")
    names = sys.argv[2:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit("unknown case: %s" % ", ".join(unknown))
    for name in names:
        argv, expected_code = CASES[name]
        code, out = run_case(argv)
        if code != expected_code:
            sys.exit("%s: exit %d, expected %d" % (name, code, expected_code))
        (GOLDEN / (name + ".out")).write_bytes(out.encode())
        print("recorded", name)
