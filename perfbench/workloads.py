"""Seeded inputs, job lists and output checks of the tropideal benchmark.

A workload is a list of jobs.  Most jobs are one `tropideal` CLI call; a
job can save its stdout as the input of later jobs, exactly as a user
chaining the commands would.  Inputs are made from the seed by
`write_inputs`; `jobs` reads them back from the written files only, so the
program sees nothing but the generated JSON.

Run as a script, `python3 perfbench/workloads.py WORKLOAD SEED DIR` imports
tropideal and writes the inputs of one workload into DIR; run.py times that
process to report setup_s.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fan", "tower", "realizable")

# Trivially valued Example 2.7: g = (x+y+z)(xy+xz+yz) and g' = (x+y)(x+z)(y+z)
# agree through degree 3; f = trop(g'(x-y-z)) separates them in degree 4.
X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
EXAMPLE_G = ({X: 1, Y: 1, Z: 1}, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
EXAMPLE_GP = ({X: 1, Y: 1}, {X: 1, Z: 1}, {Y: 1, Z: 1})
WITNESS_EXTRA = {X: 1, Y: -1, Z: -1}

# Base of the seeded 5-adic input, a linear form and a quadric.  A seed acts on
# it by x_i -> u_i 5^(k_i) x_i with 5-adic units u_i, which translates the
# tropicalization by k: the seed moves coordinates, not the amount of work.
PADIC_BASE = ({X: 1, Y: -1}, {(0, 1, 1): 1, (2, 0, 0): 5, (0, 0, 2): 1})
PADIC_HILBERT = [1, 2, 2, 2]

TOWER_N, TOWER_D = 2, 4
BLOCK_SIZE, BLOCK_RANK = 12, 4


class CheckFailed(Exception):
    """A job's exit code or output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    """One timed unit of work.

    `argv` is a CLI call; `call` (taking no arguments, returning the text
    that stands for stdout) is a library call.  `check(stdout, stderr)`
    raises CheckFailed on a wrong output.  `after(stdout)` runs untimed
    and writes the files later jobs read.  A job with `known_defect` fails
    at the commit that defined the benchmark; its failure is counted but
    does not make the run incorrect, and it has no reference digest.
    """

    id: str
    argv: Optional[list] = None
    call: Optional[Callable[[], str]] = None
    exit: int = 0
    check: Optional[Callable[[str, str], None]] = None
    after: Optional[Callable[[str], None]] = None
    known_defect: Optional[str] = None


# Small exact polynomial helpers for generating inputs ------------------------------


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for u, c in a.items():
        for v, d in b.items():
            w = tuple(i + j for i, j in zip(u, v))
            out[w] = out.get(w, 0) + c * d
    return {u: c for u, c in out.items() if c != 0}


def _product(factors) -> dict:
    out = {(0, 0, 0): 1}
    for f in factors:
        out = _poly_mul(out, f)
    return out


def _qpoly_json(p: dict) -> dict:
    return {"vars": 3, "terms": [{"exp": list(u), "coeff": str(Fraction(c))}
                                 for u, c in sorted(p.items(), reverse=True)]}


def _classical_json(gens, valuation: dict) -> dict:
    return {"generators": [_qpoly_json(g) for g in gens], "valuation": valuation}


def _rational(rng: random.Random) -> str:
    return str(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))))


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True))


def _load(path: Path):
    return json.loads(path.read_text())


# Inputs ---------------------------------------------------------------------------


def write_inputs(workload: str, seed: int, work: Path) -> None:
    """Write the seeded inputs of one workload into the directory `work`."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "fan":
        points = {"d%d" % D: {"degree": D, "point": [_rational(rng) for _ in range(3)]}
                  for D in (2, 3, 4)}
        boundary = [_rational(rng) for _ in range(3)]
        boundary[rng.randrange(3)] = "inf"
        points["b3"] = {"degree": 3, "point": boundary}
        _dump(work / "points.json", points)
    elif workload == "tower":
        ground = ["e%d" % i for i in range(2 * BLOCK_SIZE)]
        order = list(range(len(ground)))
        rng.shuffle(order)
        blocks = (sorted(order[:BLOCK_SIZE]), sorted(order[BLOCK_SIZE:]))
        bases = sorted(list(S) for block in blocks
                       for S in itertools.combinations(block, BLOCK_RANK))
        _dump(work / "blocks.json", {"ground": ground, "rank": BLOCK_RANK,
                                     "valuation": [{"set": S, "val": "0"} for S in bases]})
    elif workload == "realizable":
        trivial = {"type": "trivial"}
        _dump(work / "g.json", _classical_json([_product(EXAMPLE_G)], trivial))
        _dump(work / "gp.json", _classical_json([_product(EXAMPLE_GP)], trivial))
        f = _poly_mul(_product(EXAMPLE_GP), WITNESS_EXTRA)
        _dump(work / "witness.json", {"vars": 3, "terms": [
            {"exp": list(u), "coeff": "0"} for u in sorted(f, reverse=True)]})
        units = [u for u in range(1, 25) if u % 5]
        scale = [rng.choice(units) * rng.choice((1, -1)) * 5 ** rng.randrange(3)
                 for _ in range(3)]
        gens = []
        for base in PADIC_BASE:
            unit = rng.choice(units)
            gens.append({u: unit * c * scale[0] ** u[0] * scale[1] ** u[1] * scale[2] ** u[2]
                         for u, c in base.items()})
        _dump(work / "padic.json", _classical_json(gens, {"type": "padic", "p": 5}))
    else:
        raise ValueError("unknown workload %r" % (workload,))


# Checks ---------------------------------------------------------------------------


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed("stdout is not JSON: %s" % (exc,))


def _ranks(expected: list) -> Callable[[str, str], None]:
    def check(out, err):
        ranks = [layer["rank"] for layer in _json(out)["layers"]]
        expect(ranks == expected, "Hilbert values %s, expected %s" % (ranks, expected))
    return check


def _field(key: str, value) -> Callable[[str, str], None]:
    def check(out, err):
        got = _json(out).get(key)
        expect(got == value, "%s is %r, expected %r" % (key, got, value))
    return check


def _same_point(witness: list, point: list) -> bool:
    """Equal up to adding a multiple of the all-ones vector (projective equality)."""
    if [w == "inf" for w in witness] != [p == "inf" for p in point]:
        return False
    diffs = {Fraction(w) - Fraction(p) for w, p in zip(witness, point) if p != "inf"}
    return len(diffs) == 1


def _in_variety_cells(obj) -> list:
    return [(s["sigma"], c) for s in obj["strata"] for c in s["cells"] if c["in_variety"]]


def _point_cells(point: list, dim: int, projective: bool) -> Callable[[str, str], None]:
    """Exactly one in-variety cell outside the all-infinite stratum: the point itself."""
    sigma = [i for i, x in enumerate(point) if x == "inf"]

    def check(out, err):
        all_cells = _in_variety_cells(_json(out))
        cells = [(s, c) for s, c in all_cells if len(s) < len(point)]
        expect(len(cells) == 1, "%d in-variety cells, expected 1" % len(cells))
        s, c = cells[0]
        expect(s == sigma, "in-variety cell in stratum %s, expected %s" % (s, sigma))
        expect(c["dim"] == dim, "in-variety cell has dim %s, expected %d" % (c["dim"], dim))
        expect(_same_point(c["witness"], point),
               "witness %s is not the point %s" % (c["witness"], point))
        expect(not projective or len(all_cells) == 1, "extra in-variety cells")
    return check


def _basis_vanishes(point: list) -> Callable[[str, str], None]:
    """Each basis polynomial attains its minimum twice at the point (or is infinite there)."""
    def check(out, err):
        basis = _json(out)["basis"]
        expect(basis, "empty tropical basis")
        for f in basis:
            values = []
            for term in f["terms"]:
                if any(e and point[i] == "inf" for i, e in enumerate(term["exp"])):
                    continue
                values.append(Fraction(term["coeff"]) + sum(
                    e * Fraction(point[i]) for i, e in enumerate(term["exp"]) if e))
            expect(not values or values.count(min(values)) >= 2,
                   "the point is off the hypersurface of %s" % (f,))
    return check


def _nonempty_at(point: list) -> Callable[[str, str], None]:
    sigma = [i for i, x in enumerate(point) if x == "inf"]

    def check(out, err):
        obj = _json(out)
        expect(obj["kind"] == "nonempty", "certificate %r, expected nonempty" % obj["kind"])
        expect(obj["witness_sigma"] == sigma, "witness stratum %s, expected %s"
               % (obj["witness_sigma"], sigma))
    return check


def _circuit_present(circuit: list) -> Callable[[str, str], None]:
    def check(out, err):
        expect(circuit in _json(out)["circuits"], "circuit %s missing" % (circuit,))
    return check


def _exchange_violation(matroid_path: Path) -> Callable[[str, str], None]:
    """ok: false with a witness (A, B, a) that re-verifies against the valuation."""
    def check(out, err):
        obj = _json(out)
        expect(obj.get("ok") is False, "check-matroid says ok: %r; the input violates "
               "valuated exchange" % obj.get("ok"))
        matroid = _load(matroid_path)
        ground = matroid["ground"]
        val = {frozenset(ground[i] for i in item["set"]): Fraction(item["val"])
               for item in matroid["valuation"]}
        A, B, a = frozenset(obj["witness"]["A"]), frozenset(obj["witness"]["B"]), obj["witness"]["a"]
        expect(A in val and B in val and a in A - B, "witness is not (basis, basis, A \\ B)")
        lhs = val[A] + val[B]
        for b in B - A:
            A2, B2 = (A - {a}) | {b}, (B - {b}) | {a}
            expect(not (A2 in val and B2 in val and val[A2] + val[B2] <= lhs),
                   "witness is refuted by exchanging %s" % b)
    return check


def _refusal(out: str, err: str) -> None:
    expect(out == "", "a refused job printed to stdout")
    expect(err.startswith("size guard:"), "stderr %r does not start with 'size guard:'"
           % err[:60])


# Jobs -----------------------------------------------------------------------------


def _saver(path: Path) -> Callable[[str], None]:
    return lambda out: path.write_text(out)


def _fan_jobs(work: Path) -> list:
    jobs = []
    for tag, spec in _load(work / "points.json").items():
        point, D = spec["point"], spec["degree"]
        ideal = work / ("point_%s.json" % tag)
        jobs.append(Job("fan.%s.point-ideal" % tag,
                        ["point-ideal", "--point", json.dumps(point), "--degree", str(D)],
                        check=_ranks([1] * (D + 1)), after=_saver(ideal)))
        arg = ["--ideal", str(ideal)]
        jobs.append(Job("fan.%s.groebner-complex" % tag,
                        ["groebner-complex", *arg, "--verbose"],
                        check=_point_cells(point, 1, projective=False)))
        if D == 4:
            continue  # D=4 is timed through groebner-complex only, to bound a pass
        jobs += [
            Job("fan.%s.variety" % tag, ["variety", *arg],
                check=_point_cells(point, 0, projective=True)),
            Job("fan.%s.tropical-basis" % tag, ["tropical-basis", *arg],
                check=_basis_vanishes(point)),
            Job("fan.%s.nullstellensatz" % tag, ["nullstellensatz", *arg],
                check=_nonempty_at(point)),
        ]
    return jobs


def _tower_jobs(work: Path) -> list:
    tower = work / "tower.json"

    def split_layers(out: str) -> None:
        tower.write_text(out)
        for d, layer in enumerate(json.loads(out)["layers"]):
            _dump(work / ("layer_%d.json" % d), layer)

    tag = "n%dd%d" % (TOWER_N, TOWER_D)
    jobs = [
        Job("tower.%s.nonrealizable" % tag,
            ["nonrealizable", "--n", str(TOWER_N), "--degree", str(TOWER_D)],
            check=_ranks(list(range(1, TOWER_D + 2))), after=split_layers),
        Job("tower.%s.compatibility" % tag, ["compatibility", "--ideal", str(tower)],
            check=_field("ok", True)),
    ]
    for d in range(TOWER_D + 1):
        jobs.append(Job("tower.%s.hilbert-%d" % (tag, d),
                        ["hilbert", "--ideal", str(tower), "--degree", str(d)],
                        check=_field("hilbert", d + 1)))
    for d in range(TOWER_D + 1):
        layer = str(work / ("layer_%d.json" % d))
        jobs.append(Job("tower.%s.check-matroid-%d" % (tag, d),
                        ["check-matroid", "--matroid", layer], check=_field("ok", True)))
        jobs.append(Job("tower.%s.circuits-%d" % (tag, d), ["circuits", "--matroid", layer],
                        check=_circuit_present(["0", "0", "0"]) if d == 1 else None))
    jobs.append(Job("tower.blocks.check-matroid",
                    ["check-matroid", "--matroid", str(work / "blocks.json")],
                    check=_exchange_violation(work / "blocks.json"),
                    known_defect="the three-term exchange scan assumes its support is a "
                                 "matroid and answers ok: true"))
    return jobs


def variety_from_json(obj):
    """Rebuild a VarietySubcomplex from `tropideal variety` output (no ideal attached)."""
    from tropideal.groebner import GroebnerCell, VarietySubcomplex
    from tropideal.polyhedra import Cell
    from tropideal.semiring import Trop

    n = obj["ambient"]
    strata = {}
    for stratum in obj["strata"]:
        sigma = frozenset(stratum["sigma"])
        free = tuple(i for i in range(n) if i not in sigma)
        if obj["quotiented"]:
            free = free[:-1]
        cells = []
        for c in stratum["cells"]:
            eqs, ineqs = ([(row[:-1], row[-1]) for row in c[key]] for key in ("eq", "ineq"))
            cells.append(GroebnerCell(Cell(n, sigma, eqs, ineqs, free=free),
                                      tuple(Trop.parse(w) for w in c["witness"]), (),
                                      c["in_variety"]))
        strata[sigma] = cells
    return VarietySubcomplex(None, obj["presentation"], strata, obj["quotiented"])


def _realizable_jobs(work: Path) -> list:
    I, Ip, P = (work / name for name in ("ideal_g.json", "ideal_gp.json", "ideal_padic.json"))
    VI, VIp = work / "variety_g.json", work / "variety_gp.json"
    witness = (work / "witness.json").read_text()

    def supports_equal() -> str:
        from tropideal import groebner
        V1, V2 = (variety_from_json(_load(path)) for path in (VI, VIp))
        return json.dumps({"supports_equal": groebner.variety_supports_equal(V1, V2)})

    cubic_hilbert = [1, 3, 6, 9, 12]
    jobs = [
        Job("realizable.g.tropicalize", ["tropicalize", "--input", str(work / "g.json"),
                                         "--degree", "4"],
            check=_ranks(cubic_hilbert), after=_saver(I)),
        Job("realizable.gp.tropicalize", ["tropicalize", "--input", str(work / "gp.json"),
                                          "--degree", "4"],
            check=_ranks(cubic_hilbert), after=_saver(Ip)),
        Job("realizable.padic.tropicalize", ["tropicalize", "--input",
                                             str(work / "padic.json"), "--degree", "3"],
            check=_ranks(PADIC_HILBERT), after=_saver(P)),
        Job("realizable.g-gp.compare", ["compare", "--ideal", str(I), "--other", str(Ip)],
            check=_compare_2_7),
        Job("realizable.gp.contains", ["contains", "--ideal", str(Ip), "--poly", witness],
            check=_field("contains", True)),
        Job("realizable.g.contains", ["contains", "--ideal", str(I), "--poly", witness],
            check=_field("contains", False)),
    ]
    for d, h in enumerate(PADIC_HILBERT):
        jobs.append(Job("realizable.padic.hilbert-%d" % d,
                        ["hilbert", "--ideal", str(P), "--degree", str(d)],
                        check=_field("hilbert", h)))
    jobs += [
        Job("realizable.g.variety", ["variety", "--ideal", str(I)], after=_saver(VI)),
        Job("realizable.gp.variety", ["variety", "--ideal", str(Ip)], after=_saver(VIp)),
        Job("realizable.g-gp.variety_supports_equal", call=supports_equal,
            check=_field("supports_equal", True)),
        Job("realizable.padic.groebner-complex", ["groebner-complex", "--ideal", str(P)]),
        Job("realizable.g.tropicalize-d6", ["tropicalize", "--input", str(work / "g.json"),
                                            "--degree", "6"],
            exit=3, check=_refusal),
    ]
    return jobs


def _compare_2_7(out: str, err: str) -> None:
    obj = _json(out)
    got = (obj["relation"], obj["equal_through_degree"], obj["first_difference"])
    expect(got == ("incomparable", 3, 4), "compare gave %s, expected "
           "(incomparable, 3, 4)" % (got,))


def jobs(workload: str, work: Path) -> list:
    """The job list of a workload, built from the inputs already written to `work`."""
    return {"fan": _fan_jobs, "tower": _tower_jobs,
            "realizable": _realizable_jobs}[workload](work)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    import tropideal  # noqa: F401  (setup_s includes the import)

    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
