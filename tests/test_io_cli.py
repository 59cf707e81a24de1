import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropideal import cli, jsonio
from tropideal.errors import ParseError
from tropideal.ideals import (ClassicalInput, QPoly, Valuation,
                              nonrealizable_ideal, point_ideal, tropicalize)
from tropideal.matroids import VMatroid
from tropideal.polynomials import TropPoly
from tropideal.semiring import INF, Trop


def run_cli(args, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "tropideal.cli"] + args,
                          capture_output=True, text=True, input=stdin)
    return proc


def rand_poly(rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        u = tuple(rng.randint(0, 3) for _ in range(nvars))
        terms[u] = Trop(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
    return TropPoly(nvars, terms)


def rand_matroid(rng):
    n = rng.randint(2, 5)
    r = rng.randint(1, n)
    import itertools
    val = {}
    for S in itertools.combinations(range(n), r):
        if rng.random() < 0.7:
            mask = 0
            for i in S:
                mask |= 1 << i
            val[mask] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    if not val:
        val = {sum(1 << i for i in range(r)): Fraction(0)}
    return VMatroid(tuple("e%d" % i for i in range(n)), r, val)


def test_round_trip_polynomials():
    rng = random.Random(123)
    for _ in range(1000):
        f = rand_poly(rng, rng.randint(1, 3))
        assert jsonio.poly_from_json(jsonio.poly_to_json(f)) == f


def test_round_trip_matroids():
    rng = random.Random(456)
    for _ in range(1000):
        M = rand_matroid(rng)
        assert jsonio.vmatroid_from_json(jsonio.vmatroid_to_json(M)) == M


def test_round_trip_matroid_fraction_value():
    M = VMatroid(("a", "b"), 1, {frozenset(("a",)): Fraction(1, 3), frozenset(("b",)): 0})
    obj = jsonio.vmatroid_to_json(M)
    assert any(item["val"] == "1/3" for item in obj["valuation"])
    assert jsonio.vmatroid_from_json(obj) == M


@st.composite
def matroid_json(draw):
    """(ground, rank, entries): distinct r-sets in any index order, each with
    a value that is a JSON int or a 'p' / 'p/q' string, reduced or not."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, n))
    sets = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), r))),
                         min_size=1, max_size=12, unique=True))
    text = st.one_of(
        st.integers(-40, 40),
        st.integers(-40, 40).map(str),
        st.just("-0"),
        st.builds("{}/{}".format, st.integers(-40, 40), st.integers(1, 12)))
    entries = [{"set": draw(st.permutations(S)), "val": draw(text)} for S in sets]
    return ["e%d" % i for i in range(n)], r, entries


@settings(max_examples=300, deadline=None)
@given(matroid_json())
@example((["e0", "e1", "e2", "e3"], 1, [{"set": [0], "val": 3}, {"set": [1], "val": "-2"},
                                        {"set": [2], "val": "1/2"}, {"set": [3], "val": "5/6"}]))
def test_matroid_reader_matches_per_entry_fractions(case):
    ground, rank, entries = case
    obj = json.loads(json.dumps({"ground": ground, "rank": rank, "valuation": entries}))
    M = jsonio.vmatroid_from_json(obj)
    oracle = VMatroid(ground, rank, [(sum(1 << j for j in e["set"]), Trop(Fraction(e["val"])))
                                     for e in entries])
    assert M == oracle
    low = min(Fraction(e["val"]) for e in entries)
    assert all(M.value_mask(sum(1 << j for j in e["set"])) == Fraction(e["val"]) - low
               for e in entries)
    assert jsonio.vmatroid_to_json(M)["valuation"] == [
        {"set": [j for j in range(len(ground)) if m >> j & 1], "val": str(v)}
        for m, v in oracle.valuation_items()]


@pytest.mark.parametrize("val, message", [
    ("inf", "'inf' is not allowed here"),
    ("1/0", "not a 'p/q' rational: '1/0'"),
    ("1/02", "not a 'p/q' rational: '1/02'"),
    ("0.5", "not a 'p/q' rational: '0.5'"),
    (0.5, "expected rational string or 'inf', got 0.5"),
    (True, "expected rational string or 'inf', got True"),
    ("", "not a 'p/q' rational: ''"),
    (" 1", "not a 'p/q' rational: ' 1'"),
])
def test_matroid_reader_rejects_value(val, message):
    obj = {"ground": ["a", "b"], "rank": 1,
           "valuation": [{"set": [0], "val": "0"}, {"set": [1], "val": val}]}
    with pytest.raises(ParseError) as err:
        jsonio.vmatroid_from_json(obj)
    assert str(err.value) == message


@pytest.mark.parametrize("val, value", [("5\n", 5), ("\u0663", 3)])
def test_matroid_reader_odd_accepted_values(val, value):
    # the grammar's '$' admits one trailing newline and its digits are the
    # Unicode decimal digits, as int() reads them
    obj = {"ground": ["a", "b"], "rank": 1,
           "valuation": [{"set": [0], "val": "0"}, {"set": [1], "val": val}]}
    assert jsonio.vmatroid_from_json(obj).value_mask(0b10) == value


def test_round_trip_ideals():
    inp = ClassicalInput((QPoly(2, {(1, 0): 5, (0, 1): -1}),), Valuation("padic", 5))
    obj = jsonio.classical_input_to_json(inp)
    assert jsonio.classical_input_to_json(jsonio.classical_input_from_json(obj)) == obj
    ideals = [point_ideal((Trop(0), Trop(3)), 2), nonrealizable_ideal(2, 2), tropicalize(inp, 2)]
    rng = random.Random(789)
    while len(ideals) < 200:
        coords = [Trop(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                  for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.3:
            coords[rng.randrange(len(coords))] = INF
        ideals.append(point_ideal(coords, rng.randint(1, 2)))
    for I in ideals:
        assert jsonio.ideal_from_json(jsonio.ideal_to_json(I)) == I


def test_round_trip_weights_randomized():
    rng = random.Random(321)
    for _ in range(1000):
        w = tuple(INF if rng.random() < 0.2 else
                  Trop(Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
                  for _ in range(rng.randint(1, 4)))
        assert jsonio.weight_from_json(jsonio.weight_to_json(w)) == w


def test_round_trip_boolean_ideal_uses_bases():
    from tropideal.ideals import boolean_image
    I = boolean_image(point_ideal((Trop(0), Trop(3)), 2))
    obj = jsonio.ideal_to_json(I)
    assert all("bases" in layer for layer in obj["layers"])
    assert jsonio.ideal_from_json(obj) == I


def test_inf_coefficient_rejected_in_poly_terms():
    with pytest.raises(ParseError):
        jsonio.poly_from_json({"vars": 1, "terms": [{"exp": [1], "coeff": "inf"}]})
    with pytest.raises(ParseError):
        jsonio.poly_from_json({"vars": 1, "terms": [{"exp": [1], "coeff": "0.5"}]})


def test_round_trip_weights():
    w = jsonio.weight_from_json(["0", "inf", "-7/2"])
    assert w == (Trop(0), INF, Trop(Fraction(-7, 2)))
    assert jsonio.weight_to_json(w) == ["0", "inf", "-7/2"]


# CLI ------------------------------------------------------------------------------


def test_cli_factor_univariate():
    poly = json.dumps({"vars": 1, "terms": [{"exp": [2], "coeff": "0"},
                                            {"exp": [0], "coeff": "1"}]})
    proc = run_cli(["factor-univariate", "--poly", poly])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["roots"] == [["1/2", 2]]
    assert out["x_power"] == 0


def test_cli_hilbert_point_ideal(tmp_path):
    ideal = jsonio.ideal_to_json(point_ideal((Trop(0), Trop(0), Trop(0)), 3))
    path = tmp_path / "point.json"
    path.write_text(json.dumps(ideal))
    proc = run_cli(["hilbert", "--ideal", str(path), "--degree", "3"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["hilbert"] == 1


def test_cli_nullstellensatz_unit(tmp_path):
    one = {"generators": [{"vars": 2, "terms": [{"exp": [0, 0], "coeff": "1"}]}],
           "valuation": {"type": "trivial"}}
    inp = tmp_path / "one.json"
    inp.write_text(json.dumps(one))
    proc = run_cli(["tropicalize", "--input", str(inp), "--degree", "1"])
    assert proc.returncode == 0
    ideal_path = tmp_path / "unit.json"
    ideal_path.write_text(proc.stdout)
    proc = run_cli(["nullstellensatz", "--ideal", str(ideal_path)])
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)
    assert cert["kind"] == "unit" and cert["degree"] == 0


def test_cli_point_ideal_and_compatibility():
    proc = run_cli(["point-ideal", "--point", '["0", "3"]', "--degree", "2"])
    assert proc.returncode == 0
    proc2 = run_cli(["compatibility", "--ideal", "-"], stdin=proc.stdout)
    assert proc2.returncode == 0
    assert json.loads(proc2.stdout) == {"ok": True}


def test_cli_exit_codes(tmp_path):
    assert run_cli(["frobnicate"]).returncode == 64
    bad = run_cli(["hilbert", "--ideal", "/nonexistent.json", "--degree", "1"])
    assert bad.returncode == 2
    poly = json.dumps({"vars": 1, "terms": [{"exp": [1], "coeff": "inf"}]})
    assert run_cli(["factor-univariate", "--poly", poly]).returncode == 2
    mangled = tmp_path / "broken.json"
    mangled.write_text('{"vars": 2, "terms": [')
    proc = run_cli(["hilbert", "--ideal", str(mangled), "--degree", "0"])
    assert proc.returncode == 2
    # the parse diagnostic carries a location
    assert "line" in proc.stderr or "char" in proc.stderr


def test_cli_size_guard_exit():
    proc = run_cli(["nonrealizable", "--n", "2", "--degree", "3", "--cap", "5"])
    assert proc.returncode == 3
    assert "size guard" in proc.stderr


def test_cli_point_ideal_cap_below_layer_sizes():
    proc = run_cli(["point-ideal", "--point", '["0", "1", "2"]', "--degree", "10000",
                    "--cap", "10"])
    assert proc.returncode == 3
    assert "point ideal layer 3" in proc.stderr


def test_public_names_resolve():
    import tropideal
    for name in tropideal.__all__:
        assert hasattr(tropideal, name), name
    namespace: dict = {}
    exec("from tropideal import *", namespace)
    assert set(tropideal.__all__) <= set(namespace)


def test_cli_deterministic_output(tmp_path):
    a = run_cli(["nonrealizable", "--n", "2", "--degree", "2"])
    b = run_cli(["nonrealizable", "--n", "2", "--degree", "2"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_rejects_seed():
    # the package has no randomness, so there is no seed to set
    proc = run_cli(["nonrealizable", "--n", "2", "--degree", "2", "--seed", "1"])
    assert proc.returncode == 2 and "--seed" in proc.stderr


def _poly_arg(exp):
    return ["--poly", json.dumps({"vars": 1, "terms": [{"exp": exp, "coeff": "0"}]})]


_CONSTANT_LAYER = {"ground": ["1"], "rank": 1, "valuation": [{"set": [0], "val": "0"}]}


@pytest.mark.parametrize("command, inline, flag, payload", [
    ("check-matroid", [], "--matroid", {"ground": ["a"], "rank": 1, "valuation": 5}),
    ("check-matroid", [], "--matroid", {"ground": ["a"], "rank": 1, "bases": [5]}),
    ("circuits", [], "--matroid", {"ground": [["a"]], "rank": 1, "bases": [[0]]}),
    ("hilbert", ["--degree", "0"], "--ideal",
     {"vars": 0, "degree_bound": 0, "layers": [_CONSTANT_LAYER]}),
    ("factor-univariate", _poly_arg(["x"]), None, None),
    ("tropicalize", ["--degree", "1"], "--input",
     {"generators": [{"vars": 2, "terms": [{"exp": [-1, 2], "coeff": "1"}]}],
      "valuation": {"type": "trivial"}}),
    ("factor-univariate", _poly_arg([1.5]), None, None),
    ("circuits", [], "--matroid",
     {"ground": ["a", "b"], "rank": True,
      "valuation": [{"set": [True], "val": "0"}, {"set": [0], "val": "1"}]}),
    ("circuits", [], "--matroid",
     {"ground": ["a", "b"], "rank": 1,
      "valuation": [{"set": [True], "val": "0"}, {"set": [0], "val": "1"}]}),
    ("circuits", [], "--matroid", {"ground": ["a", "b"], "rank": 1, "bases": [[False], [1]]}),
    ("hilbert", ["--degree", "0"], "--ideal",
     {"vars": True, "degree_bound": 0, "layers": [_CONSTANT_LAYER]}),
    ("circuits", [], "--matroid",
     {"ground": ["a", "b", "c"], "rank": 2,
      "valuation": [{"set": [0, 0, 1], "val": "0"}, {"set": [0, 2], "val": "1"}]}),
    ("check-matroid", [], "--matroid",
     {"ground": ["a", "b", "c"], "rank": 2, "bases": [[0, 1], [2, 2, 0]]}),
    ("factor-univariate", ["--poly", json.dumps(
        {"vars": 1, "terms": [{"exp": [1], "coeff": "0"}, {"exp": [1], "coeff": "5"},
                              {"exp": [0], "coeff": "1"}]})], None, None),
    ("tropicalize", ["--degree", "1"], "--input",
     {"generators": [{"vars": 2, "terms": [{"exp": [1, 0], "coeff": "1"},
                                           {"exp": [1, 0], "coeff": "-1"},
                                           {"exp": [0, 1], "coeff": "1"}]}],
      "valuation": {"type": "trivial"}}),
], ids=["valuation-not-list", "basis-not-list", "label-not-scalar", "zero-vars", "exp-string",
        "negative-exp", "exp-float", "bool-rank", "bool-set-index", "bool-basis-index",
        "bool-vars", "repeated-set-index", "repeated-basis-index", "repeated-exp",
        "repeated-generator-exp"])
def test_cli_malformed_json_exits_2(tmp_path, command, inline, flag, payload):
    args = [command, *inline]
    if flag is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        args += [flag, str(path)]
    proc = run_cli(args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_cli_closed_stdout_exits_0_quietly():
    # about 99 KB of output, more than a pipe holds, so the write meets the closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "tropideal.cli", "point-ideal",
                             "--point", '["0", "3"]', "--degree", "40"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0 and err == b""


def _short_ground_ideal(nv):
    """An ideal in nv variables whose degree-2 layer lists a single ground label."""
    layer1 = {"ground": ["x%d" % i for i in range(nv)], "rank": 1,
              "valuation": [{"set": [0], "val": "0"}]}
    layer2 = {"ground": ["x0^2"], "rank": 1, "valuation": [{"set": [0], "val": "0"}]}
    return {"vars": nv, "degree_bound": 2, "layers": [_CONSTANT_LAYER, layer1, layer2]}


def test_ideal_from_json_checks_ground_size_before_listing_monomials():
    # listing the 11,325 degree-2 monomials in 150 variables took seconds
    start = time.perf_counter()
    with pytest.raises(ParseError, match="layer 2 ground is not the canonical degree-2 list"):
        jsonio.ideal_from_json(_short_ground_ideal(150))
    assert time.perf_counter() - start < 0.5


def test_cli_variety_text_output(tmp_path):
    ideal = jsonio.ideal_to_json(point_ideal((Trop(0), Trop(0)), 1))
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(ideal))
    proc = run_cli(["variety", "--ideal", str(path), "--presentation", "projective",
                    "--output", "text"])
    assert proc.returncode == 0
    assert "sigma" in proc.stdout and "in_variety" in proc.stdout


def test_cli_initial_and_circuits(tmp_path):
    ideal = jsonio.ideal_to_json(point_ideal((Trop(0), Trop(1)), 1))
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(ideal))
    proc = run_cli(["initial", "--ideal", str(path), "--weight", '["0", "0"]'])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["mode"] == "boolean"
    matroid = out["layers"][1]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(matroid))
    proc2 = run_cli(["circuits", "--matroid", str(mpath)])
    assert proc2.returncode == 0


def test_cli_compare(tmp_path):
    a = jsonio.ideal_to_json(point_ideal((Trop(0), Trop(0)), 2))
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps(a))
    proc = run_cli(["compare", "--ideal", str(pa), "--other", str(pa)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["relation"] == "equal"


def test_cli_check_matroid(tmp_path):
    good = {"ground": ["a", "b", "c"], "rank": 2,
            "valuation": [{"set": [0, 1], "val": "0"}, {"set": [0, 2], "val": "0"},
                          {"set": [1, 2], "val": "0"}]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(good))
    proc = run_cli(["check-matroid", "--matroid", str(p)])
    assert proc.returncode == 0 and json.loads(proc.stdout)["ok"] is True
    bad = {"ground": ["1", "2", "3", "4"], "rank": 2,
           "valuation": [{"set": list(s), "val": "-1" if s in ([0, 1], [2, 3]) else "0"}
                         for s in ([0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3])]}
    p.write_text(json.dumps(bad))
    proc = run_cli(["check-matroid", "--matroid", str(p)])
    assert proc.returncode == 0 and json.loads(proc.stdout)["ok"] is False


def test_cli_check_matroid_rejects_a_set_valued_twice(tmp_path):
    twice = {"ground": ["a", "b", "c"], "rank": 2,
             "valuation": [{"set": [0, 1], "val": "0"}, {"set": [1, 0], "val": "3"},
                           {"set": [0, 2], "val": "1"}]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(twice))
    proc = run_cli(["check-matroid", "--matroid", str(p)])
    assert proc.returncode == 2 and "valued twice" in proc.stderr


def test_cli_check_matroid_rejects_a_repeated_basis(tmp_path):
    twice = {"ground": ["a", "b", "c"], "rank": 2, "bases": [[0, 1], [0, 2], [1, 0]]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(twice))
    proc = run_cli(["check-matroid", "--matroid", str(p)])
    assert proc.returncode == 2 and "the set ['a', 'b'] is valued twice" in proc.stderr


def test_cli_check_matroid_disjoint_blocks(tmp_path):
    # two disjoint U(4,12) blocks: 990 bases, past the brute-force switch;
    # every three-term relation holds but the support is not a matroid
    import itertools
    ground = ["e%d" % i for i in range(24)]
    bases = [list(S) for start in (0, 12)
             for S in itertools.combinations(range(start, start + 12), 4)]
    p = tmp_path / "blocks.json"
    p.write_text(json.dumps({"ground": ground, "rank": 4,
                             "valuation": [{"set": S, "val": "0"} for S in bases]}))
    proc = run_cli(["check-matroid", "--matroid", str(p)])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["ok"] is False
    val = {frozenset(ground[i] for i in S) for S in bases}
    A, B, a = frozenset(out["witness"]["A"]), frozenset(out["witness"]["B"]), out["witness"]["a"]
    assert A in val and B in val and a in A - B
    for b in B - A:
        assert (A - {a}) | {b} not in val or (B - {b}) | {a} not in val


def test_cli_ignores_the_cap_environment_variable():
    import os
    env = dict(os.environ)
    env["TROPIDEAL_CAP"] = "5"
    proc = subprocess.run(
        [sys.executable, "-m", "tropideal.cli", "nonrealizable", "--n", "2", "--degree", "3"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# Subcommand table ------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("args", [
    ["hilbert", "--ideal", "-", "--degree", "1", "--verbose"],
    ["initial", "--ideal", "-", "--weight", '["0", "0"]', "--cap", "5"],
    ["factor-univariate", *_poly_arg([1]), "--verbose"],
    ["circuits", "--matroid", "-", "--output", "text"],
    ["tropicalize", "--input", "-", "--degree", "1", "--output", "json"],
    ["point-ideal", "--point", '["0", "3"]', "--degree", "2", "--verbose"],
], ids=["hilbert-verbose", "initial-cap", "factor-univariate-verbose", "circuits-output",
        "tropicalize-output", "point-ideal-verbose"])
def test_cli_rejects_flags_a_subcommand_does_not_read(args):
    proc = run_cli(args, stdin="")
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr and proc.stdout == ""


def test_cli_without_arguments_and_help(capsys):
    assert cli.main([]) == 64
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in cli.COMMANDS)


def test_cli_compatibility_text_of_a_failing_ideal_is_json():
    proc = run_cli(["compatibility", "--ideal", str(GOLDEN / "inputs" / "incompatible.json"),
                    "--output", "text"])
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "compatibility-failing.out").read_text()


@pytest.mark.parametrize("raw", [b'{"ground": ["a\xff"]}', b"[" * 100_000],
                         ids=["not-utf8", "nested-100000"])
def test_cli_undecodable_json_exits_2(tmp_path, raw):
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    proc = run_cli(["circuits", "--matroid", str(path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def _two_term_poly(top):
    return ["--poly", json.dumps({"vars": 1, "terms": [{"exp": [top], "coeff": "0"},
                                                       {"exp": [0], "coeff": "1"}]})]


def test_cli_factor_univariate_charges_the_cap(capsys):
    # first in a child with a timeout: without the charge this run takes minutes and gigabytes
    argv = ["factor-univariate", *_two_term_poly(10 ** 7)]
    proc = subprocess.run([sys.executable, "-m", "tropideal.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3 and proc.stderr.startswith("size guard: ")
    start = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert cli.main(["factor-univariate", *_two_term_poly(10 ** 3), "--cap", "1000"]) == 3
    assert capsys.readouterr().err.startswith("size guard: ")
    assert cli.main(["factor-univariate", *_two_term_poly(10 ** 3)]) == 0


@pytest.mark.parametrize("sub", ["groebner-complex", "variety", "tropical-basis",
                                 "nullstellensatz"])
def test_cli_groebner_subcommands_charge_the_cap(capsys, sub):
    # each builds the Groebner complex under --cap before reading it
    point = str(Path(__file__).resolve().parent / "golden" / "inputs" / "point.json")
    assert cli.main([sub, "--ideal", point, "--cap", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("size guard: ")
