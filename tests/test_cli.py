import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

import qborel
from qborel import MonomialIdeal, cli

Q11_ORDERED = [
    "x1*x6^2", "x1*x6*x7", "x1*x6*x9", "x1*x7^2", "x1*x7*x9", "x1*x9^2",
    "x4*x6^2", "x4*x6*x7", "x4*x6*x9", "x4*x7^2", "x4*x7*x9", "x4*x9^2",
]


@pytest.fixture
def q11_path(data_dir):
    return str(data_dir / "q11.json")


@pytest.fixture
def q3_path(data_dir):
    return str(data_dir / "q3.json")


@pytest.fixture
def q6_path(data_dir):
    return str(data_dir / "q6.txt")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen(capsys, q11_path):
    code, out, _ = run_cli(capsys, "gen", q11_path, "x4*x9^2")
    assert code == 0
    assert out.splitlines() == Q11_ORDERED


def test_gen_json_is_stable(capsys, q11_path):
    code, first, _ = run_cli(capsys, "gen", q11_path, "x4*x9^2", "--json")
    assert code == 0
    code, second, _ = run_cli(capsys, "gen", q11_path, "x4*x9^2", "--json")
    assert first == second
    assert json.loads(first) == {"generators": Q11_ORDERED}


def test_sfgen(capsys, q6_path):
    code, out, _ = run_cli(capsys, "sfgen", q6_path, "x1*x2*x3*x6")
    assert code == 0
    assert set(out.splitlines()) == {
        "x1*x2*x3*x4", "x1*x2*x3*x5", "x1*x2*x3*x6"}


def test_ass_and_maxass(capsys, q11_path):
    code, out, _ = run_cli(capsys, "ass", q11_path, "x4*x9^2")
    assert code == 0
    assert out.splitlines() == ["<x1,x4>", "<x6,x7,x9>"]
    code, out, _ = run_cli(capsys, "maxass", q11_path, "x4*x9^2")
    assert code == 0
    assert out.splitlines() == ["<x1,x4>", "<x6,x7,x9>"]


def test_ass_json(capsys, q3_path):
    code, out, _ = run_cli(capsys, "ass", q3_path, "x2*x3", "--json")
    assert code == 0
    assert json.loads(out) == {"primes": [[1, 3], [2]]}


def test_decompose(capsys, q3_path):
    code, out, _ = run_cli(capsys, "decompose", q3_path, "x2*x3")
    assert code == 0
    assert out.splitlines() == ["x2: x2", "x3: x1, x3"]


def test_power(capsys, q3_path):
    code, out, _ = run_cli(capsys, "power", q3_path, "x2*x3", "-d", "2")
    assert code == 0
    assert out.splitlines() == ["x1^2*x2^2", "x1*x2^2*x3", "x2^2*x3^2"]


def test_sympow_methods_agree(capsys, q3_path):
    results = []
    for method in ("theorem", "oracle", "both"):
        code, out, _ = run_cli(capsys, "sympow", q3_path, "x2*x3",
                               "-d", "2", "--method", method)
        assert code == 0
        results.append(out)
    assert results[0] == results[1] == results[2]


def test_sympow_both_detects_mismatch(capsys, q3_path, monkeypatch):
    # force the oracle to lie so the disagreement path is exercised
    monkeypatch.setattr(
        cli.oracle, "symbolic_power_bruteforce",
        lambda I, powers: (MonomialIdeal.unit(I.nvars),))
    code, _, err = run_cli(capsys, "sympow", q3_path, "x2*x3",
                           "-d", "2", "--method", "both")
    assert code == cli.EXIT_VIOLATION
    assert "violation" in err


def test_sympow_oracle_deep_witness_search(capsys, tmp_path):
    # 1201 divisors in one chain, within the cell budget: the staircase
    # route reads them as one grid axis
    path = tmp_path / "q1.json"
    path.write_text('{"n": 1, "covers": []}')
    code, out, _ = run_cli(capsys, "sympow", str(path), "x1^1200",
                           "-d", "1", "--method", "oracle")
    assert code == 0
    assert out.splitlines() == ["x1^1200"]


def test_sympow_oracle_past_the_cell_budget(capsys, tmp_path):
    # 2^30 + 2 divisors in one chain go to the walk, which steps only
    # to x1^(2^30) and the lcm instead of through every divisor
    path = tmp_path / "q1.json"
    path.write_text('{"n": 1, "covers": []}')
    for method in ("oracle", "both"):
        code, out, _ = run_cli(capsys, "sympow", str(path), "x1^1073741825",
                               "-d", "1", "--method", method)
        assert code == 0
        assert out.splitlines() == ["x1^1073741825"]


def test_spread_all(capsys, q3_path, q11_path):
    code, out, _ = run_cli(capsys, "spread", q3_path, "x2*x3")
    assert code == 0
    assert out.strip() == "formula=2 rank=2 graph=2"
    code, out, _ = run_cli(capsys, "spread", q11_path, "x4*x9^2",
                           "--method", "all")
    assert code == 0
    assert out.strip() == "formula=4 rank=4 graph=4"


def test_spread_single_method(capsys, q3_path):
    code, out, _ = run_cli(capsys, "spread", q3_path, "x2*x3",
                           "--method", "rank")
    assert code == 0
    assert out.strip() == "rank=2"


def test_sfspread(capsys, q6_path):
    code, out, _ = run_cli(capsys, "sfspread", q6_path, "x1*x2*x3*x6")
    assert code == 0
    assert out.strip() == "spread=3 gcd=x1*x2*x3 induced={x4,x5,x6}"
    code, out, _ = run_cli(capsys, "sfspread", q6_path, "x1*x2*x3*x6", "--json")
    assert json.loads(out) == {
        "spread": 3, "gcd": "x1*x2*x3", "inducedGroundSet": [4, 5, 6]}


def test_lrg(capsys, q3_path, q11_path):
    code, out, _ = run_cli(capsys, "lrg", q3_path, "x2*x3")
    assert code == 0
    assert out.splitlines() == ["x1 x3"]
    code, out, _ = run_cli(capsys, "lrg", q11_path, "x4*x9^2", "--json")
    doc = json.loads(out)
    assert doc["vertices"] == [1, 4, 6, 7, 9]
    assert [1, 4] in doc["edges"] and [6, 9] in doc["edges"]


def test_certify(capsys, q11_path):
    code, out, _ = run_cli(capsys, "certify", q11_path, "x4*x9^2", "x1*x6*x7")
    assert code == 0
    assert out.splitlines() == ["x4 -> x1", "x9 -> x6", "x9 -> x7"]


def test_invariants(capsys, q3_path):
    code, out, _ = run_cli(capsys, "invariants", q3_path, "x2*x3", "-d", "3")
    assert code == 0
    assert out.splitlines() == [
        "waldschmidt=2",
        "alpha_over_s=2,2,2",
        "sdefect=0,0,0",
        "resurgence_bound=1",
    ]


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--trials", "3",
                           "--max-n", "4", "--max-deg", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("seed=1 trials=3 max-n=4 max-deg=2 backend=")
    assert len(lines) == 10
    assert all(line.endswith("3/3") for line in lines[1:])


def test_verify_selected_property(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "2", "--trials", "2",
                           "--properties", "spread-agreement", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == {"spread-agreement": {"passed": 2, "total": 2}}
    assert doc["failures"] == []


def test_exit_parse_errors(capsys, q3_path, tmp_path):
    code, _, err = run_cli(capsys, "gen", str(tmp_path / "missing.json"), "x1")
    assert code == cli.EXIT_PARSE and "error" in err
    code, _, err = run_cli(capsys, "gen", q3_path, "bogus")
    assert code == cli.EXIT_PARSE
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2}')
    code, _, err = run_cli(capsys, "gen", str(bad), "x1")
    assert code == cli.EXIT_PARSE


@pytest.mark.parametrize("doc", [
    '{"n": true, "covers": []}',
    '{"n": 3, "covers": [[true, 3]]}',
    '{"n": 3, "covers": [[2, 3], [true, 2]]}',
])
def test_json_booleans_are_not_integers(capsys, tmp_path, doc):
    # json loads true as a bool, an int subclass worth 1
    path = tmp_path / "bool.json"
    path.write_text(doc)
    code, out, err = run_cli(capsys, "gen", str(path), "x1")
    assert code == cli.EXIT_PARSE and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--trials", "--max-n", "--max-deg"])
@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_verify_counts_must_be_positive(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == cli.EXIT_PARSE
    assert f"argument {flag}: expected a positive integer, got '{value}'" in err


@pytest.mark.parametrize("value", ["-1", "-3", "x"])
def test_verify_seed_must_be_non_negative(capsys, value):
    # numpy refuses a negative seed; the parser names the flag instead
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--seed", value])
    err = capsys.readouterr().err
    assert exc.value.code == cli.EXIT_PARSE
    assert f"argument --seed: expected a non-negative integer, got '{value}'" in err


def test_verify_takes_a_large_seed(capsys):
    seed = str(2 ** 70)
    code, out, _ = run_cli(capsys, "verify", "--seed", seed, "--trials", "2",
                           "--properties", "symbolic-powers")
    assert code == cli.EXIT_OK
    head, *rest = out.splitlines()
    assert head.startswith(f"seed={seed} trials=2 max-n=6 max-deg=3 backend=")
    assert rest == ["symbolic-powers: 2/2"]


@pytest.mark.parametrize("value", ["+2", " 2", "0_2"])
def test_verify_counts_read_as_int_reads_them(capsys, value):
    code, out, _ = run_cli(capsys, "verify", "--trials", value, "--max-n", value,
                           "--max-deg", value, "--properties", "symbolic-powers")
    assert code == cli.EXIT_OK
    head, *rest = out.splitlines()
    assert head.startswith("seed=0 trials=2 max-n=2 max-deg=2 backend=")
    assert rest == ["symbolic-powers: 2/2"]


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    # the JSON decoder recurses once per bracket
    deep = tmp_path / "deep.json"
    deep.write_text('{"n": 2, "covers": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(capsys, "gen", str(deep), "x1")
    assert code == cli.EXIT_PARSE and out == ""
    assert err.startswith("error: invalid JSON") and "Traceback" not in err


def test_non_utf8_poset_exits_2(capsys, tmp_path):
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"2\n# caf\xe9\n1 < 2\n")
    code, out, err = run_cli(capsys, "gen", str(latin), "x2")
    assert code == cli.EXIT_PARSE and out == ""
    assert err.startswith("error: poset file is not UTF-8")


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# Fuzzed poset files keep n <= 64, because Poset allocates n x n: every
# token that parses as an integer is drawn small, garbage has no line
# breaks (a garbage line can never become a large head) and no "{" (so
# only the JSON branch reaches the JSON parser).
_garbage = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                  blacklist_characters="{"),
    max_size=8).filter(_not_an_int)
_small = st.integers(-2, 64)
_json_value = st.recursive(
    st.none() | st.booleans() | _small | _garbage,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_garbage, inner, max_size=2),
    max_leaves=8)
_rarely = st.sampled_from([False, False, False, True])


@st.composite
def _maxass_inputs(draw):
    """Poset file bytes and monomial text, each damaged now and then."""
    n = draw(st.integers(1, 8) | _small)
    valid = st.integers(1, max(n, 1))
    pairs = draw(st.lists(st.lists(valid, min_size=2, max_size=2, unique=True)
                          .map(sorted), max_size=4)) if n > 1 else []
    if draw(_rarely):
        pairs.append(draw(st.tuples(_small, _small)))
    if draw(st.booleans()):
        doc = {"n": draw(_json_value) if draw(_rarely) else n,
               "covers": draw(_json_value) if draw(_rarely) else pairs}
        if draw(_rarely):
            del doc[draw(st.sampled_from(sorted(doc)))]
        text = json.dumps(doc)
        if draw(_rarely):
            text = text[:draw(st.integers(0, len(text)))]
    else:
        token = st.sampled_from(["{}", "x{}", " {} "])
        lines = [draw(token).format(j) + "<" + draw(token).format(i)
                 for j, i in pairs]
        if draw(_rarely):
            lines.insert(draw(st.integers(0, len(lines))), draw(_garbage))
        text = "\n".join([draw(_garbage) if draw(_rarely) else str(n)] + lines)
    data = text.encode()
    if draw(_rarely):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]  # never valid UTF-8
    if draw(_rarely):
        return data, draw(st.text(max_size=12))
    exponent = st.integers(0, 10**20) if draw(_rarely) else st.integers(0, 3)
    index = _small if draw(_rarely) else valid
    terms = draw(st.lists(st.tuples(index, exponent), min_size=1, max_size=3))
    return data, "*".join(f"x{i}^{e}" for i, e in terms)


@settings(max_examples=200, deadline=None)
@given(_maxass_inputs())
def test_fuzzed_input_exits_cleanly(tmp_path_factory, inputs):
    # maxass never generates a closure, so every input answers at once
    data, mono = inputs
    path = tmp_path_factory.getbasetemp() / "fuzzed-poset"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["maxass", str(path), mono])
        except SystemExit as exc:  # argparse reads "-..." as an option
            code = exc.code
    event(f"exit {code}")
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_PRECONDITION)
    assert "Traceback" not in err.getvalue()
    try:
        data.decode()
    except UnicodeDecodeError:
        assert code == cli.EXIT_PARSE


def test_exit_precondition_errors(capsys, q3_path, q11_path):
    code, _, err = run_cli(capsys, "gen", q3_path, "1")
    assert code == cli.EXIT_PRECONDITION and "error" in err
    code, _, _ = run_cli(capsys, "sfgen", q11_path, "x4*x9^2")
    assert code == cli.EXIT_PRECONDITION
    code, _, _ = run_cli(capsys, "power", q3_path, "x2*x3", "-d", "0")
    assert code == cli.EXIT_PRECONDITION
    code, _, _ = run_cli(capsys, "certify", q3_path, "x2*x3", "x1*x3")
    assert code == cli.EXIT_PRECONDITION


def test_exponent_overflow_names_the_range(capsys, q11_path):
    # past the range, huge or summed, the message is ours, not numpy's
    for mono in ("x1^100000000000000000000", "x1^2147483647*x1",
                 "x1^2147483648"):
        code, out, err = run_cli(capsys, "maxass", q11_path, mono)
        assert code == cli.EXIT_PRECONDITION and out == ""
        assert err.splitlines() == ["error: exponent exceeds the supported range"]
    code, _, _ = run_cli(capsys, "maxass", q11_path, "x1^2147483646*x1")
    assert code == cli.EXIT_OK


def test_power_past_the_range_names_it(capsys, tmp_path):
    # one variable, so the closure of x1^(2^30 + 1) is that one monomial
    # and only its square, x1^(2^31 + 2), passes the range
    path = tmp_path / "q1.json"
    path.write_text('{"n": 1, "covers": []}')
    code, out, err = run_cli(capsys, "power", str(path), "x1^1073741825", "-d", "2")
    assert code == cli.EXIT_PRECONDITION and out == ""
    assert err.splitlines() == ["error: exponent exceeds the supported range"]


def test_out_of_memory_exits_3(capsys, monkeypatch, q3_path):
    def exhausted(poset, m):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(cli.engine, "generate_principal", exhausted)
    code, out, err = run_cli(capsys, "gen", q3_path, "x2*x3")
    assert code == cli.EXIT_PRECONDITION and out == ""
    assert err.splitlines() == [
        "error: out of memory: Unable to allocate 8.00 EiB for an array"]

    def bare(poset, m):
        raise MemoryError

    monkeypatch.setattr(cli.spectra, "associated_primes", bare)
    code, out, err = run_cli(capsys, "ass", q3_path, "x2*x3")
    assert code == cli.EXIT_PRECONDITION and out == ""
    assert err.splitlines() == ["error: out of memory"]


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point(q11_path):
    # the child imports the same qborel as this test, wherever pytest
    # found it, ahead of anything already on PYTHONPATH
    src = pathlib.Path(qborel.__file__).resolve().parent.parent
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    out = subprocess.run(
        [sys.executable, "-m", "qborel", "gen", q11_path, "x4*x9^2"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert out.returncode == 0
    assert out.stdout.splitlines() == Q11_ORDERED
