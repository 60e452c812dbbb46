"""Replay recorded CLI output: every subcommand, text and --json.

tests/data/golden_cli.json holds, per call, the argv (the poset given by
its file name under tests/data), the exit code, stdout and stderr.  To
record it afresh after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

from qborel import cli

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden_cli.json"

# poset file -> (monomial, certify target) pairs; "1" and an unknown
# variable reach the precondition and parse error paths
MONOMIALS = {
    "q3.json": [("x2*x3", "x1*x2"), ("x1*x2*x3", "x1*x2*x3"), ("1", "1"),
                ("x4", "x1")],
    "q6.txt": [("x1*x2*x3*x6", "x1*x2*x3*x4"), ("x5^2*x6", "x1*x2*x5"),
               ("x4", "x2")],
    "q11.json": [("x4*x9^2", "x1*x6^2"), ("x2*x3*x11", "x1*x3*x6"),
                 ("x3*x8", "x3*x8")],
}


def golden_argvs():
    """Every recorded call, the poset as a file name under tests/data."""
    argvs = []
    for name, pairs in MONOMIALS.items():
        for m, target in pairs:
            for tail in (["gen"], ["sfgen"], ["ass"], ["maxass"],
                         ["decompose"], ["power", "-d", "2"],
                         ["sympow", "-d", "2", "--method", "both"],
                         ["spread"], ["sfspread"], ["lrg"],
                         ["certify", target],
                         ["invariants", "-d", "2"]):
                argv = [tail[0], name, m, *tail[1:]]
                argvs += [argv, argv + ["--json"]]
    argvs.append(["verify", "--seed", "1", "--trials", "3"])
    argvs.append(["verify", "--seed", "1", "--trials", "3", "--json"])
    return argvs


def run(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    argv = [str(DATA / a) if a in MONOMIALS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_output_matches_the_recording():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [case["argv"] for case in cases] == golden_argvs()
    changed = [case["argv"] for case in cases
               if run(case["argv"]) != (case["code"], case["stdout"], case["stderr"])]
    assert changed == []


if __name__ == "__main__":
    cases = []
    for argv in golden_argvs():
        code, out, err = run(argv)
        cases.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
