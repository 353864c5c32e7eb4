"""Byte-for-byte CLI snapshot: stdout, stderr and exit code of a fixed command list.

Every subcommand runs in process through ``splitjac.cli.main``, with JSON and
CSV output, domain errors (exit 1) and usage errors (exit 2).  The expected
bytes live in ``tests/data/cli_snapshot.json``.  A change that must keep the
CLI output unchanged leaves that file as it is; a change that means to alter
the output rewrites it with

    PYTHONPATH=src python tests/test_cli_snapshot.py --write

and says so.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from splitjac.cli import main

SNAPSHOT = Path(__file__).parent / "data" / "cli_snapshot.json"

SD_18_7 = ["--d", "18", "--k", "7", "--lp", "3", "--l", "1"]
SD_16_1 = ["--d", "16", "--k", "1", "--lp", "3", "--l", "5"]
SD_2_1 = ["--d", "2", "--k", "1", "--lp", "1", "--l", "3"]
SD_7_6 = ["--d", "7", "--k", "6", "--lp", "2/3", "--l", "5/4"]

MORPHISM = {
    "source": {"pairing": [["1", "0"], ["0", "3"]],
               "polarization": [["1", "0"], ["0", "1"]]},
    "target": {"pairing": [["1", "1/2"], ["0", "3/2"]]},
    "msharp": [["1", "0"], ["0", "1"]],
    "mflat": [["1", "-1"], ["0", "2"]],
    "z1": [["2", "0"], ["0", "2"]],
}
ADJOINT = {
    "source": {"pairing": [["1", "0"], ["0", "3"]]},
    "target": {"pairing": [["2", "1"], ["1", "2"]]},
    "msharp": [["2", "1"], ["0", "1"]],
    "mflat": [["1", "-1"], ["0", "2"]],
    "z1": [["1", "0"], ["0", "1"]],
    "z2": [["1", "0"], ["0", "1"]],
}


def _with(payload, **fields):
    return json.dumps(dict(payload, **fields))


# (argv, stdin): "{csv}" in argv is replaced by a fresh file path, whose
# contents are part of the snapshot.
CASES = [
    # setmatrix
    (["setmatrix"] + SD_18_7, None),
    (["setmatrix"] + SD_7_6, None),
    (["setmatrix", "--d", "2", "--k", "1", "--lp=-1", "--l", "1"], None),
    (["setmatrix", "--d", "4", "--k", "2", "--lp", "1", "--l", "1"], None),
    (["setmatrix", "--d", "18", "--k", "7", "--lp", "1/0", "--l", "1"], None),
    # selling
    (["selling", "--q11", "54", "--q12=-21", "--q22", "74/9"], None),
    (["selling", "--q11", "54", "--q12", "21", "--q22", "74/9"], None),
    (["selling", "--q11", "1", "--q12", "2", "--q22", "1"], None),
    (["selling", "--q11", "1000", "--q12=-1", "--q22", "1", "--cap", "3"], None),
    (["selling", "--q11", "1", "--q12=-1/2"], None),
    # fd
    (["fd", "--q11", "26/9", "--q12=-5/3", "--q22", "2"], None),
    (["fd", "--q11", "54", "--q12=-21", "--q22", "74/9"], None),
    # lengths
    (["lengths", "--q11", "2", "--q12=-1", "--q22", "2"], None),
    (["lengths", "--q11", "1/2", "--q12", "0", "--q22", "30"], None),
    (["lengths", "--q11", "1", "--q12", "1", "--q22", "3"], None),
    # reconstruct
    (["reconstruct"] + SD_18_7, None),
    (["reconstruct"] + SD_16_1, None),
    (["reconstruct"] + SD_2_1, None),
    (["reconstruct"] + SD_7_6 + ["--format", "csv"], None),
    (["reconstruct"] + SD_16_1 + ["--format", "csv"], None),
    (["reconstruct", "--d", "1000", "--k", "1", "--lp", "1", "--l", "1", "--cap", "10"], None),
    (["reconstruct", "--d", "4", "--k", "2", "--lp", "1", "--l", "1"], None),
    (["reconstruct", "--d", "2"], None),
    (["reconstruct"] + SD_2_1 + ["--format", "xml"], None),
    # covers
    (["covers"] + SD_18_7, None),
    (["covers"] + SD_16_1, None),
    (["covers"] + SD_7_6, None),
    (["covers", "--d", "3", "--k", "3", "--lp", "1", "--l", "1"], None),
    # diagram
    (["diagram"] + SD_18_7, None),
    (["diagram"] + SD_2_1, None),
    (["diagram", "--d", "5", "--k", "2", "--lp", "7/3", "--l", "2"], None),
    (["diagram", "--d", "1", "--k", "1", "--lp", "1", "--l", "1"], None),
    # mumford
    (["mumford", "--input", "-"], json.dumps(MORPHISM)),
    (["mumford", "--input", "-"], _with(MORPHISM, z1=[["1", "0"], ["0", "1"]])),
    (["mumford", "--input", "-"], json.dumps({k: v for k, v in MORPHISM.items() if k != "z1"})),
    (["mumford", "--input", "-"], _with(MORPHISM, z1=[["1", "0"], ["0", "-3"]])),
    (["mumford", "--input", "-"], _with(MORPHISM, msharp=[["2", "0"], ["0", "1"]],
                                        z1=[["1", "0"], ["0", "1"]])),
    (["mumford", "--input", "-"], "{not json"),
    (["mumford", "--input", "-"], _with(MORPHISM, z1=[["1", "0"], ["0"]])),
    (["mumford"], None),
    # adjoint
    (["adjoint", "--input", "-"], json.dumps(ADJOINT)),
    (["adjoint", "--input", "-"], _with(ADJOINT, z1=[["2", "0"], ["0", "2"]])),
    (["adjoint", "--input", "-"], _with(ADJOINT, z1=[["1", "0"], ["0", "-3"]])),
    (["adjoint", "--input", "-"], json.dumps({k: v for k, v in ADJOINT.items() if k != "z2"})),
    (["adjoint", "--input", "-"], _with(ADJOINT, mflat=[["1", "0"], ["0", "1"]])),
    # fan
    (["fan", "--d", "3", "--k", "1", "--csv", "{csv}"], None),
    (["fan", "--d", "13", "--k", "5"], None),
    (["fan", "--d", "20", "--k", "1"], None),
    (["fan", "--d", "13", "--k", "5", "--cap", "4"], None),
    (["fan", "--d", "6", "--k", "3"], None),
    (["fan", "--d", "5"], None),
    # locus-compare
    (["locus-compare", "--d", "3", "--k1", "1", "--k2", "2"], None),
    (["locus-compare", "--d", "7", "--k1", "1", "--k2", "6"], None),
    (["locus-compare", "--d", "7", "--k1", "1", "--k2", "2"], None),
    (["locus-compare", "--d", "11", "--k1", "2", "--k2", "6"], None),
    (["locus-compare", "--d", "7", "--k1", "1", "--k2", "7"], None),
    (["locus-compare", "--d", "13", "--k1", "5", "--k2", "8", "--cap", "2"], None),
    # sweep
    (["sweep", "--d", "16", "--k", "1", "--lp", "3", "--l", "3,5"], None),
    (["sweep", "--d", "5", "--k", "2", "--lp", "1,2/3,7", "--l", "1/2,3",
      "--format", "json"], None),
    (["sweep", "--d", "2", "--k", "1", "--lp", ",", "--l", "1"], None),
    (["sweep", "--d", "2", "--k", "1", "--lp", "1/0", "--l", "1"], None),
    (["sweep", "--d", "2", "--k", "1", "--lp", "1", "--l", "1", "--format", "csv"], None),
    # the command itself
    ([], None),
    (["no-such-command"], None),
]


def run_case(argv, stdin, tmp_dir) -> dict:
    """Run one command in process and return what it wrote and its exit code."""
    csv_path = os.path.join(tmp_dir, "rays.csv")
    argv = [csv_path if a == "{csv}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if os.path.exists(csv_path):
        result["csv"] = Path(csv_path).read_text(encoding="utf-8")
        os.remove(csv_path)
    return result


def _key(argv, stdin) -> str:
    return " ".join(argv) + ("" if stdin is None else " <<< " + stdin)


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_snapshot_lists_every_case(snapshot):
    assert list(snapshot) == [_key(*case) for case in CASES]


@pytest.mark.parametrize("argv, stdin", CASES,
                         ids=[f"{i:02d}-{a[0] if a else 'none'}" for i, (a, _) in enumerate(CASES)])
def test_cli_output_matches_the_snapshot(snapshot, monkeypatch, tmp_path, argv, stdin):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal width
    assert run_case(argv, stdin, str(tmp_path)) == snapshot[_key(argv, stdin)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_snapshot.py --write")
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        data = {_key(*case): run_case(*case, tmp) for case in CASES}
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {SNAPSHOT}")
