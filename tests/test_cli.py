"""Command line interface: golden outputs, exit codes, determinism."""

import io
import json
import sys
import tracemalloc
from math import gcd

import pytest

from splitjac import cli
from splitjac.cli import main
from splitjac.locus import boundary_rays, build_fan
from splitjac.matrices import rat_str


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_setmatrix_golden(capsys):
    data = run_json(capsys, "setmatrix", "--d", "18", "--k", "7", "--lp", "3", "--l", "1")
    assert data["qpp"] == [["54", "-21"], ["-21", "74/9"]]
    assert data["det"] == "3"


def test_selling_golden(capsys):
    data = run_json(capsys, "selling", "--q11", "54", "--q12=-21", "--q22", "74/9")
    assert data["word"]["moves"] == ["T1", "T1", "T2"]
    assert data["word"]["counts"] == [1, 2]
    assert data["params"] == {"p12": "-5/3", "p13": "-11/9", "p23": "-1/3"}
    assert data["qreduced"] == [["26/9", "-5/3"], ["-5/3", "2"]]
    assert data["preflip"] is False


def test_selling_preflip(capsys):
    plus = run_json(capsys, "selling", "--q11", "54", "--q12", "21", "--q22", "74/9")
    assert plus["preflip"] is True
    assert plus["qreduced"] == [["26/9", "-5/3"], ["-5/3", "2"]]


def test_fd_golden(capsys):
    data = run_json(capsys, "fd", "--q11", "26/9", "--q12=-5/3", "--q22", "2")
    assert data["qtilde"] == [["14/9", "-1/3"], ["-1/3", "2"]]
    assert data["sigma_coords"] == ["11/9", "5/3", "1/3"]


def test_lengths_golden(capsys):
    data = run_json(capsys, "lengths", "--q11", "2", "--q12=-1", "--q22", "2")
    assert data["curve"]["type"] == "theta"
    assert data["curve"]["lengths"] == {"le": "1", "le1": "1", "le2": "1"}


def test_reconstruct_golden_json(capsys):
    data = run_json(capsys, "reconstruct", "--d", "2", "--k", "1", "--lp", "1", "--l", "3")
    assert data["curve"]["type"] == "theta"
    assert data["curve"]["lengths"] == {"le": "1", "le1": "1", "le2": "1"}
    assert data["period_matrix"]["q"] == [["2", "1"], ["1", "2"]]


def test_reconstruct_csv(capsys):
    code, out, err = run_cli(capsys, "reconstruct", "--d", "16", "--k", "1",
                             "--lp", "3", "--l", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,k,lp,l,type,len1,len2,len3"
    assert lines[1] == "16,1,3,5,dumbbell,1/2,30,"


def test_reconstruct_rejects_bad_k(capsys):
    code, out, err = run_cli(capsys, "reconstruct", "--d", "4", "--k", "2",
                             "--lp", "1", "--l", "1")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValidationError"
    assert "coprime" in payload["message"]


def test_domain_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "setmatrix", "--d", "2", "--k", "1",
                           "--lp=-1", "--l", "1")
    assert code == 1
    assert json.loads(err)["error"] == "NonPositiveLength"
    code, _, err = run_cli(capsys, "selling", "--q11", "1", "--q12", "2", "--q22", "1")
    assert code == 1
    assert json.loads(err)["error"] == "NotPositiveDefinite"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--d", "2"])  # missing required arguments
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["setmatrix", "--d", "18", "--k", "7", "--lp", "1/0", "--l", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_output_is_deterministic(capsys):
    args = ("reconstruct", "--d", "18", "--k", "7", "--lp", "3", "--l", "1")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_covers_golden(capsys):
    data = run_json(capsys, "covers", "--d", "2", "--k", "1", "--lp", "1", "--l", "3")
    first = data["covers"]["to_first"]
    second = data["covers"]["to_second"]
    assert [e["slope"] for e in first["edges"]] == [1, 0, 1]
    assert [e["slope"] for e in second["edges"]] == [-1, -2, 1]
    assert [e["offset"] for e in second["edges"]] == ["0", "2/3", "2/3"]
    assert first["degree"] == second["degree"] == 2


def test_diagram_golden(capsys):
    data = run_json(capsys, "diagram", "--d", "2", "--k", "1", "--lp", "1", "--l", "3")
    assert data["phi"] == [["1", "-1"], ["0", "2"]]
    assert data["phitilde"] == [["2", "1"], ["0", "1"]]
    assert data["zeta"] == [["2", "1"], ["0", "1"]]
    assert data["gram"] == [["2", "1"], ["1", "2"]]
    assert data["kernel_normalized"] == [["0", "0"], ["1/2", "1/2"]]
    assert data["kernel_raw"] == [["0", "0"], ["1/2", "3/2"]]
    assert data["identities"]["phitilde@phi"] == [["2", "0"], ["0", "2"]]


MORPHISM_INPUT = {
    "source": {"pairing": [["1", "0"], ["0", "3"]],
               "polarization": [["1", "0"], ["0", "1"]]},
    "target": {"pairing": [["1", "1/2"], ["0", "3/2"]]},
    "msharp": [["1", "0"], ["0", "1"]],
    "mflat": [["1", "-1"], ["0", "2"]],
    "z1": [["2", "0"], ["0", "2"]],
}


def test_mumford_file_input(capsys, tmp_path):
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(MORPHISM_INPUT))
    data = run_json(capsys, "mumford", "--input", str(path))
    assert data["inducible"] is True
    assert data["zeta2"] == [["2", "1"], ["0", "1"]]


def test_mumford_stdin_not_inducible(capsys, monkeypatch):
    payload = dict(MORPHISM_INPUT, z1=[["1", "0"], ["0", "1"]])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    data = run_json(capsys, "mumford", "--input", "-")
    assert data["inducible"] is False
    assert data["zeta2"] is None
    assert data["m"] == [["1", "1/2"], ["0", "1/2"]]


def test_mumford_missing_field(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({k: v for k, v in MORPHISM_INPUT.items() if k != "z1"}))
    code, _, err = run_cli(capsys, "mumford", "--input", str(path))
    assert code == 1
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("command", ["mumford", "adjoint"])
@pytest.mark.parametrize("payload,message", [
    ([], "input must be a JSON object, got list"),
    ("morphism", "input must be a JSON object, got str"),
    (dict(MORPHISM_INPUT, source=1), "'source' must be a JSON object, got int"),
    (dict(MORPHISM_INPUT, target=[["1"]]), "'target' must be a JSON object, got list"),
], ids=["list", "string", "int-source", "list-target"])
def test_malformed_morphism_input_is_a_validation_error(capsys, monkeypatch, command,
                                                        payload, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(capsys, command, "--input", "-")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}


@pytest.mark.parametrize("command", ["mumford", "adjoint"])
def test_indefinite_z1_is_a_domain_error(capsys, tmp_path, command):
    payload = dict(MORPHISM_INPUT, z1=[["1", "0"], ["0", "-3"]], z2=[["1", "0"], ["0", "1"]])
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "NotPositiveDefinite",
        "message": "polarization Gram matrix not positive definite: "
                   "((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(-9, 1)))"}


def test_adjoint_golden(capsys, tmp_path):
    payload = {
        "source": {"pairing": [["1", "0"], ["0", "3"]]},
        "target": {"pairing": [["2", "1"], ["1", "2"]]},
        "msharp": [["2", "1"], ["0", "1"]],
        "mflat": [["1", "-1"], ["0", "2"]],
        "z1": [["1", "0"], ["0", "1"]],
        "z2": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "adj.json"
    path.write_text(json.dumps(payload))
    data = run_json(capsys, "adjoint", "--input", str(path))
    assert data["adjoint"]["torus_map"] == [["1", "0"], ["-1", "2"]]
    assert data["composite"]["mflat"] == [["2", "0"], ["0", "2"]]
    assert data["degree"] == 2


def test_fan_json_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "rays.csv"
    data = run_json(capsys, "fan", "--d", "3", "--k", "1", "--csv", str(csv_path))
    assert data["num_cones"] == 3
    assert [c["word"] for c in data["cones"]] == [["T1", "T1"], ["T1"], []]
    assert data["cones"][0]["rays"] == [[1, 0], [2, 1]]
    assert {tuple(b["form"].items()) for b in data["boundary_rays"]} == {
        (("lp", "-1"), ("l", "2")), (("lp", "-2"), ("l", "1"))}
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,word,ray1_lp,ray1_l,ray2_lp,ray2_l,sample_lp,sample_l"
    assert lines[1] == "0,T1.T1,1,0,2,1,3,1"
    assert len(lines) == 4


def test_locus_compare_golden(capsys):
    data = run_json(capsys, "locus-compare", "--d", "3", "--k1", "1", "--k2", "2")
    assert data["equal"] is True
    assert len(data["images1"]) == 3


def test_sweep_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--d", "16", "--k", "1",
                           "--lp", "3", "--l", "3,5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lp,l,type,len1,len2,len3"
    assert "3,5,dumbbell,1/2,30," in lines
    assert "3,3,dumbbell,3/8,24," in lines


def test_sweep_json(capsys):
    data = run_json(capsys, "sweep", "--d", "2", "--k", "1",
                    "--lp", "1", "--l", "3", "--format", "json")
    assert data["rows"] == [{"lp": "1", "l": "3", "type": "theta",
                             "len1": "1", "len2": "1", "len3": "1"}]


def test_sweep_rejects_empty_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--d", "2", "--k", "1",
                           "--lp", ",", "--l", "1")
    assert code == 1
    assert json.loads(err)["error"] == "ValidationError"


SD_ARGS = ("--d", "18", "--k", "7", "--lp", "3", "--l", "1")
FORM_ARGS = ("--q11", "54", "--q12=-21", "--q22", "74/9")
CAP_CASES = {
    f"{command} --cap={cap}": (command, *args, f"--cap={cap}")
    for command, args in (("selling", FORM_ARGS), ("reconstruct", SD_ARGS),
                          ("covers", SD_ARGS), ("sweep", SD_ARGS),
                          ("fan", ("--d", "5", "--k", "2")),
                          ("locus-compare", ("--d", "5", "--k1", "1", "--k2", "2")))
    for cap in ("0", "-1")
}


def run_malformed(capsys, *argv):
    """Exit code and stderr of an invocation that must fail without a traceback.

    Exit 1 must come with empty stdout and a JSON error object on stderr; exit 2
    is argparse's usage error, also with empty stdout.  Any other exception
    fails the calling test.
    """
    try:
        code = main(list(argv))
    except SystemExit as exc:
        assert capsys.readouterr().out == ""
        assert exc.code == 2
        return 2, None
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    return code, payload


@pytest.mark.parametrize("argv", CAP_CASES.values(), ids=CAP_CASES.keys())
def test_a_cap_below_one_is_a_usage_error(capsys, argv):
    assert run_malformed(capsys, *argv) == (2, None)


@pytest.mark.parametrize("argv, error", [
    (("selling", *FORM_ARGS, "--cap=1"), "IterationCapExceeded"),
    (("fan", "--d", "5", "--k", "2", "--cap=1"), "ConeCapExceeded"),
    (("locus-compare", "--d", "5", "--k1", "1", "--k2", "2", "--cap=1"), "ConeCapExceeded"),
], ids=["selling", "fan", "locus-compare"])
def test_a_cap_that_is_too_small_is_a_domain_error(capsys, argv, error):
    assert run_malformed(capsys, *argv)[1]["error"] == error


@pytest.mark.parametrize("argv", [("fan", "--d", "5", "--k", "2", "--cap=1/2"),
                                  ("selling", *FORM_ARGS, "--cap", "many")],
                         ids=["fan", "selling"])
def test_a_cap_that_is_not_an_integer_is_a_usage_error(capsys, argv):
    assert run_malformed(capsys, *argv) == (2, None)


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_a_fan_csv_that_cannot_be_written_is_a_validation_error(capsys, tmp_path, where):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "x.csv"
    payload = run_malformed(capsys, "fan", "--d", "5", "--k", "2", "--csv", str(path))[1]
    assert payload["error"] == "ValidationError"
    assert payload["message"].startswith("cannot write CSV: ")


EYE_STRS = [["1", "0"], ["0", "1"]]
MALFORMED_MATRICES = {
    "3x3-pairing": (
        {"source": {"pairing": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}},
        "UnsupportedRank", "rank 3 unsupported"),
    "empty-row": ({"msharp": [[], []]}, "ValidationError", "empty matrix"),
    "non-list-matrix": ({"mflat": 5}, "ValidationError", "bad matrix in input: 5"),
    "string-matrix": ({"mflat": "12"}, "ValidationError", "bad matrix in input: '12'"),
    "one-char-string-matrix": ({"z1": "1"}, "ValidationError", "bad matrix in input: '1'"),
    "string-row": ({"msharp": [["1", "0"], "01"]}, "ValidationError",
                   "bad matrix in input: [['1', '0'], '01']"),
    "msharp-shape": ({"msharp": [["1", "0"]]}, "ValidationError", "msharp shape (1, 2)"),
    "z1-shape": ({"z1": [["1"]]}, "ValidationError", "polarization shape (1, 1)"),
}


@pytest.mark.parametrize("command", ["mumford", "adjoint"])
@pytest.mark.parametrize("change, error, message", MALFORMED_MATRICES.values(),
                         ids=MALFORMED_MATRICES.keys())
def test_a_malformed_matrix_is_a_domain_error(capsys, monkeypatch, command, change, error,
                                              message):
    payload = dict(MORPHISM_INPUT, z2=EYE_STRS, **change)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    got = run_malformed(capsys, command, "--input", "-")[1]
    assert got["error"] == error
    assert message in got["message"]


# --- fan: streamed JSON against the object builder it replaced ---

def oracle_fan_json(d, k) -> str:
    """fan's stdout as built before streaming: one object tree, one json.dumps."""
    fan = build_fan(d, k)

    def linform(f):
        return {"lp": rat_str(f.a), "l": rat_str(f.b)}

    return json.dumps({
        "d": fan.d, "k": fan.k,
        "num_cones": len(fan.cones),
        "cones": [{
            "word": list(c.word),
            "inequalities": [linform(f) for f in c.inequalities],
            "rays": [list(r) for r in c.rays],
            "phi_sigma": [linform(f) for f in c.phi_sigma],
        } for c in fan.cones],
        "boundary_rays": [{"word": list(word), "form": linform(f)}
                          for word, f in boundary_rays(fan)],
    }, indent=2) + "\n"


def fan_stdout(capsys, d, k, *extra):
    code, out, err = run_cli(capsys, "fan", "--d", str(d), "--k", str(k), *extra)
    assert (code, err) == (0, "")
    return out


def test_fan_json_matches_the_object_builder_for_small_d(capsys):
    pairs = [(d, k) for d in range(2, 41) for k in range(1, d) if gcd(d, k) == 1]
    assert len(pairs) == 489
    for d, k in pairs:
        assert fan_stdout(capsys, d, k) == oracle_fan_json(d, k), (d, k)


# k = 60 is the nearest to 97 / golden ratio: many short runs
@pytest.mark.parametrize("d, k", [(97, 1), (97, 2), (97, 35), (97, 60), (97, 96), (200, 1)])
def test_fan_json_matches_the_object_builder(capsys, d, k):
    assert fan_stdout(capsys, d, k) == oracle_fan_json(d, k)


def test_fan_json_with_csv_matches_the_object_builder(capsys, tmp_path):
    path = tmp_path / "rays.csv"
    assert fan_stdout(capsys, 13, 5, "--csv", str(path)) == oracle_fan_json(13, 5)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(build_fan(13, 5).cones)


@pytest.mark.parametrize("items", [[], ["    1"], ["    1", "    2"]], ids=["0", "1", "2"])
def test_json_list_pieces_match_json_dumps(items):
    expected = json.dumps([int(x) for x in items], indent=2)
    assert cli._json_list(items, "  ").replace("\n  ", "\n") == expected
    out = io.StringIO()
    cli._write_list(out, iter(items))
    assert out.getvalue().replace("\n  ", "\n") == expected


class Discard(io.TextIOBase):
    def write(self, s):
        return len(s)


def test_fan_streams_its_json(monkeypatch):
    """fan holds little more than the fan itself: no O(N^2) string or object tree."""
    build_fan(300, 1)
    cli._parser()
    monkeypatch.setattr(sys, "stdout", Discard())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_fan(300, 1)
        fan_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(["fan", "--d", "300", "--k", "1"]) == 0
        main_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert main_peak <= 2 * fan_peak, (main_peak, fan_peak)


# --- one parser per process ---

PARSER_SEQUENCE = [
    ["setmatrix", "--d", "18", "--k", "7", "--lp", "1/0", "--l", "1"],
    ["reconstruct", *SD_ARGS, "--format", "csv"],
    ["reconstruct", *SD_ARGS],
]


def run_sequence(capsys, fresh_parsers):
    results = []
    for argv in PARSER_SEQUENCE:
        if fresh_parsers:
            cli._parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        results.append((code, *capsys.readouterr()))
    return results


def test_main_builds_one_parser(capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return original()

    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        codes = [result[0] for result in run_sequence(capsys, fresh_parsers=False)]
    finally:
        cli._parser.cache_clear()
    assert codes == [2, 0, 0]
    assert len(built) == 1


def test_a_reused_parser_prints_what_fresh_parsers_print(capsys):
    cli._parser.cache_clear()
    shared = run_sequence(capsys, fresh_parsers=False)
    fresh = run_sequence(capsys, fresh_parsers=True)
    assert [r[0] for r in shared] == [2, 0, 0]
    assert shared == fresh


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
