"""Command line interface: golden outputs, exit codes, determinism."""

import io
import json

import pytest

from splitjac.cli import main


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
    f"{command} --cap={cap}": ((command, *args, f"--cap={cap}"), "IterationCapExceeded")
    for command, args in (("selling", FORM_ARGS), ("reconstruct", SD_ARGS),
                          ("covers", SD_ARGS), ("sweep", SD_ARGS))
    for cap in ("0", "-1")
}
CAP_CASES["fan --cap=0"] = (("fan", "--d", "5", "--k", "2", "--cap=0"), "ConeCapExceeded")
CAP_CASES["locus-compare --cap=0"] = (
    ("locus-compare", "--d", "5", "--k1", "1", "--k2", "2", "--cap=0"), "ConeCapExceeded")


def run_malformed(capsys, *argv):
    """Exit code and stderr of an invocation that must fail without a traceback.

    Exit 1 must come with empty stdout and a JSON error object on stderr; exit 2
    is argparse's usage error.  Any other exception fails the calling test.
    """
    try:
        code = main(list(argv))
    except SystemExit as exc:
        capsys.readouterr()
        assert exc.code == 2
        return 2, None
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert set(payload) == {"error", "message"}
    return code, payload


@pytest.mark.parametrize("argv, error", CAP_CASES.values(), ids=CAP_CASES.keys())
def test_a_cap_below_one_is_a_domain_error(capsys, argv, error):
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
