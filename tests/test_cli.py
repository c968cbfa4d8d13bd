"""Command-line surface: exit codes, file outputs, determinism."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from equimorse import cli


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv):
    return cli.main(argv)


def assert_same_report(got, want, path="report"):
    """Integers, strings and keys exactly; floats within 1e-12 relative.

    Slacks that vanish analytically come out as rounding noise of order
    1e-12, so floats also pass within 1e-11 absolute.
    """
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_report(a, b, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-11), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, path


def test_catalog_lists_cases(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    for case in ("sphere_height", "sphere_bumpy", "torus_height", "circle_trivial"):
        assert case in out
    assert "(1,0,2,0,2,0)" in out
    assert "(1,1,0,0,0)" in out


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run(["catalog", "--frobnicate"])
    assert err.value.code == 2


def test_verify_passes_and_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--case", "torus_height", "--n-grid", "64",
                "--s", "0,4", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["case"] == "torus_height"
    assert payload["status"] == "PASS"
    assert payload["betti"][:5] == [1, 1, 0, 0, 0]
    assert payload["config"]["n_grid"] == 64
    assert payload["euler"]["pass"] is True


def test_verify_rejects_tiny_grid(tmp_path):
    code = run(["verify", "--case", "sphere_height", "--n-grid", "8",
                "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_verify_rejects_unknown_case(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["verify", "--case", "mystery", "--out", str(tmp_path / "r.json")])
    assert err.value.code == 2


def test_verify_is_byte_deterministic(tmp_path):
    args = ["verify", "--case", "sphere_height", "--n-grid", "64", "--s", "0,4,8"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("case", ["sphere_height", "sphere_bumpy", "torus_height",
                                  "circle_trivial"])
def test_verify_matches_golden_report(case, tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--case", case, "--n-grid", "256", "--out", str(out)])
    assert code == 0
    with open(os.path.join(GOLDEN, f"verify_{case}_n256.json")) as fh:
        want = json.load(fh)
    assert_same_report(json.loads(out.read_text()), want)


@pytest.mark.parametrize("argv", [
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--s", ""],
    ["spectrum", "--case", "sphere_height", "--n-grid", "64", "--k", "-1"],
    ["sweep", "--case", "sphere_height", "--n-grid", "64", "--k", "-1", "--s", "4"],
    # two eigenvalues cannot bound the trace tail of a degree-0 spectrum
    ["sweep", "--case", "sphere_height", "--n-grid", "64", "--k", "0", "--s", "4",
     "--count", "2"],
    ["sweep", "--case", "sphere_height", "--n-grid", "64", "--k", "0", "--s", "4",
     "--count", "0"],
    ["spectrum", "--case", "sphere_height", "--n-grid", "64", "--count", "-3"],
    ["spectrum", "--case", "sphere_height", "--n-grid", "64", "--count", "100000"],
    ["verify", "--case", "sphere_bumpy", "--n-grid", "64", "--s", "nan"],
    ["verify", "--case", "sphere_bumpy", "--n-grid", "64", "--s", "inf"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--s", "1,abc"],
    ["verify", "--case", "sphere_bumpy", "--n-grid", "64", "--param", "c=abc"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--phi", "foo"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--phi", "gaussian:abc"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--phi", "exp_decay:0"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--kmax", "-1"],
    # the Euler identities need the degrees up to the dimension n
    ["verify", "--case", "circle_trivial", "--kmax", "0"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--kmax", "0"],
    ["verify", "--case", "torus_height", "--n-grid", "64", "--kmax", "1"],
    # under the trivial action a critical latitude is a circle of fixed points
    ["verify", "--case", "torus_height", "--n-grid", "64", "--weight", "0"],
    ["verify", "--case", "sphere_bumpy", "--n-grid", "64", "--weight", "0"],
    ["local", "--s", "0"],
    ["local", "--weight", "0"],
], ids=["verify-empty-s", "spectrum-negative-k", "sweep-negative-k",
        "sweep-tail-bound", "sweep-zero-count", "spectrum-negative-count",
        "spectrum-count-above-dim", "verify-nan-s", "verify-inf-s",
        "verify-malformed-s", "verify-malformed-param", "verify-unknown-phi",
        "verify-malformed-phi-scale", "verify-zero-phi-scale",
        "verify-negative-kmax", "verify-circle-kmax-below-n",
        "verify-surface-kmax-0", "verify-surface-kmax-1",
        "verify-torus-weight-0", "verify-bumpy-weight-0",
        "local-zero-s", "local-zero-weight"])
def test_bad_input_is_a_one_line_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--case", "circle_trivial", "--kmax", "1"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--kmax", "2"],
    ["verify", "--case", "circle_trivial", "--weight", "0"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--weight", "0"],
], ids=["circle-kmax-n", "surface-kmax-n", "circle-weight-0", "sphere-weight-0"])
def test_verify_at_the_edge_of_valid_input_passes(argv, tmp_path):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "PASS"


@pytest.mark.parametrize("name,content,argv", [
    ("run.cfg", "[run]\nn_grid = abc\n", ["verify", "--config", "{path}"]),
    ("model.cfg", "[local]\ns = abc\n", ["local", "--config", "{path}"]),
    ("report.json", "not json\n", ["report", "{path}"]),
    ("report.json", "[1, 2]\n", ["report", "{path}"]),
    ("existing_dir", None, ["verify", "--case", "sphere_height", "--n-grid", "64",
                            "--s", "0", "--out", "{path}"]),
], ids=["run-config-malformed-int", "local-config-malformed-s", "report-not-json",
        "report-not-an-object", "out-is-a-directory"])
def test_bad_file_input_is_a_one_line_usage_error(name, content, argv, tmp_path,
                                                  capsys):
    path = tmp_path / name
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    assert run([a.format(path=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["nan", "inf", "4,NaN"])
def test_s_list_rejects_non_finite_values(text):
    with pytest.raises(cli.ConfigError):
        cli._parse_s_list(text)


def test_package_binds_only_its_version():
    code = ("import equimorse; "
            "print(sorted(n for n in vars(equimorse) if not n.startswith('_')), "
            "equimorse.__version__)")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["[]", "0.1.0"]


def test_sweep_outputs(tmp_path):
    out = tmp_path / "sweep"
    code = run(["sweep", "--case", "sphere_height", "--n-grid", "64",
                "--k", "2", "--s", "4,8,16,32", "--out", str(out)])
    assert code == 0
    with open(out / "eigenvalues.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "s", "index", "value"]
    per_s = {}
    for row in rows[1:]:
        per_s.setdefault(row[1], 0)
        per_s[row[1]] += 1
    assert len(per_s) == 4
    with open(out / "traces.csv") as fh:
        mu_rows = list(csv.reader(fh))
    assert mu_rows[0] == ["k", "s", "mu"]
    assert len(mu_rows) == 5
    meta = json.loads((out / "sweep.json").read_text())
    assert meta["kernel_constant"] is True
    gaps = dict((float(s), g) for s, g in meta["gaps"])
    assert gaps[32.0] >= gaps[8.0]


def test_sweep_empty_s_list_gives_header_only(tmp_path):
    out = tmp_path / "sweep"
    code = run(["sweep", "--case", "sphere_height", "--n-grid", "64",
                "--k", "2", "--s", "", "--out", str(out)])
    assert code == 0
    rows = (out / "eigenvalues.csv").read_text().strip().splitlines()
    assert rows == ["k,s,index,value"]


def test_spectrum_subcommand(tmp_path):
    out = tmp_path / "spec.json"
    csv_path = tmp_path / "spec.csv"
    code = run(["spectrum", "--case", "circle_trivial", "--weight", "3",
                "--k", "1", "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["eigenvalues"] == [9.0]
    assert csv_path.exists()


def test_spectrum_json_carries_the_solver_facts(tmp_path):
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["spectrum", "--case", "sphere_height", "--n-grid", "64",
                    "--k", "2", "--s", "16", "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    payload = json.loads(texts[0])
    assert payload["dim"] == len(payload["eigenvalues"]) == 127
    assert payload["operator_norm"] == max(abs(x) for x in payload["eigenvalues"])
    assert payload["separation"] >= 100.0
    assert payload["vectors"] == len(payload["residual_norms"])
    assert payload["kernel_dim"] <= payload["vectors"] < payload["dim"]


def test_local_subcommand(tmp_path):
    out = tmp_path / "local.json"
    code = run(["local", "--s", "10", "--weight", "2", "--eps", "-1",
                "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["oscillator_first"] == [1.0, 3.0, 5.0]
    assert payload["branch_a"]["rel_error"] <= 1e-2
    assert payload["branch_b"]["rel_error"] <= 1e-2
    assert payload["contributions_deg0_4"] == [0, 0, 1, 0, 1]


def test_report_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--case", "torus_height", "--n-grid", "64",
                "--s", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["report", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "torus_height" in printed
    assert "PASS" in printed


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\n"
        "case = sphere_bumpy\n"
        "n_grid = 64\n"
        "out = {out}\n"
        "[geometry]\n"
        "c = -0.6\n"
        "[deformation]\n"
        "s_list = 0, 4\n"
        "[trace]\n"
        "phi_kind = gaussian\n"
        "phi_scale = 2.0\n".format(out=tmp_path / "from_file.json"))
    assert run(["verify", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "from_file.json").read_text())
    assert payload["case"] == "sphere_bumpy"
    assert payload["config"]["params"] == {"c": -0.6}
    assert payload["config"]["phi_kind"] == "gaussian"
    # the negative bump exhibits a strictly positive degree-0 slack
    assert payload["slack_thm1"][0] == 1.0


def test_local_config_section(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[local]\nq = 1\nm = 2\neps = -1\ns = 10\n")
    out = tmp_path / "local.json"
    assert run(["local", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["m"] == 2 and payload["eps"] == -1 and payload["s"] == 10.0


def test_local_config_rejects_multiple_planes(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[local]\nq = 2\nm = 1\neps = 1\ns = 10\n")
    assert run(["local", "--config", str(cfg),
                "--out", str(tmp_path / "x.json")]) == 2


def test_missing_config_file_is_usage_error(tmp_path):
    assert run(["verify", "--config", str(tmp_path / "nope.cfg")]) == 2
