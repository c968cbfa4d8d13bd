"""Command-line surface: exit codes, file outputs, determinism."""

import csv
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from equimorse import backend as B
from equimorse import cartan as C
from equimorse import cli
from equimorse import local_models
from equimorse import spectral


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def sphere():
    profile, f = B.catalog("sphere_height", n_grid=128)
    return B.build_backend(profile, f)


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
    assert "(1,1,0,0,0,0)" in out
    assert "(1,0,0,0,0,0)" in out


def test_readme_catalog_table_is_the_catalog_and_its_golden_kernels(capsys):
    """The README's "Catalog" table lists CATALOG_CASES in order, and each
    row's kernels are the betti of the case's golden verify report and the
    kernels `equimorse catalog` prints."""
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        section = fh.read().split("\n## Catalog\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    assert [cells[0].strip().strip("`") for cells in rows] == list(B.CATALOG_CASES)
    assert run(["catalog"]) == 0
    printed = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:]}
    for case, cells in zip(B.CATALOG_CASES, rows):
        with open(os.path.join(GOLDEN, f"verify_{case}_n256.json")) as fh:
            betti = json.load(fh)["betti"]
        assert [int(k) for k in cells[2].split(",")] == betti, case
        assert f" betti ({','.join(map(str, betti))}) " in printed[case], case


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


def test_verify_rejects_unknown_case(tmp_path, capsys):
    assert run(["verify", "--case", "mystery", "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_pole_errors_print_theta_to_significant_digits():
    # on the sphere of radius 1e-8, f = theta^2/2 is smooth at theta = 0 but
    # not at the end-1 pole theta = pi R
    profile, _ = B.catalog("sphere_height", {"R": 1e-8}, n_grid=32)
    f = B.InvariantMorseFunction("theta^2/2", f=lambda t: 0.5 * t ** 2,
                                 fp=lambda t: t, fpp=lambda t: np.ones_like(t))
    with pytest.raises(B.ProfileValidationError, match=r"f'\(3\.14159e-08\)"):
        B.build_backend(profile, f)


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
    # extreme but finite: the Laplacian, the oracle grid or the case's
    # functions overflow
    ["verify", "--case", "sphere_height", "--n-grid", "32", "--s", "1e100"],
    ["verify", "--case", "sphere_height", "--n-grid", "32", "--s", "1e300"],
    ["local", "--s", "1e300"],
    ["local", "--s", "1e-300"],
    ["verify", "--case", "torus_height", "--n-grid", "32", "--param", "r=1e200",
     "--param", "R=2e200"],
    ["verify", "--case", "sphere_height", "--n-grid", "32", "--param", "R=1e-200"],
    # phi overflows on kernel eigenvalues that rounding left below zero
    ["verify", "--case", "torus_height", "--n-grid", "32", "--s", "3e76"],
    ["sweep", "--case", "torus_height", "--n-grid", "32", "--k", "2", "--s", "3e76"],
    # malformed flags: one parser per key, not argparse's usage block
    ["verify", "--case", "sphere_height", "--n-grid", "abc"],
    ["spectrum", "--case", "sphere_height", "--n-grid", "64", "--k", "x"],
    ["sweep", "--case", "sphere_height", "--n-grid", "64", "--count", "x"],
    ["local", "--s", "abc"],
    ["local", "--weight", "x"],
    ["local", "--eps", "2"],
    # an int too large for a float
    ["verify", "--case", "sphere_height", "--n-grid", "1" + "0" * 400],
    ["local", "--weight", "1" + "0" * 400],
    ["verify", "--case", "nope"],
    # a spectrum is solved at one s
    ["spectrum", "--case", "sphere_height", "--n-grid", "64", "--s", "1,2"],
    ["sweep", "--case", "sphere_height", "--n-grid", "64", "--s", "4,0"],
    # a repeated s is solved twice and reported once
    ["verify", "--case", "sphere_height", "--n-grid", "32", "--s", "4,4"],
    ["sweep", "--case", "sphere_height", "--n-grid", "64", "--s", "4,4,8"],
    # geometry and action the catalog rejects
    ["verify", "--case", "torus_height", "--n-grid", "64", "--param", "R=0.5"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--param", "R=-1"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--param", "foo=1"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--weight", "-1"],
    ["verify", "--case", "circle_trivial", "--param", "R=2", "--param", "bogus=1"],
    # a sweep of no s would write empty files and call its kernel constant
    ["sweep", "--case", "sphere_height", "--n-grid", "32", "--s", ""],
], ids=["verify-empty-s", "spectrum-negative-k", "sweep-negative-k",
        "sweep-tail-bound", "sweep-zero-count", "spectrum-negative-count",
        "spectrum-count-above-dim", "verify-nan-s", "verify-inf-s",
        "verify-malformed-s", "verify-malformed-param", "verify-unknown-phi",
        "verify-malformed-phi-scale", "verify-zero-phi-scale",
        "verify-negative-kmax", "verify-circle-kmax-below-n",
        "verify-surface-kmax-0", "verify-surface-kmax-1",
        "verify-torus-weight-0", "verify-bumpy-weight-0",
        "local-zero-s", "local-zero-weight", "verify-huge-s", "verify-overflowing-s",
        "local-huge-s", "local-tiny-s", "verify-huge-torus", "verify-tiny-sphere",
        "verify-phi-overflow", "sweep-phi-overflow", "verify-malformed-n-grid",
        "spectrum-malformed-k", "sweep-malformed-count", "local-malformed-s",
        "local-malformed-weight", "local-eps-2", "verify-huge-int-n-grid",
        "local-huge-int-weight", "verify-unknown-case",
        "spectrum-two-s", "sweep-descending-s", "verify-repeated-s", "sweep-repeated-s",
        "verify-torus-R-below-r",
        "verify-negative-sphere-R", "verify-unused-param", "verify-negative-weight",
        "verify-circle-unused-param", "sweep-empty-s"])
def test_bad_input_is_a_one_line_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["verify", "--case", "sphere_height", "--n-grid", "64", "--s", "-1"],
     "error: s values must be nonnegative\n"),
    (["sweep", "--case", "sphere_height", "--n-grid", "64", "--s", "4,-2"],
     "error: s values must be nonnegative\n"),
    (["verify", "--case", "sphere_height", "--n-grid", "64", "--param", "R"],
     "error: --param needs key=value, got 'R'\n"),
], ids=["verify-negative-s", "sweep-negative-s", "verify-param-without-value"])
def test_a_negative_s_or_a_bare_param_exits_2_with_its_message(argv, message, tmp_path,
                                                                capsys):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_an_arpack_error_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    def no_shifts(*args, **kwargs):
        raise spla.ArpackError(3, {3: "No shifts could be applied"})

    monkeypatch.setattr(spectral.spla, "eigsh", no_shifts)
    out = tmp_path / "s.json"
    assert run(["spectrum", "--case", "sphere_height", "--n-grid", "64", "--k", "1",
                "--s", "8", "--count", "6", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No shifts could be applied" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--case", "circle_trivial", "--kmax", "1"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--kmax", "2"],
    ["verify", "--case", "circle_trivial", "--weight", "0"],
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--weight", "0"],
    # small but valid Morse functions: the root rule scales with f
    ["verify", "--case", "sphere_bumpy", "--n-grid", "64", "--param", "R=0.05"],
    ["verify", "--case", "sphere_bumpy", "--n-grid", "64", "--param", "R=0.01"],
], ids=["circle-kmax-n", "surface-kmax-n", "circle-weight-0", "sphere-weight-0",
        "bumpy-R-0.05", "bumpy-R-0.01"])
def test_verify_at_the_edge_of_valid_input_passes(argv, tmp_path):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "PASS"


LOCAL_FROM_FILE = ["local", "--config", "{path}", "--out", "{path}.json"]


@pytest.mark.parametrize("name,content,argv", [
    ("run.cfg", "[run]\nn_grid = abc\n", ["verify", "--config", "{path}"]),
    ("model.cfg", "[local]\ns = abc\n", ["local", "--config", "{path}"]),
    ("report.json", "not json\n", ["report", "{path}"]),
    ("report.json", "[1, 2]\n", ["report", "{path}"]),
    ("existing_dir", None, ["verify", "--case", "sphere_height", "--n-grid", "64",
                            "--s", "0", "--out", "{path}"]),
    # each key's range rule holds in a config file as it does for a flag
    ("model.cfg", "[local]\nm = 0\n", LOCAL_FROM_FILE),
    ("model.cfg", "[local]\nq = 2\n", LOCAL_FROM_FILE),
    ("model.cfg", "[local]\ns = -1\n", LOCAL_FROM_FILE),
    ("model.cfg", "[local]\neps = 2\n", LOCAL_FROM_FILE),
    ("run.cfg", "[run]\ncase = sphere_height\nn_grid = 32\n"
                "[deformation]\ns_list = 4, 0\n",
     ["sweep", "--config", "{path}", "--out", "{path}.out"]),
    ("run.cfg", "[run]\ncase = nope\n",
     ["verify", "--config", "{path}", "--out", "{path}.json"]),
    # JSON written by the other commands is not a verification report
    ("spec.json", '{"k": 0, "s": 0.0, "eigenvalues": [0.0], "kernel_dim": 1, '
                  '"gap": Infinity, "residual_norms": [0.0], "dim": 1, '
                  '"operator_norm": 0.0, "separation": Infinity, "vectors": 1, '
                  '"config": {}}\n', ["report", "{path}"]),
    ("sweep.json", '{"k": 1, "kernel_constant": true, "gap_monotone_from": 0.0, '
                   '"gaps": [[0.0, 1.0]], "config": {}}\n', ["report", "{path}"]),
], ids=["run-config-malformed-int", "local-config-malformed-s", "report-not-json",
        "report-not-an-object", "out-is-a-directory", "local-config-zero-m",
        "local-config-two-planes", "local-config-negative-s", "local-config-eps-2",
        "sweep-config-descending-s", "run-config-unknown-case", "report-spectrum-json",
        "report-sweep-json"])
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


@pytest.mark.parametrize("k", [1, 2])
def test_sweep_json_records_each_points_solver_facts(k, tmp_path):
    """One entry per s with the facts of its window, as sweep_s reports
    them, and nothing that varies from run to run.  Degree 1 of the
    sphere has no kernel, so its separation is null; degree 2 has one."""
    out = tmp_path / "sweep"
    argv = ["sweep", "--case", "sphere_height", "--n-grid", "64", "--k", str(k),
            "--s", "0,4,16", "--count", "24", "--out", str(out)]
    assert run(argv) == 0
    text = (out / "sweep.json").read_text()
    points = json.loads(text)["points"]
    be = B.build_backend(*B.catalog("sphere_height", n_grid=64))
    assert [p["s"] for p in points] == [0.0, 4.0, 16.0]
    sweep = spectral.sweep_s(be, k, [0.0, 4.0, 16.0], spectral.TraceSpec(), count=24)
    for point, want in zip(points, sweep.points):
        rep = want.report
        assert point == {"s": want.s, "dim": rep.dim, "operator_norm": rep.operator_norm,
                         "kernel_dim": rep.kernel_dim,
                         "separation": None if k == 1 else rep.separation,
                         "worst_residual": max(rep.residual_norms)}
        assert math.isinf(rep.separation) == (k == 1)
        assert 0 < point["worst_residual"] <= spectral.RESIDUAL_BOUND * rep.operator_norm
    assert run(argv) == 0
    assert (out / "sweep.json").read_text() == text


def test_sweep_checks_its_out_directory_before_solving(tmp_path, monkeypatch, capsys):
    """An --out that names an existing file exits 2 before any solve."""
    def unreachable(*args, **kwargs):
        raise AssertionError("sweep_s ran before --out was checked")

    monkeypatch.setattr(cli.spectral_mod, "sweep_s", unreachable)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    assert run(["sweep", "--case", "sphere_height", "--n-grid", "64", "--k", "1",
                "--s", "4", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("argv", [
    ["verify", "--case", "sphere_height", "--n-grid", "64", "--out", "{dir}"],
    ["spectrum", "--case", "sphere_height", "--n-grid", "64", "--out", "{dir}"],
    ["spectrum", "--case", "sphere_height", "--n-grid", "64", "--out", "{new}",
     "--csv", "{dir}"],
    ["sweep", "--case", "sphere_height", "--n-grid", "64", "--s", "4", "--out",
     "{sweep}"],
    ["local", "--out", "{dir}"],
], ids=["verify-out", "spectrum-out", "spectrum-csv", "sweep-file", "local-out"])
def test_an_output_naming_a_directory_exits_2_before_any_solve(argv, tmp_path,
                                                               monkeypatch, capsys):
    """Every output path is checked before anything is built or solved: the
    error names the path, not a temporary file, and no file is written."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve or oracle ran before the outputs were checked")

    for module, name in [(cli.backend_mod, "build_backend"), (cli.pipeline_mod, "run_case"),
                         (spectral, "eigensolve"), (local_models, "ab_branch_spectra"),
                         (local_models, "radial_invariant_spectrum")]:
        monkeypatch.setattr(module, name, unreachable)
    (tmp_path / "dir").mkdir()
    (tmp_path / "sweep" / "sweep.json").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    assert run([a.format(dir=tmp_path / "dir", new=tmp_path / "new.json",
                         sweep=tmp_path / "sweep") for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ".equimorse-" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("out,csv", [("P", "P"), ("./P", "P")], ids=["same", "dot-slash"])
def test_two_outputs_naming_one_file_exit_2_before_any_solve(out, csv, tmp_path,
                                                             monkeypatch, capsys):
    """spectrum --out and --csv that resolve to one file would leave only
    the CSV; they are refused before anything is built, and nothing is
    written."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a backend was built before the outputs were checked")

    monkeypatch.setattr(cli.backend_mod, "build_backend", unreachable)
    monkeypatch.chdir(tmp_path)
    assert run(["spectrum", "--case", "sphere_height", "--n-grid", "64",
                "--out", out, "--csv", csv]) == 2
    assert capsys.readouterr().err == (f"error: cannot write {csv!r}: {out!r} names "
                                       "the same file\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("n_grid", [10**20, B.MAX_N_GRID + 1], ids=["1e20", "bound+1"])
def test_an_n_grid_beyond_the_index_range_exits_2_before_any_grid(command, n_grid,
                                                                  tmp_path, monkeypatch,
                                                                  capsys):
    """An n_grid above backend.MAX_N_GRID is refused when the catalog makes
    its profile, before the backend allocates any grid."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a backend was built for an n_grid beyond the bound")

    monkeypatch.setattr(cli.backend_mod, "build_backend", unreachable)
    out = tmp_path / "out"
    assert run([command, "--case", "sphere_height", "--n-grid", str(n_grid),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: n_grid = {n_grid} > {B.MAX_N_GRID}, beyond the 32-bit "
                   "index range of the sparse factorizations\n")
    assert not out.exists()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_outputs_take_the_mode_of_a_new_file(umask, tmp_path):
    """A written file, new or replacing one, gets 0o666 less the umask, as
    open(path, "w") gives a new file."""
    replaced = tmp_path / "replaced.json"
    replaced.write_text("previous contents\n")
    replaced.chmod(0o700)
    previous = os.umask(umask)
    try:
        for name in ("new.json", "replaced.json"):
            assert run(["spectrum", "--case", "circle_trivial", "--out",
                        str(tmp_path / name), "--csv", str(tmp_path / f"{name}.csv")]) == 0
    finally:
        os.umask(previous)
    for path in tmp_path.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_csv_outputs_end_their_lines_with_lf(tmp_path):
    sweep, spec = tmp_path / "sweep", tmp_path / "spec.csv"
    assert run(["sweep", "--case", "sphere_height", "--n-grid", "32", "--k", "1",
                "--s", "0,4", "--out", str(sweep)]) == 0
    assert run(["spectrum", "--case", "sphere_height", "--n-grid", "32", "--k", "1",
                "--out", str(tmp_path / "spec.json"), "--csv", str(spec)]) == 0
    for path in (sweep / "eigenvalues.csv", sweep / "traces.csv", spec):
        text = path.read_bytes()
        assert b"\r" not in text and text.endswith(b"\n"), path.name


def test_report_emission(tmp_path, sphere):
    reps = [spectral.delta_spectrum(sphere, k, count=4) for k in (0, 1)]
    cpath = tmp_path / "eigs.csv"
    cli._write_eigenvalues(cpath, reps)
    with open(cpath) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "s", "index", "value"]
    assert len(rows) == 1 + 4 + 4


def test_csv_write_is_atomic(tmp_path, sphere, monkeypatch):
    target = tmp_path / "eigs.csv"
    target.write_text("previous contents\n")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        cli._write_eigenvalues(target, [spectral.delta_spectrum(sphere, 0, count=4)])
    assert target.read_text() == "previous contents\n"
    assert os.listdir(tmp_path) == ["eigs.csv"]


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
    # without --count: every eigenvalue below Lambda and one more
    be = B.build_backend(*B.catalog("sphere_height", n_grid=64))
    _, _, delta = C.build_deformed(be, 16.0, 2)
    sym = spectral._symmetrized(delta, C.mass_vector(be, delta.domain))
    reference = np.linalg.eigvalsh(sym.matrix.toarray())
    m = int(np.count_nonzero(reference < spectral.TraceSpec().ceiling())) + 1
    assert payload["dim"] == reference.size == 127
    assert len(payload["eigenvalues"]) == m < payload["dim"]
    assert np.abs(np.asarray(payload["eigenvalues"]) - reference[:m]).max() \
        <= 64 * np.finfo(float).eps * payload["operator_norm"]
    # |A| is the infinity norm, which bounds every eigenvalue
    assert payload["operator_norm"] >= abs(reference).max()
    assert payload["separation"] >= 100.0
    assert payload["vectors"] == len(payload["residual_norms"]) == m
    assert max(payload["residual_norms"]) <= 1e-8 * payload["operator_norm"]


def test_spectrum_without_a_count_solves_no_dense_eigh(tmp_path, monkeypatch):
    """At N=2048 the window below Lambda of torus degree 2 is a few pairs
    of 4096; it comes from shift-invert Lanczos, never from dense eigh."""
    def dense(*args, **kwargs):
        raise AssertionError("dense eigh")

    monkeypatch.setattr(spectral.sla, "eigh", dense)
    out = tmp_path / "s.json"
    assert run(["spectrum", "--case", "torus_height", "--n-grid", "2048", "--k", "2",
                "--s", "16", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    be = B.build_backend(*B.catalog("torus_height", n_grid=2048))
    _, _, delta = C.build_deformed(be, 16.0, 2)
    ceiling = spectral.TraceSpec().ceiling()
    (below,) = spectral.inertia(delta, C.mass_vector(be, delta.domain), [ceiling])
    assert len(payload["eigenvalues"]) == below + 1
    assert payload["eigenvalues"][-1] >= ceiling > max(payload["eigenvalues"][:-1])
    assert payload["vectors"] == below + 1 < payload["dim"]


def test_json_outputs_are_strict_with_null_for_no_gap(tmp_path):
    # circle_trivial degree 0 is the 1x1 zero operator: all kernel, no gap
    def strict(text):
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")
        return json.loads(text, parse_constant=reject)

    spec, sweep = tmp_path / "spec.json", tmp_path / "sweep"
    assert run(["spectrum", "--case", "circle_trivial", "--k", "0",
                "--out", str(spec)]) == 0
    assert run(["sweep", "--case", "circle_trivial", "--k", "0", "--s", "0",
                "--out", str(sweep)]) == 0
    payload = strict(spec.read_text())
    assert (payload["kernel_dim"], payload["gap"], payload["separation"]) == (1, None, None)
    assert strict((sweep / "sweep.json").read_text())["gaps"] == [[0.0, None]]


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


def test_the_circle_prints_every_line_of_a_morse_case(tmp_path, capsys):
    """verify and report print the counts and both slacks for every case,
    empty for the circle, which has no invariant Morse function."""
    out = tmp_path / "report.json"
    assert run(["verify", "--case", "circle_trivial", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "case circle_trivial: betti [1, 0, 0, 0, 0, 0]\n"
        "  counts c=[] d=[] tilde_c=[]\n"
        "  counting slack []\n"
        "  trace slack at s=64: []\n"
        "  euler {'lhs': 0, 'rhs': 0, 'pass': True}\n"
        f"  status PASS  -> {out}\n")
    assert run(["report", str(out)]) == 0
    assert capsys.readouterr().out == (
        "case circle_trivial  N=256  status PASS\n"
        "  betti     [1, 0, 0, 0, 0, 0]\n"
        "  tilde_c   []\n"
        "  slack(counting) []\n"
        "  slack(trace)    []\n"
        "  euler     {'lhs': 0, 'rhs': 0, 'pass': True}\n")


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


def test_local_flag_overrides_config_section(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[local]\ns = 10\nm = 2\n")
    out = tmp_path / "local.json"
    assert run(["local", "--s", "5", "--weight", "3", "--config", str(cfg),
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["s"] == 5.0 and payload["m"] == 3


def test_sweep_writes_into_the_given_out_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["sweep", "--case", "sphere_height", "--n-grid", "32", "--s", "4",
                "--out", "report.json"]) == 0
    assert sorted(os.listdir(tmp_path / "report.json")) == [
        "eigenvalues.csv", "sweep.json", "traces.csv"]
    assert not (tmp_path / "sweep_out").exists()


@pytest.mark.parametrize("flag", [["--kmax", "3"], ["--phi", "gaussian"]],
                         ids=["kmax", "phi"])
def test_spectrum_rejects_flags_it_never_reads(flag, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["spectrum", "--case", "sphere_height", "--n-grid", "32",
             "--out", str(tmp_path / "spec.json")] + flag)
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--case", "circle_trivial", "--n-grid", "16", "--k", "3"],
    ["sweep", "--case", "sphere_height", "--n-grid", "32", "--s", "4", "--cou", "2"],
    ["local", "--w", "3"],
], ids=["verify-k-for-kmax", "sweep-cou-for-count", "local-w-for-weight"])
def test_abbreviated_flags_are_rejected(argv, tmp_path):
    with pytest.raises(SystemExit) as err:
        run(argv + ["--out", str(tmp_path / "out")])
    assert err.value.code == 2


def test_sweep_reports_a_varying_kernel_without_naming_a_cause(tmp_path, capsys):
    # sphere_bumpy at c = -0.6: the e^{-2hs} degree-0 eigenvalue of the
    # tunneling pair falls under the kernel threshold by s = 64
    out = tmp_path / "sweep"
    assert run(["sweep", "--case", "sphere_bumpy", "--param", "c=-0.6",
                "--n-grid", "256", "--k", "0", "--s", "0,16,64",
                "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert "kernel dimension varies along the sweep: [1, 1, 2]" in text
    written = "".join(p.read_text() for p in out.iterdir())
    assert "coarse" not in text + written
    meta = json.loads((out / "sweep.json").read_text())
    assert meta["kernel_constant"] is False and "notes" not in meta


@pytest.mark.parametrize("command,config,section,key", [
    (["verify"], "[run]\ncase = circle_trivial\nn-grid = 8\n", "run", "n-grid"),
    (["verify"], "[deformation]\ns = 0\n", "deformation", "s"),
    (["verify"], "[trace]\nphi = gaussian\n", "trace", "phi"),
    (["local"], "[local]\nweight = 3\n", "local", "weight"),
], ids=["run-n-grid", "deformation-s", "trace-phi", "local-weight"])
def test_unknown_config_key_is_a_one_line_usage_error(command, config, section, key,
                                                      tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert run(command + ["--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{key!r} in [{section}]" in err


def test_config_sections_a_command_does_not_read_are_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ncase = circle_trivial\nn_grid = 32\n"
                   "[local]\nanything = 1\n[elsewhere]\nn-grid = 8\n")
    assert run(["verify", "--config", str(cfg), "--s", "0",
                "--out", str(tmp_path / "r.json")]) == 0
    cfg.write_text("[local]\nm = 3\n[run]\nn-grid = 8\n")
    assert run(["local", "--config", str(cfg), "--out", str(tmp_path / "l.json")]) == 0
    # spectrum has no trace to take a phi from
    cfg.write_text("[run]\ncase = circle_trivial\nn_grid = 32\n"
                   "[trace]\nphi_kind = bogus\n")
    assert run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s.json")]) == 0


def test_report_records_only_the_keys_its_command_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\ncase = sphere_bumpy\nn_grid = 64\nkmax = 5\n"
                   "[geometry]\nc = -0.6\n[deformation]\ns_list = 0, 4\n"
                   "[trace]\nphi_kind = gaussian\nphi_scale = 2\n")
    read = {"case": "sphere_bumpy", "n_grid": 64, "weight": 1,
            "s_list": [0.0, 4.0], "kmax": 5, "phi_kind": "gaussian",
            "phi_scale": 2.0, "params": {"c": -0.6}}

    def recorded(argv, out, report=""):
        """The config items of the command's report, in their order."""
        assert run(argv + ["--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        return list(json.loads((tmp_path / out / report).read_text())["config"].items())

    assert recorded(["verify"], "v.json") == list(read.items())
    assert recorded(["spectrum", "--s", "4", "--k", "1"], "s.json") == [
        ("case", "sphere_bumpy"), ("n_grid", 64), ("weight", 1), ("s_list", [4.0]),
        ("params", {"c": -0.6})]
    assert recorded(["sweep", "--k", "0"], "sweep", "sweep.json") == [
        (k, read[k]) for k in ("case", "n_grid", "weight", "s_list", "phi_kind",
                               "phi_scale", "params")]


@pytest.mark.parametrize("flags,config", [
    (["verify", "--case", "sphere_bumpy", "--n-grid", "64", "--s", "0,4",
      "--phi", "gaussian:2", "--param", "c=-0.6"],
     "[run]\ncase = sphere_bumpy\nn_grid = 64\n[geometry]\nc = -0.6\n"
     "[deformation]\ns_list = 0, 4\n[trace]\nphi_kind = gaussian\nphi_scale = 2\n"),
    (["local", "--weight", "3", "--eps", "1", "--s", "12"],
     "[local]\nm = 3\neps = 1\ns = 12\n"),
    # [geometry] keys keep their case, as --param's do: R is not r
    (["verify", "--case", "torus_height", "--n-grid", "64", "--s", "0,4",
      "--param", "r=1", "--param", "R=4"],
     "[run]\ncase = torus_height\nn_grid = 64\n[geometry]\nr = 1\nR = 4\n"
     "[deformation]\ns_list = 0, 4\n"),
], ids=["verify", "local", "geometry-key-case"])
def test_flags_and_config_file_give_identical_outputs(flags, config, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    from_flags, from_file = tmp_path / "flags.json", tmp_path / "file.json"
    assert run(flags + ["--out", str(from_flags)]) == 0
    assert run([flags[0], "--config", str(cfg), "--out", str(from_file)]) == 0
    assert from_flags.read_bytes() == from_file.read_bytes()


@pytest.mark.parametrize("content", [
    b"n_grid = 64\n",
    b"[run]\nn_grid = 64\nn_grid = 32\n",
    b"[run]\nn_grid = 64\n  continued\nfoo\n",
    b"[run]\nn_grid = \xff\xfe\n",
], ids=["no-section-header", "duplicate-key", "unparsable-line", "not-text"])
def test_malformed_config_file_is_a_one_line_usage_error(content, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(content)
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_values_are_plain_text(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[run]\ncase = circle_trivial\nout = {tmp_path / '100%.json'}\n")
    assert run(["verify", "--config", str(cfg), "--n-grid", "32", "--s", "0"]) == 0
    assert (tmp_path / "100%.json").exists()
