"""Seeded workloads: parameter tables, operations and output checks.

Each workload is a fixed list of operations on the public API of
equimorse.  The seed draws geometry and probe parameters only; sizes never
change with the seed.  Every workload also has a "tiny" size, used for the
untimed warm-up pass and by the benchmark's own tests.

An operation's ``run`` is the timed call into the package.  Its ``check``
turns the outputs into a list of problems (empty when every output is
correct) and a dict of float outputs, which are compared with the
reference file written from the package's baseline commit.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from equimorse import backend, cartan, cli, local_models

WORKLOADS = ("verify_catalog", "sweep_partial", "identities_large", "local_oracles")

# identities_large stays at N = 8192 when tiny: the degree-2 expansion
# residual is a discretization error of order N^-3 that exceeds its 1e-8
# check below N ~ 4096 (4.6e-5 at N = 256, 3e-12 at N = 65536).
SIZES = {
    "verify_catalog": {"full": 256, "tiny": 48},
    "sweep_partial": {"full": 8192, "tiny": 96},
    "identities_large": {"full": 65536, "tiny": 8192},
    "local_oracles": {"full": 256, "tiny": 128},
}

# Kernel dimensions beta^0..beta^5 (the README's catalog table).
CATALOG_BETTI = {
    "sphere_height": [1, 0, 2, 0, 2, 0],
    "sphere_bumpy": [1, 0, 2, 0, 2, 0],
    "torus_height": [1, 1, 0, 0, 0, 0],
    "circle_trivial": [1, 0, 0, 0, 0, 0],
}
EULER_CHI = {"sphere_height": 2, "sphere_bumpy": 2, "torus_height": 0,
             "circle_trivial": 0}

# local_oracles draws its parameters from this fixed table.
HO_A = (0.5, 1.0, 2.0, 4.0, 8.0)
BRANCH_S = (4.0, 5.0, 8.0, 10.0)
BRANCH_M = (1.0, 2.0, 3.0, 5.0)
BLOCK_S = (1.0, 3.0, 10.0, 30.0)
BLOCK_M = (1.0, 2.0, 4.0)

REFERENCE_RTOL = 1e-8
IDENTITY_TOL = 1e-12
EXPANSION_TOL = 1e-8
KMAX = 4                      # the `verify` default: counts for degrees 0..4
LOW_EIGENVALUES = 8           # non-kernel eigenvalues per s kept for the reference


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    subject names the model and grid the operation works on; the traced
    run counts eigensolves as duplicates when subject, degree, s and
    eigenvalue count repeat.  outputs are the files the operation writes.
    """

    label: str
    subject: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict]]
    outputs: tuple[str, ...] = ()


def make_params(workload: str, seed: int, tiny: bool = False) -> dict:
    """The parameter table of one run; a pure function of its arguments."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    n_grid = SIZES[workload]["tiny" if tiny else "full"]
    torus_r = rng.uniform(2.5, 3.5)
    if workload == "verify_catalog":
        bumpy_c = rng.choice((-1.0, 1.0)) * rng.uniform(0.35, 0.7)
        return {"n_grid": n_grid, "s_list": [0.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                "cases": {"sphere_height": {}, "sphere_bumpy": {"c": bumpy_c},
                          "torus_height": {"R": torus_r}, "circle_trivial": {}}}
    if workload == "sweep_partial":
        return {"n_grid": n_grid, "s_list": [4.0, 8.0, 16.0, 32.0, 64.0],
                "count": 24, "degrees": [0, 1, 2, 3],
                "cases": {"sphere_height": {}, "torus_height": {"R": torus_r}}}
    if workload == "identities_large":
        return {"n_grid": n_grid, "s_list": [1.0, 8.0, 32.0], "degrees": [0, 1, 2, 3],
                "probe_seed": rng.randrange(2 ** 31),
                "cases": {"sphere_height": {}, "torus_height": {"R": torus_r}}}
    return {"n_grid": n_grid, "count_s": 64.0,
            "ho_a": sorted(rng.sample(HO_A, 2)),
            "branch_s": sorted(rng.sample(BRANCH_S, 2)),
            "branch_m": sorted(rng.sample(BRANCH_M, 3)),
            "block": [[s, m, eps] for s in sorted(rng.sample(BLOCK_S, 2))
                      for m in sorted(rng.sample(BLOCK_M, 2)) for eps in (-1, 1)],
            "point_models": [[1, 1], [1, -1], [2, 1], [2, -1]],
            "orbit_models": [[1, 1], [1, -1]]}


def params_for(workload: str, seed: int, path: str | None) -> dict:
    """The table replayed from the JSON file at path, else the seed's table."""
    if path is None:
        return make_params(workload, seed)
    with open(path) as fh:
        return json.load(fh)


def setup_builds(workload: str, params: dict) -> list[Callable[[], object]]:
    """The catalog and build_backend calls of the workload, for setup_s."""
    if workload != "local_oracles":
        return [partial(_build_catalog, case, geo, params["n_grid"])
                for case, geo in params["cases"].items()]
    s, n_grid = params["count_s"], params["n_grid"]
    width = math.sqrt(80.0 / s)     # as point_model_counts/orbit_model_counts
    return ([partial(_build_flat, backend.flat_point_profile, m, e, width, n_grid)
             for m, e in params["point_models"]]
            + [partial(_build_flat, backend.flat_orbit_profile, m, lam, width, n_grid,
                       orbit_radius=math.sqrt(s) / m)
               for m, lam in params["orbit_models"]])


def _build_catalog(case: str, geo: dict, n_grid: int):
    return backend.build_backend(*backend.catalog(case, geo, n_grid=n_grid))


def _build_flat(profile_fn, *args, **kwargs):
    return backend.build_backend(*profile_fn(*args, **kwargs))


# Median time of each speed probe on the host the benchmark was written on
# (2 vCPU Intel Xeon, OpenBLAS pinned to one thread).
REFERENCE_PROBE_S = {"verify_catalog": 0.021, "sweep_partial": 0.31,
                     "identities_large": 0.013, "local_oracles": 0.015}


def speed_probe(workload: str) -> Callable[[], None]:
    """Fixed numpy/scipy work shaped like the workload's dominant kernel.

    The speed of a core on a shared host drifts by 10-20% for tens of
    seconds at a time.  The benchmark times this probe next to every
    operation and rescales the operation by REFERENCE_PROBE_S over the
    probe's time, which cancels most of that drift; a probe tracks the
    drift only when it stresses the machine as the operations do.  The
    probe never calls equimorse, so a change to the package cannot
    change it.
    """
    rng = np.random.default_rng(0)
    if workload == "verify_catalog":          # dense full-spectrum eigh
        a = rng.standard_normal((384, 384))
        a = a + a.T

        def probe():
            _, vectors = sla.eigh(a)
            a @ vectors
    elif workload == "sweep_partial":         # shift-invert Lanczos at dim 16384
        n = 16384
        lap = sp.diags([-np.ones(n - 1), 2.0 + rng.random(n), -np.ones(n - 1)],
                       [-1, 0, 1], format="csr")
        v0 = np.cos(np.arange(n) + 0.25)

        def probe():
            spla.eigsh(lap, k=16, sigma=-1e-6, which="LM", v0=v0, tol=0)
    elif workload == "identities_large":      # sparse products and block assembly
        m = 32768
        band = sp.diags([rng.random(m - 1), 1.0 + rng.random(m), rng.random(m - 1)],
                        [-1, 0, 1], format="csr")
        mass = 1.0 + rng.random(m)

        def probe():
            adj = sp.csr_matrix(sp.diags(1.0 / mass) @ band.T @ sp.diags(mass))
            sp.bmat([[sp.csr_matrix(adj @ band), None], [None, band]], format="csr")
    else:                                     # small dense and tridiagonal solves
        b = rng.standard_normal((500, 500))
        b = b + b.T
        diag, off = 2.0 + rng.random(600), -np.ones(599)

        def probe():
            sla.eigvalsh(b)
            sla.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 4))
    return probe


def make_ops(workload: str, params: dict, workdir: str) -> list[Op]:
    builders = {"verify_catalog": _verify_ops, "sweep_partial": _sweep_ops,
                "identities_large": _identity_ops, "local_oracles": _local_ops}
    return builders[workload](params, workdir)


def compare_floats(got: dict, ref: dict, rtol: float = REFERENCE_RTOL) -> list[str]:
    """Problems where outputs leave the reference by more than rtol.

    Values below 1 in magnitude are compared on an absolute rtol scale, so
    slacks that vanish up to rounding do not compare relative noise.
    """
    problems = []
    for key, want in ref.items():
        have = got.get(key)
        if have is None or len(have) != len(want):
            problems.append(f"{key}: {have!r} does not match the reference shape")
            continue
        for i, (a, b) in enumerate(zip(have, want)):
            if not abs(a - b) <= rtol * max(abs(b), 1.0):
                problems.append(f"{key}[{i}] = {a!r}, reference {b!r}")
                break
    return problems


def _alternating(upper, lower) -> list[int]:
    return [sum((-1) ** (k - j) * (upper[j] - lower[j]) for j in range(k + 1))
            for k in range(len(upper))]


def expected_counts(case: str, geo: dict) -> tuple[list[int], list[int]]:
    """Closed-form (c, d) for degrees 0..KMAX: fixed points and orbits by index.

    sphere_height: the south pole is a minimum, the north pole a maximum
    (index 2).  torus_height: the two critical orbits of sin are a maximum
    (index 1) and a minimum.  sphere_bumpy, f = cos t + c cos 2t:
    f'' = -1 - 4c at the north pole and 1 - 4c at the south pole, and for
    |c| > 1/4 the latitude cos t = -1/(4c) is critical with
    f'' = 4c - 1/(4c), so both poles have index 2 and the orbit index 0
    when c > 1/4, and the signs flip when c < -1/4.
    """
    c = [0] * (KMAX + 1)
    d = [0] * (KMAX + 1)
    if case == "sphere_height":
        c[0] = c[2] = 1
    elif case == "torus_height":
        d[0] = d[1] = 1
    elif case == "sphere_bumpy":
        coef = geo.get("c", 0.6)
        if abs(coef) <= 0.25:
            raise ValueError(f"sphere_bumpy with |c| = {abs(coef)} <= 1/4 has no orbit")
        if coef > 0:
            c[2], d[0] = 2, 1
        else:
            c[0], d[1] = 2, 1
    else:
        raise ValueError(f"{case!r} has no Morse function")
    return c, d


def _tilde(c, d) -> list[int]:
    return [d[k] + sum(c[j] for j in range(k % 2, k + 1, 2)) for k in range(len(c))]


def _param_flags(geo: dict) -> list[str]:
    flags = []
    for key, value in geo.items():
        flags += ["--param", f"{key}={value!r}"]
    return flags


def _cli(argv: list[str]) -> int:
    # Looked up at call time, so that the traced run sees its wrapper.
    return cli.main(argv)


def _subject(case: str, n_grid: int) -> str:
    return f"{case}/N={n_grid}"


# ---------------------------------------------------------------------------
# verify_catalog: `equimorse verify` on every catalog case
# ---------------------------------------------------------------------------

def _verify_ops(p: dict, workdir: str) -> list[Op]:
    s_text = ",".join(f"{s:g}" for s in p["s_list"])
    ops = []
    for case, geo in p["cases"].items():
        out = os.path.join(workdir, f"verify-{case}.json")
        argv = (["verify", "--case", case, "--n-grid", str(p["n_grid"]),
                 "--s", s_text, "--out", out] + _param_flags(geo))
        ops.append(Op(f"verify {case}", _subject(case, p["n_grid"]),
                      partial(_cli, argv),
                      partial(_check_verify, case, geo, out), (out,)))
    return ops


def _check_verify(case: str, geo: dict, out: str, code) -> tuple[list[str], dict]:
    problems = [] if code == 0 else [f"exit code {code}"]
    with open(out) as fh:
        rep = json.load(fh)
    betti = CATALOG_BETTI[case]
    want = {"status": "PASS", "betti": betti,
            "c": [], "d": [], "tilde_c": [], "slack_thm1": []}
    if case != "circle_trivial":
        c, d = expected_counts(case, geo)
        tilde = _tilde(c, d)
        want.update(c=c, d=d, tilde_c=tilde,
                    slack_thm1=_alternating(tilde, betti[:KMAX + 1]))
    for key, value in want.items():
        if rep.get(key) != value:
            problems.append(f"{key} = {rep.get(key)!r}, expected {value!r}")
    euler, chi = rep.get("euler", {}), EULER_CHI[case]
    if not (euler.get("pass") is True and euler.get("lhs") == euler.get("rhs") == chi):
        problems.append(f"euler = {euler!r}, expected lhs = rhs = {chi}")
    floats = {
        "slack_thm2": rep["slack_thm2"],
        "trace_slack": [v for key in sorted(rep["trace_slack_per_s"], key=float)
                        for v in rep["trace_slack_per_s"][key]],
        "levels": [v for lv in rep["levels"] for v in (lv["theta"], lv["value"])],
    }
    return problems, floats


# ---------------------------------------------------------------------------
# sweep_partial: `equimorse sweep` with a partial (shift-invert) spectrum
# ---------------------------------------------------------------------------

def _sweep_ops(p: dict, workdir: str) -> list[Op]:
    s_text = ",".join(f"{s:g}" for s in p["s_list"])
    ops = []
    for case, geo in p["cases"].items():
        for k in p["degrees"]:
            out = os.path.join(workdir, f"sweep-{case}-k{k}")
            argv = (["sweep", "--case", case, "--n-grid", str(p["n_grid"]),
                     "--k", str(k), "--s", s_text, "--count", str(p["count"]),
                     "--out", out] + _param_flags(geo))
            ops.append(Op(f"sweep {case} k={k}", _subject(case, p["n_grid"]),
                          partial(_cli, argv),
                          partial(_check_sweep, CATALOG_BETTI[case][k], p, out),
                          (out,)))
    return ops


def _check_sweep(betti_k: int, p: dict, out: str, code) -> tuple[list[str], dict]:
    problems = [] if code == 0 else [f"exit code {code}"]
    with open(os.path.join(out, "sweep.json")) as fh:
        meta = json.load(fh)
    if meta["kernel_constant"] is not True:
        problems.append("kernel dimension varies along the sweep")
    eigen: dict[float, list[float]] = {}
    with open(os.path.join(out, "eigenvalues.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            eigen.setdefault(float(row["s"]), []).append(float(row["value"]))
    with open(os.path.join(out, "traces.csv"), newline="") as fh:
        mus = {float(row["s"]): float(row["mu"]) for row in csv.DictReader(fh)}
    gaps = dict((s, g) for s, g in meta["gaps"])
    floats = {"gap": [], "mu": [], "low_eigenvalues": []}
    for s in p["s_list"]:
        values = eigen.get(s, [])
        kernel = sum(1 for v in values if v < gaps[s])
        if len(values) != p["count"]:
            problems.append(f"s={s:g}: {len(values)} eigenvalues, expected {p['count']}")
        if kernel != betti_k:
            problems.append(f"s={s:g}: kernel dimension {kernel}, expected {betti_k}")
        if not mus[s] >= betti_k * (1.0 - 1e-6):
            problems.append(f"s={s:g}: trace {mus[s]!r} below the kernel dimension")
        floats["gap"].append(gaps[s])
        floats["mu"].append(mus[s])
        floats["low_eigenvalues"] += values[kernel:kernel + LOW_EIGENVALUES]
    return problems, floats


# ---------------------------------------------------------------------------
# identities_large: assembly and structural identities, no eigensolves
# ---------------------------------------------------------------------------

def _identity_ops(p: dict, workdir: str) -> list[Op]:
    built: dict[str, backend.BackendMatrices] = {}
    ops = []
    for case, geo in p["cases"].items():
        subject = _subject(case, p["n_grid"])
        ops.append(Op(f"backend {case}", subject,
                      partial(_build_and_validate, built, case, geo, p["n_grid"]),
                      _check_validate))
        for k in p["degrees"]:
            ops.append(Op(f"adjoint {case} k={k}", subject,
                          partial(_deq_pair, built, case, k),
                          partial(_check_adjoint, [p["probe_seed"], k])))
        for s in p["s_list"]:
            for k in p["degrees"]:
                ops.append(Op(f"expansion {case} s={s:g} k={k}", subject,
                              partial(_expansion, built, case, s, k, p["probe_seed"]),
                              partial(_check_bound, EXPANSION_TOL)))
        ops.append(Op(f"de_rham {case}", subject, partial(_square_defect, built, case),
                      partial(_check_bound, IDENTITY_TOL)))
    return ops


def _build_and_validate(built: dict, case: str, geo: dict, n_grid: int) -> dict:
    built[case] = _build_catalog(case, geo, n_grid)
    return backend.validate_backend(built[case])


def _check_validate(report: dict) -> tuple[list[str], dict]:
    return [f"{name} residual {value!r}" for name, value in report.items()
            if not value <= IDENTITY_TOL], {}


def _deq_pair(built: dict, case: str, k: int):
    be = built[case]
    d = cartan.build_deq(be, k)
    star = cartan.build_deq_star(be, k + 1)
    return (d, star, cartan.mass_vector(be, d.domain),
            cartan.mass_vector(be, d.codomain))


def _check_adjoint(seed, outputs) -> tuple[list[str], dict]:
    d, star, m_dom, m_cod = outputs
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(d.domain.dim)
    y = rng.standard_normal(d.codomain.dim)
    lhs = float((d.matrix @ x) @ (m_cod * y))
    rhs = float(x @ (m_dom * (star.matrix @ y)))
    if abs(lhs - rhs) <= IDENTITY_TOL * max(abs(lhs), 1.0):
        return [], {}
    return [f"<d x, y> = {lhs!r} but <x, d* y> = {rhs!r}"], {}


def _expansion(built: dict, case: str, s: float, k: int, seed: int) -> float:
    return cartan.expansion_residual(built[case], s, k, seed=seed)


def _square_defect(built: dict, case: str) -> float:
    return cartan.build_equivariant_de_rham(built[case]).square_defect()


def _check_bound(tol: float, value: float) -> tuple[list[str], dict]:
    return ([] if value <= tol else [f"residual {value!r} exceeds {tol:g}"]), {}


# ---------------------------------------------------------------------------
# local_oracles: closed forms against grid oracles and assembled flat models
# ---------------------------------------------------------------------------

def _local_ops(p: dict, workdir: str) -> list[Op]:
    ops = [Op(f"ho a={a:g}", f"ho/a={a:g}", partial(_ho, a), _check_ho)
           for a in p["ho_a"]]
    ops.append(Op("block_matrix_eigen", "fiber", partial(_blocks, p["block"]),
                  _check_blocks))
    ops += [Op(f"branches s={s:g}", f"radial/s={s:g}",
               partial(_branches, s, p["branch_m"]), _check_branches)
            for s in p["branch_s"]]
    s, n_grid = p["count_s"], p["n_grid"]
    # Closed forms: a fixed point of index i contributes in degrees i, i+2,
    # ...; an orbit only in its transversal index.
    ops += [Op(f"point m={m} eps={e:+d}", f"plane/m={m},eps={e:+d}/N={n_grid}",
               partial(_point_counts, m, e, s, n_grid),
               partial(_check_counts, [int(k >= 1 - e and (k + e) % 2 == 1)
                                       for k in range(KMAX + 1)]))
            for m, e in p["point_models"]]
    ops += [Op(f"orbit m={m} lam={lam:+d}", f"cylinder/m={m},lam={lam:+d}/N={n_grid}",
               partial(_orbit_counts, m, lam, s, n_grid),
               partial(_check_counts, [int(k == (1 - lam) // 2)
                                       for k in range(KMAX + 1)]))
            for m, lam in p["orbit_models"]]
    return ops


def _ho(a: float):
    return local_models.ho_grid_spectrum(a, 5), local_models.ho_spectrum(a, 5)


def _check_ho(outputs) -> tuple[list[str], dict]:
    grid, exact = outputs
    problems = [f"oscillator eigenvalue {g!r} vs {f!r}"
                for g, f in zip(grid, exact) if not abs(g - f) <= 1e-3 * f]
    return problems, {"grid": list(grid)}


def _blocks(block: list):
    return [((s, m, eps), local_models.block_matrix_eigen(s, m, eps))
            for s, m, eps in block]


def _check_blocks(rows) -> tuple[list[str], dict]:
    problems = []
    for (s, m, eps), pairs in rows:
        mat = np.array([[-2.0 * eps * s, 2.0 * m], [2.0 * m, 2.0 * eps * s]])
        radius = 2.0 * math.hypot(s, m)
        for (lam, vec), want in zip(pairs, (-radius, radius)):
            if not (abs(lam - want) <= 1e-12 * radius
                    and abs(np.linalg.norm(vec) - 1.0) <= 1e-12
                    and np.linalg.norm(mat @ vec - lam * vec) <= 1e-12 * radius):
                problems.append(f"fiber eigenpair s={s:g} m={m:g} eps={eps:+d}")
    return problems, {}


def _branches(s: float, masses: list):
    radial = local_models.radial_invariant_spectrum(s * s, 3)
    rows = [(m, eps, local_models.ab_branch_spectra(s, m, eps, 3),
             local_models.coupled_branch_spectrum(s, m, eps, 3))
            for m in masses for eps in (-1, 1)]
    return s, radial, rows


def _check_branches(outputs) -> tuple[list[str], dict]:
    s, radial, rows = outputs
    problems = []
    coupled = []
    for m, eps, (branch_a, branch_b), grid_b in rows:
        grid_a = [v - 2.0 * eps * s for v in radial]
        scale_a = max(abs(v) for v in branch_a.eigenvalues) + 2 * s
        scale_b = max(abs(v) for v in branch_b.eigenvalues)
        if any(abs(g - f) > 1e-2 * scale_a for g, f in zip(grid_a, branch_a.eigenvalues)):
            problems.append(f"branch A s={s:g} m={m:g} eps={eps:+d}")
        if any(abs(g - f) > 1e-2 * scale_b for g, f in zip(grid_b, branch_b.eigenvalues)):
            problems.append(f"branch B s={s:g} m={m:g} eps={eps:+d}")
        coupled += grid_b
    return problems, {"radial": list(radial), "coupled": coupled}


def _point_counts(m: int, eps: int, s: float, n_grid: int):
    model = local_models.LocalPointModel(q=1, weights=(m,), eps=(eps,),
                                         lambdas=(), n=2, s=s)
    expected = [local_models.point_contribution(model, k) for k in range(KMAX + 1)]
    return local_models.point_model_counts(m, eps, s, KMAX, n_grid=n_grid), expected


def _orbit_counts(m: int, lam: int, s: float, n_grid: int):
    transverse = local_models.LocalPointModel(q=0, weights=(), eps=(),
                                              lambdas=(lam,), n=1, s=s)
    model = local_models.LocalOrbitModel(speed=m, transverse=transverse)
    expected = [local_models.orbit_contribution(model, k) for k in range(KMAX + 1)]
    return local_models.orbit_model_counts(m, lam, s, KMAX, n_grid=n_grid), expected


def _check_counts(closed_form: list[int], outputs) -> tuple[list[str], dict]:
    got, contributions = outputs
    if got == contributions == closed_form:
        return [], {}
    return [f"counts {got}, contributions {contributions}, closed form {closed_form}"], {}
