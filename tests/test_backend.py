"""Structural identities and validation of the discretized calculus."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from equimorse import backend as B
from equimorse import spectral as S


@pytest.mark.parametrize("case", B.CATALOG_CASES)
def test_catalog_backends_validate(case):
    profile, f = B.catalog(case, n_grid=64)
    be = B.build_backend(profile, f)
    report = B.validate_backend(be)
    assert all(v <= 1e-12 for v in report.values())


def test_masses_positive():
    for case in B.CATALOG_CASES:
        profile, f = B.catalog(case, n_grid=64)
        be = B.build_backend(profile, f)
        for mvec in be.mass:
            assert mvec.min() > 0.0


def test_sphere_dimensions_and_metadata():
    profile, f = B.catalog("sphere_height", n_grid=64)
    be = B.build_backend(profile, f)
    # u on all 64 nodes, g/w on 63 half nodes, h on 62 interior nodes
    assert be.dims == [64, 63 + 62, 63]
    assert be.profile.ends == ("pole", "pole")
    assert be.profile.weight == 1


@pytest.mark.parametrize("case", B.CATALOG_CASES)
def test_validate_backend_names_each_identity_per_degree(case):
    be = B.build_backend(*B.catalog(case, n_grid=64))
    report = B.validate_backend(be)
    if case == "circle_trivial":
        # one orbit: no d.d, i_v.i_v or df terms exist, only d i_v + i_v d
        expected = {"cartan[0]", "cartan[1]"}
    else:
        expected = {"d_squared[0]", "iv_squared[2]", "d_dfwedge[0]", "df_squared[0]",
                    *(f"{name}[{j}]" for name in ("cartan", "cartan_df") for j in range(3))}
    assert set(report) == expected
    assert all(type(v) is float and v <= 1e-12 for v in report.values())


def test_corrupted_iv_matrix_is_reported():
    profile, f = B.catalog("sphere_height", n_grid=64)
    be = B.build_backend(profile, f)
    bad = be.iv[1].tolil()
    bad[0, bad.shape[1] - 1] += 0.5
    be.iv[1] = sp.csr_matrix(bad)
    with pytest.raises(B.BackendError, match="cartan"):
        B.validate_backend(be)
    # the circle goes through the same per-degree check
    circle = B.build_backend(*B.catalog("circle_trivial"))
    circle.d[0] = sp.csr_matrix(np.array([[1.0]]))
    with pytest.raises(B.BackendError, match=r"cartan\[0\]"):
        B.validate_backend(circle)


def test_a_nan_map_is_reported_by_identity_and_degree():
    """A NaN residual compares False with any bound, so the check is
    written to fail on it, as a residual beyond 1e-12 does.  The NaN sits
    in an interior entry of d_0, which d_0 i_v on degree 1 reaches."""
    be = B.build_backend(*B.catalog("sphere_height", n_grid=64))
    bad = be.d[0].copy()
    bad.data[bad.nnz // 2] = math.nan
    be.d[0] = bad
    with pytest.raises(B.BackendError,
                       match=r"identity 'cartan\[1\]' violated: residual nan"):
        B.validate_backend(be)


def test_a_nan_mass_is_not_positive():
    be = B.build_backend(*B.catalog("sphere_height", n_grid=64))
    be.mass[1] = be.mass[1].copy()
    be.mass[1][5] = math.nan
    with pytest.raises(B.BackendError, match="mass matrix of degree 1 is not positive"):
        B.validate_backend(be)


def _with_pole_entry(be, name, value):
    """be with the first stored entry of the pole column 0 of name[0]
    set to value: d_1 d_0, i_v d_0 and d_0 i_v never multiply it, and
    df wedge's products miss it the same way."""
    maps = getattr(be, name)
    bad = maps[0].tocsc()
    bad.data[bad.indptr[0]] = value
    maps[0] = bad.tocsr()
    return be


@pytest.mark.parametrize("name,value,why", [
    ("d", math.nan, r"map d\[0\] has a non-finite entry"),
    ("dfwedge", math.inf, r"map dfwedge\[0\] has a non-finite entry"),
    ("mass", math.inf, "mass matrix of degree 1 is not positive and finite"),
], ids=["nan-pole-d0", "inf-pole-dfwedge0", "inf-mass1"])
def test_a_non_finite_entry_that_no_identity_reaches_is_reported(name, value, why):
    """Every identity residual of these reads 0.0: the entry must still
    raise, named by its map and degree."""
    be = B.build_backend(*B.catalog("sphere_height", n_grid=64))
    if name == "mass":
        be.mass[1] = be.mass[1].copy()
        be.mass[1][5] = value
    else:
        be = _with_pole_entry(be, name, value)
    with pytest.raises(B.BackendError, match=why):
        B.validate_backend(be)


def _channel_df2_and_hessian(be):
    """|df|^2 and the Clifford Hessian from the channel formulas: df wedge
    acts only from u to g (P0c) and from h to w (P1c), d from u to g (D_u)
    and from h to w (D_h), so each degree is a block of channel products."""
    n_half = be.dims[2]
    P0c = sp.csr_matrix(be.dfwedge[0][:n_half, :])
    P1c = sp.csr_matrix(be.dfwedge[1][:, n_half:])
    D_u = sp.csr_matrix(be.d[0][:n_half, :])
    D_h = sp.csr_matrix(be.d[1][:, n_half:])
    mu_u, nu_w = be.mass[0], be.mass[2]
    nu_g, mu_h = be.mass[1][:n_half], be.mass[1][n_half:]
    P0c_adj = B._adjoint(P0c, mu_u, nu_g)
    P1c_adj = B._adjoint(P1c, mu_h, nu_w)
    D_u_adj = B._adjoint(D_u, mu_u, nu_g)
    D_h_adj = B._adjoint(D_h, mu_h, nu_w)
    mult_df2 = [
        sp.csr_matrix(P0c_adj @ P0c),
        sp.csr_matrix(sp.block_diag([P0c @ P0c_adj, P1c_adj @ P1c])),
        sp.csr_matrix(P1c @ P1c_adj),
    ]
    cliff_hess = [
        sp.csr_matrix(D_u_adj @ P0c + P0c_adj @ D_u),
        sp.csr_matrix(sp.block_diag([
            D_u @ P0c_adj + P0c @ D_u_adj,
            D_h_adj @ P1c + P1c_adj @ D_h,
        ])),
        sp.csr_matrix(D_h @ P1c_adj + P1c @ D_h_adj),
    ]
    return mult_df2, cliff_hess


@pytest.mark.parametrize("n_grid", [16, 64, 256])
def test_per_degree_sums_are_bitwise_the_channel_formulas(n_grid):
    models = [B.catalog(case, params, n_grid=n_grid) for case, params in (
        ("sphere_height", {}), ("sphere_bumpy", {"c": 0.6}), ("sphere_bumpy", {"c": -0.6}),
        ("torus_height", {"R": 3.0}), ("torus_height", {"R": 2.7}))]
    for sign in (+1, -1):
        models.append(B.flat_point_profile(1, sign, 1.0, n_grid))
        models.append(B.flat_orbit_profile(1, sign, 1.0, n_grid))
    for profile, f in models:
        be = B.build_backend(profile, f)
        want_df2, want_hess = _channel_df2_and_hessian(be)
        for got, want in zip(be.mult_df2 + be.cliff_hess, want_df2 + want_hess):
            got, want = got.copy(), want.copy()
            got.sort_indices()
            want.sort_indices()
            assert got.shape == want.shape
            for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data, want.data)):
                assert np.array_equal(a, b), profile.name


def test_pole_regularity_violation_rejected():
    profile, _ = B.catalog("sphere_height", n_grid=64)
    tilted = B.InvariantMorseFunction(
        name="theta", f=lambda t: t, fp=lambda t: np.ones_like(t),
        fpp=lambda t: np.zeros_like(t))
    with pytest.raises(B.ProfileValidationError, match="not smooth"):
        B.build_backend(profile, tilted)


def test_nonpositive_radius_rejected():
    profile = B.RevolutionProfile(
        name="pinched", theta_max=math.pi, ends=("pole", "pole"),
        a=lambda t: np.sin(t) - 0.5, a_prime=lambda t: np.cos(t),
        weight=1, n_grid=64)
    with pytest.raises(B.ProfileValidationError):
        B.build_backend(profile, None)


def test_cone_singularity_rejected():
    # |a'| != 1 at the pole: smooth metric condition fails
    profile = B.RevolutionProfile(
        name="cone", theta_max=math.pi, ends=("pole", "pole"),
        a=lambda t: 0.5 * np.sin(t), a_prime=lambda t: 0.5 * np.cos(t),
        weight=1, n_grid=64)
    with pytest.raises(B.ProfileValidationError, match="pole"):
        B.build_backend(profile, None)


def _sphere_with(**changes):
    profile, f = B.catalog("sphere_height", n_grid=32)
    return B.build_backend(dataclasses.replace(profile, **changes), f)


@pytest.mark.parametrize("build", [
    lambda: _sphere_with(theta_max=math.nan),
    lambda: _sphere_with(theta_max=math.inf),
    lambda: B.build_backend(*B.flat_point_profile(1, -1, math.nan, 64)),
    lambda: _sphere_with(n_grid=32.0),
    lambda: _sphere_with(weight=math.nan),
    lambda: _sphere_with(weight=math.inf),
], ids=["nan-theta-max", "inf-theta-max", "nan-flat-radius", "float-n-grid",
        "nan-weight", "inf-weight"])
def test_a_nan_infinite_or_float_profile_input_is_rejected(build):
    """NaN fails every range check, as in validate_backend: no NaN masses,
    TypeError or bare ValueError from int()."""
    with pytest.raises(B.ProfileValidationError):
        build()


def test_small_grid_rejected():
    with pytest.raises(B.ProfileValidationError, match="16"):
        B.catalog("sphere_height", n_grid=8)


def test_unknown_case_rejected():
    with pytest.raises(B.ProfileValidationError, match="unknown"):
        B.catalog("klein_bottle")


def test_degenerate_bumpy_parameter_rejected():
    # at c = +1/4 (-1/4) the interior latitude merges with the south
    # (north) pole and f'' vanishes there
    for c in (0.25, -0.25):
        with pytest.raises(B.DegenerateCriticalLevelError):
            B.catalog("sphere_bumpy", {"c": c})


@pytest.mark.parametrize("R", [1e5, 1e-8])
def test_morse_tolerances_are_scale_free(R):
    # f = cos(theta/R) is Morse on every round sphere: |f''| = 1/R^2 at the
    # poles and |f'(pi R)| = |sin(pi)|/R, both judged against their largest value
    profile, f = B.catalog("sphere_height", {"R": R}, n_grid=32)
    B.build_backend(profile, f)
    levels = B.find_critical_levels(profile, f)
    assert [(lv.kind, lv.index) for lv in levels] == [("fixed_point", 2),
                                                       ("fixed_point", 0)]


@pytest.mark.parametrize("case,params,top", [
    ("sphere_bumpy", lambda x: {"R": x}, 8),
    ("torus_height", lambda x: {"r": x, "R": 3 * x}, 6),
], ids=["bumpy-R", "torus-r"])
def test_critical_orbits_are_found_at_every_scale(case, params, top):
    # bisection to ROOT_TOL leaves |f'(root)| of about |f''| ROOT_TOL, which
    # grows like 1/scale^2; the root rule must accept it at every scale
    def levels(scale):
        return B.find_critical_levels(*B.catalog(case, params(scale), n_grid=32))

    unit = levels(1.0)
    assert sum(lv.kind == "orbit" for lv in unit) >= 1
    for scale in (10.0 ** e for e in range(-6, top + 1)):
        got = levels(scale)
        assert [(lv.kind, lv.index) for lv in got] == [(lv.kind, lv.index) for lv in unit]
        assert [lv.theta / scale for lv in got] == pytest.approx(
            [lv.theta for lv in unit], rel=1e-5, abs=1e-5), scale


def test_exact_grid_zero_of_the_gradient_is_a_root():
    # f' = sin(theta) vanishes exactly at the first scan point of the
    # periodic grid, and changes sign between two scan points at pi
    profile, _ = B.catalog("torus_height", n_grid=32)
    f = B.InvariantMorseFunction("-cos", f=lambda t: -np.cos(t), fp=np.sin, fpp=np.cos)
    levels = B.find_critical_levels(profile, f)
    assert (levels[0].theta, levels[0].index) == (0.0, 0)
    assert levels[1].theta == pytest.approx(math.pi, abs=1e-12) and levels[1].index == 1
    want = [_bits(lv) for lv in _scalar_critical_levels(profile, f)]
    assert [_bits((lv.kind, lv.theta, lv.index, lv.hessian_eigenvalues, lv.value))
            for lv in levels] == want


def test_a_jump_in_the_gradient_is_not_a_root():
    # f' = (theta - 1) + sign(theta - 1)/2 changes sign at theta = 1 but
    # jumps there: bisection closes in on |f'| = 1/2, far above what
    # |f''| x bracket width allows
    profile, _ = B.catalog("sphere_height", n_grid=32)
    f = B.InvariantMorseFunction(
        "kink", f=lambda t: 0.5 * (t - 1) ** 2 + 0.5 * np.abs(t - 1),
        fp=lambda t: (t - 1) + 0.5 * np.sign(t - 1), fpp=np.ones_like)
    with pytest.raises(B.DegenerateCriticalLevelError, match="root refinement failed"):
        B.find_critical_levels(profile, f)


def _scalar_critical_levels(profile, f):
    """Reference implementation: f' sampled point by point, and one scalar
    bisection per sign change, stopping at the same ROOT_TOL.  A root is
    accepted when |f'| <= |f''| w + 4 eps max|f'|, w its last bracket's
    width (0 for an exact grid zero), the max over the scan grid."""
    fp = lambda t: float(f.fp(np.array([t]))[0])
    fpp = lambda t: float(f.fpp(np.array([t]))[0])
    fval = lambda t: float(f.f(np.array([t]))[0])

    def bisect_root(lo, hi):
        flo = fp(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fmid = fp(mid)
            if hi - lo < B.ROOT_TOL:
                return mid, hi - lo
            if flo * fmid <= 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        return 0.5 * (lo + hi), hi - lo

    L = profile.theta_max
    if profile.periodic:
        lo, hi = 0.0, L
    else:
        margin = L / B.SCAN_SAMPLES
        lo, hi = margin, L - margin
    grid = np.linspace(lo, hi, B.SCAN_SAMPLES)
    vals = np.array([fp(t) for t in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append((grid[i], 0.0))
        elif vals[i] * vals[i + 1] < 0:
            roots.append(bisect_root(grid[i], grid[i + 1]))
    grad_tol = 4 * np.finfo(float).eps * np.abs(vals).max()
    levels = []
    for theta, width in sorted(roots):
        hess = fpp(theta)
        assert abs(hess) >= B.HESSIAN_TOL and abs(fp(theta)) <= abs(hess) * width + grad_tol
        levels.append(("orbit", theta, 1 if hess < 0 else 0, (hess,), fval(theta)))
    if not profile.periodic:
        for side, theta in ((0, 0.0), (1, L)):
            if profile.ends[side] == "pole":
                hess = fpp(theta)
                levels.append(("fixed_point", theta, 2 if hess < 0 else 0,
                               (hess, hess), fval(theta)))
    return sorted(levels, key=lambda lv: lv[1])


def _bits(level):
    kind, theta, index, hess, value = level
    return (kind, float(theta).hex(), index, tuple(float(h).hex() for h in hess),
            float(value).hex())


def test_array_morse_analysis_is_bitwise_the_scalar_scan():
    choices = [(case, {}) for case in ("sphere_height", "sphere_bumpy", "torus_height")]
    magnitudes = np.linspace(0.2501, 2.0, 60)
    choices += [("sphere_bumpy", {"c": sign * c}) for c in magnitudes for sign in (1, -1)]
    choices += [("sphere_bumpy", {"R": R}) for R in np.linspace(1.01, 6.0, 30)]
    assert len(choices) >= 150
    orbits = 0
    for case, params in choices:
        profile, f = B.catalog(case, params, n_grid=16)
        got = [_bits((lv.kind, lv.theta, lv.index, lv.hessian_eigenvalues, lv.value))
               for lv in B.find_critical_levels(profile, f)]
        want = [_bits(lv) for lv in _scalar_critical_levels(profile, f)]
        assert got == want, (case, params)
        orbits += sum(lv[0] == "orbit" for lv in got)
    assert orbits == 2 + 1 + 120 + 30


@pytest.mark.parametrize("case", ["torus_height", "sphere_bumpy"])
def test_critical_latitude_at_weight_zero_rejected(case):
    # under the trivial action a critical latitude is a circle of fixed
    # points, neither an isolated fixed point nor a free orbit
    with pytest.raises(B.DegenerateCriticalLevelError):
        B.catalog(case, weight=0)


def test_weight_doubling_quadruples_circle_eigenvalue():
    values = {}
    for m in (2, 4):
        profile, f = B.catalog("circle_trivial", weight=m)
        be = B.build_backend(profile, f)
        rep = S.delta_spectrum(be, 1)
        values[m] = rep.eigenvalues[0]
    assert values[2] == pytest.approx(4.0, rel=1e-12)
    assert values[4] == pytest.approx(16.0, rel=1e-12)
    assert values[4] / values[2] == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("case", ["sphere_height", "torus_height"])
def test_refinement_stability(case):
    """Halving the grid spacing keeps kernels and moves low eigenvalues < 2%."""
    spectra = {}
    for n in (96, 192):
        profile, f = B.catalog(case, n_grid=n)
        be = B.build_backend(profile, f)
        betti = S.betti_numbers(be, 3)
        eigs = {}
        for k in (0, 1):
            rep = S.delta_spectrum(be, k, count=12)
            w = np.asarray(rep.eigenvalues)
            eigs[k] = w[rep.kernel_dim:rep.kernel_dim + 10]
        spectra[n] = (betti, eigs)
    assert spectra[96][0] == spectra[192][0]
    for k in (0, 1):
        a, b = spectra[96][1][k], spectra[192][1][k]
        assert np.max(np.abs(a - b) / b) <= 0.02


def test_clifford_hessian_consistent_with_frame_formula():
    """The assembled Clifford Hessian acts on smooth fields like
    fpp*Z1 + (a'/a)*fp*Z2 with the frame signs, to second order."""
    profile, f = B.catalog("sphere_height", n_grid=256)
    be = B.build_backend(profile, f)
    th = profile.theta_max / (profile.n_grid - 1) * np.arange(profile.n_grid)
    a = profile.a(th)
    fp = f.fp(th)
    fpp = f.fpp(th)
    # (a'/a) fp has the finite limit fpp at the poles
    ratio = np.empty_like(th)
    inner = slice(1, -1)
    ratio[inner] = profile.a_prime(th[inner]) / a[inner] * fp[inner]
    ratio[0] = fpp[0]
    ratio[-1] = fpp[-1]
    target_u = -(fpp + ratio)

    probe = np.cos(th)  # smooth, even at both poles
    got = be.cliff_hess[0] @ probe
    want = target_u * probe
    err = np.max(np.abs(got - want)[inner]) / np.max(np.abs(want))
    assert err < 2e-3

    sq = be.mult_df2[0] @ probe
    want_sq = fp**2 * probe
    err_sq = np.max(np.abs(sq - want_sq)[inner]) / np.max(np.abs(want_sq))
    assert err_sq < 2e-3


def test_flat_profiles_validate():
    for eps in (+1, -1):
        profile, f = B.flat_point_profile(1, eps, 1.0, 64)
        B.validate_backend(B.build_backend(profile, f))
    for lam in (+1, -1):
        profile, f = B.flat_orbit_profile(1, lam, 1.0, 64)
        B.validate_backend(B.build_backend(profile, f))


def test_circle_backend_is_two_dimensional():
    profile, f = B.catalog("circle_trivial", weight=2)
    be = B.build_backend(profile, f)
    assert be.n == 1
    assert be.dims == [1, 1]
    assert be.f is None


N_ENDS = 64
END_MODELS = {
    "sphere": lambda: B.catalog("sphere_height", n_grid=N_ENDS),
    "plane_free": lambda: B.flat_point_profile(1, +1, 1.0, N_ENDS),
    "plane_cut": lambda: B.flat_point_profile(1, -1, 1.0, N_ENDS),
    "cylinder_free": lambda: B.flat_orbit_profile(1, +1, 1.0, N_ENDS),
    "cylinder_cut": lambda: B.flat_orbit_profile(1, -1, 1.0, N_ENDS),
    "torus": lambda: B.catalog("torus_height", n_grid=N_ENDS),
}


@pytest.mark.parametrize("model,dims", [
    ("sphere", [N_ENDS, 2 * N_ENDS - 3, N_ENDS - 1]),           # pole/pole
    ("plane_free", [N_ENDS, 2 * N_ENDS - 2, N_ENDS - 1]),       # pole/free
    ("plane_cut", [N_ENDS - 1, 2 * N_ENDS - 3, N_ENDS - 1]),    # pole/cut
    ("cylinder_free", [N_ENDS, 2 * N_ENDS - 1, N_ENDS - 1]),    # free/free
    ("cylinder_cut", [N_ENDS - 2, 2 * N_ENDS - 3, N_ENDS - 1]), # cut/cut
    ("torus", [N_ENDS, 2 * N_ENDS, N_ENDS]),                    # periodic
])
def test_end_kinds_decide_the_kept_dofs(model, dims):
    """u is dropped at cut ends, h at pole and cut ends; g and w live on
    the N-1 half nodes of a bounded profile and the N of a periodic one."""
    profile, f = END_MODELS[model]()
    assert B.build_backend(profile, f).dims == dims


@pytest.mark.parametrize("model", ["sphere", "plane_free", "plane_cut",
                                   "cylinder_free", "cylinder_cut"])
def test_end_node_masses(model):
    """A kept end node carries the half dual cell: 0.5 dx a(dx/4) for u at
    a pole (the half cell's midpoint), 0.5 dx a_h for u and 0.5 dx / a_h
    for h at a free end, with a_h the value at the adjacent half node."""
    profile, f = END_MODELS[model]()
    be = B.build_backend(profile, f)
    N, L = profile.n_grid, profile.theta_max
    dx = L / (N - 1)
    a = lambda t: float(profile.a(np.array([t]))[0])
    for side, pos, node, half, quarter in ((0, 0, 0.0, dx / 2, dx / 4),
                                           (1, -1, L, L - dx / 2, L - dx / 4)):
        kind = profile.ends[side]
        if kind == "pole":
            assert be.mass[0][pos] == pytest.approx(0.5 * dx * a(quarter), rel=1e-13)
        elif kind == "free":
            assert be.mass[0][pos] == pytest.approx(0.5 * dx * a(half), rel=1e-13)
            h_mass = be.mass[1][N - 1 if side == 0 else -1]
            assert h_mass == pytest.approx(0.5 * dx / a(half), rel=1e-13)
        # a cut end keeps neither u nor h, which the dims test covers


def test_function_masses_integrate_the_orbit_radius():
    """sum(mass[0]) -> int a dtheta: second order on the sphere (the pole
    cells included), exact for the torus's trigonometric a."""
    errors = []
    for n in (64, 128, 256, 512):
        profile, f = B.catalog("sphere_height", n_grid=n)
        errors.append(abs(B.build_backend(profile, f).mass[0].sum() - 2.0))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.9 < ratios) & (ratios < 4.2)), ratios
    for n in (64, 65, 256):
        profile, f = B.catalog("torus_height", n_grid=n)
        total = B.build_backend(profile, f).mass[0].sum()
        assert abs(total - 6.0 * math.pi) <= 1e-13


# ---------------------------------------------------------------------------
# Catalog functions as trigonometric series
# ---------------------------------------------------------------------------

def _hand_written(case, p):
    """(a, a', f, f', f'') of a surface case, each written out by hand: the
    reference the catalog's derived series must reproduce."""
    if case == "torus_height":
        r, R = p.get("r", 1.0), p.get("R", 3.0)
        return (lambda th: R + r * np.cos(th / r), lambda th: -np.sin(th / r),
                lambda th: np.sin(th / r), lambda th: np.cos(th / r) / r,
                lambda th: -np.sin(th / r) / r ** 2)
    R = p.get("R", 1.0)
    a, a_prime = (lambda th: R * np.sin(th / R)), (lambda th: np.cos(th / R))
    if case == "sphere_height":
        return (a, a_prime, lambda th: np.cos(th / R), lambda th: -np.sin(th / R) / R,
                lambda th: -np.cos(th / R) / R ** 2)
    c = p.get("c", 0.6)
    return (a, a_prime,
            lambda th: np.cos(th / R) + c * np.cos(2 * th / R),
            lambda th: (-np.sin(th / R) - 2 * c * np.sin(2 * th / R)) / R,
            lambda th: (-np.cos(th / R) - 4 * c * np.cos(2 * th / R)) / R ** 2)


def _series_draws(count=60, seed=24):
    """The defaults, then seeded draws of R and r log-uniform in [1e-6, 1e6]
    (r < R on the torus) and c uniform in [-0.7, 0.7]."""
    rng = np.random.default_rng(seed)
    draws = [("sphere_height", {}), ("sphere_bumpy", {}), ("torus_height", {})]
    for i in range(count):
        small, large = np.sort(np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 2)))
        c = float(rng.uniform(-0.7, 0.7))
        draws.append([("sphere_height", {"R": float(large)}),
                      ("sphere_bumpy", {"R": float(large), "c": c}),
                      ("torus_height", {"r": float(small), "R": float(large)})][i % 3])
    return draws


def test_series_are_bitwise_the_hand_written_functions():
    for case, p in _series_draws():
        profile, f = B.catalog(case, p, n_grid=32)
        a, a_prime, *want = _hand_written(case, p)
        th = np.linspace(0.0, profile.theta_max, B.SCAN_SAMPLES)
        for got, ref in zip((profile.a, f.f, f.fp, f.fpp), (a, *want)):
            assert got(th).tobytes() == ref(th).tobytes(), (case, p)
        # a' = (R cos)/R or (-r sin)/r rounds once more than the hand-written form
        scale = np.abs(a_prime(th)).max()
        assert np.abs(profile.a_prime(th) - a_prime(th)).max() <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("case,params", [
    ("sphere_height", {}), ("sphere_bumpy", {}), ("torus_height", {}),
    ("sphere_bumpy", {"R": 0.01, "c": -0.6}), ("torus_height", {"r": 100.0, "R": 300.0}),
])
def test_derived_derivatives_match_central_differences(case, params):
    profile, f = B.catalog(case, params, n_grid=32)
    L = profile.theta_max
    h = 1e-3 * L
    th = np.linspace(h, L - h, 257)
    for g, gp, gpp in ((profile.a, profile.a_prime, None), (f.f, f.fp, f.fpp)):
        first = (g(th + h) - g(th - h)) / (2 * h)
        assert np.abs(first - gp(th)).max() <= 1e-5 * np.abs(gp(th)).max()
        if gpp is not None:
            second = (g(th + h) - 2 * g(th) + g(th - h)) / h ** 2
            assert np.abs(second - gpp(th)).max() <= 1e-5 * np.abs(gpp(th)).max()


def test_n_grid_is_bounded_by_the_factor_index_range():
    """MAX_N_GRID nodes give factors within SuperLU's 32-bit counts (at most
    32 nonzeros a node); one more is refused before any grid exists."""
    assert 32 * B.MAX_N_GRID < 2**31
    profile, _ = B.catalog("torus_height", n_grid=B.MAX_N_GRID)
    assert profile.n_grid == B.MAX_N_GRID
    for n_grid in (B.MAX_N_GRID + 1, 10**20):
        with pytest.raises(B.ProfileValidationError, match=f"n_grid = {n_grid} > "):
            B.catalog("torus_height", n_grid=n_grid)
