"""Closed-form local models against their independent grid oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from equimorse import backend as B
from equimorse import cartan as C
from equimorse import local_models as L
from equimorse import spectral as S


# ---------------------------------------------------------------------------
# harmonic oscillator
# ---------------------------------------------------------------------------

def test_ho_spectrum_values():
    assert L.ho_spectrum(1.0, 3) == [1.0, 3.0, 5.0]
    assert L.ho_spectrum(4.0, 2) == [4.0, 12.0]


@pytest.mark.parametrize("a", [1.0, 4.0])
def test_ho_spectrum_matches_grid(a):
    grid = L.ho_grid_spectrum(a, 5)
    formula = L.ho_spectrum(a, 5)
    for g, f in zip(grid, formula):
        assert abs(g - f) / f <= 1e-3


def test_ho_ground_unit_norm():
    for a in (1.0, 10.0):
        W = L.ho_ground(a)
        total, _ = quad(lambda x: W(x) ** 2, -np.inf, np.inf)
        assert abs(total - 1.0) <= 1e-10


def test_ho_ground_localization_inner_product():
    """<beta W_a, W_a> -> beta(0) = 1 as the frequency grows, for a bump
    supported in [-1, 1]."""

    def beta(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        return out

    values = []
    for a in (10.0, 100.0, 1000.0):
        W = L.ho_ground(a)
        val, _ = quad(lambda x: beta(x) * W(x) ** 2, -1.0, 1.0, limit=200)
        values.append(val)
    assert values[0] < values[1] < values[2]
    assert abs(values[2] - 1.0) <= 1e-3


def test_ho_ground_satisfies_eigen_equation():
    a = 1.0
    W = L.ho_ground(a)
    x = np.linspace(-6.0, 6.0, 1201)
    h = x[1] - x[0]
    w = W(x)
    lap = np.empty_like(w)
    lap[1:-1] = (w[2:] - 2 * w[1:-1] + w[:-2]) / h**2
    lap[0] = lap[-1] = 0.0
    resid = (-lap + a * a * x * x * w - a * w)[1:-1]
    assert np.linalg.norm(resid) / np.linalg.norm(a * w[1:-1]) <= 1e-3


# ---------------------------------------------------------------------------
# fiber coupling matrix
# ---------------------------------------------------------------------------

def test_block_matrix_eigenvalues_by_hand():
    (lo, _), (hi, _) = L.block_matrix_eigen(3.0, 4.0, +1)
    assert lo == pytest.approx(-10.0)
    assert hi == pytest.approx(10.0)


def test_block_matrix_zero_speed_limit():
    (lo, v_lo), (hi, v_hi) = L.block_matrix_eigen(5.0, 0.0, +1)
    assert (lo, hi) == pytest.approx((-10.0, 10.0))
    # eps = +1, m = 0: the matrix is diag(-2s, 2s): low vector is pure t
    assert abs(abs(v_lo[0]) - 1.0) <= 1e-14
    assert abs(v_lo[1]) <= 1e-14
    assert abs(abs(v_hi[1]) - 1.0) <= 1e-14


def test_block_matrix_large_s_asymptotics():
    (_, v_lo), _ = L.block_matrix_eigen(1000.0, 1.0, -1)
    # low eigenvector aligns with the eta axis; sine of the angle <= 1e-3
    assert abs(v_lo[0]) <= 1e-3


@pytest.mark.parametrize("eps", [-1, +1])
@pytest.mark.parametrize("s,m", [(3.0, 4.0), (10.0, 1.0), (7.0, 2.0)])
def test_block_matrix_orthonormal_and_diagonalizing(s, m, eps):
    (lo, v_lo), (hi, v_hi) = L.block_matrix_eigen(s, m, eps)
    assert abs(np.dot(v_lo, v_hi)) <= 1e-14
    assert abs(np.linalg.norm(v_lo) - 1.0) <= 1e-14
    assert abs(np.linalg.norm(v_hi) - 1.0) <= 1e-14
    M = np.array([[-2.0 * eps * s, 2.0 * m], [2.0 * m, 2.0 * eps * s]])
    assert np.linalg.norm(M @ v_lo - lo * v_lo) <= 1e-12 * max(abs(lo), 1.0)
    assert np.linalg.norm(M @ v_hi - hi * v_hi) <= 1e-12 * max(abs(hi), 1.0)


# ---------------------------------------------------------------------------
# branch spectra
# ---------------------------------------------------------------------------

def test_branch_a_values():
    a_plus, _ = L.ab_branch_spectra(5.0, 1e-9, +1, 2)
    assert a_plus.eigenvalues == pytest.approx([0.0, 20.0])
    a_minus, _ = L.ab_branch_spectra(5.0, 1.0, -1, 1)
    assert a_minus.eigenvalues == pytest.approx([20.0])


def test_branch_b_starts_at_zero_for_both_signs():
    for eps in (-1, +1):
        _, b = L.ab_branch_spectra(5.0, 2.0, eps, 3)
        assert b.eigenvalues[0] == pytest.approx(0.0)
        sp = math.hypot(5.0, 2.0)
        assert b.eigenvalues[1] == pytest.approx(4.0 * sp)


@pytest.mark.parametrize("s", [5.0, 10.0])
@pytest.mark.parametrize("m", [1.0, 2.0, 5.0])
@pytest.mark.parametrize("eps", [-1, +1])
def test_branch_spectra_match_radial_grids(s, m, eps):
    """Both branches against independent radial discretizations, lowest
    three eigenvalues, 1e-2 relative (scale: the branch magnitude)."""
    branch_a, branch_b = L.ab_branch_spectra(s, m, eps, 3)
    radial = L.radial_invariant_spectrum(s * s, 3)
    grid_a = [v - 2.0 * eps * s for v in radial]
    grid_b = L.coupled_branch_spectrum(s, m, eps, 3)
    scale_a = max(abs(v) for v in branch_a.eigenvalues) + 2 * s
    scale_b = max(abs(v) for v in branch_b.eigenvalues)
    for g, f in zip(grid_a, branch_a.eigenvalues):
        assert abs(g - f) / scale_a <= 1e-2
    for g, f in zip(grid_b, branch_b.eigenvalues):
        assert abs(g - f) / scale_b <= 1e-2


@pytest.mark.parametrize("count", [3, 48])
@pytest.mark.parametrize("eps", [-1, +1])
@pytest.mark.parametrize("m", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("s", [1.0, 5.0, 30.0])
def test_kronecker_sum_matches_the_dense_coupled_system(s, m, eps, count, monkeypatch):
    """The oracle's {t_i + c_j} against one dense solve of the assembled
    2M x 2M system blockdiag(T, T) + C (x) I_M.  Both sides are backward
    stable solves of symmetric matrices, each eigenvalue off by a small
    multiple of eps x |S|_2 <= eps x |S|_inf, and the sum t_i + c_j adds
    one rounding of the same size; 64 x eps x |S|_inf covers all three."""
    monkeypatch.setattr(L, "COUPLED_GRID_POINTS", 48)
    diag, off = L._radial_sym_tridiag(s * s + m * m, 48)
    M = len(diag)
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    C = np.array([[-2.0 * eps * s, 2.0 * m], [2.0 * m, 2.0 * eps * s]])
    I = np.eye(M)
    S = np.block([[T + C[0, 0] * I, C[0, 1] * I],
                  [C[1, 0] * I, T + C[1, 1] * I]])
    dense = np.sort(np.linalg.eigvalsh(S))[:count]
    tol = 64 * np.finfo(float).eps * np.abs(S).sum(axis=1).max()
    got = L.coupled_branch_spectrum(s, m, eps, count)
    assert len(got) == count
    assert np.abs(np.asarray(got) - dense).max() <= tol


# ---------------------------------------------------------------------------
# fiber algebra sign rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_z_matrices_are_diagonal_with_sign_rule(n):
    for i in range(n):
        Z = L.z_matrix(i, n)
        off = Z - np.diag(np.diag(Z))
        assert np.abs(off).max() == 0.0
        for mask in range(1 << n):
            expected = 1.0 if mask & (1 << i) else -1.0
            assert Z[mask, mask] == expected


def test_clifford_fiber_matches_direct_construction():
    lambdas = (1, -1, -1)
    H = L.clifford_fiber(lambdas)
    for mask in range(8):
        expected = sum(
            lam * (1 if mask & (1 << i) else -1)
            for i, lam in enumerate(lambdas))
        assert H[mask, mask] == pytest.approx(expected)
    assert np.abs(H - np.diag(np.diag(H))).max() == 0.0


def test_wedge_contract_anticommutator_is_identity():
    n = 3
    for i in range(n):
        w = L.wedge_matrix(i, n)
        c = L.contract_matrix(i, n)
        assert np.abs(w @ c + c @ w - np.eye(1 << n)).max() <= 1e-15


# ---------------------------------------------------------------------------
# contribution counts
# ---------------------------------------------------------------------------

def _point(q, eps, lambdas, s=8.0):
    return L.LocalPointModel(q=q, weights=tuple([1] * q), eps=tuple(eps),
                             lambdas=tuple(lambdas), n=2 * q + len(lambdas), s=s)


def test_point_contribution_examples():
    index2 = _point(1, [-1], [])
    assert [L.point_contribution(index2, k) for k in range(5)] == [0, 0, 1, 0, 1]
    index0 = _point(1, [+1], [])
    assert L.point_contribution(index0, 0) == 1


def test_orbit_contribution_examples():
    trans1 = L.LocalOrbitModel(speed=1, transverse=_point(0, [], [-1]))
    assert trans1.index == 1
    assert L.orbit_contribution(trans1, 1) == 1
    assert L.orbit_contribution(trans1, 3) == 0
    trans0 = L.LocalOrbitModel(speed=1, transverse=_point(0, [], [+1]))
    assert L.orbit_contribution(trans0, 0) == 1


@settings(max_examples=80, deadline=None)
@given(
    eps=st.lists(st.sampled_from([-1, 1]), min_size=0, max_size=2),
    lambdas=st.lists(st.sampled_from([-1, 1]), min_size=0, max_size=3),
    k=st.integers(min_value=0, max_value=9),
)
def test_point_contribution_parity(eps, lambdas, k):
    model = _point(len(eps), eps, lambdas)
    value = L.point_contribution(model, k)
    assert value in (0, 1)
    if value:
        assert (k - model.index) % 2 == 0 and k >= model.index
    else:
        assert k < model.index or (k - model.index) % 2 == 1


def test_asymptotic_counts_examples():
    sphere_models = [_point(1, [-1], []), _point(1, [+1], [])]
    assert L.asymptotic_counts(sphere_models, 4) == 2
    torus_models = [
        L.LocalOrbitModel(speed=1, transverse=_point(0, [], [-1])),
        L.LocalOrbitModel(speed=1, transverse=_point(0, [], [+1])),
    ]
    assert L.asymptotic_counts(torus_models, 2) == 0


def test_asymptotic_counts_against_recount():
    # indices of a bumpier function: two maxima points, one minimum orbit
    models = [_point(1, [-1], []), _point(1, [-1], []),
              L.LocalOrbitModel(speed=1, transverse=_point(0, [], [+1]))]
    c = {0: 0, 1: 0, 2: 2}
    d = {0: 1, 1: 0}
    for k in range(6):
        ctilde = d.get(k, 0) + sum(c.get(j, 0) for j in range(k % 2, k + 1, 2))
        assert L.asymptotic_counts(models, k) == ctilde


def test_model_validation():
    with pytest.raises(ValueError):
        L.LocalPointModel(q=2, weights=(1, 1), eps=(1, 1), lambdas=(), n=3)
    with pytest.raises(ValueError):
        L.LocalPointModel(q=1, weights=(0,), eps=(1,), lambdas=(), n=2)
    with pytest.raises(ValueError):
        L.LocalPointModel(q=1, weights=(1,), eps=(2,), lambdas=(), n=2)
    with pytest.raises(ValueError):
        L.LocalOrbitModel(speed=0, transverse=_point(0, [], [1]))


@pytest.mark.parametrize("call", [
    lambda: L.ho_spectrum(math.nan, 3),
    lambda: L.ho_spectrum(math.inf, 3),
    lambda: L.ho_ground(math.nan),
    lambda: L.block_matrix_eigen(math.nan, 1.0, +1),
    lambda: L.block_matrix_eigen(1.0, math.nan, +1),
    lambda: L.ab_branch_spectra(math.nan, 1.0, +1, 3),
    lambda: L.ab_branch_spectra(1.0, math.nan, +1, 3),
    lambda: L.LocalPointModel(q=1, weights=(1,), eps=(1,), lambdas=(), n=2, s=math.nan),
    lambda: L.LocalPointModel(q=1, weights=(math.inf,), eps=(1,), lambdas=(), n=2),
    lambda: L.LocalOrbitModel(speed=math.inf, transverse=_point(0, [], [1])),
    lambda: L.ho_grid_spectrum(0.0, 3),
    lambda: L.point_model_counts(1, -1, 0.0, 4, n_grid=64),
    lambda: L.orbit_model_counts(0, 1, 64.0, 4, n_grid=64),
], ids=["ho-spectrum-nan", "ho-spectrum-inf", "ho-ground-nan", "block-nan-s",
        "block-nan-m", "ab-nan-s", "ab-nan-m", "point-model-nan-s", "point-model-inf-weight",
        "orbit-model-inf-speed", "ho-grid-zero", "point-counts-zero-s",
        "orbit-counts-zero-weight"])
def test_a_nan_infinite_or_zero_argument_is_rejected(call):
    """Each range check fails NaN (not 0 < x < inf): no NaN spectrum and no
    ZeroDivisionError."""
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# assembled flat models as count oracles (moderate grids; the acceptance
# suite re-runs these at the production resolution)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("weight,eps", [(1, +1), (1, -1), (2, -1)])
def test_point_counts_match_flat_operator(weight, eps):
    model = L.LocalPointModel(q=1, weights=(weight,), eps=(eps,), lambdas=(),
                              n=2, s=64.0)
    expected = [L.point_contribution(model, k) for k in range(5)]
    got = L.point_model_counts(weight, eps, 64.0, 4, n_grid=160)
    assert got == expected


@pytest.mark.parametrize("weight,lam", [(1, +1), (1, -1)])
def test_orbit_counts_match_flat_operator(weight, lam):
    model = L.LocalOrbitModel(
        speed=weight, transverse=_point(0, [], [lam], s=64.0))
    expected = [L.orbit_contribution(model, k) for k in range(5)]
    got = L.orbit_model_counts(weight, lam, 64.0, 4, n_grid=160)
    assert got == expected


def test_near_zero_counts_solve_no_eigenvalue(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("near_zero_counts called eigensolve")

    monkeypatch.setattr(S, "eigensolve", no_solve)
    model = L.LocalPointModel(q=1, weights=(1,), eps=(-1,), lambdas=(), n=2, s=64.0)
    expected = [L.point_contribution(model, k) for k in range(5)]
    assert L.point_model_counts(1, -1, 64.0, 4, n_grid=160) == expected


@pytest.mark.parametrize("counts,weight,sign", [
    (L.point_model_counts, 1, +1), (L.point_model_counts, 1, -1),
    (L.point_model_counts, 2, +1), (L.point_model_counts, 2, -1),
    (L.orbit_model_counts, 1, +1), (L.orbit_model_counts, 1, -1),
])
def test_reused_counts_equal_the_inertia_of_every_degree(counts, weight, sign,
                                                         monkeypatch):
    """Counts from degree n+2 on are taken from degree k-2; they equal the
    inertias of each degree's own Laplacian at s/10 and s/2."""
    built = []
    build = B.build_backend
    monkeypatch.setattr(B, "build_backend",
                        lambda *args: built.append(build(*args)) or built[-1])
    s = 64.0
    got = counts(weight, sign, s, 6, n_grid=128)
    (be,) = built
    expected = []
    for k in range(7):
        delta = C.build_deformed(be, s, k)[2]
        below, cleared = S.inertia(delta, C.mass_vector(be, delta.domain),
                                   (s / 10.0, s / 2.0))
        assert cleared == below
        expected.append(below)
    assert got == expected


def test_an_eigenvalue_between_band_and_gap_refuses_the_count():
    """At s = 64 the torus keeps a degree-1 eigenvalue near 9, inside
    [s/10, s/2): the asymptotic regime is not reached.  At s = 16 it is."""
    be = B.build_backend(*B.catalog("torus_height", n_grid=64))
    assert L.near_zero_counts(be, 16.0, 2) == [1, 1, 0]
    with pytest.raises(S.AmbiguousKernelError, match=r"degree 1: 1 eigenvalue\(s\) in \[6.400e\+00"):
        L.near_zero_counts(be, 64.0, 2)
