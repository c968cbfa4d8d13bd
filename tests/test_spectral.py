"""Eigensolver, kernel detection, traces, sweeps and report emission."""

import csv
import math
import os

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from equimorse import backend as B
from equimorse import cartan as C
from equimorse import spectral as S


@pytest.fixture(scope="module")
def sphere():
    profile, f = B.catalog("sphere_height", n_grid=128)
    return B.build_backend(profile, f)


@pytest.fixture(scope="module")
def torus():
    profile, f = B.catalog("torus_height", n_grid=128)
    return B.build_backend(profile, f)


def test_identity_matrix_spectrum():
    rep = S.eigensolve(sp.identity(5, format="csr"), np.ones(5), count=3)
    assert rep.eigenvalues == pytest.approx([1.0, 1.0, 1.0])
    assert rep.kernel_dim == 0
    assert rep.gap == pytest.approx(1.0)


def test_kernel_is_one_threshold_on_the_operator_norm():
    tau = S.KERNEL_TAU_ABS  # the operator norm below is 1
    w = np.array([0.5 * tau, 2.0 * tau, 1.0])
    rep = S.eigensolve(sp.diags(w, format="csr"), np.ones(3))
    assert rep.operator_norm == 1.0
    assert rep.kernel_dim == 1
    assert rep.gap == w[1]
    assert rep.separation == w[1] / w[0]


def test_eigenvalue_just_above_the_threshold_is_outside_the_kernel():
    # an iterated absolute-plus-relative rule would widen the threshold by
    # 0.1% and count this eigenvalue as kernel
    w = np.array([1.0005 * S.KERNEL_TAU_ABS, 1.0])
    rep = S.eigensolve(sp.diags(w, format="csr"), np.ones(2))
    assert rep.kernel_dim == 0
    assert rep.gap == w[0]
    assert rep.separation == math.inf


def test_circle_weight_three_single_eigenvalue():
    profile, f = B.catalog("circle_trivial", weight=3)
    be = B.build_backend(profile, f)
    rep = S.delta_spectrum(be, 1)
    assert rep.eigenvalues == pytest.approx([9.0])
    assert rep.kernel_dim == 0


def test_sphere_axisymmetric_spectrum():
    """Degree zero at s=0: (0, 2, 6, ...) - the l(l+1) series restricted
    to rotation-invariant modes on the unit round sphere."""
    profile, f = B.catalog("sphere_height", n_grid=256)
    be = B.build_backend(profile, f)
    rep = S.delta_spectrum(be, 0, count=4)
    assert rep.kernel_dim == 1
    assert rep.eigenvalues[1] == pytest.approx(2.0, rel=0.02)
    assert rep.eigenvalues[2] == pytest.approx(6.0, rel=0.02)


@pytest.mark.parametrize("case,expected", [
    ("sphere_height", [1, 0, 2, 0, 2, 0]),
    ("torus_height", [1, 1, 0, 0, 0]),
    ("circle_trivial", [1, 0, 0, 0, 0]),
])
def test_betti_numbers(case, expected):
    profile, f = B.catalog(case, n_grid=128)
    be = B.build_backend(profile, f)
    assert S.betti_numbers(be, len(expected) - 1) == expected


def test_betti_independent_of_deformation(sphere):
    betti = S.betti_numbers(sphere, 3, s_probes=(0.0, 4.0, 16.0))
    assert betti == [1, 0, 2, 0]


def test_kernel_separation_is_wide(sphere):
    for k in (0, 2):
        rep = S.delta_spectrum(sphere, k)
        assert rep.kernel_dim > 0
        assert rep.separation >= 100.0


def test_trace_phi_direct_evaluation():
    rep = S.SpectrumReport(k=0, s=0.0, eigenvalues=[0.0, 0.0, 5.0, 9.0],
                           kernel_dim=2, gap=5.0, residual_norms=[],
                           dim=4, count=4)
    spec = S.TraceSpec("exp_decay", 1.0)
    assert S.trace_phi(rep, spec) == pytest.approx(
        2.0 + math.exp(-5.0) + math.exp(-9.0))


def test_trace_phi_empty_spectrum():
    rep = S.SpectrumReport(k=0, s=0.0, eigenvalues=[], kernel_dim=0,
                           gap=math.inf, residual_norms=[], dim=0, count=0)
    assert S.trace_phi(rep, S.TraceSpec()) == 0.0


def test_trace_phi_tail_bound_enforced():
    rep = S.SpectrumReport(k=0, s=0.0, eigenvalues=[0.0, 1.0], kernel_dim=1,
                           gap=1.0, residual_norms=[], dim=500, count=2)
    with pytest.raises(S.TailBoundError):
        S.trace_phi(rep, S.TraceSpec())


def test_trace_exceeds_kernel_dimension(sphere):
    spec = S.TraceSpec()
    for k in (0, 1, 2):
        rep = S.delta_spectrum(sphere, k)
        assert S.trace_phi(rep, spec) >= rep.kernel_dim


def test_trace_spec_validation():
    with pytest.raises(ValueError):
        S.TraceSpec("polynomial")
    with pytest.raises(ValueError):
        S.TraceSpec("gaussian", 0.0)
    spec = S.TraceSpec("gaussian", 2.0)
    assert spec.phi(0.0) == pytest.approx(1.0)
    assert spec.phi(2.0) == pytest.approx(math.exp(-1.0))


def test_sweep_reduces_to_undeformed_at_zero(sphere):
    result = S.sweep_s(sphere, 2, [0.0], S.TraceSpec())
    direct = S.delta_spectrum(sphere, 2)
    assert result.points[0].report.eigenvalues == direct.eigenvalues
    assert result.kernel_constant


def test_sweep_gap_growth_and_kernel_constancy(sphere):
    result = S.sweep_s(sphere, 2, [4.0, 8.0, 16.0, 32.0], S.TraceSpec())
    assert result.kernel_constant
    kernels = {p.report.kernel_dim for p in result.points}
    assert kernels == {2}
    gaps = dict(result.gaps())
    assert gaps[32.0] > gaps[8.0]
    assert result.gap_monotone_from is not None
    assert result.gap_monotone_from <= 8.0


def test_deformed_kernel_persists_and_gap_opens():
    profile, f = B.catalog("sphere_height", n_grid=128)
    be = B.build_backend(profile, f)
    rep = S.delta_spectrum(be, 0, s=10.0, count=2)
    assert rep.eigenvalues[0] < 1e-3
    assert rep.eigenvalues[1] > 1.0


def test_large_s_trace_approaches_count(sphere):
    # degree 0 at s=64: one localized ground state, the rest pushed high
    rep = S.delta_spectrum(sphere, 0, s=64.0)
    mu = S.trace_phi(rep, S.TraceSpec())
    assert abs(mu - 1.0) <= 0.05
    # degree 1 at s=32: no critical level of index 1 anywhere
    rep1 = S.delta_spectrum(sphere, 1, s=32.0)
    assert S.trace_phi(rep1, S.TraceSpec()) <= 0.05


def test_torus_gap_nondecreasing_in_s(torus):
    for k in (0, 1, 2):
        result = S.sweep_s(torus, k, [8.0, 16.0, 32.0], S.TraceSpec())
        assert result.kernel_constant
        gaps = [g for _, g in result.gaps()]
        assert gaps[1] >= gaps[0] and gaps[2] >= gaps[1]


def test_torus_degree_one_near_zero_count():
    """At s=64 the deformed degree-1 operator on the torus keeps exactly
    one eigenvalue under s/10: the kernel class of the index-1 orbit.
    The next cluster sits near (speed * radius)^2 = 9."""
    profile, f = B.catalog("torus_height", n_grid=256)
    be = B.build_backend(profile, f)
    rep = S.delta_spectrum(be, 1, s=64.0)
    w = np.asarray(rep.eigenvalues)
    assert int(np.count_nonzero(w < 6.4)) == 1
    above = w[np.count_nonzero(w < 6.4)]
    assert above == pytest.approx(9.0, rel=0.1)


def test_sweep_rejects_unsorted():
    profile, f = B.catalog("sphere_height", n_grid=64)
    be = B.build_backend(profile, f)
    with pytest.raises(ValueError):
        S.sweep_s(be, 0, [4.0, 2.0], S.TraceSpec())


def test_dense_and_iterative_agree(sphere, monkeypatch):
    delta = C.build_delta_eq(sphere, 1)
    mass = C.mass_vector(sphere, delta.domain)
    dense = S.eigensolve(delta, mass, count=10)
    monkeypatch.setattr(S, "DENSE_LIMIT", 16)
    iterative = S.eigensolve(delta, mass, count=10)
    a = np.asarray(dense.eigenvalues)
    b = np.asarray(iterative.eigenvalues)
    scale = np.maximum(np.abs(a), 1.0)
    assert np.max(np.abs(a - b) / scale) <= 1e-7


def test_eigenpair_residuals_reported(sphere):
    rep = S.delta_spectrum(sphere, 1, count=6)
    assert len(rep.residual_norms) == 6
    assert max(rep.residual_norms) <= 1e-8 * max(rep.operator_norm, 1.0)


def test_periodicity_spectra_exact(sphere, torus):
    for be in (sphere, torus):
        assert S.periodicity_defect(be, 2) <= 1e-10
        assert S.periodicity_defect(be, 3) <= 1e-10


def test_report_emission(tmp_path, sphere):
    reps = [S.delta_spectrum(sphere, k, count=4) for k in (0, 1)]
    cpath = tmp_path / "eigs.csv"
    S.reports_to_csv(reps, cpath)
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
        S.reports_to_csv([S.delta_spectrum(sphere, 0, count=4)], target)
    assert target.read_text() == "previous contents\n"
    assert os.listdir(tmp_path) == ["eigs.csv"]


def test_count_validation(sphere):
    delta = C.build_delta_eq(sphere, 0)
    mass = C.mass_vector(sphere, delta.domain)
    for count in (delta.domain.dim + 1, 0, -3):
        with pytest.raises(S.CountError):
            S.eigensolve(delta, mass, count=count)


def _symmetrized(delta, mass):
    sqrt_m = np.sqrt(mass)
    A = sp.diags(sqrt_m) @ delta.matrix @ sp.diags(1.0 / sqrt_m)
    return (0.5 * (A + A.T)).toarray()


@pytest.mark.parametrize("k", [0, 1, 2], ids=["one-block", "two-blocks", "coupled"])
@pytest.mark.parametrize("s", [0.0, 16.0])
def test_block_solver_matches_one_dense_eigh(sphere, torus, k, s):
    """Reference: one LAPACK call on the whole symmetrized matrix.

    Both solvers are backward stable, so their eigenvalues differ by a
    small multiple of eps |A|; 64 eps |A| is that multiple with room.
    """
    for be in (sphere, torus):
        _, _, delta = C.build_deformed(be, s, k)
        mass = C.mass_vector(be, delta.domain)
        reference, _ = sla.eigh(_symmetrized(delta, mass))
        got = np.asarray(S.eigensolve(delta, mass, k=k, s=s).eigenvalues)
        norm = np.abs(reference).max()
        assert got.shape == reference.shape
        assert np.abs(got - reference).max() <= 64 * np.finfo(float).eps * norm


@pytest.mark.parametrize("case", ["sphere_bumpy", "torus_height"])
def test_eigenvalues_do_not_depend_on_the_basis_order(case):
    profile, f = B.catalog(case, n_grid=256)
    be = B.build_backend(profile, f)
    for k in range(4):
        for s in (0.0, 16.0, 64.0):
            _, _, delta = C.build_deformed(be, s, k)
            mass = C.mass_vector(be, delta.domain)
            perm = np.random.default_rng(0).permutation(delta.domain.dim)
            a = np.asarray(S.eigensolve(delta, mass).eigenvalues)
            b = np.asarray(S.eigensolve(delta.matrix[perm][:, perm], mass[perm]).eigenvalues)
            assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), 1.0)), (k, s)


def test_residual_gate_rejects_a_wrong_eigenvalue(sphere, monkeypatch):
    """A band eigenvalue off by 100 x RESIDUAL_BOUND x |A| is rejected.

    Inside the low window the Rayleigh quotients no longer match the band
    eigenvalues; outside it, where no vector is computed, the eigenvalues
    no longer sum to the trace.
    """
    eig_banded = sla.eig_banded

    def corrupting(position):
        def corrupted(a_band, *args, **kwargs):
            w = eig_banded(a_band, *args, **kwargs).copy()
            w[position] += 1e-6 * max(np.abs(w).max(), 1.0)  # 100 x RESIDUAL_BOUND
            return w
        return corrupted

    monkeypatch.setattr(S.sla, "eig_banded", corrupting(0))
    with pytest.raises(S.SolverError, match="Rayleigh quotients"):
        S.delta_spectrum(sphere, 2)
    monkeypatch.setattr(S.sla, "eig_banded", corrupting(-1))
    with pytest.raises(S.SolverError, match="trace"):
        S.delta_spectrum(sphere, 2)


def test_full_spectrum_is_dense_above_the_limit(monkeypatch):
    profile, f = B.catalog("sphere_height", n_grid=64)
    be = B.build_backend(profile, f)
    monkeypatch.setattr(S, "DENSE_LIMIT", 16)
    rep = S.delta_spectrum(be, 1, s=16.0)
    assert rep.count == rep.dim and len(rep.eigenvalues) == rep.dim


def test_count_equal_to_the_dimension_is_the_full_spectrum(monkeypatch):
    profile, f = B.catalog("sphere_height", n_grid=64)
    be = B.build_backend(profile, f)
    monkeypatch.setattr(S, "DENSE_LIMIT", 16)
    full = S.delta_spectrum(be, 0)
    counted = S.delta_spectrum(be, 0, count=full.dim)
    assert counted.count == counted.dim == full.dim
    assert counted.eigenvalues == full.eigenvalues
    assert counted.residual_norms == full.residual_norms


def _near_degenerate_pair_at_the_window_edge():
    """Pentadiagonal matrix, one connected block, whose eigenvalues come in
    pairs 1e-10 x |A| apart, shifted so that one pair straddles the edge
    where the band error bound reaches EIGENVALUE_ACCURACY x |lambda|.

    Two tridiagonal chains on the even and odd indices, the odd one
    raised by the pair spacing, coupled by 1e-12 between neighbours.
    """
    half = 60
    chain = sp.diags([-np.ones(half - 1), 2 * np.ones(half), -np.ones(half - 1)],
                     [-1, 0, 1]).toarray() * 1e3
    spacing = 1e-10 * 4e3
    A = np.zeros((2 * half, 2 * half))
    A[0::2, 0::2] = chain
    A[1::2, 1::2] = chain + spacing * np.eye(half)
    coupling = 1e-12 * np.ones(2 * half - 1)
    A += np.diag(coupling, 1) + np.diag(coupling, -1)
    w = np.linalg.eigvalsh(A)
    # the edge sits at K x |A| with K = band error / accuracy; put the
    # middle of the pair j = 8 (indices 16, 17) on it
    K = S._band_error(2 * half) / S.EIGENVALUE_ACCURACY
    middle = 0.5 * (w[16] + w[17])
    shift = (K * w[-1] - middle) / (1 - K)
    return A + shift * np.eye(2 * half)


@pytest.mark.parametrize("matrix", [
    np.array([[9.0]]),
    np.array([[2.0, 1.0], [1.0, 2.0]]),
    np.array([[1e-12, 0.0], [0.0, 3.0]]),
    _near_degenerate_pair_at_the_window_edge(),
], ids=["dim-1", "dim-2", "dim-2-kernel", "pair-at-the-edge"])
def test_window_edge_keeps_every_eigenvalue_accurate(matrix):
    reference = np.linalg.eigvalsh(matrix)
    rep = S.eigensolve(sp.csr_matrix(matrix), np.ones(len(matrix)))
    got = np.asarray(rep.eigenvalues)
    assert np.all(np.abs(got - reference) <= 1e-12 * np.maximum(np.abs(reference), 1.0))
    bound = S.RESIDUAL_BOUND * max(rep.operator_norm, 1.0)
    assert max(rep.residual_norms, default=0.0) <= bound


def test_window_is_widened_over_a_pair_at_its_edge():
    matrix = _near_degenerate_pair_at_the_window_edge()
    rep = S.eigensolve(sp.csr_matrix(matrix), np.ones(len(matrix)))
    edge = S._band_error(len(matrix)) * rep.operator_norm / S.EIGENVALUE_ACCURACY
    assert rep.eigenvalues[16] < edge < rep.eigenvalues[17]
    assert len(rep.residual_norms) == 18  # both members of the pair carry a vector


def test_residual_gate_rejects_an_inexact_window_vector(sphere, monkeypatch):
    # a 5e-8 error in each window vector moves its Rayleigh quotient by
    # about 1e-15 x |A|, inside the window match, but leaves a residual
    # above RESIDUAL_BOUND x |A|
    window_vectors = S._window_vectors

    def perturbed(ab, theta, norm):
        V = window_vectors(ab, theta, norm)
        noise = np.random.default_rng(1).standard_normal(V.shape)
        return V + 5e-8 * noise / np.linalg.norm(noise, axis=0)

    monkeypatch.setattr(S, "_window_vectors", perturbed)
    with pytest.raises(S.SolverError, match="residual bound"):
        S.delta_spectrum(sphere, 2)


def test_a_pair_inside_the_band_error_is_resolved(monkeypatch):
    """Path graph of 2n nodes, scaled by c, whose middle edge has weight w.

    The kernel is the constant vector; the next eigenvalue belongs to the
    vector that is +1 on one half and -1 on the other, 2w/n up to
    O(w^2 n / c), here 1e-18.  The band eigenvalues are moved by half the
    band error bound, more than the pair's spacing, so inverse iteration
    cannot tell the two vectors apart; the window's Rayleigh-Ritz step must.
    """
    n, c, w = 50, 1e4, 5e-9
    weights = np.full(2 * n - 1, c)
    weights[n - 1] = w
    diag = np.zeros(2 * n)
    diag[:-1] += weights
    diag[1:] += weights
    A = sp.diags([-weights, diag, -weights], [-1, 0, 1], format="csr")
    eig_banded = sla.eig_banded

    def off_by_half_the_bound(a_band, *args, **kwargs):
        theta = eig_banded(a_band, *args, **kwargs)
        return theta + 0.5 * S._band_error(len(theta)) * np.abs(theta).max()

    monkeypatch.setattr(S.sla, "eig_banded", off_by_half_the_bound)
    rep = S.eigensolve(A, np.ones(2 * n), count=2)
    assert 2 * w / n < 0.5 * S._band_error(2 * n) * rep.operator_norm
    assert abs(rep.eigenvalues[0]) <= 1e-12
    assert abs(rep.eigenvalues[1] - 2 * w / n) <= 1e-12
