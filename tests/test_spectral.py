"""Eigensolver, kernel detection, traces, sweeps and report emission."""

import csv
import math
import os

import numpy as np
import pytest
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


def test_dense_and_iterative_agree(sphere):
    delta = C.build_delta_eq(sphere, 1)
    mass = C.mass_vector(sphere, delta.domain)
    dense = S.eigensolve(delta, mass, count=10, method="dense")
    iterative = S.eigensolve(delta, mass, count=10, method="iterative")
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
    with pytest.raises(ValueError):
        S.eigensolve(delta, mass, count=delta.domain.dim + 1)
