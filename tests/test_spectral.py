"""Eigensolver, kernel detection, traces and sweeps."""

import dataclasses
import inspect
import json
import math
import re
from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from equimorse import backend as B
from equimorse import cartan as C
from equimorse import cli
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


def test_grid_eigenvalues_converge_at_second_order():
    """Degree zero at s=0 on the unit sphere: the errors of l(l+1) = 2, 6,
    12, 20 shrink fourfold per doubling of N from 128 to 4096."""
    exact = np.array([2.0, 6.0, 12.0, 20.0])
    errors = []
    for n_grid in (128, 256, 512, 1024, 2048, 4096):
        be = B.build_backend(*B.catalog("sphere_height", n_grid=n_grid))
        w = S.delta_spectrum(be, 0, count=5).eigenvalues[1:]
        errors.append(np.abs(np.asarray(w) - exact))
    for coarse, fine in zip(errors, errors[1:]):
        order = np.log2(coarse / fine)
        assert np.all((1.95 <= order) & (order <= 2.05)), order


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
    for s in (0.0, 4.0, 16.0):
        kernels = [S.delta_spectrum(sphere, k, s=s).kernel_dim for k in range(4)]
        assert kernels == [1, 0, 2, 0], f"s={s}"


def test_an_ambiguous_betti_kernel_states_its_eigenvalue_gap_and_tau(sphere,
                                                                    monkeypatch):
    rep = S.delta_spectrum(sphere, 0, ceiling=0.0)
    monkeypatch.setattr(S, "SEPARATION_FACTOR", 2.0 * rep.separation)
    with pytest.raises(S.AmbiguousKernelError) as err:
        S.betti_numbers(sphere, 0)
    message = str(err.value)
    assert message.startswith(f"degree 0: kernel/gap separation {rep.separation:.1f} < ")
    assert f"largest kernel eigenvalue {rep.eigenvalues[0]:.3e}, " \
        f"gap {rep.gap:.3e}, tau {S.KERNEL_TAU_ABS * rep.operator_norm:.3e}" in message
    assert "count" not in message


def test_kernel_separation_is_wide(sphere):
    for k in (0, 2):
        rep = S.delta_spectrum(sphere, k)
        assert rep.kernel_dim > 0
        assert rep.separation >= 100.0


def test_trace_phi_direct_evaluation():
    rep = S.SpectrumReport(k=0, s=0.0, eigenvalues=[0.0, 0.0, 5.0, 9.0],
                           kernel_dim=2, gap=5.0, residual_norms=[],
                           dim=4)
    spec = S.TraceSpec("exp_decay", 1.0)
    assert S.trace_phi(rep, spec) == pytest.approx(
        2.0 + math.exp(-5.0) + math.exp(-9.0))


def test_trace_phi_empty_spectrum():
    rep = S.SpectrumReport(k=0, s=0.0, eigenvalues=[], kernel_dim=0,
                           gap=math.inf, residual_norms=[], dim=0)
    assert S.trace_phi(rep, S.TraceSpec()) == 0.0


def test_trace_phi_tail_bound_enforced():
    rep = S.SpectrumReport(k=0, s=0.0, eigenvalues=[0.0, 1.0], kernel_dim=1,
                           gap=1.0, residual_norms=[], dim=500)
    with pytest.raises(S.TailBoundError):
        S.trace_phi(rep, S.TraceSpec())


def test_trace_exceeds_kernel_dimension(sphere):
    spec = S.TraceSpec()
    for k in (0, 1, 2):
        rep = S.delta_spectrum(sphere, k, ceiling=spec.ceiling())
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
    # without a count, a sweep point is the trace window of its operator
    spec = S.TraceSpec()
    result = S.sweep_s(sphere, 2, [0.0], spec)
    direct = S.delta_spectrum(sphere, 2, ceiling=spec.ceiling())
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
    spec = S.TraceSpec()
    rep = S.delta_spectrum(sphere, 0, s=64.0, ceiling=spec.ceiling())
    mu = S.trace_phi(rep, spec)
    assert abs(mu - 1.0) <= 0.05
    # degree 1 at s=32: no critical level of index 1 anywhere
    rep1 = S.delta_spectrum(sphere, 1, s=32.0, ceiling=spec.ceiling())
    assert S.trace_phi(rep1, spec) <= 0.05


def test_a_window_solved_to_lambda_leaves_a_tail_below_dim_eps():
    """The top of a window solved to Lambda lies at or above it, where
    phi <= eps, so the tail left out is at most dim x eps."""
    be = B.build_backend(*B.catalog("sphere_height", n_grid=256))
    spec = S.TraceSpec()
    rep = S.delta_spectrum(be, 1, s=64.0, ceiling=spec.ceiling())
    missing = rep.dim - len(rep.eigenvalues)
    assert missing > 0 and rep.eigenvalues[-1] >= spec.ceiling()
    tail = float(spec.phi(rep.eigenvalues[-1])) * missing
    assert tail < rep.dim * np.finfo(float).eps
    assert S.trace_phi(rep, spec) == pytest.approx(float(spec.phi(rep.eigenvalues).sum()))


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
    rep = S.delta_spectrum(be, 1, s=64.0, ceiling=S.TraceSpec().ceiling())
    w = np.asarray(rep.eigenvalues)
    assert int(np.count_nonzero(w < 6.4)) == 1
    above = w[np.count_nonzero(w < 6.4)]
    assert above == pytest.approx(9.0, rel=0.1)


@pytest.mark.xfail(
    strict=True,
    reason="tunneling: on sphere_bumpy at c = -0.6 the second degree-0 "
    "eigenvalue decays like e^{-2hs} (barrier h = 0.408) and by s = 64 falls "
    "below KERNEL_TAU_ABS x |A|, so the kernel reads 2 where the cohomology "
    "has 1; singular values of d_s resolve it (ROADMAP item 'Solve the "
    "Witten complex, not its Laplacians')")
def test_tunneling_eigenvalue_stays_out_of_the_kernel():
    profile, f = B.catalog("sphere_bumpy", {"c": -0.6}, n_grid=256)
    be = B.build_backend(profile, f)
    assert S.delta_spectrum(be, 0, s=64.0).kernel_dim == 1


def test_sweep_rejects_unsorted():
    profile, f = B.catalog("sphere_height", n_grid=64)
    be = B.build_backend(profile, f)
    with pytest.raises(ValueError):
        S.sweep_s(be, 0, [4.0, 2.0], S.TraceSpec())
    # a repeated s would be solved twice, its rows differing in the last digits
    with pytest.raises(ValueError, match="strictly ascending"):
        S.sweep_s(be, 0, [4.0, 4.0], S.TraceSpec())


@pytest.mark.parametrize("kind", ["exp_decay", "gaussian"])
@pytest.mark.parametrize("scale", [math.nan, math.inf, 1e308])
def test_trace_spec_rejects_a_scale_without_a_finite_ceiling(kind, scale):
    """A NaN scale failed later as a SolverError at sigma = nan, and an
    infinite ceiling made every trace window the whole spectrum."""
    with pytest.raises(ValueError, match="positive and finite"):
        S.TraceSpec(kind, scale)


def test_eigenpair_residuals_reported(sphere):
    rep = S.delta_spectrum(sphere, 1, count=6)
    assert len(rep.residual_norms) == 6
    assert max(rep.residual_norms) <= 1e-8 * max(rep.operator_norm, 1.0)


def test_periodicity_spectra_exact(sphere, torus):
    for be in (sphere, torus):
        assert S.periodicity_defect(be, 2) <= 1e-10
        assert S.periodicity_defect(be, 3) <= 1e-10


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


def _dense_spectrum(be, k, s=0.0):
    """All eigenvalues of S for degree k at s, by one LAPACK call, and S."""
    _, _, delta = C.build_deformed(be, s, k)
    sym = S._symmetrized(delta, C.mass_vector(be, delta.domain))
    return np.linalg.eigvalsh(sym.matrix.toarray()), sym


@pytest.mark.parametrize("k", [0, 1, 2], ids=["one-block", "two-blocks", "coupled"])
@pytest.mark.parametrize("s", [0.0, 16.0])
def test_every_window_is_a_prefix_of_one_dense_eigh(sphere, torus, k, s):
    """Reference: one LAPACK call on the whole symmetrized matrix.

    Every window a caller asks for (the kernel and gap, explicitly or by
    default, the trace window, a count) is the prefix of the dense
    spectrum, to a small multiple of eps |A|; degree 1 splits into two
    chains, degree 2 couples two blocks.
    """
    for be in (sphere, torus):
        _, _, delta = C.build_deformed(be, s, k)
        mass = C.mass_vector(be, delta.domain)
        symmetrized = _symmetrized(delta, mass)
        reference, _ = sla.eigh(symmetrized)
        norm = np.abs(reference).max()
        tau = S.KERNEL_TAU_ABS * np.abs(symmetrized).sum(axis=1).max()
        for request in ({"ceiling": 0.0}, {"ceiling": S.TraceSpec().ceiling()},
                        {"count": 24}, {}):
            rep = S.eigensolve(delta, mass, k=k, s=s, **request)
            got = np.asarray(rep.eigenvalues)
            assert np.abs(got - reference[:got.size]).max() <= 64 * np.finfo(float).eps * norm
            assert rep.kernel_dim == np.count_nonzero(reference[:got.size] <= tau)
            if "count" not in request:
                below = np.count_nonzero(reference < max(request.get("ceiling", 0.0), tau))
                assert got.size == min(below + 1, rep.dim), request


@pytest.mark.parametrize("case", ["sphere_bumpy", "torus_height"])
def test_eigenvalues_do_not_depend_on_the_basis_order(case):
    profile, f = B.catalog(case, n_grid=256)
    be = B.build_backend(profile, f)
    ceiling = S.TraceSpec().ceiling()
    for k in range(4):
        for s in (0.0, 16.0, 64.0):
            _, _, delta = C.build_deformed(be, s, k)
            mass = C.mass_vector(be, delta.domain)
            reference, sym = _dense_spectrum(be, k, s)
            perm = np.random.default_rng(0).permutation(delta.domain.dim)
            for window in (0.0, ceiling):
                a = np.asarray(S.eigensolve(delta, mass, ceiling=window).eigenvalues)
                b = np.asarray(S.eigensolve(delta.matrix[perm][:, perm], mass[perm],
                                            ceiling=window).eigenvalues)
                assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), 1.0)), (k, s)
                assert np.abs(b - reference[:b.size]).max() \
                    <= 64 * np.finfo(float).eps * sym.norm, (k, s)


_EIGSH, _EIGH, _FACTOR = spla.eigsh, sla.eigh, S._factor


def _dropping_eigsh(A, k, **kwargs):
    """scipy's eigsh losing the lowest pair of every run."""
    w, V = _EIGSH(A, k + 1, **kwargs)
    return w[1:], V[:, 1:]


def _mixing_eigsh(A, k, **kwargs):
    """scipy's eigsh returning the mean of its two lowest vectors first."""
    w, V = _EIGSH(A, k + 1, **kwargs)
    V[:, 0] = (V[:, 0] + V[:, 1]) / math.sqrt(2.0)
    return w[:k], V[:, :k]


def _eigsh_returning(change):
    """scipy's eigsh, with change applied to the pairs it returns."""
    eigsh = spla.eigsh

    def patched(*args, **kwargs):
        w, V = eigsh(*args, **kwargs)
        return change(w, V.copy())
    return patched


def test_residual_gate_rejects_a_wrong_eigenvalue(sphere, monkeypatch):
    # the mean of two eigenvectors has the mean of their eigenvalues as its
    # Rayleigh quotient, and a residual of half their distance; every run,
    # the one that seeks the dropped pair too, returns such a mean
    monkeypatch.setattr(S.spla, "eigsh", _mixing_eigsh)
    with pytest.raises(S.SolverError, match="residual bound"):
        S.delta_spectrum(sphere, 1, count=6)


def test_count_equal_to_the_dimension_is_the_full_spectrum():
    profile, f = B.catalog("sphere_height", n_grid=64)
    be = B.build_backend(profile, f)
    reference, sym = _dense_spectrum(be, 0)
    counted = S.delta_spectrum(be, 0, count=reference.size)
    assert len(counted.eigenvalues) == counted.dim == reference.size
    assert np.abs(np.asarray(counted.eigenvalues) - reference).max() \
        <= 64 * np.finfo(float).eps * sym.norm
    assert len(counted.residual_norms) == counted.dim
    assert max(counted.residual_norms) <= S.RESIDUAL_BOUND * sym.norm


@pytest.mark.parametrize("n_grid", [64, 256])
@pytest.mark.parametrize("case,params", [
    ("sphere_height", {}), ("sphere_bumpy", {"c": -0.6}), ("torus_height", {}),
], ids=["sphere", "bumpy", "torus"])
def test_counted_window_is_a_prefix_of_the_full_listing(case, params, n_grid):
    # a counted window is the low band of the dense spectrum, to rounding,
    # with the same |A|, and its kernel split is the dense one cut short
    be = B.build_backend(*B.catalog(case, params, n_grid=n_grid))
    for k in (0, 1, 2):
        for s in (0.0, 16.0, 64.0):
            w, sym = _dense_spectrum(be, k, s)
            tol = 64 * np.finfo(float).eps * sym.norm
            kernel_dim = int(np.count_nonzero(w <= S.KERNEL_TAU_ABS * sym.norm))
            for count in (1, 8, 24, w.size - 1):
                part = S.delta_spectrum(be, k, s, count=count)
                where = (k, s, count)
                assert np.abs(np.asarray(part.eigenvalues) - w[:count]).max() <= tol, where
                assert len(part.residual_norms) == count, where
                assert part.kernel_dim == min(kernel_dim, count), where
                assert (part.operator_norm, part.dim) == (sym.norm, w.size)
                if count > kernel_dim:
                    assert abs(part.gap - w[kernel_dim]) <= tol, where


def _near_degenerate_pairs():
    """Pentadiagonal matrix, one connected block, whose eigenvalues come in
    pairs 1e-10 x |A| apart.

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
    return A + np.diag(coupling, 1) + np.diag(coupling, -1)


@pytest.mark.parametrize("matrix,count", [
    (np.array([[9.0]]), None),
    (np.array([[2.0, 1.0], [1.0, 2.0]]), None),
    (np.array([[1e-12, 0.0], [0.0, 3.0]]), None),
    (_near_degenerate_pairs(), 17),  # the edge cuts the ninth pair
], ids=["dim-1", "dim-2", "dim-2-kernel", "pair-at-the-edge"])
def test_window_edge_keeps_every_eigenvalue_accurate(matrix, count):
    reference = np.linalg.eigvalsh(matrix)
    rep = S.eigensolve(sp.csr_matrix(matrix), np.ones(len(matrix)), count=count)
    got = np.asarray(rep.eigenvalues)
    want = reference[:got.size]
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))
    bound = S.RESIDUAL_BOUND * max(rep.operator_norm, 1.0)
    assert max(rep.residual_norms, default=0.0) <= bound


def _path_laplacian(weights):
    diag = np.zeros(len(weights) + 1)
    diag[:-1] += weights
    diag[1:] += weights
    return sp.diags([-weights, diag, -weights], [-1, 0, 1], format="csr")


@pytest.mark.parametrize("count", [1, 3, 8, 9])
def test_a_count_may_cut_a_degenerate_pair(count):
    """Two bitwise equal chains: every eigenvalue is exactly double.

    One Lanczos start vector sees a single direction of each pair; the
    certificate finds the other copies missing and the window finds
    them, and a count that ends inside a pair is accepted.
    """
    chain = _path_laplacian(np.linspace(1.0, 3.0, 29))
    A = sp.csr_matrix(sp.block_diag([chain, chain]))
    reference = np.linalg.eigvalsh(A.toarray())
    rep = S.eigensolve(A, np.ones(60), count=count)
    assert np.abs(np.asarray(rep.eigenvalues) - reference[:count]).max() <= 1e-12
    assert rep.kernel_dim == min(count, 2)


def test_a_missed_eigenvalue_fails_the_certificate(sphere, monkeypatch):
    # every Lanczos run loses its lowest pair, so the search for it fails too
    monkeypatch.setattr(S.spla, "eigsh", _dropping_eigsh)
    with pytest.raises(S.SolverError, match="inertia there is 6"):
        S.delta_spectrum(sphere, 1, count=6)


def _no_shifts(*args, **kwargs):
    raise spla.ArpackError(3, {3: "No shifts could be applied"})


def test_an_arpack_error_is_a_solver_error(sphere, monkeypatch):
    # not only ArpackNoConvergence: error 3 comes from a cluster at the window's top
    monkeypatch.setattr(S.spla, "eigsh", _no_shifts)
    with pytest.raises(S.SolverError, match="No shifts could be applied"):
        S.delta_spectrum(sphere, 1, count=6)


def test_kernel_must_match_the_inertia_at_tau(sphere, monkeypatch):
    # the first factor is the kernel factor, one float above tau; one
    # negative pivot too many
    factor = S._factor
    calls = []

    def overcounting(A, shift):
        lu, negatives = factor(A, shift)
        calls.append(shift)
        return lu, negatives + (len(calls) == 1)

    monkeypatch.setattr(S, "_factor", overcounting)
    with pytest.raises(S.SolverError, match="the inertia there is 3"):
        S.delta_spectrum(sphere, 2, count=6)


def test_a_rough_pair_beside_the_kernel_is_sought_again():
    """Three 2 x 2 path Laplacians of weight 20 and eight copies of 50:
    spectrum {0, 0, 0, 40, 40, 40, 50, ...}.  The kernel's shift-inverted
    eigenvalues are about 1/tau, so the first run's pair at 40 carries
    kernel components above the residual bound; it is dropped and found
    again on the complement of the kernel."""
    A = sp.csr_matrix(sp.block_diag([_path_laplacian(np.array([20.0]))] * 3
                                    + [sp.diags([50.0] * 8)]))
    rep = S.eigensolve(A, np.ones(14), ceiling=0.0)
    assert rep.kernel_dim == 3
    assert np.abs(np.asarray(rep.eigenvalues) - [0.0, 0.0, 0.0, 40.0]).max() \
        <= 1e-12 * rep.operator_norm
    assert max(rep.residual_norms) <= S.RESIDUAL_BOUND * rep.operator_norm


@pytest.mark.parametrize("n", [1, 4])
def test_a_zero_operator_has_a_certified_kernel(n):
    # the kernel factor is taken one float above tau = 0, so it counts
    # every copy of 0
    A = sp.csr_matrix((n, n))
    rep = S.eigensolve(A, np.ones(n), ceiling=0.0)
    assert (rep.eigenvalues, rep.kernel_dim) == ([0.0] * n, n)
    rep = S.eigensolve(A, np.ones(n), count=1)
    assert (rep.eigenvalues, rep.kernel_dim) == ([0.0], 1)


def test_residual_gate_rejects_an_inexact_window_vector(sphere, monkeypatch):
    # a 5e-8 error in each window vector moves its Rayleigh quotient by
    # about 1e-15 x |A|, inside the certificate's cut, but leaves a
    # residual above RESIDUAL_BOUND x |A|
    def perturbed(w, V):
        noise = np.random.default_rng(1).standard_normal(V.shape)
        V = V + 5e-8 * noise / np.linalg.norm(noise, axis=0)
        return w, V / np.linalg.norm(V, axis=0)

    monkeypatch.setattr(S.spla, "eigsh", _eigsh_returning(perturbed))
    with pytest.raises(S.SolverError, match="residual bound"):
        S.delta_spectrum(sphere, 2, count=6)


def test_a_pair_far_under_the_kernel_threshold_is_resolved():
    """Path graph of 2n nodes, scaled by c, whose middle edge has weight w.

    The kernel is the constant vector; the next eigenvalue belongs to the
    vector that is +1 on one half and -1 on the other, 2w/n up to
    O(w^2 n / c), here 1e-18.  The pair is 2e-10 apart, 5e-15 x |A| and
    far under the kernel threshold, so both count as kernel, yet the
    Rayleigh quotients of the Lanczos vectors resolve each to 1e-12.
    """
    n, c, w = 50, 1e4, 5e-9
    weights = np.full(2 * n - 1, c)
    weights[n - 1] = w
    rep = S.eigensolve(_path_laplacian(weights), np.ones(2 * n), count=2)
    assert rep.kernel_dim == 2
    assert abs(rep.eigenvalues[0]) <= 1e-12
    assert abs(rep.eigenvalues[1] - 2 * w / n) <= 1e-12


@st.composite
def _planted_operators(draw):
    """A mass-symmetric PSD operator with planted kernels and clusters.

    S is block diagonal: path-graph Laplacians with random weights (one
    kernel vector each, some chains repeated bitwise), and a diagonal
    block of clusters, eigenvalues repeated exactly or 1e-9 apart.  The
    operator is M^{-1/2} S M^{1/2} in a random basis order, so that
    M^{1/2} A M^{-1/2} = S.
    """
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 24))
        scale = draw(st.floats(0.1, 100.0))
        weights = scale * np.asarray(draw(st.lists(st.floats(0.2, 5.0),
                                                   min_size=n - 1, max_size=n - 1)))
        blocks += [_path_laplacian(weights)] * draw(st.integers(1, 2))
    centres = draw(st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=4))
    cluster = [c * (1 + 1e-9 * j) for c in centres
               for j in range(draw(st.integers(1, 3)))] * draw(st.integers(1, 2))
    blocks.append(sp.diags(cluster))
    A, mass, dense = _mass_scaled(blocks, draw(st.integers(0, 2 ** 32 - 1)))
    window = draw(st.one_of(
        st.builds(lambda m: {"count": m}, st.integers(1, max(len(mass) // 2, 1))),
        st.builds(lambda c: {"ceiling": c}, st.floats(0.0, 60.0))))
    return A, mass, dense, window


def _mass_scaled(blocks, seed):
    """The block-diagonal S of blocks in a random basis order, and the
    operator M^{-1/2} S M^{1/2} with a random mass M, so that
    M^{1/2} A M^{-1/2} = S: A, the mass and S as a dense array."""
    S_ = sp.csr_matrix(sp.block_diag(blocks))
    dim = S_.shape[0]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dim)
    mass = rng.uniform(0.5, 2.0, dim)
    S_ = S_[perm][:, perm]
    A = sp.diags(1 / np.sqrt(mass)) @ S_ @ sp.diags(np.sqrt(mass))
    return sp.csr_matrix(A), mass, S_.toarray()


def _assert_dense_prefix(A, mass, dense, window):
    """The window of A is the lowest m of the dense spectrum, and its
    kernel is the dense one.  Each eigenvalue agrees to 1e-12 |A| plus its
    residual norm, which a vector mixing the members of a cluster 1e-9
    apart may need; the top one to the certificate's cut, 1e-8
    max(|lambda|, 1), since it may be any member of a cluster that the
    cut splits."""
    reference = np.linalg.eigvalsh(dense)
    rep = S.eigensolve(A, mass, **window)
    got = np.asarray(rep.eigenvalues)
    norm = max(np.abs(dense).sum(axis=1).max(), 1.0)
    tau = S.KERNEL_TAU_ABS * rep.operator_norm
    assert rep.operator_norm == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-12)
    allowed = 1e-12 * norm + np.asarray(rep.residual_norms)
    allowed[-1] += 1e-8 * max(abs(got[-1]), 1.0)
    assert np.all(np.abs(got - reference[:got.size]) <= allowed)
    assert rep.kernel_dim == np.count_nonzero(reference[:got.size] <= tau)
    if "ceiling" in window:
        # every eigenvalue below the ceiling and one more; the whole
        # spectrum only when that is all of it
        ceiling, slack = max(window["ceiling"], tau), 1e-12 * norm
        assert got.size == rep.dim or got[-1] >= ceiling - slack
        assert got.size == 1 or got[-2] < ceiling + slack
    else:
        assert got.size == window["count"]


@settings(max_examples=80, deadline=None)
@given(_planted_operators())
def test_window_matches_dense_eigh(planted):
    _assert_dense_prefix(*planted)


@st.composite
def _planted_blocks(draw):
    """Two or three connected path Laplacians of 30 to 80 nodes, some
    repeated bitwise, permuted and mass-scaled as _planted_operators does,
    with a count that gives every block a share of at least
    _MIN_SHARE pairs, so that the window is solved block by block."""
    blocks, size = [], draw(st.integers(2, 3))
    while len(blocks) < size:
        n = draw(st.integers(30, 80))
        scale = draw(st.floats(0.1, 100.0))
        weights = scale * np.asarray(draw(st.lists(st.floats(0.2, 5.0),
                                                   min_size=n - 1, max_size=n - 1)))
        blocks += [_path_laplacian(weights)] * draw(st.integers(1, size - len(blocks)))
    dim, smallest = sum(b.shape[0] for b in blocks), min(b.shape[0] for b in blocks)
    count = draw(st.integers(-(-S._MIN_SHARE * dim // smallest), dim))
    return (*_mass_scaled(blocks, draw(st.integers(0, 2 ** 32 - 1))), {"count": count})


@settings(max_examples=30, deadline=None)
@given(_planted_blocks())
def test_a_window_over_connected_blocks_matches_dense_eigh(planted):
    _assert_dense_prefix(*planted)


def _spy(monkeypatch, name):
    """The positional arguments of every call to spectral.<name> from here on."""
    calls, real = [], getattr(S, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(S, name, spy)
    return calls


def _spy_runs(monkeypatch):
    """The arguments, by name, of every call to spectral._lanczos from here
    on.  A first run holds no pairs (V is None); an extension holds the
    block's pairs."""
    runs, real = [], S._lanczos
    signature = inspect.signature(real)

    def spy(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        runs.append(call.arguments)
        return real(*args, **kwargs)
    monkeypatch.setattr(S, "_lanczos", spy)
    return runs


def _chains(sizes, scales, seed=0):
    """Path Laplacians of the given sizes, weights drawn in [0.5, 2] times
    each scale, mass-scaled in a random basis order (_mass_scaled)."""
    rng = np.random.default_rng(seed)
    return _mass_scaled([_path_laplacian(c * rng.uniform(0.5, 2.0, n - 1))
                         for n, c in zip(sizes, scales)], seed)


@pytest.mark.parametrize("sizes,count", [
    ((40, 40), 20), ((45, 60), 24), ((60, 70, 80), 40),
])
def test_a_count_window_is_solved_block_by_block(sizes, count, monkeypatch):
    """Every block's share, count x dim_c / dim, is at least 10 pairs: each
    block starts from its own Lanczos run, and the merged window is the
    dense prefix to 64 eps |A| plus its residuals, with one kernel vector
    per chain."""
    A, mass, dense = _chains(sizes, [1.0, 3.0, 0.5])
    runs = _spy_runs(monkeypatch)
    rep = S.eigensolve(A, mass, count=count)
    assert sorted(run["sym"].matrix.shape[0] for run in runs if run["V"] is None) \
        == sorted(sizes)
    reference = np.linalg.eigvalsh(dense)[:count]
    allowed = 64 * np.finfo(float).eps * rep.operator_norm + np.asarray(rep.residual_norms)
    assert np.all(np.abs(np.asarray(rep.eigenvalues) - reference) <= allowed)
    assert rep.kernel_dim == len(sizes)
    assert len(rep.residual_norms) == count
    assert max(rep.residual_norms) <= S.RESIDUAL_BOUND * max(rep.operator_norm, 1.0)


def test_a_short_block_is_extended_on_the_complement_of_its_pairs(monkeypatch):
    """Chains of 55 and 65 nodes at weight scales 1 and 9: the first holds
    about 17 of the lowest 24 eigenvalues but starts from its share and
    one more, 11 + 1.  Its top lies below the merged top, its inertia
    there counts more, and the missing pairs are sought with the 12 it
    holds kept."""
    A, mass, dense = _chains((55, 65), [1.0, 9.0])
    runs = _spy_runs(monkeypatch)
    rep = S.eigensolve(A, mass, count=24)
    extensions = [run for run in runs if run["V"] is not None]
    assert extensions and extensions[0]["V"].shape[1] == 12
    reference = np.linalg.eigvalsh(dense)[:24]
    allowed = 64 * np.finfo(float).eps * rep.operator_norm + np.asarray(rep.residual_norms)
    assert np.all(np.abs(np.asarray(rep.eigenvalues) - reference) <= allowed)
    assert rep.kernel_dim == 2


def _noisy_eigh(a, **kwargs):
    """scipy's eigh with a 5e-8 error in each vector (as in
    test_residual_gate_rejects_an_inexact_window_vector)."""
    w, V = _EIGH(a, **kwargs)
    noise = np.random.default_rng(1).standard_normal(V.shape)
    V = V + 5e-8 * noise / np.linalg.norm(noise, axis=0)
    return w, V / np.linalg.norm(V, axis=0)


def _overcounting_factor(sym, shift):
    """spectral._factor with one negative pivot too many at every kernel
    factor, the only one taken below 1e-6 here."""
    lu, negatives = _FACTOR(sym, shift)
    return lu, negatives + (shift < 1e-6)


@pytest.mark.parametrize("target,patch,count,why", [
    ("spla.eigsh", _dropping_eigsh, 24, "the window holds .* the inertia there is"),
    ("spla.eigsh", _mixing_eigsh, 24, r"\d+ eigenpairs exceed the residual bound"),
    ("sla.eigh", _noisy_eigh, 90, r"\d+ eigenpairs exceed the residual bound"),
    ("_factor", _overcounting_factor, 24, "1 window eigenvalues are at most tau = "
     r".*, the inertia there is 2"),
], ids=["missed-pair", "rough-pair", "rough-dense-pair", "kernel"])
def test_a_failure_on_a_split_window_names_its_block(target, patch, count, why,
                                                     monkeypatch):
    """Chains of 40 and 50 nodes: a count of 24 gives them 11 and 14
    pairs, each by Lanczos; a count of 90, every pair, by dense eigh."""
    A, mass, _ = _chains((40, 50), [1.0, 2.0])
    monkeypatch.setattr(f"equimorse.spectral.{target}", patch)
    with pytest.raises(S.SolverError, match=rf"^block 1 of 2 \(dim 40\): {why}"):
        S.eigensolve(A, mass, count=count)


def test_verify_solves_every_window_on_the_whole_operator(tmp_path, monkeypatch):
    """verify sizes its windows by ceilings, the kernel and gap or Lambda,
    so none is split: one Lanczos run per window, none an extension."""
    windows = _spy(monkeypatch, "eigensolve")
    runs = _spy_runs(monkeypatch)
    assert cli.main(["verify", "--case", "sphere_height", "--n-grid", "64",
                     "--out", str(tmp_path / "report")]) == 0
    assert len(windows) == len(runs) > 0
    assert all(run["V"] is None for run in runs)


def test_an_odd_degree_count_window_solves_its_two_blocks(monkeypatch):
    """Degree 1 of the sphere at N = 256: the dtheta and the dphi rows do
    not couple, and a count of 24 gives each a share of about 12."""
    be = B.build_backend(*B.catalog("sphere_height", n_grid=256))
    runs = _spy_runs(monkeypatch)
    rep = S.delta_spectrum(be, 1, s=16.0, count=24)
    dims = [run["sym"].matrix.shape[0] for run in runs if run["V"] is None]
    assert len(dims) == 2 and sum(dims) == rep.dim
    reference, sym = _dense_spectrum(be, 1, 16.0)
    assert np.abs(np.asarray(rep.eigenvalues) - reference[:24]).max() \
        <= 64 * np.finfo(float).eps * sym.norm


def _first_starts(runs):
    """The start of every first run among runs (_spy_runs)."""
    return [run["start"] for run in runs if run["V"] is None]


@pytest.mark.parametrize("case", ["sphere_height", "torus_height"])
def test_a_sweep_window_is_the_cold_start_window(case, monkeypatch):
    """Each sweep window after the first starts from the ritz_sum of the
    one before; it must still be the window that a cold start certifies
    on the assembled Delta^k, with no partner: every eigenvalue within
    64 eps |A| plus both residuals, the same kernel dimension, and count
    pairs.  A window makes one first Lanczos run per block: 1 on degree
    0, 2 on the odd degrees, and on degree 2, solved on degree 3, 2
    partner blocks, and on the sphere (kappa_2 = 2) 1 more for the
    kernel pairs of Delta^2; the torus has no degree-2 kernel."""
    be = B.build_backend(*B.catalog(case, n_grid=256))
    s_list = [4.0, 8.0, 16.0, 32.0, 64.0]
    runs = [1, 2, 3 if case == "sphere_height" else 2, 2]
    for k in range(4):
        calls = _spy_runs(monkeypatch)
        sweep = S.sweep_s(be, k, s_list, S.TraceSpec(), count=24)
        monkeypatch.undo()
        starts = _first_starts(calls)
        # the first window's runs start cold, every later one warm
        assert len(starts) == runs[k] * len(s_list), k
        assert all(x is None for x in starts[:runs[k]])
        assert all(x is not None and x.any() for x in starts[runs[k]:])
        for point in sweep.points:
            warm = point.report
            _, _, delta = C.build_deformed(be, point.s, k)
            cold = S.eigensolve(delta, C.mass_vector(be, delta.domain), count=24,
                                k=k, s=point.s)
            allowed = (64 * np.finfo(float).eps * cold.operator_norm
                       + np.asarray(cold.residual_norms) + np.asarray(warm.residual_norms))
            assert len(warm.eigenvalues) == 24
            assert np.all(np.abs(np.asarray(warm.eigenvalues)
                                 - np.asarray(cold.eigenvalues)) <= allowed), (k, point.s)
            assert warm.kernel_dim == cold.kernel_dim, (k, point.s)


def test_a_start_blind_to_a_wanted_eigenvector_is_caught_by_the_certificate(monkeypatch):
    """S diagonal, in a permuted order, with a start that is exactly zero on
    the basis vector of its third eigenvalue: no Krylov vector of that
    start has a component there, so the first run misses the pair.  The
    certificate counts it, the extension from the fixed vector finds it,
    and the window is the dense prefix."""
    rng = np.random.default_rng(3)
    diag = np.r_[0.0, np.linspace(0.5, 40.0, 99)]
    perm = rng.permutation(diag.size)
    A = sp.diags(diag[perm], format="csr")
    start = np.cos(np.arange(diag.size) + 0.25)
    start[np.flatnonzero(perm == 2)] = 0.0
    runs = _spy_runs(monkeypatch)
    rep = S.eigensolve(A, np.ones(diag.size), count=6, start=start)
    assert [run["V"] is None for run in runs] == [True, False]
    assert np.abs(np.asarray(rep.eigenvalues) - diag[:6]).max() <= 1e-12 * diag.max()
    assert rep.kernel_dim == 1


def test_a_zero_start_falls_back_to_the_fixed_vector(monkeypatch):
    """A start that is zero on a block's rows starts that block from the
    fixed vector: bitwise the window of no start at all."""
    A, mass, _ = _chains((40, 50), [1.0, 2.0])
    cold = S.eigensolve(A, mass, count=24)
    rows = S._split(A, 24)
    start = np.zeros(90)
    assert S.eigensolve(A, mass, count=24, start=start).eigenvalues == cold.eigenvalues
    start[rows[1]] = cold.ritz_sum[rows[1]]
    runs = _spy_runs(monkeypatch)
    warm = S.eigensolve(A, mass, count=24, start=start)
    starts = _first_starts(runs)
    assert starts[0] is None and np.array_equal(starts[1], start[rows[1]])
    assert np.abs(np.asarray(warm.eigenvalues) - cold.eigenvalues).max() \
        <= 64 * np.finfo(float).eps * cold.operator_norm + 2 * max(cold.residual_norms)
    with pytest.raises(ValueError, match="shape"):
        S.eigensolve(A, mass, count=24, start=np.ones(89))


@pytest.mark.parametrize("window", ["chains", "sphere"])
def test_a_split_window_without_a_miss_takes_two_factors_per_block(window, monkeypatch):
    """Each block takes its kernel factor and one factor at the merged cut,
    the same for every block; no block is extended."""
    if window == "chains":
        A, mass, _ = _chains((40, 50), [1.0, 1.0])
        solve = partial(S.eigensolve, A, mass, count=24)
    else:
        be = B.build_backend(*B.catalog("sphere_height", n_grid=256))
        solve = partial(S.delta_spectrum, be, 1, s=16.0, count=24)
    runs = _spy_runs(monkeypatch)
    factors = _spy(monkeypatch, "_factor")
    rep = solve()
    assert [run["V"] is None for run in runs] == [True, True]
    assert len(factors) == 4
    kernel_shift = np.nextafter(S.KERNEL_TAU_ABS * rep.operator_norm, math.inf)
    assert [shift for _, shift in factors[:2]] == [kernel_shift] * 2
    assert factors[2][1] == factors[3][1] == S._cut(rep.eigenvalues[-1])


def test_a_count_inside_a_close_cluster_takes_its_lowest_members():
    """The draw that --hypothesis-seed=40 of test_window_matches_dense_eigh
    shrinks to: a 15-node path of weight 3 beside the cluster
    [1, 1 + 1e-9, 1, 1, 1] x 2, permuted and mass-scaled as
    _planted_operators does.  The window must be the lowest 11 of the
    dense spectrum, eight copies of 1 at its top; the rule is the one
    test_window_matches_dense_eigh applies below the top eigenvalue."""
    perm = [16, 4, 10, 11, 21, 2, 15, 6, 17, 18, 3, 19, 8,
            0, 20, 12, 22, 13, 7, 5, 23, 14, 9, 1, 24]
    mass = np.array([
        0.5424795067181944, 0.686424914749346, 1.5059366220404455, 1.4707842673613751,
        1.4230776672218808, 1.075516331392825, 1.9958149036838164, 1.9712530081643451,
        1.528312976721042, 1.4756889144017244, 1.5326700958564101, 1.0833821359686557,
        0.7026447575336168, 1.5822325102911226, 1.2880314837135889, 0.9653628133384335,
        1.2287530382476837, 1.8342317515235003, 1.9010652739343745, 1.0366927950636053,
        1.3572947460946414, 0.9828040866139132, 1.3914500452995453, 1.0068668382607,
        1.087428500792242])
    cluster = [1.0, 1.0 + 1e-9, 1.0, 1.0, 1.0] * 2
    S_ = sp.csr_matrix(sp.block_diag([_path_laplacian(np.full(14, 3.0)),
                                      sp.diags(cluster)]))[perm][:, perm]
    A = sp.csr_matrix(sp.diags(1 / np.sqrt(mass)) @ S_ @ sp.diags(np.sqrt(mass)))
    reference = np.linalg.eigvalsh(S_.toarray())
    rep = S.eigensolve(A, mass, count=11)
    got = np.asarray(rep.eigenvalues)
    allowed = 1e-12 * rep.operator_norm + np.asarray(rep.residual_norms)
    assert np.all(np.abs(got[:-1] - reference[:10]) <= allowed[:-1])


@pytest.mark.parametrize("seed", range(4))
def test_every_window_edge_through_a_close_cluster_matches_dense_eigh(seed):
    """An 11-node unit path beside the cluster [1, 1 + 1e-9, 1 + 2e-9,
    1, 1 + 1e-9] x 2, permuted and mass-scaled as _planted_operators
    does: every count from 1 to 10, and ceilings at and between the
    cluster's three values, by the rule of test_window_matches_dense_eigh.
    A count of 9 ends inside the copies of 1 + 1e-9, where ARPACK's
    restarts stall (its error 3, or no convergence in 5000 steps), and
    other counts there took copies of 1 + 1e-9 in place of copies of 1."""
    cluster = [1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.0, 1.0 + 1e-9] * 2
    A, mass, dense = _mass_scaled([_path_laplacian(np.ones(10)), sp.diags(cluster)], seed)
    for window in ([{"count": m} for m in range(1, 11)]
                   + [{"ceiling": c} for c in (1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 5e-9)]):
        _assert_dense_prefix(A, mass, dense, window)


def test_a_complete_block_may_find_more_missing_at_a_higher_cut():
    """A window whose top joins a cluster is certified again above it, and
    that certificate may lack more pairs than the block's last extension
    sought: on diag(1..40), pairs 1, 2 extended by one at 3.5 and complete
    there still take 4, 5, 6 at 6.5."""
    sym = S._symmetrized(sp.diags(np.arange(1.0, 41.0)), np.ones(40))
    tau = S.KERNEL_TAU_ABS * sym.norm
    bound = S.RESIDUAL_BOUND * sym.norm
    b = S._kernel_block(sym, tau)
    b.w, b.V, b.resid = S._lanczos(sym, b.lu, tau, 2, bound)
    for cut in (3.5, 3.5, 6.5, 6.5):
        S._certify(b, cut, tau, bound)
    assert b.complete_below == 6.5
    assert np.allclose(b.w, np.arange(1.0, 7.0), rtol=0, atol=1e-12)


@pytest.mark.parametrize("error", [
    spla.ArpackError(3), spla.ArpackNoConvergence("No convergence", np.empty(0), None),
], ids=["no-shifts", "no-convergence"])
@pytest.mark.parametrize("dim,count,asked", [
    (40, 6, [(6, 20), (12, 25)]),  # one repeat, for twice the pairs
    (8, 4, [(4, 20), (7, 20)]),    # at most all but one of the complement
    (8, 7, [(7, 20)]),             # no repeat that would seek no more
])
def test_a_failed_arpack_run_is_repeated_once_for_twice_the_pairs(
        error, dim, count, asked, monkeypatch):
    """An ARPACK run that fails, by an error or by not converging, is run
    once more for 2k pairs, with scipy's basis of max(2k + 1, 20) vectors,
    and a second failure raises SolverError: no run asks for more."""
    calls = []

    def failing(A, k, ncv, **kwargs):
        calls.append((k, ncv))
        raise error
    monkeypatch.setattr(S.spla, "eigsh", failing)
    sym = S._symmetrized(sp.diags(np.arange(1.0, dim + 1.0)), np.ones(dim))
    b = S._kernel_block(sym, S.KERNEL_TAU_ABS * sym.norm)
    with pytest.raises(S.SolverError, match="^eigenvalue iteration failed: ARPACK error"):
        S._lanczos(sym, b.lu, S.KERNEL_TAU_ABS * sym.norm, count, np.inf)
    assert calls == asked


@st.composite
def _planted_shifts(draw):
    """A planted operator and shifts at its dense eigenvalues and midway
    between consecutive ones (above the top one for the last)."""
    A, mass, dense, _ = draw(_planted_operators())
    reference = np.linalg.eigvalsh(dense)
    picks = draw(st.lists(st.tuples(st.integers(0, reference.size - 1), st.booleans()),
                          min_size=1, max_size=6))
    above = np.append(reference[1:], reference[-1] + 2.0)
    shifts = [reference[i] if at else 0.5 * (reference[i] + above[i]) for i, at in picks]
    return A, mass, reference, shifts


@settings(max_examples=80, deadline=None)
@given(_planted_shifts())
def test_inertia_matches_dense_counts(planted):
    """inertia counts the dense eigenvalues below each shift.  A count is
    exact for S + E with |E| of order eps |S|, so an eigenvalue within
    1e-12 |S| of a shift may be counted on either side; no other may."""
    A, mass, reference, shifts = planted
    slack = 1e-12 * max(np.abs(reference).max(), 1.0)
    got = S.inertia(A, mass, shifts)
    assert len(got) == len(shifts)
    for count, shift in zip(got, shifts):
        assert (np.count_nonzero(reference < shift - slack) <= count
                <= np.count_nonzero(reference < shift + slack))


def _catalog_operators(n_grid):
    """(case, s, k, Delta^k, mass) of every catalog case at n_grid, degrees
    0..5, at s = 0 and 16; the circle has no function, so only s = 0."""
    for case in B.CATALOG_CASES:
        be = B.build_backend(*B.catalog(case, n_grid=n_grid))
        for s in (0.0,) if case == "circle_trivial" else (0.0, 16.0):
            for k in range(6):
                delta = C.build_deformed(be, s, k)[2]
                yield case, s, k, delta, C.mass_vector(be, delta.domain)


def test_inertia_on_the_catalog_operators_matches_dense_counts():
    """The rule of test_inertia_matches_dense_counts on the operators that
    every run factors: at tau+ (the kernel factor's shift), midway
    between neighbouring eigenvalues and at eigenvalues, throughout each
    spectrum, every count lies within the dense counts at 1e-12 |S|."""
    for case, s, k, delta, mass in _catalog_operators(128):
        sym = S._symmetrized(delta, mass)
        reference = np.linalg.eigvalsh(sym.matrix.toarray())
        picks = np.unique(np.linspace(0, reference.size - 1, 9).astype(int))
        above = np.append(reference[1:], reference[-1] + 2.0)
        shifts = [np.nextafter(S.KERNEL_TAU_ABS * sym.norm, math.inf),
                  *(0.5 * (reference[picks] + above[picks])), *reference[picks]]
        slack = 1e-12 * max(np.abs(reference).max(), 1.0)
        for count, shift in zip(S.inertia(delta, mass, shifts), shifts):
            assert (np.count_nonzero(reference < shift - slack) <= count
                    <= np.count_nonzero(reference < shift + slack)), (case, s, k, shift)


def test_every_catalog_factor_fits_the_n_grid_bound():
    """backend.MAX_N_GRID allows 32 nonzeros of L + U per theta node: the
    kernel factor of every degree of every catalog case holds at most
    that many, at most 21 on the torus (degree 2) and 12 on a sphere."""
    assert 32 * B.MAX_N_GRID < 2**31
    for case, s, k, delta, mass in _catalog_operators(1024):
        sym = S._symmetrized(delta, mass)
        lu, _ = S._factor(sym, np.nextafter(S.KERNEL_TAU_ABS * sym.norm, math.inf))
        assert lu.L.nnz + lu.U.nnz <= 32 * 1024, (case, s, k)


def test_a_ceiling_at_an_eigenvalue_keeps_the_window():
    """S - 3 I has exact zero pivots, so every count at 3 comes from one
    ulp below it: every eigenvalue below 3 and one more, not the whole
    spectrum."""
    diag = np.repeat([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], [2, 3, 4, 5, 5, 5, 5, 5])
    A, mass = sp.diags(diag, format="csr"), np.ones(diag.size)
    assert S._factor(S._symmetrized(A, mass), 3.0)[1] == 5
    assert S.inertia(A, mass, [3.0, 2.5, 8.5]) == [5, 5, diag.size]
    rep = S.eigensolve(A, mass, ceiling=3.0)
    assert len(rep.eigenvalues) == 6
    assert np.allclose(rep.eigenvalues, [1.0, 1.0, 2.0, 2.0, 2.0, 3.0], rtol=0, atol=1e-12)


def test_inertia_at_a_shift_that_is_not_a_number_ends():
    # no shift at or below nan has a regular factor; the search stops
    A = sp.diags([1.0, 2.0, 3.0], format="csr")
    with pytest.raises(S.SolverError, match="no regular factor"):
        S.inertia(A, np.ones(3), [math.nan])
    assert S.inertia(A, np.ones(3), [math.inf, -math.inf]) == [3, 0]


def _dense_pairs(be, k, s):
    """All eigenvalues of S for degree k at s by dense eigh, the residual
    norms of its vectors, and |A|."""
    _, _, delta = C.build_deformed(be, s, k)
    sym = S._symmetrized(delta, C.mass_vector(be, delta.domain))
    A = sym.matrix.toarray()
    w, V = np.linalg.eigh(A)
    return w, np.linalg.norm(A @ V - V * w, axis=0), sym.norm


def _spy_cartan(monkeypatch):
    """The degree of every partner that cartan._cartan builds."""
    built, real = [], C._cartan

    def spy(be, s, k, mid):
        built.append(k)
        return real(be, s, k, mid)
    monkeypatch.setattr(C, "_cartan", spy)
    return built


@pytest.mark.parametrize("n_grid", [64, 256])
@pytest.mark.parametrize("case,params", [
    ("sphere_height", {}), ("sphere_bumpy", {"c": 0.6}), ("sphere_bumpy", {"c": -0.6}),
    ("torus_height", {}),
], ids=["sphere", "bumpy+0.6", "bumpy-0.6", "torus"])
@pytest.mark.parametrize("k", [2, 4])
def test_an_even_window_through_its_partner_is_a_prefix_of_dense_eigh(
        case, params, k, n_grid, monkeypatch):
    """Delta^k = B*B and Delta^{k+1} = BB* for k >= n.  A count of 24
    leaves the partner window of degree k+1 a share of 11 or 12 pairs in
    each of its dtheta and dphi blocks, so the window is solved on them;
    a count of 6 leaves too few, and S_k is solved itself.  Either way
    the window is the prefix of dense eigh: every eigenvalue within
    64 eps |A| plus both residuals, and the same kernel dimension."""
    be = B.build_backend(*B.catalog(case, params, n_grid=n_grid))
    built = _spy_cartan(monkeypatch)
    for s in (0.0, 4.0, 64.0):
        w, resid, norm = _dense_pairs(be, k, s)
        for count in (24, 6):
            built.clear()
            rep = S.delta_spectrum(be, k, s=s, count=count)
            assert built == ([k] if count == 24 else []), (s, count)
            allowed = (64 * np.finfo(float).eps * norm + resid[:count]
                       + np.asarray(rep.residual_norms))
            assert np.all(np.abs(np.asarray(rep.eigenvalues) - w[:count]) <= allowed), \
                (s, count)
            assert rep.kernel_dim == np.count_nonzero(w[:count] <= S.KERNEL_TAU_ABS * norm)


@pytest.mark.parametrize("case,params", [("sphere_height", {}), ("torus_height", {"R": 2.8})],
                         ids=["sphere", "torus"])
def test_a_window_solved_on_its_partner_has_small_residuals(case, params, monkeypatch):
    """The nonzero pairs of a window solved on its partner are the
    partner's own, with their residuals on S_{k+1}, and the kernel pairs
    come from S_k's kernel factor: every residual of degrees 2 and 4 at
    N = 1024 is within 64 eps |A|, with |A| that of S_k."""
    be = B.build_backend(*B.catalog(case, params, n_grid=1024))
    built = _spy_cartan(monkeypatch)
    for k in (2, 4):
        for s in (4.0, 64.0):
            rep = S.delta_spectrum(be, k, s=s, count=24)
            assert len(rep.residual_norms) == 24
            assert max(rep.residual_norms) <= 64 * np.finfo(float).eps * rep.operator_norm, \
                (k, s)
    assert built == [2, 2, 4, 4]


def _dropping_a_partner_pair(monkeypatch, block, then=lambda: None):
    """spectral._solve, with the lowest pair of the partner block named
    block dropped after its first solve; then then() is called."""
    real = S._solve

    def solve(b, *args):
        real(b, *args)
        if b.name.startswith(block):
            b.w, b.V, b.resid = (np.delete(x, 0, axis=-1) for x in (b.w, b.V, b.resid))
            then()
    monkeypatch.setattr(S, "_solve", solve)


def test_a_mapped_pair_that_goes_missing_is_found_by_the_certificate(sphere, monkeypatch):
    """The lowest pair of the first partner block of degree 3, a nonzero
    pair of the degree-2 window, is dropped after its solve: the
    partner's inertia at its merged cut then counts one more eigenvalue
    than that block holds, and one extension on its complement finds it,
    as on any split window."""
    w, resid, norm = _dense_pairs(sphere, 2, 16.0)
    _dropping_a_partner_pair(monkeypatch, "block 1 of 2")
    runs = _spy_runs(monkeypatch)
    rep = S.delta_spectrum(sphere, 2, s=16.0, count=24)
    extensions = [run for run in runs if run["V"] is not None]
    assert len(extensions) == 1 and extensions[0]["m"] == extensions[0]["V"].shape[1] + 1
    assert extensions[0]["sym"].matrix.shape[0] < rep.dim  # a partner block
    allowed = 64 * np.finfo(float).eps * norm + resid[:24] + np.asarray(rep.residual_norms)
    assert np.all(np.abs(np.asarray(rep.eigenvalues) - w[:24]) <= allowed)
    assert rep.kernel_dim == 2


def test_a_missing_mapped_pair_that_is_not_found_fails_the_certificate(sphere, monkeypatch):
    """As above, on the last partner block, and the extension loses its
    pair too (_dropping_eigsh on every run after that block's solve): the
    partner's certificate raises, and the error names the partner block."""
    _dropping_a_partner_pair(monkeypatch, "block 2 of 2", lambda: monkeypatch.setattr(
        S.spla, "eigsh", _dropping_eigsh))
    with pytest.raises(S.SolverError,
                       match=r"^partner block 2 of 2 \(dim \d+\): the window holds (\d+) "
                       r"eigenvalues below \S+, the inertia there is (\d+)$") as info:
        S.delta_spectrum(sphere, 2, s=16.0, count=24)
    held, below = map(int, re.search(r"holds (\d+) .* is (\d+)$", str(info.value)).groups())
    assert below == held + 1


def _spy_eigsh(monkeypatch):
    """(dim, k) of every scipy eigsh call from here on."""
    calls = []

    def spy(A, k, **kwargs):
        calls.append((A.shape[0], k))
        return _EIGSH(A, k, **kwargs)
    monkeypatch.setattr(S.spla, "eigsh", spy)
    return calls


@pytest.mark.parametrize("dropped", [False, True], ids=["whole", "dropped"])
def test_a_window_without_a_kernel_solves_only_its_partner(torus, dropped, monkeypatch):
    """Degree 2 of the torus has no kernel (kappa_2 = 0), and the index of
    B is 0, so its window of 24 is the degree-3 window of 24, bitwise,
    and nothing of degree 2 is solved: its one factor counts the kernel.
    With a partner pair dropped, the one extension seeks exactly that
    pair, on a partner block.  Either way the window is the prefix of
    dense eigh."""
    if dropped:
        _dropping_a_partner_pair(monkeypatch, "block 1 of 2")
    calls, factors = _spy_eigsh(monkeypatch), _spy(monkeypatch, "_factor")
    rep = S.delta_spectrum(torus, 2, s=16.0, count=24)
    assert calls and all(dim < rep.dim for dim, _ in calls)
    assert [call[0].matrix.shape[0] for call in factors].count(rep.dim) == 1
    assert [k for _, k in calls][2:] == ([1] if dropped else [])
    if not dropped:
        assert rep.eigenvalues == S.delta_spectrum(torus, 3, s=16.0, count=24).eigenvalues
    w, resid, norm = _dense_pairs(torus, 2, 16.0)
    allowed = 64 * np.finfo(float).eps * norm + resid[:24] + np.asarray(rep.residual_norms)
    assert np.all(np.abs(np.asarray(rep.eigenvalues) - w[:24]) <= allowed)
    assert rep.kernel_dim == 0


def test_a_partner_window_takes_its_kernel_from_the_one_kernel_factor(monkeypatch):
    """Degree 2 of the sphere has kappa_2 = 2: the factor one float above
    tau that counts them is S_2's only factor, and its Lanczos run gives
    the two kernel pairs, which one certificate at tau checks against
    that count, with no factor of its own.  Both are within the residual
    bound and dense eigh's to 64 eps |A| plus both residuals.  A kernel
    factor that counts one more still raises, and so do kernel pairs
    whose eigenvalues lie above tau, and a partner pair at most tau."""
    be = B.build_backend(*B.catalog("sphere_height", n_grid=256))
    dim = C.degree_space(be, 2).dim
    factors, certified = _spy(monkeypatch, "_factor"), _spy(monkeypatch, "_certify")
    rep = S.delta_spectrum(be, 2, s=16.0, count=24)
    assert [call[0].matrix.shape[0] for call in factors].count(dim) == 1
    on_s2 = [call for call in certified if call[0].dim == dim]
    assert len(on_s2) == 1 and on_s2[0][4] == 2
    assert rep.dim == dim and rep.kernel_dim == 2
    w, resid, norm = _dense_pairs(be, 2, 16.0)
    kernel = np.asarray(rep.residual_norms[:2])
    assert kernel.max() <= S.RESIDUAL_BOUND * max(norm, 1.0)
    assert np.all(np.abs(np.asarray(rep.eigenvalues[:2]) - w[:2])
                  <= 64 * np.finfo(float).eps * norm + resid[:2] + kernel)
    monkeypatch.undo()

    def overcounting(sym, shift):
        lu, negatives = _FACTOR(sym, shift)
        return lu, negatives + (sym.matrix.shape[0] == dim and 0 < shift < 1.0)
    monkeypatch.setattr(S, "_factor", overcounting)
    with pytest.raises(S.SolverError, match="^partner: "):
        S.delta_spectrum(be, 2, s=16.0, count=24)
    monkeypatch.undo()
    real = S._lanczos

    def above_tau(sym, *args, **kwargs):
        w, V, resid = real(sym, *args, **kwargs)
        return w + (sym.matrix.shape[0] == dim), V, resid
    monkeypatch.setattr(S, "_lanczos", above_tau)
    with pytest.raises(S.SolverError, match=r"^the window holds 0 eigenvalues below \S+, "
                       r"the inertia there is 2$"):
        S.delta_spectrum(be, 2, s=16.0, count=24)
    monkeypatch.undo()
    solve = S.eigensolve

    def partner_at_zero(operator, mass, **kwargs):  # its lowest nonzero pair moved to 0
        rep = solve(operator, mass, **kwargs)
        rep.eigenvalues[rep.kernel_dim] = 0.0
        return rep
    monkeypatch.setattr(S, "eigensolve", partner_at_zero)
    with pytest.raises(S.SolverError, match=r"^partner: 3 window eigenvalues are at most "
                       r"tau = \S+, the kernel factor counts 2$"):
        S.delta_spectrum(be, 2, s=16.0, count=24)


def _planting_a_pair_above_tau(monkeypatch, dim):
    """spectral._symmetrized, with 1.5 tau planted in every S of dimension
    dim in place of its third eigenvalue, the lowest nonzero one of S_2 of
    the sphere; the planted S is kept in the returned dict."""
    real = S._symmetrized
    planted = {}

    def with_a_pair_above_tau(operator, mass):
        sym = real(operator, mass)
        if sym.matrix.shape[0] != dim:
            return sym
        A = sym.matrix.toarray()
        w, V = np.linalg.eigh(A)
        A += (1.5 * S.KERNEL_TAU_ABS * sym.norm - w[2]) * np.outer(V[:, 2], V[:, 2])
        planted["sym"] = S._stored(sp.csr_matrix(0.5 * (A + A.T)))
        return planted["sym"]
    monkeypatch.setattr(S, "_symmetrized", with_a_pair_above_tau)
    return planted


def test_a_pair_just_above_tau_does_not_displace_a_partner_windows_kernel(monkeypatch):
    """Shift-invert about tau puts an eigenvalue in (tau, 2 tau) nearer the
    shift than the kernel at 0.  Planted in S_2 of the sphere, in place
    of its lowest nonzero eigenvalue, it takes one of the two places of
    the first kernel run; the certificate at tau finds one kernel pair
    missing against the kernel factor's count of 2 and seeks it on the
    complement, with no further factor.  Both kernel pairs then match
    dense eigh of the planted S_2."""
    be = B.build_backend(*B.catalog("sphere_height", n_grid=256))
    dim = C.degree_space(be, 2).dim
    planted = _planting_a_pair_above_tau(monkeypatch, dim)
    factors, runs = _spy(monkeypatch, "_factor"), _spy_runs(monkeypatch)
    rep = S.delta_spectrum(be, 2, s=16.0, count=24)
    A = planted["sym"].matrix.toarray()
    norm, tau = planted["sym"].norm, S.KERNEL_TAU_ABS * planted["sym"].norm
    w, V = np.linalg.eigh(A)
    assert w[1] <= tau < w[2] < 2 * tau
    assert [call[0].matrix.shape[0] for call in factors].count(dim) == 1
    assert [run["V"] is not None for run in runs if run["sym"] is planted["sym"]] == [
        False, True]
    assert rep.kernel_dim == 2
    resid = np.asarray(rep.residual_norms[:2])
    assert resid.max() <= S.RESIDUAL_BOUND * max(norm, 1.0)
    assert np.all(np.abs(np.asarray(rep.eigenvalues[:2]) - w[:2])
                  <= 64 * np.finfo(float).eps * norm + resid)


@pytest.mark.parametrize("s", [0.0, 16.0])
@pytest.mark.parametrize("k,count", [(0, 1), (2, 1), (2, 2)])
def test_a_kernel_window_takes_only_its_kernel_factor(k, count, s, monkeypatch):
    """A window of at most kappa pairs is the kernel, its own top cluster:
    the factor one float above tau counts it and certifies the window,
    with no factor at a cut of its own.  The sphere at N = 256 has
    kappa_0 = 1 and kappa_2 = 2."""
    be = B.build_backend(*B.catalog("sphere_height", n_grid=256))
    _, _, delta = C.build_deformed(be, s, k)
    factors = _spy(monkeypatch, "_factor")
    rep = S.eigensolve(delta, C.mass_vector(be, delta.domain), count=count, k=k, s=s)
    kernel_shift = np.nextafter(S.KERNEL_TAU_ABS * rep.operator_norm, math.inf)
    assert [shift for _, shift in factors] == [kernel_shift]
    assert rep.kernel_dim == len(rep.eigenvalues) == count


@pytest.mark.parametrize("count", [24, 27])
def test_a_split_kernel_window_takes_one_factor_per_block(count, monkeypatch):
    """Two dense blocks of 40 and 50 rows with kernels of 15 and 12: a
    count of 24 or 27 gives each block a share of at least 10, and the
    kernels hold the whole window.  The first block starts from its share
    and one more, 12 or 13 pairs, fewer than its kernel, so its
    certificate at tau against min(15, count) extends it, on its kernel
    factor only.  The window is dense eigh's prefix, all of it kernel."""
    rng = np.random.default_rng(0)
    blocks = []
    for dim, kappa, scale in ((40, 15, 1.0), (50, 12, 2.0)):
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        A = (Q * np.r_[np.zeros(kappa), np.linspace(scale, 40 * scale, dim - kappa)]) @ Q.T
        blocks.append(0.5 * (A + A.T))
    A = sp.csr_matrix(sp.block_diag(blocks))
    factors = _spy(monkeypatch, "_factor")
    rep = S.eigensolve(A, np.ones(90), count=count)
    assert S._split(A, count) is not None
    kernel_shift = np.nextafter(S.KERNEL_TAU_ABS * rep.operator_norm, math.inf)
    assert [shift for _, shift in factors] == [kernel_shift] * 2
    assert rep.kernel_dim == count
    reference = np.linalg.eigvalsh(A.toarray())[:count]
    allowed = 64 * np.finfo(float).eps * rep.operator_norm + np.asarray(rep.residual_norms)
    assert np.all(np.abs(np.asarray(rep.eigenvalues) - reference) <= allowed)


def test_a_pair_just_above_tau_does_not_displace_a_kernel_window(monkeypatch):
    """The plant of the partner test above, 1.5 tau in place of the lowest
    nonzero eigenvalue of S_2 of the sphere, under a direct window of its
    two kernel pairs: the first run holds the planted pair and one kernel
    pair, and the certificate at tau against the kernel factor's count of
    2 seeks the other on the complement.  The window takes that one
    factor, and both pairs match dense eigh of the planted S_2 to 64 eps
    |A| plus their residuals."""
    be = B.build_backend(*B.catalog("sphere_height", n_grid=256))
    planted = _planting_a_pair_above_tau(monkeypatch, C.degree_space(be, 2).dim)
    _, _, delta = C.build_deformed(be, 16.0, 2)
    factors, runs = _spy(monkeypatch, "_factor"), _spy_runs(monkeypatch)
    rep = S.eigensolve(delta, C.mass_vector(be, delta.domain), count=2, k=2, s=16.0)
    norm, tau = planted["sym"].norm, S.KERNEL_TAU_ABS * planted["sym"].norm
    w = np.linalg.eigvalsh(planted["sym"].matrix.toarray())
    assert w[1] <= tau < w[2] < 2 * tau
    assert len(factors) == 1
    assert [run["V"] is not None for run in runs] == [False, True]
    assert rep.kernel_dim == 2
    resid = np.asarray(rep.residual_norms)
    assert resid.max() <= S.RESIDUAL_BOUND * max(norm, 1.0)
    assert np.all(np.abs(np.asarray(rep.eigenvalues) - w[:2])
                  <= 64 * np.finfo(float).eps * norm + resid)


def test_a_window_solved_densely_builds_no_partner(monkeypatch):
    """Degree 2 of the sphere at N = 64 has dimension 127.  A count of 70
    is solved by dense eigh of S_k, so no partner is built, though its
    window of 70 - 2 + 0 = 68 pairs would split."""
    be = B.build_backend(*B.catalog("sphere_height", n_grid=64))
    built = _spy_cartan(monkeypatch)
    rep = S.delta_spectrum(be, 2, s=4.0, count=70)
    assert not built
    w, resid, norm = _dense_pairs(be, 2, 4.0)
    allowed = 64 * np.finfo(float).eps * norm + resid[:70] + np.asarray(rep.residual_norms)
    assert np.all(np.abs(np.asarray(rep.eigenvalues) - w[:70]) <= allowed)
    assert rep.kernel_dim == 2
def test_a_dense_block_that_misses_a_pair_is_completed_by_the_certificate(monkeypatch):
    """One chain of 40 nodes and a count of 30, which dense eigh solves,
    patched to skip the second-lowest pair: the block's own top then lies
    above the missing eigenvalue.  The certificate at the cut of that top
    counts it, and one extension on the complement finds it."""
    A, mass, dense = _chains((40,), [1.0])

    def skipping(a, **kwargs):
        w, V = _EIGH(a, **kwargs)
        return np.delete(w, 1), np.delete(V, 1, axis=1)
    monkeypatch.setattr(S.sla, "eigh", skipping)
    runs = _spy_runs(monkeypatch)
    rep = S.eigensolve(A, mass, count=30)
    assert [run["m"] - run["V"].shape[1] for run in runs] == [1]
    reference = np.linalg.eigvalsh(dense)[:30]
    allowed = 64 * np.finfo(float).eps * rep.operator_norm + np.asarray(rep.residual_norms)
    assert np.all(np.abs(np.asarray(rep.eigenvalues) - reference) <= allowed)
    assert rep.kernel_dim == 1


def test_an_all_kernel_window_takes_no_partner_solve(monkeypatch):
    """A count of kappa_k = 2 on degree 2 of the sphere: every pair is a
    kernel pair, which only S_k's own kernel factor gives.  The partner
    window, of 2 - kappa_k + kappa_{k+1} = 0 pairs, is below the 20 that
    _split needs, so nothing of degree 3 is built, factored or solved."""
    be = B.build_backend(*B.catalog("sphere_height", n_grid=256))
    built = _spy_cartan(monkeypatch)
    factors, runs = _spy(monkeypatch, "_factor"), _spy_runs(monkeypatch)
    rep = S.delta_spectrum(be, 2, s=16.0, count=2)
    assert not built and rep.kernel_dim == 2
    assert factors and runs
    syms = [call[0] for call in factors] + [run["sym"] for run in runs]
    assert all(sym.matrix.shape[0] == rep.dim for sym in syms)


@pytest.mark.parametrize("case", ["sphere_height", "torus_height"])
def test_an_odd_window_builds_no_partner(case, monkeypatch):
    """Degree 3 of a surface splits by itself at a count of 24.  At 6 it
    does not, and its degree-4 partner window of 6 + dim_4 - dim_3 pairs
    is below the 2 _MIN_SHARE = 20 that _split needs, so it is refused
    before anything of degree 4 is built."""
    be = B.build_backend(*B.catalog(case, n_grid=256))
    built = _spy_cartan(monkeypatch)
    for count in (24, 6):
        S.delta_spectrum(be, 3, s=16.0, count=count)
    assert not built


def test_a_failure_on_a_partner_block_names_it(sphere, monkeypatch):
    monkeypatch.setattr(S.spla, "eigsh", _no_shifts)
    with pytest.raises(S.SolverError,
                       match=r"^partner block 1 of 2 \(dim \d+\): eigenvalue iteration"):
        S.delta_spectrum(sphere, 2, s=16.0, count=24)


def _with_a_pairing_fault(be):
    """A copy of a surface backend whose i_v on 2-forms also maps one
    2-form into the dphi rows of the 1-forms, so that d_s^3 d_s^2 != 0
    and Delta^2 and Delta^3 no longer share their nonzero spectrum."""
    iv2, rows = be.iv[2].tolil(), be.dims[2]
    iv2[rows + 10, 10] = iv2[10, 10]
    return dataclasses.replace(be, iv=[*be.iv[:2], sp.csr_matrix(iv2)])


def test_a_planted_pairing_fault_never_gives_the_partner_spectrum():
    """With the pairing broken, the degree-2 window of 24 must be dense
    eigh's window of the faulty Delta^2 or a SolverError that names the
    partner; here both the defect of B*B against Delta^2 and the index
    of B see the fault.  The partner's nonzero spectrum is no longer
    Delta^2's, so a window read off it would be wrong."""
    be = _with_a_pairing_fault(B.build_backend(*B.catalog("sphere_height", n_grid=64)))
    w, resid, norm = _dense_pairs(be, 2, 4.0)
    above = _dense_pairs(be, 3, 4.0)[0]
    assert np.abs(above[:22] - w[2:24]).max() > 1e6 * 64 * np.finfo(float).eps * norm
    try:
        rep = S.delta_spectrum(be, 2, s=4.0, count=24)
    except S.SolverError as exc:
        assert str(exc).startswith("partner: ")
    else:
        assert len(rep.eigenvalues) == 24
        allowed = 64 * np.finfo(float).eps * norm + resid[:24] + np.asarray(rep.residual_norms)
        assert np.all(np.abs(np.asarray(rep.eigenvalues) - w[:24]) <= allowed)


def test_spectrum_with_a_planted_pairing_fault_never_writes_the_partner_window(
        tmp_path, capsys, monkeypatch):
    """spectrum --k 2 --count 24 follows the same rule: it exits 2 with the
    partner's error, or writes dense eigh's window of the faulty Delta^2."""
    real = B.build_backend
    monkeypatch.setattr(cli.backend_mod, "build_backend",
                        lambda *args: _with_a_pairing_fault(real(*args)))
    out = tmp_path / "s.json"
    code = cli.main(["spectrum", "--case", "sphere_height", "--n-grid", "64", "--k", "2",
                     "--s", "4", "--count", "24", "--out", str(out)])
    if code == 2:
        assert capsys.readouterr().err.startswith("error: partner: ")
        assert not out.exists()
    else:
        assert code == 0
        rep = json.loads(out.read_text())
        assert len(rep["eigenvalues"]) == 24
        be = _with_a_pairing_fault(real(*B.catalog("sphere_height", n_grid=64)))
        w, resid, norm = _dense_pairs(be, 2, 4.0)
        allowed = (64 * np.finfo(float).eps * norm + resid[:24]
                   + np.asarray(rep["residual_norms"]))
        assert np.all(np.abs(np.asarray(rep["eigenvalues"]) - w[:24]) <= allowed)


def test_a_window_whose_kernels_break_the_index_of_b_fails(sphere, monkeypatch):
    """kappa_{k+1} - kappa_k must be dim_{k+1} - dim_k, the index of B: a
    kernel factor of S_2 that counts one kernel eigenvalue too many
    breaks it, and the window raises rather than seek a kernel pair.
    Only that factor is taken at a shift in (0, 1), one float above tau."""
    dim = C.degree_space(sphere, 2).dim

    def overcounting(sym, shift):
        lu, negatives = _FACTOR(sym, shift)
        return lu, negatives + (sym.matrix.shape[0] == dim and 0 < shift < 1.0)
    monkeypatch.setattr(S, "_factor", overcounting)
    with pytest.raises(S.SolverError, match=r"^partner: kernel dimensions 3 of degree 2 "
                       r"and 0 of degree 3 break the index of B$"):
        S.delta_spectrum(sphere, 2, s=16.0, count=24)
