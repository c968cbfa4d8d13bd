"""Eigensolver, kernel detection, traces, sweeps and report emission."""

import csv
import math
import os

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.xfail(
    strict=True,
    reason="tunneling: on sphere_bumpy at c = -0.6 the second degree-0 "
    "eigenvalue decays like e^{-2hs} (barrier h = 0.408) and by s = 64 falls "
    "below KERNEL_TAU_ABS x |A|, so the kernel reads 2 where the cohomology "
    "has 1; singular values of d_s resolve it (ROADMAP item 2)")
def test_tunneling_eigenvalue_stays_out_of_the_kernel():
    profile, f = B.catalog("sphere_bumpy", {"c": -0.6}, n_grid=256)
    be = B.build_backend(profile, f)
    assert S.delta_spectrum(be, 0, s=64.0).kernel_dim == 1


def test_sweep_rejects_unsorted():
    profile, f = B.catalog("sphere_height", n_grid=64)
    be = B.build_backend(profile, f)
    with pytest.raises(ValueError):
        S.sweep_s(be, 0, [4.0, 2.0], S.TraceSpec())


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
def test_every_window_is_a_prefix_of_one_dense_eigh(sphere, torus, k, s):
    """Reference: one LAPACK call on the whole symmetrized matrix.

    Every window a caller asks for (the kernel and gap, the trace window,
    a count, the full listing) is the prefix of the dense spectrum, to a
    small multiple of eps |A|; degree 1 splits into two chains, degree 2
    couples two blocks.
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
            if "ceiling" in request:
                below = np.count_nonzero(reference < max(request["ceiling"], tau))
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
            perm = np.random.default_rng(0).permutation(delta.domain.dim)
            for window in (math.inf, ceiling):
                a = np.asarray(S.eigensolve(delta, mass, ceiling=window).eigenvalues)
                b = np.asarray(S.eigensolve(delta.matrix[perm][:, perm], mass[perm],
                                            ceiling=window).eigenvalues)
                assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), 1.0)), (k, s)


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
    eigsh = spla.eigsh

    def mixing(A, k, **kwargs):
        w, V = eigsh(A, k + 1, **kwargs)
        V[:, 0] = (V[:, 0] + V[:, 1]) / math.sqrt(2.0)
        return w[:k], V[:, :k]

    monkeypatch.setattr(S.spla, "eigsh", mixing)
    with pytest.raises(S.SolverError, match="residual bound"):
        S.delta_spectrum(sphere, 1, count=6)


def test_count_equal_to_the_dimension_is_the_full_spectrum():
    profile, f = B.catalog("sphere_height", n_grid=64)
    be = B.build_backend(profile, f)
    full = S.delta_spectrum(be, 0)
    counted = S.delta_spectrum(be, 0, count=full.dim)
    assert len(counted.eigenvalues) == counted.dim == full.dim
    assert counted.eigenvalues == full.eigenvalues
    assert counted.residual_norms == full.residual_norms


@pytest.mark.parametrize("n_grid", [64, 256])
@pytest.mark.parametrize("case,params", [
    ("sphere_height", {}), ("sphere_bumpy", {"c": -0.6}), ("torus_height", {}),
], ids=["sphere", "bumpy", "torus"])
def test_counted_window_is_a_prefix_of_the_full_listing(case, params, n_grid):
    # a counted window is the low band of the full listing, to rounding,
    # with the same |A|, and its kernel split is the full one cut short
    be = B.build_backend(*B.catalog(case, params, n_grid=n_grid))
    for k in (0, 1, 2):
        for s in (0.0, 16.0, 64.0):
            full = S.delta_spectrum(be, k, s)
            w = np.asarray(full.eigenvalues)
            tol = 64 * np.finfo(float).eps * full.operator_norm
            for count in (1, 8, 24, full.dim - 1):
                part = S.delta_spectrum(be, k, s, count=count)
                where = (k, s, count)
                assert np.abs(np.asarray(part.eigenvalues) - w[:count]).max() <= tol, where
                assert len(part.residual_norms) == count, where
                assert part.kernel_dim == min(full.kernel_dim, count), where
                assert (part.operator_norm, part.dim) == (full.operator_norm, full.dim)
                if count > full.kernel_dim:
                    assert abs(part.gap - full.gap) <= tol, where


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
    eigsh = spla.eigsh

    def dropping(A, k, **kwargs):
        w, V = eigsh(A, k + 1, **kwargs)
        return w[1:], V[:, 1:]

    monkeypatch.setattr(S.spla, "eigsh", dropping)
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
    S_ = sp.csr_matrix(sp.block_diag(blocks))
    dim = S_.shape[0]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dim)
    mass = rng.uniform(0.5, 2.0, dim)
    S_ = S_[perm][:, perm]
    A = sp.diags(1 / np.sqrt(mass)) @ S_ @ sp.diags(np.sqrt(mass))
    window = draw(st.one_of(
        st.builds(lambda m: {"count": m}, st.integers(1, max(dim // 2, 1))),
        st.builds(lambda c: {"ceiling": c}, st.floats(0.0, 60.0))))
    return sp.csr_matrix(A), mass, S_.toarray(), window


@settings(max_examples=80, deadline=None)
@given(_planted_operators())
def test_window_matches_dense_eigh(planted):
    """The window is the lowest m of the dense spectrum, and its kernel is
    the dense one.  Each eigenvalue agrees to 1e-12 |A| plus its residual
    norm, which a vector mixing the members of a cluster 1e-9 apart may
    need; the top one to the certificate's cut, 1e-8 max(|lambda|, 1),
    since it may be any member of a cluster that the cut splits."""
    A, mass, dense, window = planted
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
