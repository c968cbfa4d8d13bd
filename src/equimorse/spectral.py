"""Symmetric eigenproblems, kernel detection and trace functionals.

Every assembled operator A is symmetric with respect to a diagonal mass
M, so M^{1/2} A M^{-1/2} is plainly symmetric and a band (or, for a
partial spectrum above a size threshold, shift-inverted iterative)
solver applies.  Kernel dimensions are decided by one threshold: an
eigenvalue belongs to the kernel when it is at most KERNEL_TAU_ABS x |A|,
with |A| the largest eigenvalue modulus (the infinity norm on the
iterative path).  betti_numbers further requires the gap to be at least
SEPARATION_FACTOR = 100 times the largest kernel eigenvalue.  Kernel
dimensions equal the equivariant Betti numbers by the Hodge isomorphism;
traces of a rapidly decreasing phi over the spectrum realize the
heat-trace-like functionals whose alternating sums obey the analytic
Morse inequalities at every deformation parameter.

All solves are deterministic.  The full spectrum, and any spectrum below
DENSE_LIMIT dimensions, comes from a band solve: the symmetrized matrix
is split into its connected blocks (odd degrees separate into the g and
h chains), each block is put in reverse Cuthill-McKee order (bandwidth
1 to 6 on the catalog) and LAPACK computes all its eigenvalues without
vectors.  Vectors are computed only for a low window per block, the
kernel window and the eigenvalues the band solve cannot give to
EIGENVALUE_ACCURACY (plus the requested ones of a partial spectrum), by
inverse iteration on a banded LU and one Rayleigh-Ritz step; each window
eigenvalue is the extended-precision Rayleigh quotient of its vector.
Pairs with a vector must pass the residual bound; the quotients must
match the band eigenvalues of the window, and the eigenvalues must sum
to the trace, within the band solve's error bound.  A partial spectrum
above DENSE_LIMIT uses shift-invert Lanczos with a fixed starting vector.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from . import cartan
from .backend import BackendMatrices

__all__ = [
    "SpectrumReport",
    "TraceSpec",
    "SolverError",
    "CountError",
    "AmbiguousKernelError",
    "TailBoundError",
    "eigensolve",
    "delta_spectrum",
    "betti_numbers",
    "trace_phi",
    "SweepPoint",
    "SweepResult",
    "sweep_s",
    "de_rham_index",
    "periodicity_defect",
    "reports_to_csv",
    "write_atomic",
]

# Bounds the band path: below this dimension every request is a band
# solve, above it only the full spectrum is and a partial one is
# shift-invert Lanczos.  The name predates the band path; tests
# monkeypatch it to reach the Lanczos branch at small sizes.
DENSE_LIMIT = 2000
KERNEL_TAU_ABS = 1e-9
SEPARATION_FACTOR = 100.0
RESIDUAL_BOUND = 1e-8
EIGENVALUE_ACCURACY = 1e-12  # required of every eigenvalue, x max(|lambda|, 1)
CLUSTER_GAP = math.sqrt(np.finfo(float).eps)  # closer eigenvalues share a window, x |A|
TRACE_TAIL_BOUND = 1e-6


class SolverError(RuntimeError):
    """Eigenvalue iteration failed to converge."""


class CountError(ValueError):
    """Requested eigenvalue count outside 1..dimension."""


class AmbiguousKernelError(RuntimeError):
    """No clear separation between near-kernel and the spectral gap."""


class TailBoundError(ValueError):
    """Too few eigenvalues for the requested trace accuracy."""


@dataclass
class SpectrumReport:
    """Eigenvalues of one operator with kernel bookkeeping.

    eigenvalues are ascending; kernel_dim counts those at most
    KERNEL_TAU_ABS x operator_norm; gap is the smallest eigenvalue above
    that threshold; separation is gap over the largest kernel eigenvalue;
    dim is the operator's dimension and count the number of eigenvalues
    returned.  residual_norms hold ||A v - lambda v||, in the
    mass-orthonormal frame, for exactly the returned pairs that carry a
    vector, in ascending order of eigenvalue: every pair of the Lanczos
    path, the low window of the band path.  The other band eigenvalues
    are certified by the window match and the trace identity instead.
    to_record, the spectrum JSON, adds dim, operator_norm, separation and
    vectors, the number of residual norms.
    """

    k: int
    s: float
    eigenvalues: list[float]
    kernel_dim: int
    gap: float
    residual_norms: list[float]
    dim: int = 0
    count: int = 0
    operator_norm: float = 0.0
    separation: float = math.inf

    def to_record(self) -> dict:
        return {
            "k": self.k,
            "s": self.s,
            "eigenvalues": list(self.eigenvalues),
            "kernel_dim": self.kernel_dim,
            "gap": self.gap,
            "residual_norms": list(self.residual_norms),
            "dim": self.dim,
            "operator_norm": self.operator_norm,
            "separation": self.separation,
            "vectors": len(self.residual_norms),
        }


@dataclass(frozen=True)
class TraceSpec:
    """A positive rapidly decreasing weight phi with phi(0) = 1."""

    phi_kind: str = "exp_decay"
    scale: float = 1.0

    def __post_init__(self):
        if self.phi_kind not in ("exp_decay", "gaussian"):
            raise ValueError(f"unknown phi kind {self.phi_kind!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        if self.phi_kind == "exp_decay":
            return np.exp(-x / self.scale)
        return np.exp(-((x / self.scale) ** 2))


def _kernel_split(w: np.ndarray, opnorm: float):
    """Kernel dimension, gap and separation of the ascending spectrum w."""
    kd = int(np.count_nonzero(w <= KERNEL_TAU_ABS * opnorm))
    gap = float(w[kd]) if kd < len(w) else math.inf
    if kd > 0:
        top_kernel = max(abs(float(w[kd - 1])), 1e-300)
        separation = gap / top_kernel if math.isfinite(gap) else math.inf
    else:
        separation = math.inf
    return kd, gap, separation


def _band_error(n: int) -> float:
    """Error bound of a band eigenvalue solve of dimension n, as a multiple of |A|.

    64 eps up to n = 512, then growing linearly: LAPACK's band reduction
    was measured off by up to 32 eps |A| at n = 512 and 247 eps |A| at
    n = 4095 in the low spectrum (below 0.1 |A|) of the catalog
    Laplacians, with errors of one sign that show in the trace as well.
    """
    return np.finfo(float).eps * max(64.0, n / 8)


def _lower_band(A):
    """Lower band storage ab[i - j, j] = A[i, j] of the symmetric sparse A."""
    coo = A.tocoo()
    low = coo.row >= coo.col
    rows, cols = coo.row[low], coo.col[low]
    ab = np.zeros((int((rows - cols).max(initial=0)) + 1, A.shape[0]))
    ab[rows - cols, cols] = coo.data[low]
    return ab


def _window_vectors(ab, theta, norm):
    """Vectors for the ascending eigenvalues theta of the band matrix ab.

    One banded LU of A - theta_i I (LAPACK gbtrf) per eigenvalue, O(n b^2),
    and two solves from a fixed random start, each followed by
    orthogonalization against the vectors of the eigenvalues less than
    CLUSTER_GAP x |A| below theta_i, so that a cluster comes out as
    independent vectors of its eigenspace; vectors of eigenvalues further
    apart are orthogonal to the solver's accuracy already.  A zero pivot
    is replaced by eps |A|, a relative perturbation of eps.  Returns the
    vectors as columns, each of unit norm.
    """
    b, n = ab.shape[0] - 1, ab.shape[1]
    general = np.zeros((3 * b + 1, n))  # gbtrf layout: A[i, j] at [2b + i - j, j]
    for d in range(b + 1):
        general[2 * b + d, :n - d] = ab[d, :n - d]
        general[2 * b - d, d:] = ab[d, :n - d]
    floor = np.finfo(float).eps * norm or 1.0
    start = np.random.default_rng(0).standard_normal((len(theta), n))
    rows = np.empty((len(theta), n))
    for i, t in enumerate(theta):
        shifted = general.copy()
        shifted[2 * b] -= t
        lu, piv, _ = lapack.dgbtrf(shifted, b, b, overwrite_ab=True)
        lu[2 * b][lu[2 * b] == 0.0] = floor
        cluster = rows[np.searchsorted(theta, t - CLUSTER_GAP * norm):i]
        v = start[i]
        for _ in range(2):
            v, _ = lapack.dgbtrs(lu, b, b, v, piv)
            for _ in range(2):
                v -= cluster.T @ (cluster @ v)
            v /= np.linalg.norm(v)
        rows[i] = v
    return rows.T


def _band_spectrum(S, count):
    """All eigenvalues of the symmetric sparse S, with vectors for a low window.

    Each connected block is put in reverse Cuthill-McKee order and its
    whole spectrum comes from a band solve without vectors (LAPACK
    sbevd), with error at most err = _band_error(dim_b) x |A_b|.  Vectors
    are computed only for the low window W of each block: the kernel
    window, every eigenvalue that err could move by more than
    EIGENVALUE_ACCURACY x max(|lambda|, 1), and the lowest count
    eigenvalues of a partial request (with a margin of 2 err, so that no
    returned pair lacks a vector when blocks reorder within their error).
    W is then widened until no eigenvalue outside it lies within
    CLUSTER_GAP x |A_b| of one inside.  Returns eigenvalues and residual
    norms in block order, unsorted; the residual of a pair without a
    vector is NaN.
    """
    n_blocks, labels = csgraph.connected_components(S, directed=False)
    blocks = []
    for block in range(n_blocks):
        idx = np.flatnonzero(labels == block)
        Sb = S[idx][:, idx]
        perm = csgraph.reverse_cuthill_mckee(Sb, symmetric_mode=True)
        Sb = Sb[perm][:, perm]
        ab = _lower_band(Sb)
        blocks.append((Sb, ab, sla.eig_banded(ab, lower=True, eigvals_only=True)))
    theta_all = np.concatenate([theta for *_, theta in blocks])
    opnorm = float(np.abs(theta_all).max())
    err_max = max(_band_error(len(theta)) * np.abs(theta).max() for *_, theta in blocks)
    edge = KERNEL_TAU_ABS * opnorm
    if count < len(theta_all):
        edge = max(edge, float(np.sort(theta_all)[count - 1]) + 2 * err_max)
    w, resid = [], []
    for Sb, ab, theta in blocks:
        norm = float(np.abs(theta).max())
        err = _band_error(len(theta)) * norm
        in_window = ((theta <= edge)
                     | (err > EIGENVALUE_ACCURACY * np.maximum(np.abs(theta), 1.0)))
        m = int(np.flatnonzero(in_window).max(initial=-1)) + 1
        while 0 < m < len(theta) and theta[m] - theta[m - 1] <= CLUSTER_GAP * norm:
            m += 1
        lam, r = _certified_window(Sb, ab, theta, m, err)
        w.append(lam)
        resid.append(r)
    return np.concatenate(w), np.concatenate(resid)


def _certified_window(Sb, ab, theta, m, err):
    """Eigenvalues of one block, the lowest m with vectors, and their residuals.

    Inverse iteration gives vectors for theta[:m], one Rayleigh-Ritz step
    over their span makes them orthonormal eigenvectors (SolverError if
    they are not independent), and each is reported with the
    extended-precision Rayleigh quotient of its vector; theta[m:] are
    kept as the band solve gave them.  Raises SolverError unless the
    quotients match theta[:m] one to one within err, and the eigenvalues
    sum to the trace within dim x err.
    """
    lam = theta.copy()
    resid = np.full(len(theta), np.nan)
    if m:
        V = _window_vectors(ab, theta[:m], float(np.abs(theta).max()))
        try:
            _, Y = sla.eigh(V.T @ (Sb @ V), V.T @ V)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"low window vectors are not independent: {exc}") from exc
        U = V @ Y
        U_ext = U.astype(np.longdouble)
        rq = (np.einsum("ij,ij->j", U_ext, Sb.astype(np.longdouble) @ U_ext)
              / np.einsum("ij,ij->j", U_ext, U_ext)).astype(float)
        if np.abs(np.sort(rq) - theta[:m]).max() > err:
            raise SolverError(
                "Rayleigh quotients of the low window do not match the band "
                f"eigenvalues within {err:.3e}")
        lam[:m] = rq
        resid[:m] = np.linalg.norm(Sb @ U - U * rq, axis=0)
    if abs(math.fsum(lam) - math.fsum(Sb.diagonal())) > len(lam) * err:
        raise SolverError(f"eigenvalues do not sum to the trace within dim x {err:.3e}")
    return lam, resid


def eigensolve(operator, mass: np.ndarray, count: int | None = None,
               k: int = 0, s: float = 0.0) -> SpectrumReport:
    """Smallest eigenvalues of a mass-symmetric operator.

    operator may be an EqOperator or a sparse/dense matrix; mass is the
    diagonal of the inner product; count (default: all) must lie in
    1..dim, else CountError; count = dim is the full spectrum.  The full
    spectrum, and any count below DENSE_LIMIT dimensions, comes from a
    band solve of each connected block, with vectors only for its low
    window (see _band_spectrum).  A partial spectrum above DENSE_LIMIT
    comes from a shift-inverted Lanczos iteration with a fixed starting
    vector.  Repeated runs are bit-identical.  Every returned pair that
    carries a vector must have a residual within RESIDUAL_BOUND x |A|,
    and a band solve must pass its window match and trace identity, else
    SolverError.
    """
    mat = operator.matrix if isinstance(operator, cartan.EqOperator) else operator
    dim = mat.shape[0]
    if dim == 0:
        return SpectrumReport(k, s, [], 0, math.inf, [], dim=0, count=0)
    if count is None:
        count = dim
    if not 1 <= count <= dim:
        raise CountError(f"eigenvalue count {count} is outside 1..{dim}")
    sqrt_m = np.sqrt(mass)
    S = sp.diags(sqrt_m) @ sp.csr_matrix(mat) @ sp.diags(1.0 / sqrt_m)
    S = sp.csr_matrix(0.5 * (S + S.T))

    if count == dim or dim < DENSE_LIMIT:
        w, resid = _band_spectrum(S, count)
        order = np.argsort(w, kind="stable")
        w = w[order]
        opnorm = float(np.abs(w).max())
        w_ret = w[:count]
        resid = resid[order][:count]
        resid = resid[~np.isnan(resid)]
    else:
        opnorm = float(spla.norm(S, np.inf))
        shift = -1e-6 * max(opnorm, 1.0)
        v0 = np.cos(np.arange(dim) + 0.25)
        try:
            w, v = spla.eigsh(S, k=count, sigma=shift,
                              which="LM", v0=v0, maxiter=5000, tol=0)
        except spla.ArpackNoConvergence as exc:
            raise SolverError(
                f"eigenvalue iteration did not converge: {exc}") from exc
        order = np.argsort(w)
        w_ret = w[order]
        v_ret = v[:, order]
        resid = np.linalg.norm(S @ v_ret - v_ret * w_ret[None, :], axis=0)
        w = w_ret

    kd, gap, separation = _kernel_split(w, max(opnorm, 1e-300))
    report = SpectrumReport(
        k=k, s=s,
        eigenvalues=[float(x) for x in w_ret],
        kernel_dim=min(kd, count),
        gap=gap,
        residual_norms=[float(r) for r in resid],
        dim=dim,
        count=count,
        operator_norm=opnorm,
        separation=separation,
    )
    bad = [r for r in report.residual_norms if r > RESIDUAL_BOUND * max(opnorm, 1.0)]
    if bad:
        raise SolverError(
            f"{len(bad)} eigenpairs exceed the residual bound "
            f"{RESIDUAL_BOUND:.0e} x |A| = {RESIDUAL_BOUND * opnorm:.3e}")
    return report


def delta_spectrum(backend: BackendMatrices, k: int, s: float = 0.0,
                   count: int | None = None) -> SpectrumReport:
    """Spectrum report of the (deformed) equivariant Laplacian in degree k."""
    _, _, delta = cartan.build_deformed(backend, s, k)
    mass = cartan.mass_vector(backend, delta.domain)
    return eigensolve(delta, mass, count=count, k=k, s=s)


def betti_numbers(backend: BackendMatrices, kmax: int, s_probes=None) -> list[int]:
    """Equivariant Betti numbers beta^0..beta^kmax as kernel dimensions.

    When s_probes is given (an iterable of deformation parameters, the
    canonical choice being (0, 4, 16)) the kernel dimensions must be
    identical at every probe, which is the checkable form of the
    deformation invariance of the cohomology.  A kernel without a
    factor-100 separation from the gap raises AmbiguousKernelError.
    """
    probes = [0.0] if s_probes is None else list(s_probes)
    results = []
    for sv in probes:
        betti = []
        for k in range(kmax + 1):
            rep = delta_spectrum(backend, k, s=sv)
            if rep.kernel_dim > 0 and rep.separation < SEPARATION_FACTOR:
                raise AmbiguousKernelError(
                    f"degree {k}, s={sv}: kernel/gap separation "
                    f"{rep.separation:.1f} < {SEPARATION_FACTOR}; increase the "
                    "grid or the eigenvalue count")
            betti.append(rep.kernel_dim)
        results.append(betti)
    for other in results[1:]:
        if other != results[0]:
            raise AmbiguousKernelError(
                f"kernel dimensions vary across deformation probes: {results}")
    return results[0]


def trace_phi(report: SpectrumReport, spec: TraceSpec) -> float:
    """Sum of phi over the spectrum, guarded by the truncation tail bound.

    If the report holds fewer eigenvalues than the dimension, the missing
    tail is bounded by phi(largest computed eigenvalue) times the number
    of missing eigenvalues, which must stay below 1e-6.
    """
    if report.count == 0:
        return 0.0
    lam = np.asarray(report.eigenvalues)
    missing = report.dim - report.count
    if missing > 0:
        bound = float(spec.phi(lam.max())) * missing
        if bound > TRACE_TAIL_BOUND:
            raise TailBoundError(
                f"tail bound {bound:.3e} exceeds {TRACE_TAIL_BOUND:.0e}; "
                "request more eigenvalues")
    return float(spec.phi(lam).sum())


@dataclass
class SweepPoint:
    s: float
    report: SpectrumReport
    mu: float


@dataclass
class SweepResult:
    k: int
    points: list[SweepPoint]
    kernel_constant: bool
    gap_monotone_from: float | None = None
    notes: list[str] = field(default_factory=list)

    def gaps(self):
        return [(p.s, p.report.gap) for p in self.points]


def sweep_s(backend: BackendMatrices, k: int, s_list, trace_spec: TraceSpec,
            count: int | None = None) -> SweepResult:
    """Deformation sweep of degree k: spectra and trace values per s.

    The kernel dimension must stay constant along the sweep; a change
    flags that the grid cannot resolve the O(s^{-1/2}) ground states and
    is reported on the result rather than silently accepted.  The result
    also records from which s onward the observed gap is nondecreasing.
    """
    s_values = list(s_list)
    if any(sv < 0 for sv in s_values):
        raise ValueError("deformation parameters must be nonnegative")
    if sorted(s_values) != s_values:
        raise ValueError("s_list must be ascending")
    points = []
    for sv in s_values:
        rep = delta_spectrum(backend, k, s=sv, count=count)
        points.append(SweepPoint(s=sv, report=rep, mu=trace_phi(rep, trace_spec)))
    kernels = [p.report.kernel_dim for p in points]
    constant = len(set(kernels)) <= 1
    notes = []
    if not constant:
        notes.append(
            f"kernel dimension varies along the sweep ({kernels}); the grid "
            "is too coarse for the largest s (ground states have width ~ s^-1/2)")
    monotone_from = None
    gaps = [p.report.gap for p in points]
    for start in range(len(gaps)):
        tail = gaps[start:]
        if all(b >= a * (1 - 1e-12) for a, b in zip(tail, tail[1:])):
            monotone_from = s_values[start]
            break
    return SweepResult(k=k, points=points, kernel_constant=constant,
                       gap_monotone_from=monotone_from, notes=notes)


def de_rham_index(backend: BackendMatrices) -> int:
    """dim ker Delta^n - dim ker Delta^{n+1}: the index of d_eq + d_eq*."""
    n = backend.n
    return (delta_spectrum(backend, n).kernel_dim
            - delta_spectrum(backend, n + 1).kernel_dim)


def periodicity_defect(backend: BackendMatrices, k: int) -> float:
    """Largest eigenvalue discrepancy between degrees k and k+2.

    Multiplication by t identifies the two degree spaces blockwise; for
    k >= n the identification conjugates one Laplacian into the other, so
    the sorted spectra agree to solver precision.
    """
    if not cartan.t_shift_dims_match(backend, k):
        raise cartan.AssemblyError(f"t-shift is not a bijection at degree {k}")
    lo = delta_spectrum(backend, k)
    hi = delta_spectrum(backend, k + 2)
    a = np.asarray(lo.eigenvalues)
    b = np.asarray(hi.eigenvalues)
    return float(np.abs(a - b).max()) if a.size else 0.0


def write_atomic(path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path.

    A failure at any point leaves an existing file at path untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".equimorse-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def reports_to_csv(reports, path) -> None:
    """Write eigenvalues as CSV rows (k, s, index, value), atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "s", "index", "value"])
    for rep in reports:
        for idx, lam in enumerate(rep.eigenvalues):
            writer.writerow([rep.k, _fmt(rep.s), idx, _fmt(lam)])
    write_atomic(path, buf.getvalue())


def _fmt(x: float) -> str:
    return format(float(x), ".17g")
