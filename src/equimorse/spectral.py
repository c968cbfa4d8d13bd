"""Symmetric eigenproblems, kernel detection and trace functionals.

Every assembled operator A is symmetric with respect to a diagonal mass
M, so M^{1/2} A M^{-1/2} is plainly symmetric and a dense (or, for a
partial spectrum above a size threshold, shift-inverted iterative)
solver applies.  Kernel dimensions are decided by one threshold: an
eigenvalue belongs to the kernel when it is at most KERNEL_TAU_ABS x |A|,
with |A| the largest eigenvalue modulus (the infinity norm on the
iterative path).  The same rule, applied per connected block, selects
the vectors whose Rayleigh quotients are taken in extended precision.
betti_numbers further requires the gap to be at least
SEPARATION_FACTOR = 100 times the largest kernel eigenvalue.  Kernel
dimensions equal the equivariant Betti numbers by the Hodge isomorphism;
traces of a rapidly decreasing phi over the spectrum realize the
heat-trace-like functionals whose alternating sums obey the analytic
Morse inequalities at every deformation parameter.

All solves are deterministic.  The full spectrum, and any spectrum below
DENSE_LIMIT dimensions, is dense: the symmetrized matrix is split into
its connected blocks (odd degrees separate into the g and h chains) and
each block is solved by LAPACK divide and conquer.  Each eigenvalue is
reported as the Rayleigh quotient of its vector, formed with the sparse
matrix (in extended precision for near-kernel vectors), and every
returned pair must pass the residual bound against the LAPACK
eigenvalue.  A partial spectrum above DENSE_LIMIT uses
shift-invert Lanczos with a fixed starting vector.
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

DENSE_LIMIT = 2000
KERNEL_TAU_ABS = 1e-9
SEPARATION_FACTOR = 100.0
RESIDUAL_BOUND = 1e-8
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
    residual_norms hold ||A v - lambda v|| per retained pair
    in the mass-orthonormal frame.
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


def _dense_blocks(S):
    """All eigenvalues of the symmetric sparse S, and the residual norm of each pair.

    Each connected block of S is solved on its own by LAPACK divide and
    conquer.  An eigenvalue is reported as the Rayleigh quotient of its
    vector, which is accurate to second order in the residual; the
    residual norm is taken against the LAPACK eigenvalue, which is never
    smaller than the residual against the quotient.  Both arrays follow
    the block order, unsorted.
    """
    n_blocks, labels = csgraph.connected_components(S, directed=False)
    w = np.empty(S.shape[0])
    resid = np.empty(S.shape[0])
    start = 0
    for block in range(n_blocks):
        idx = np.flatnonzero(labels == block)
        Sb = S[idx][:, idx]
        lam, vec = sla.eigh(Sb.toarray(), driver="evd")
        Sv = Sb @ vec
        rq = np.einsum("ij,ij->j", vec, Sv)
        # In double, v^T (S v) of a near-kernel vector cancels down to
        # rounding noise of order eps |S|, as large as the value itself.
        low = np.flatnonzero(np.abs(lam) <= KERNEL_TAU_ABS * np.abs(lam).max())
        v_low = vec[:, low].astype(np.longdouble)
        rq[low] = np.einsum("ij,ij->j", v_low, Sb.astype(np.longdouble) @ v_low)
        stop = start + len(idx)
        w[start:stop] = rq
        resid[start:stop] = np.linalg.norm(Sv - vec * lam, axis=0)
        start = stop
    return w, resid


def eigensolve(operator, mass: np.ndarray, count: int | None = None,
               k: int = 0, s: float = 0.0) -> SpectrumReport:
    """Smallest eigenvalues of a mass-symmetric operator.

    operator may be an EqOperator or a sparse/dense matrix; mass is the
    diagonal of the inner product; count (default: all) must lie in
    1..dim, else CountError.  The full spectrum, and any count below
    DENSE_LIMIT dimensions, comes from a dense divide-and-conquer solve
    of each connected block, with each eigenvalue reported as the
    Rayleigh quotient of its vector.  A partial spectrum above
    DENSE_LIMIT comes from a shift-inverted Lanczos iteration with a
    fixed starting vector.  Repeated runs are bit-identical, and every
    returned pair must have a residual within RESIDUAL_BOUND x |A|, else
    SolverError.
    """
    mat = operator.matrix if isinstance(operator, cartan.EqOperator) else operator
    dim = mat.shape[0]
    if dim == 0:
        return SpectrumReport(k, s, [], 0, math.inf, [], dim=0, count=0)
    full = count is None
    if full:
        count = dim
    if not 1 <= count <= dim:
        raise CountError(f"eigenvalue count {count} is outside 1..{dim}")
    sqrt_m = np.sqrt(mass)
    S = sp.diags(sqrt_m) @ sp.csr_matrix(mat) @ sp.diags(1.0 / sqrt_m)
    S = sp.csr_matrix(0.5 * (S + S.T))

    if full or dim < DENSE_LIMIT:
        w, resid = _dense_blocks(S)
        order = np.argsort(w, kind="stable")
        w = w[order]
        opnorm = float(np.abs(w).max())
        w_ret = w[:count]
        resid = resid[order][:count]
    else:
        opnorm = float(spla.norm(S, np.inf))
        shift = -1e-6 * max(opnorm, 1.0)
        v0 = np.cos(np.arange(dim) + 0.25)
        try:
            w, v = spla.eigsh(S, k=min(count, dim - 1), sigma=shift,
                              which="LM", v0=v0, maxiter=5000, tol=0)
        except spla.ArpackNoConvergence as exc:
            raise SolverError(
                f"eigenvalue iteration did not converge: {exc}") from exc
        order = np.argsort(w)
        w_ret = w[order]
        v_ret = v[:, order]
        resid = np.linalg.norm(S @ v_ret - v_ret * w_ret[None, :], axis=0)
        w = w_ret
        count = len(w_ret)  # the iteration returns at most dim - 1 pairs

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
