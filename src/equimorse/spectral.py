"""Symmetric eigenproblems, kernel detection and trace functionals.

Every assembled operator A is symmetric with respect to a diagonal mass
M, so S = M^{1/2} A M^{-1/2} is plainly symmetric.  The paper reads each
Morse inequality off the low spectrum of the deformed Laplacian: kernel
dimensions, which equal the equivariant Betti numbers by the Hodge
isomorphism, and traces of a rapidly decreasing phi, whose alternating
sums obey the analytic Morse inequalities at every deformation
parameter.  So every solve is one window of the lowest m eigenpairs,
with m fixed beforehand: a count, or every eigenvalue below the caller's
ceiling and one more.  The ceilings are 0 for betti_numbers and
de_rham_index (the kernel and the gap), TraceSpec.ceiling() for the
traces of verify_trace_inequalities and of sweep_s without a count, and
infinity for a full listing.  A caller that needs only how many
eigenvalues lie below some shifts, as local_models.near_zero_counts does
at s/10 and s/2, calls inertia and solves nothing.

An eigenvalue belongs to the kernel when it is at most tau =
KERNEL_TAU_ABS x |A|, with |A| the infinity norm of S.  Every factor is
one LDL^T of S - sigma I with one symmetric ordering, at the largest
shift at or below sigma whose factor is regular.  The one just above
tau counts the kernel, by Sylvester's law, and serves as the inverse of
a shift-invert Lanczos iteration for the window.  A pair is kept only
within the residual bound, and a second factor just below the window's
top must count exactly the kept eigenvalues below it; what is missing
is sought again on the complement of the kept pairs.  A window wider
than half the dimension, the full listing and the zero operator's come
from dense eigh of S.  Each eigenvalue is the Rayleigh quotient of its
vector.  betti_numbers further requires the gap to be at least
SEPARATION_FACTOR = 100 times the largest kernel eigenvalue.  All
solves are deterministic.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import cartan
from .backend import BackendMatrices, _scale

__all__ = [
    "SpectrumReport",
    "TraceSpec",
    "SolverError",
    "CountError",
    "AmbiguousKernelError",
    "TailBoundError",
    "eigensolve",
    "inertia",
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

KERNEL_TAU_ABS = 1e-9
SEPARATION_FACTOR = 100.0
RESIDUAL_BOUND = 1e-8
TRACE_TAIL_BOUND = 1e-6


class SolverError(RuntimeError):
    """An eigenvalue window failed to converge or failed a certificate."""


class CountError(ValueError):
    """Requested eigenvalue count outside 1..dimension."""


class AmbiguousKernelError(RuntimeError):
    """No clear separation between near-kernel and the spectral gap."""


class TailBoundError(ValueError):
    """Too few eigenvalues for the requested trace accuracy."""


@dataclass
class SpectrumReport:
    """The lowest eigenvalues of one operator with kernel bookkeeping.

    eigenvalues are the ascending window of eigensolve, the lowest m of
    dim; kernel_dim counts those at most KERNEL_TAU_ABS x operator_norm
    (the infinity norm), certified by the inertia there; gap is the
    smallest window eigenvalue above that threshold (infinite if none
    is); separation is gap over the largest kernel eigenvalue (infinite
    without a gap or a kernel).
    residual_norms hold ||S v - lambda v||, in the mass-orthonormal frame,
    for every returned pair.  to_record, the spectrum JSON, adds dim,
    operator_norm, separation and vectors, the number of residual norms,
    and writes an infinite gap or separation as null.
    """

    k: int
    s: float
    eigenvalues: list[float]
    kernel_dim: int
    gap: float
    residual_norms: list[float]
    dim: int = 0
    operator_norm: float = 0.0
    separation: float = math.inf

    def to_record(self) -> dict:
        return {
            "k": self.k,
            "s": self.s,
            "eigenvalues": list(self.eigenvalues),
            "kernel_dim": self.kernel_dim,
            "gap": _finite_or_none(self.gap),
            "residual_norms": list(self.residual_norms),
            "dim": self.dim,
            "operator_norm": self.operator_norm,
            "separation": _finite_or_none(self.separation),
            "vectors": len(self.residual_norms),
        }


def _finite_or_none(x: float) -> float | None:
    """x, or None for infinity: strict JSON has no Infinity."""
    return x if math.isfinite(x) else None


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

    def ceiling(self) -> float:
        """The Lambda with phi(Lambda) = eps: each eigenvalue above it adds
        less than eps to a trace."""
        tail = -math.log(np.finfo(float).eps)
        return self.scale * (tail if self.phi_kind == "exp_decay" else math.sqrt(tail))

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            if self.phi_kind == "exp_decay":
                return np.exp(-x / self.scale)
            return np.exp(-((x / self.scale) ** 2))


def _kernel_split(w: np.ndarray, tau: float):
    """Kernel dimension, gap and separation of the ascending window w."""
    kd = int(np.count_nonzero(w <= tau))
    gap = float(w[kd]) if kd < len(w) else math.inf
    if kd > 0:
        top_kernel = max(abs(float(w[kd - 1])), 1e-300)
        separation = gap / top_kernel if math.isfinite(gap) else math.inf
    else:
        separation = math.inf
    return kd, gap, separation


@dataclass(frozen=True)
class _Symmetric:
    """S = M^{1/2} A M^{-1/2}, symmetrized, as _symmetrized forms it: the
    CSC matrix, the positions of its diagonal in matrix.data, and |S|,
    its infinity norm."""

    matrix: sp.csc_matrix
    diag: np.ndarray
    norm: float


def _symmetrized(operator, mass: np.ndarray) -> _Symmetric:
    """S for an operator A symmetric with respect to the diagonal mass M.

    operator may be an EqOperator or a sparse/dense matrix; mass is the
    diagonal of the inner product.  0.5 (S + S^T) is bitwise symmetric,
    so its CSR arrays are also its CSC arrays, the layout SuperLU factors:
    S is kept as CSC with no conversion.  Every diagonal slot is stored,
    as an explicit zero where A has none (the 1 x 1 zero operator of
    circle_trivial), so that _factor shifts the diagonal in place, and the
    indices are sorted, since splu would sort the index array that each
    factor shares with S.
    """
    mat = operator.matrix if isinstance(operator, cartan.EqOperator) else operator
    S = _scale(mat, np.sqrt(mass), 1.0 / np.sqrt(mass))
    S = sp.csr_matrix(0.5 * (S + S.T))
    norm = float(spla.norm(S, np.inf))
    zero = np.flatnonzero(S.diagonal() == 0)
    if zero.size:  # absent slots become stored zeros; stored ones are summed with 0
        C = S.tocoo()
        S = sp.csr_matrix((np.r_[C.data, np.zeros(zero.size)],
                           (np.r_[C.row, zero], np.r_[C.col, zero])), shape=S.shape)
    S.sort_indices()
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    return _Symmetric(S.T, np.flatnonzero(S.indices == rows), norm)


def _factor(sym: _Symmetric, sigma: float):
    """LDL^T of S - sigma' I and #{lambda < sigma'}, with sigma' the
    largest shift at or below sigma whose factor is regular.

    The shift is subtracted from a copy of the diagonal slots of S.
    SuperLU with diagonal pivots in symmetric mode orders rows and columns
    alike (perm_r == perm_c), so U = D L^T and, by Sylvester's law of
    inertia, the negative pivots count the eigenvalues below the shift
    (Golub & Van Loan, Matrix Computations, 8.4).  A zero pivot, which
    SuperLU reports as exactly singular or steps over by leaving the
    diagonal, moves the shift down: one ulp of max(|sigma|, |S|), since a
    smaller step can vanish in the diagonal, doubling until a factor is
    regular, since rounding can spread the copies of a repeated
    eigenvalue over neighbouring floats.  Within 64 steps the shift falls
    below -|S|, where S - shift I is diagonally dominant; a sigma that is
    not a number raises SolverError.
    """
    S = sym.matrix
    shift, step = sigma, np.spacing(max(abs(sigma), sym.norm))
    for _ in range(64):
        data = S.data.copy()
        data[sym.diag] -= shift
        shifted = sp.csc_matrix((data, S.indices, S.indptr), shape=S.shape)
        try:
            lu = spla.splu(shifted, permc_spec="COLAMD", diag_pivot_thresh=0,
                           options={"SymmetricMode": True})
        except RuntimeError:  # "Factor is exactly singular"
            pass
        else:
            if np.array_equal(lu.perm_r, lu.perm_c):
                return lu, int(np.count_nonzero(lu.U.diagonal() < 0))
        shift, step = shift - step, 2.0 * step
    raise SolverError(f"no regular factor of S - sigma I at or below sigma = {sigma!r}")


def inertia(operator, mass: np.ndarray, shifts) -> list[int]:
    """#{lambda < sigma} of a mass-symmetric operator for each sigma in shifts.

    S is formed once (_symmetrized) and S - sigma I factored once per
    shift; by Sylvester's law each count is the number of negative
    pivots, so no eigenvalue is computed.  A shift that is an eigenvalue
    is counted one ulp below it (_factor).
    """
    sym = _symmetrized(operator, mass)
    return [_factor(sym, float(sigma))[1] for sigma in shifts]


def _rayleigh(S, V):
    """Rayleigh quotients of the orthonormal columns of V, ascending, with
    the columns in that order and their residual norms ||S v - lambda v||."""
    SV = S @ V
    w = np.einsum("ij,ij->j", V, SV)
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order], np.linalg.norm(SV - V * w, axis=0)[order]


def _lanczos(sym: _Symmetric, lu, tau: float, m: int, bound: float):
    """The lowest m eigenpairs by shift-invert Lanczos with lu as (S - tau I)^{-1}.

    Each eigenvalue is the Rayleigh quotient of its vector, and a pair is
    kept only when its residual is within bound.  The start vector is
    fixed, so repeated runs are bit-identical.  Once m pairs are kept,
    the cut c = lambda_top - 1e-8 max(|lambda_top|, 1) certifies them:
    the inertia at c must equal the number of kept eigenvalues below c,
    so no eigenvalue below the top was missed, and a pair split by the
    cut at the top is not a miss.  Whatever is missing, pairs the
    residual bound dropped or copies of an exactly repeated eigenvalue
    that one start vector cannot see, is sought by the next run on the
    complement of the kept pairs.  A run after which at least as many
    pairs are missing as it sought raises SolverError, and so does any
    ARPACK error.
    """
    S = sym.matrix
    dim = S.shape[0]
    start = np.cos(np.arange(dim) + 0.25)
    V = np.zeros((dim, 0))
    solve, k = lu.solve, m
    while True:
        try:
            _, U = spla.eigsh(S, k=k, sigma=tau, which="LM", v0=start, maxiter=5000,
                              tol=0, OPinv=spla.LinearOperator((dim, dim), matvec=solve,
                                                               dtype=float))
        except spla.ArpackError as exc:
            raise SolverError(f"eigenvalue iteration failed: {exc}") from exc
        w, V, resid = _rayleigh(S, np.hstack([V, U]))
        keep = np.flatnonzero(resid <= bound)[:m]
        w, V, resid = w[keep], V[:, keep], resid[keep]
        missing = m - keep.size
        if missing:
            why = (f"{missing} eigenpairs exceed the residual bound "
                   f"{RESIDUAL_BOUND:.0e} x |A| = {bound:.3e}")
        else:
            cut = w[-1] - 1e-8 * max(abs(w[-1]), 1.0)
            found = int(np.count_nonzero(w < cut))
            below = _factor(sym, cut)[1]
            if below == found:
                return w, V, resid
            missing = below - found
            why = (f"the window holds {found} eigenvalues below {cut:.6e}, "
                   f"the inertia there is {below}")
        if not 0 < missing < k:
            raise SolverError(why)
        k = missing

        def solve(x):  # (S - tau I)^{-1} on the complement of the kept pairs
            y = lu.solve(x - V @ (V.T @ x))
            return y - V @ (V.T @ y)
        start = start - V @ (V.T @ start)


def eigensolve(operator, mass: np.ndarray, count: int | None = None,
               k: int = 0, s: float = 0.0, ceiling: float = math.inf) -> SpectrumReport:
    """The lowest eigenpairs of a mass-symmetric operator: one certified window.

    operator may be an EqOperator or a sparse/dense matrix, of dimension
    dim >= 1 as every degree space is; mass is the diagonal of the inner
    product, and S = M^{1/2} A M^{-1/2}, symmetrized, is solved
    (_symmetrized).  |A| is the infinity norm of S and tau =
    KERNEL_TAU_ABS x |A|.  The kernel factor (_factor) is taken one float
    above tau, so it counts #{lambda <= tau}, the zero operator's kernel
    too.  The window holds m pairs, fixed beforehand: m = count, which
    must lie in 1..dim (else CountError); dim for an infinite ceiling;
    otherwise one more than #{lambda < max(ceiling, tau)}.  It comes from
    dense eigh of S when 2m > dim or |A| = 0, else from shift-invert
    Lanczos with the kernel factor as the inverse (_lanczos).
    kernel_dim must equal the kernel factor's count, or m if smaller
    (SolverError).  Every returned pair must have a residual within
    RESIDUAL_BOUND x max(|A|, 1), else SolverError.
    """
    sym = _symmetrized(operator, mass)
    S, opnorm = sym.matrix, sym.norm
    dim = S.shape[0]
    if count is not None and not 1 <= count <= dim:
        raise CountError(f"eigenvalue count {count} is outside 1..{dim}")
    tau = KERNEL_TAU_ABS * opnorm
    lu, kernel = _factor(sym, np.nextafter(tau, math.inf))
    if count is not None:
        m = count
    elif ceiling == math.inf:
        m = dim
    elif ceiling <= tau:
        m = min(kernel + 1, dim)
    else:
        m = min(_factor(sym, ceiling)[1] + 1, dim)

    bound = RESIDUAL_BOUND * max(opnorm, 1.0)
    if 2 * m > dim or opnorm == 0:
        w, _, resid = _rayleigh(S, sla.eigh(S.toarray(), driver="evd")[1][:, :m])
    else:
        w, _, resid = _lanczos(sym, lu, tau, m, bound)
    kd, gap, separation = _kernel_split(w, tau)
    if kd != min(kernel, m):
        raise SolverError(f"{kd} window eigenvalues are at most tau = {tau:.3e}, "
                          f"the inertia there is {kernel}")
    bad = int(np.count_nonzero(resid > bound))
    if bad:
        raise SolverError(f"{bad} eigenpairs exceed the residual bound "
                          f"{RESIDUAL_BOUND:.0e} x |A| = {bound:.3e}")
    return SpectrumReport(
        k=k, s=s,
        eigenvalues=[float(x) for x in w],
        kernel_dim=kd,
        gap=gap,
        residual_norms=[float(r) for r in resid],
        dim=dim,
        operator_norm=opnorm,
        separation=separation,
    )


def delta_spectrum(backend: BackendMatrices, k: int, s: float = 0.0,
                   count: int | None = None,
                   ceiling: float = math.inf) -> SpectrumReport:
    """Window report of the (deformed) equivariant Laplacian in degree k.

    The window is the lowest count pairs, or without a count every
    eigenvalue below ceiling and one more; the default lists them all.
    """
    _, _, delta = cartan.build_deformed(backend, s, k)
    mass = cartan.mass_vector(backend, delta.domain)
    return eigensolve(delta, mass, count=count, k=k, s=s, ceiling=ceiling)


def betti_numbers(backend: BackendMatrices, kmax: int) -> list[int]:
    """Equivariant Betti numbers beta^0..beta^kmax as kernel dimensions at s = 0.

    Each window is the kernel and the gap (ceiling 0).  A kernel without
    a factor-100 separation from the gap raises AmbiguousKernelError.
    """
    betti = []
    for k in range(kmax + 1):
        rep = delta_spectrum(backend, k, ceiling=0.0)
        if rep.kernel_dim > 0 and rep.separation < SEPARATION_FACTOR:
            raise AmbiguousKernelError(
                f"degree {k}: kernel/gap separation {rep.separation:.1f} < "
                f"{SEPARATION_FACTOR}; increase the grid or the eigenvalue count")
        betti.append(rep.kernel_dim)
    return betti


def trace_phi(report: SpectrumReport, spec: TraceSpec) -> float:
    """Sum of phi over the window, guarded by the truncation tail bound.

    If the window holds fewer eigenvalues than the dimension, the missing
    tail is bounded by phi(largest window eigenvalue) times the number of
    missing eigenvalues, which must stay below 1e-6.  A window solved to
    spec.ceiling() passes with a bound of at most dim x eps, since its top
    eigenvalue lies above the ceiling.  A sum that phi's overflow made
    infinite is a ConfigurationError.
    """
    lam = np.asarray(report.eigenvalues)
    missing = report.dim - lam.size
    if missing > 0:
        bound = float(spec.phi(lam.max())) * missing
        if bound > TRACE_TAIL_BOUND:
            raise TailBoundError(
                f"tail bound {bound:.3e} exceeds {TRACE_TAIL_BOUND:.0e}; "
                "request more eigenvalues")
    total = float(spec.phi(lam).sum())
    if not math.isfinite(total):
        raise cartan.ConfigurationError(f"phi overflows on the degree-{report.k} "
                                        f"eigenvalue {lam.min():.3e} at s = {report.s:g}")
    return total


@dataclass
class SweepPoint:
    s: float
    report: SpectrumReport
    mu: float


@dataclass
class SweepResult:
    """The points of a degree-k sweep, whether their kernel dimensions all
    agree, and the first s from which the gap is nondecreasing (None for
    an empty sweep)."""

    k: int
    points: list[SweepPoint]
    kernel_constant: bool
    gap_monotone_from: float | None = None

    def gaps(self):
        return [(p.s, p.report.gap) for p in self.points]


def sweep_s(backend: BackendMatrices, k: int, s_list, trace_spec: TraceSpec,
            count: int | None = None) -> SweepResult:
    """Deformation sweep of degree k: spectra and trace values per s.

    The cohomology does not depend on s, so the kernel dimension should
    stay constant along the sweep; kernel_constant records whether it
    did.  A change is not diagnosed: an unresolved grid and an
    exponentially small (tunneling) eigenvalue that falls under the
    kernel threshold both produce one.  The result also records from
    which s onward the observed gap is nondecreasing.  Each point's
    window is the lowest count pairs, or without a count the trace
    window up to trace_spec.ceiling().
    """
    s_values = list(s_list)
    if any(sv < 0 for sv in s_values):
        raise ValueError("deformation parameters must be nonnegative")
    if sorted(s_values) != s_values:
        raise ValueError("s_list must be ascending")
    points = []
    for sv in s_values:
        rep = delta_spectrum(backend, k, s=sv, count=count,
                             ceiling=trace_spec.ceiling())
        points.append(SweepPoint(s=sv, report=rep, mu=trace_phi(rep, trace_spec)))
    constant = len({p.report.kernel_dim for p in points}) <= 1
    monotone_from = None
    gaps = [p.report.gap for p in points]
    for start in range(len(gaps)):
        tail = gaps[start:]
        if all(b >= a * (1 - 1e-12) for a, b in zip(tail, tail[1:])):
            monotone_from = s_values[start]
            break
    return SweepResult(k=k, points=points, kernel_constant=constant,
                       gap_monotone_from=monotone_from)


def de_rham_index(backend: BackendMatrices) -> int:
    """dim ker Delta^n - dim ker Delta^{n+1}: the index of d_eq + d_eq*."""
    n = backend.n
    return (delta_spectrum(backend, n, ceiling=0.0).kernel_dim
            - delta_spectrum(backend, n + 1, ceiling=0.0).kernel_dim)


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
    return float(np.abs(a - b).max())


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
