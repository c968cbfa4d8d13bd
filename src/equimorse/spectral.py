"""Symmetric eigenproblems, kernel detection and trace functionals.

Every assembled operator A is symmetric with respect to a diagonal mass
M, so S = M^{1/2} A M^{-1/2} is plainly symmetric.  The paper reads each
Morse inequality off the low spectrum of the deformed Laplacian: kernel
dimensions, which equal the equivariant Betti numbers by the Hodge
isomorphism, and traces of a rapidly decreasing phi, whose alternating
sums obey the analytic Morse inequalities at every deformation
parameter.  So every solve is one window of the lowest m eigenpairs,
with m fixed beforehand: a count, or every eigenvalue below the caller's
ceiling and one more.  The ceilings are 0, the default, for
betti_numbers and de_rham_index (the kernel and the gap), and
TraceSpec.ceiling() for sweep_s, whose windows are verify's traces too,
and for spectrum without a count.  inertia answers how many eigenvalues
lie below some shifts, as local_models.near_zero_counts asks at s/10
and s/2, with no solve.

An eigenvalue belongs to the kernel when it is at most tau =
KERNEL_TAU_ABS x |A|, with |A| the infinity norm of S.  Every factor is
one LDL^T of S - sigma I, in SuperLU's symmetric mode with a minimum
degree ordering of S^T + S, at the largest shift at or below sigma
whose factor is regular.  The one just above tau counts the kernel, by
Sylvester's law, and serves as the inverse of a shift-invert Lanczos
iteration for the window.  A pair is kept only within the residual
bound.  A window wider than half the dimension and the zero operator's
come from dense eigh of S.  Either way the window is certified once, by
a rule that counts decide before any solve.  A window of no more pairs
than the kernel factor counts is the kernel, and the kernel is its top
cluster: that count certifies it at tau, with no second factor.  An
eigenvalue in (tau, 2 tau) lies nearer the shift than the kernel and
can take a kernel pair's place in a run, so a pair missing at tau is
sought on the complement of the kept pairs.  Any other window takes a
second factor just below its top, which must count exactly the kept
eigenvalues below it, and what is missing is sought again on the
complement of the kept pairs.  When the window holds two or more
eigenvalues between that factor's shift and the top, the factor is
taken as far above the top instead, so that the window holds the whole
top cluster and keeps its lowest members.  Each eigenvalue is the
Rayleigh quotient of its vector.  betti_numbers further requires the
gap to be at least SEPARATION_FACTOR = 100 times the largest kernel
eigenvalue.
All solves are deterministic.

A count window whose every connected block of S gets a share of at
least 10 pairs, m dim_c / dim, is solved block by block: each block by
the rule above, on its own kernel factor, starting from its share and
one more, and the window is the lowest m of the merged pairs.  The odd
degrees of a surface split so, into their dtheta and dphi rows: d_s
maps functions into the dtheta part only, and d and i_v on 1-forms
read only the dphi part.  The certificate is taken at the merged top,
or at tau for a kernel window, whose blocks' kernel factors count at
least m: each block, dense or Lanczos, must hold every eigenvalue its
inertia counts below that cut, at most m of them in a kernel window,
and what one lacks is sought on the complement of its pairs.  A window
sized by a ceiling is counted on the whole of S, whose kernel factor
then solves it too: like a window with a smaller share on some block,
it is the one-block case.

From the top degree n on, each Laplacian has a partner one degree up:
B = d_s^k + (t^-1 d_s^{k+1})* (cartan._cartan) gives Delta^k = B*B and
Delta^{k+1} = BB*, since d_s^2 = 0, so S_k and S_{k+1} share their
nonzero spectrum (Witten, J. Diff. Geom. 17, 1982).  A count window of
delta_spectrum whose S_k is one block, which S_k would not solve
densely, and whose partner window of m - kappa_k + kappa_{k+1} pairs
holds at least 20, the least that splits, is solved on the partner, not
lifted from it: on a surface, degrees 2, 4, ... take their nonzero pairs
from the dtheta and dphi blocks of degrees 3, 5, ....  The partner
window is an ordinary window of eigensolve, split and certified on its
own blocks, and S_k adds only its kernel: a window of kappa_k pairs on
its one kernel factor, certified as every kernel window is.  Each such
window checks the pairing it relies on: B*B and BB* against the two
Laplacians, and the index of B against the two kernels.  Windows sized
by ceilings, and so every window of verify, never take it.

A Lanczos run starts from a fixed vector, or from a given start.  The
frame M^{1/2} of S depends only on the backend and the degree, so
sweep_s starts each window from the sum of the previous s's window
vectors (SpectrumReport.ritz_sum), which holds most of the new window
already; the certificate finds whatever such a start misses.
pipeline.verify_trace_inequalities runs verify's trace probes as one
such sweep per degree, so each trace window after a degree's first
starts warm; betti_numbers, de_rham_index and spectrum pass no start.

This module only computes; cli formats and writes every output file.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from . import cartan
from .backend import BackendMatrices, _relative_defect, _scale

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
    for every returned pair; a window solved on its partner (delta_spectrum)
    holds the partner's, ||S_{k+1} u - lambda u||, for its nonzero pairs,
    and S_k's for its kernel pairs, from S_k's kernel factor.
    ritz_sum is the sum of the window's unit vectors v in that frame,
    M^{1/2}, which depends only on the backend and the degree: a Lanczos
    start for the window of a nearby s (sweep_s).
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
    ritz_sum: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class TraceSpec:
    """A positive rapidly decreasing weight phi with phi(0) = 1."""

    phi_kind: str = "exp_decay"
    scale: float = 1.0

    def __post_init__(self):
        if self.phi_kind not in ("exp_decay", "gaussian"):
            raise ValueError(f"unknown phi kind {self.phi_kind!r}")
        if not 0.0 < self.ceiling() < math.inf:
            raise ValueError("scale must be positive and finite, with a finite ceiling "
                             f"Lambda, got {self.scale!r}")

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
    S is kept as CSC with no conversion (_stored).
    """
    mat = operator.matrix if isinstance(operator, cartan.EqOperator) else operator
    S = _scale(mat, np.sqrt(mass), 1.0 / np.sqrt(mass))
    return _stored(sp.csr_matrix(0.5 * (S + S.T)))


def _stored(S: sp.csr_matrix) -> _Symmetric:
    """The _Symmetric of a bitwise symmetric CSR matrix S.

    Every diagonal slot is stored, as an explicit zero where S has none
    (the 1 x 1 zero operator of circle_trivial), so that _factor shifts
    the diagonal in place, and the indices are sorted, since splu would
    sort the index array that each factor shares with S.
    """
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
    SuperLU takes diagonal pivots in symmetric mode with a minimum degree
    ordering of S^T + S, the pairing of X. S. Li, ACM TOMS 31 (2005), and
    no relaxed supernodes (relax=1, panel_size=1): on these banded and
    cyclic operators that factors faster than COLAMD with scipy's
    supernode defaults, at the same fill or one more a node.  It orders
    rows and columns alike (perm_r == perm_c), so U = D L^T and, by
    Sylvester's law of inertia, the negative pivots count the eigenvalues
    below the shift (Golub & Van Loan, Matrix Computations, 8.4).  A zero
    pivot, which SuperLU reports as exactly singular or steps over by
    leaving the diagonal, moves the shift down: one ulp of max(|sigma|,
    |S|), since a smaller step can vanish in the diagonal, doubling until
    a factor is regular, since rounding can spread the copies of a
    repeated eigenvalue over neighbouring floats.  Within 64 steps the
    shift falls below -|S|, where S - shift I is diagonally dominant; a
    sigma that is not a number raises SolverError.
    """
    S = sym.matrix
    shift, step = sigma, np.spacing(max(abs(sigma), sym.norm))
    for _ in range(64):
        data = S.data.copy()
        data[sym.diag] -= shift
        shifted = sp.csc_matrix((data, S.indices, S.indptr), shape=S.shape)
        try:
            lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                           relax=1, panel_size=1, options={"SymmetricMode": True})
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


def _rayleigh(S, V, bound: float = math.inf):
    """Rayleigh quotients of the orthonormal columns of V whose residual
    norms ||S v - lambda v|| are within bound, ascending, with those
    columns in that order and their residual norms."""
    SV = S @ V
    w = np.einsum("ij,ij->j", V, SV)
    SV -= V * w
    resid = np.linalg.norm(SV, axis=0)
    order = np.argsort(w, kind="stable")
    order = order[resid[order] <= bound]
    return w[order], V[:, order], resid[order]


def _lanczos(sym: _Symmetric, lu, tau: float, m: int, bound: float, V=None,
             start=None):
    """The lowest m eigenpairs by shift-invert Lanczos with lu as (S - tau I)^{-1}.

    Each eigenvalue is the Rayleigh quotient of its vector, and a pair is
    kept only when its residual is within bound (_rayleigh).  Orthonormal
    columns V, the pairs a block holds when a certificate extends it, are
    checked so first, and each run seeks the pairs still missing on the
    complement of the kept pairs.  A run starts from start, by default
    the fixed cos(i + 1/4), so repeated runs are bit-identical, projected
    on that complement.  A run for k pairs builds scipy's basis of
    max(2k + 1, 20) vectors, at most dim.  An ARPACK failure, an error
    or no convergence in 5000 restarts, which an edge of the k pairs
    inside a close cluster can cause, repeats the run once for 2k pairs,
    at most all but one of the complement, and the lowest m pairs are
    kept; a second failure raises SolverError, and so does a run after
    which at least as many pairs are missing as it sought.  No pair is
    certified here: eigensolve checks them against the inertia.
    """
    S = sym.matrix
    dim = S.shape[0]
    start = np.cos(np.arange(dim) + 0.25) if start is None else start
    w, V, resid = _rayleigh(S, np.zeros((dim, 0)) if V is None else V, bound)
    sought = math.inf

    def complement(x):  # (S - tau I)^{-1} on the complement of the kept pairs
        y = lu.solve(x - V @ (V.T @ x))
        return y - V @ (V.T @ y)
    while True:
        missing = m - V.shape[1]
        if missing <= 0:
            return w[:m], V[:, :m], resid[:m]
        if missing >= sought:
            raise SolverError(f"{missing} eigenpairs exceed the residual bound "
                              f"{RESIDUAL_BOUND:.0e} x |A| = {bound:.3e}")
        sought = k = missing
        start = start - V @ (V.T @ start)
        inverse = spla.LinearOperator((dim, dim), dtype=float,
                                      matvec=complement if V.shape[1] else lu.solve)
        while True:
            try:
                _, U = spla.eigsh(S, k=k, sigma=tau, which="LM", v0=start, OPinv=inverse,
                                  ncv=max(2 * k + 1, 20), maxiter=5000, tol=0)
                break
            except spla.ArpackError as exc:  # the k-th pair may split a close cluster
                retry = min(2 * missing, dim - V.shape[1] - 1)
                if k >= retry:
                    raise SolverError(f"eigenvalue iteration failed: {exc}") from exc
                k = retry
        V = np.hstack([V, U])
        w, V, resid = _rayleigh(S, V, bound)


def _cut(top: float) -> float:
    """Where a window whose largest eigenvalue is top is certified: a pair
    that the cut would split is not a miss."""
    return top - 1e-8 * max(abs(top), 1.0)


# scipy's eigsh builds a Lanczos basis of max(2k + 1, 20) vectors for k
# pairs: a block given at least 10 pairs of a window is past that floor,
# so its basis and its dimension both shrink.
_MIN_SHARE = 10


def _split(matrix, m: int):
    """The rows of each connected block of a square sparse matrix, in the
    order of their first row, when every block's share of a window of m
    pairs, m dim_c / dim, is at least _MIN_SHARE pairs; else None, one
    block.  A mass-symmetric operator and its S have the same blocks."""
    dim = matrix.shape[0]
    if m < 2 * _MIN_SHARE:  # two shares of _MIN_SHARE make the smallest split
        return None
    n, labels = csgraph.connected_components(matrix, directed=False)
    sizes = np.bincount(labels, minlength=n)
    if n < 2 or m * sizes.min() < _MIN_SHARE * dim:
        return None
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])


@dataclass
class _Block:
    """One connected block of S in a window: its matrix, its kernel factor
    and count, the prefix that names it in errors (empty for the whole of
    S), its rows in S, and its pairs, ascending (none before its solve,
    _solve).  complete_below is a value below which the block's pairs
    hold every eigenvalue it has (-inf until a certificate shows one);
    sought is the number of pairs its last extension sought (infinite
    before one)."""

    sym: _Symmetric
    lu: object
    kernel: int
    name: str
    rows: np.ndarray | slice
    w: np.ndarray | None = None
    V: np.ndarray | None = None
    resid: np.ndarray | None = None
    complete_below: float = -math.inf
    sought: float = math.inf

    @property
    def dim(self) -> int:
        return self.sym.matrix.shape[0]


def _kernel_block(sym: _Symmetric, tau: float, name: str = "",
                  rows=slice(None)) -> _Block:
    """S as a block with its kernel factor, one float above tau, so that it
    counts #{lambda <= tau}."""
    return _Block(sym, *_factor(sym, np.nextafter(tau, math.inf)), name, rows)


@contextlib.contextmanager
def _naming(name: str):
    """A SolverError raised inside names where it was raised: a block of a
    split window, or a partner window (delta_spectrum)."""
    try:
        yield
    except SolverError as exc:
        if not name:
            raise
        raise SolverError(name + str(exc)) from exc


def _certify(block: _Block, cut: float, tau: float, bound: float,
             below: int | None = None) -> None:
    """Check a block's pairs at cut: the inertia there, below, which a
    factor at cut counts unless it is given, as a kernel window gives its
    kernel factor's count (_spectral), must count exactly the eigenvalues
    it holds below cut.  What it lacks is sought on the complement of its
    pairs, from the fixed start (_lanczos), and checked again at the next
    cut.  A first certificate at a cut may find any number missing, as a
    block of a split window starts from its share of the window, and so
    may one at a higher cut, above a top cluster, once the block was
    complete at a lower one; an extension after which at least as many
    are missing as it sought found none of them, and raises SolverError,
    as does an inertia below the pairs held."""
    with _naming(block.name):
        found = int(np.count_nonzero(block.w < cut))
        if below is None:
            below = _factor(block.sym, cut)[1]
        missing = below - found
        if not missing:
            block.complete_below, block.sought = cut, math.inf
            return
        if not 0 < missing < block.sought:
            raise SolverError(f"the window holds {found} eigenvalues below {cut:.6e}, "
                              f"the inertia there is {below}")
        block.w, block.V, block.resid = _lanczos(block.sym, block.lu, tau,
                                                 block.w.size + missing, bound, block.V)
        block.sought = missing


def _solve(b: _Block, size: int, tau: float, bound: float, start) -> None:
    """A block's first size pairs: none for a size of 0, by dense eigh when
    2 size > dim_c or its norm is 0, else by shift-invert Lanczos on its
    kernel factor (_lanczos), started from start[rows] unless that part is
    zero or no start is given.  Either way the pairs are only kept, not
    certified: _spectral certifies every block (_certify)."""
    with _naming(b.name):
        S = b.sym.matrix
        if not size:  # the kernel pairs of a partner window with kappa_k = 0
            b.w, b.V, b.resid = _rayleigh(S, np.zeros((b.dim, 0)))
        elif 2 * size > b.dim or b.sym.norm == 0:
            b.w, b.V, b.resid = _rayleigh(
                S, sla.eigh(S.toarray(), driver="evd")[1][:, :size])
        else:
            part = None if start is None or not start[b.rows].any() else start[b.rows]
            b.w, b.V, b.resid = _lanczos(b.sym, b.lu, tau, size, bound, start=part)


def _blocks(sym: _Symmetric, parts, tau: float, m: int):
    """The connected blocks of S with the rows in parts, each with its
    kernel factor and named in errors "block 2 of 2 (dim 8192): ",
    and each one's share of a window of m pairs, m dim_c / dim rounded up,
    and one more."""
    dim = sym.matrix.shape[0]
    blocks = [_kernel_block(_stored(sp.csr_matrix(sym.matrix[rows][:, rows])), tau,
                            f"block {i + 1} of {len(parts)} (dim {rows.size}): ",
                            rows)
              for i, rows in enumerate(parts)]
    return blocks, [-(-m * b.dim // dim) + 1 for b in blocks]


def eigensolve(operator, mass: np.ndarray, count: int | None = None,
               k: int = 0, s: float = 0.0, ceiling: float = 0.0,
               start=None) -> SpectrumReport:
    """The lowest eigenpairs of a mass-symmetric operator: one certified window.

    operator may be an EqOperator or a sparse/dense matrix, of dimension
    dim >= 1 as every degree space is; mass is the diagonal of the inner
    product, and S = M^{1/2} A M^{-1/2}, symmetrized, is solved
    (_symmetrized).  |A| is the infinity norm of S and tau =
    KERNEL_TAU_ABS x |A|.  The kernel factor (_factor) is taken one float
    above tau, so it counts #{lambda <= tau}, the zero operator's kernel
    too.  The window holds m pairs, fixed beforehand: m = count, which
    must lie in 1..dim (else CountError), or one more than #{lambda <
    max(ceiling, tau)}: the kernel and the gap for the default ceiling.

    A count window is solved one connected block of S at a time when
    every block's share of it, m dim_c / dim, is at least _MIN_SHARE = 10
    pairs (_split), and on the whole of S, as one block, otherwise.  On
    a surface the odd degrees split in two, the dtheta and the dphi rows,
    which no term of d_s, d_s* or i_v couples.  A window sized by a
    ceiling is counted on the whole of S, so it is solved there too.
    Each block takes its own kernel factor, with tau still that of the
    whole of S, and starts from its share, rounded up, plus one.  A
    block's window comes from dense eigh of the block when 2 m_c > dim_c
    or its norm is 0, else from shift-invert Lanczos with the block's
    kernel factor as the inverse (_lanczos), started from start[rows],
    the block's part of start (dim floats in the frame of S, as
    SpectrumReport.ritz_sum gives them), or from the fixed vector when
    that part is zero or no start is given (_solve).  The window is the
    lowest m of the merged pairs, certified once by the module's rule
    (_spectral): at tau by the blocks' kernel factors when they count at
    least m, else at the merged cut.  Every block, dense or Lanczos, must
    hold every eigenvalue its inertia counts below the cut, and what one
    lacks is sought on the complement of its pairs (_certify) until none
    lacks any.  An unsplit window is the one-block case.
    On every block, kernel_dim must equal the kernel factor's count, or
    the pairs it holds if fewer (SolverError), and every returned pair
    must have a residual within RESIDUAL_BOUND x max(|A|, 1), with |A|
    the whole operator's, else SolverError.  A SolverError on a split
    window names the block: "block 2 of 2 (dim 8192): ...".
    """
    sym = _symmetrized(operator, mass)
    dim = sym.matrix.shape[0]
    if count is not None and not 1 <= count <= dim:
        raise CountError(f"eigenvalue count {count} is outside 1..{dim}")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (dim,):
            raise ValueError(f"a start of shape {start.shape} for dimension {dim}")
    tau = KERNEL_TAU_ABS * sym.norm
    parts = None if count is None else _split(sym.matrix, count)
    if parts is None:
        blocks = [_kernel_block(sym, tau)]
        if count is None:
            below = blocks[0].kernel if ceiling <= tau else _factor(sym, ceiling)[1]
            count = min(below + 1, dim)
        sizes = [count]
    else:
        blocks, sizes = _blocks(sym, parts, tau, count)
    return _spectral(sym, blocks, sizes, count, k, s, start)


def _spectral(sym: _Symmetric, blocks: list[_Block], sizes, m: int, k: int, s: float,
              start, ritz_sum=None) -> SpectrumReport:
    """The window of the lowest m pairs of S over its blocks, each solved
    from sizes[c] pairs (_solve), then certified and checked: the one
    window loop of eigensolve and of delta_spectrum's kernel pairs.

    The module's kernel rule is decided here, from counts: a window of at
    most sum_c kappa_c pairs, the blocks' kernel counts, is the kernel,
    and each block is certified one float above tau against min(kappa_c,
    m), with no further factor.  Any other window is certified at _cut of
    its top, or as far above the top when two or more of the m lie
    between the cut and the top.  Either way what a block lacks is sought
    on the complement of its pairs (_certify).  On every block, its
    kernel eigenvalues in the window must number its kernel factor's
    count, or its pairs in the window if fewer, and every pair must have
    a residual within RESIDUAL_BOUND x max(|A|, 1), with |A| that of the
    whole of S, else SolverError naming the block.  The report's ritz_sum
    is the window's vectors added into ritz_sum, dim floats in the frame
    of S, by default zeros.
    """
    tau = KERNEL_TAU_ABS * sym.norm
    bound = RESIDUAL_BOUND * max(sym.norm, 1.0)
    kernel = m <= sum(b.kernel for b in blocks)  # the window is the kernel
    for b, size in zip(blocks, sizes):
        _solve(b, size, tau, bound, start)
    while True:  # until every block holds all its eigenvalues below the merged cut
        merged = np.concatenate([b.w for b in blocks])
        order = np.argsort(merged, kind="stable")[:m]
        if kernel:
            cut = np.nextafter(tau, math.inf)
        else:
            top, cut = merged[order[-1]], _cut(merged[order[-1]])
            if np.count_nonzero(merged[order] >= cut) > 1:  # hold the top cluster whole
                cut = 2 * top - cut
        pending = [b for b in blocks if b.complete_below < cut]
        if not pending:
            break
        _certify(pending[0], cut, tau, bound, min(pending[0].kernel, m) if kernel else None)

    w = merged[order]
    resid = np.concatenate([b.resid for b in blocks])[order]
    owner = np.repeat(np.arange(len(blocks)), [b.w.size for b in blocks])[order]
    first = np.cumsum([0] + [b.w.size for b in blocks])
    ritz_sum = np.zeros(sym.matrix.shape[0]) if ritz_sum is None else ritz_sum
    kd, gap, separation = _kernel_split(w, tau)
    for i, b in enumerate(blocks):
        mine = owner == i
        ritz_sum[b.rows] += b.V[:, order[mine] - first[i]].sum(axis=1)
        kd_b = int(np.count_nonzero(w[mine] <= tau))
        if kd_b != min(b.kernel, int(np.count_nonzero(mine))):
            raise SolverError(f"{b.name}{kd_b} window eigenvalues are at most "
                              f"tau = {tau:.3e}, the inertia there is {b.kernel}")
        bad = int(np.count_nonzero(resid[mine] > bound))
        if bad:
            raise SolverError(f"{b.name}{bad} eigenpairs exceed the residual bound "
                              f"{RESIDUAL_BOUND:.0e} x |A| = {bound:.3e}")
    return SpectrumReport(k=k, s=s, eigenvalues=w.tolist(), kernel_dim=kd, gap=gap,
                          residual_norms=resid.tolist(), dim=sym.matrix.shape[0],
                          operator_norm=sym.norm, separation=separation, ritz_sum=ritz_sum)


def delta_spectrum(backend: BackendMatrices, k: int, s: float = 0.0,
                   count: int | None = None,
                   ceiling: float = 0.0, start=None) -> SpectrumReport:
    """Window report of the (deformed) equivariant Laplacian in degree k.

    The window is the lowest count pairs, or without a count every
    eigenvalue below ceiling and one more, by default the kernel and gap.
    start, dim floats in the frame M^{1/2} of degree k, is the Lanczos
    start (eigensolve): that frame does not depend on s, so the
    ritz_sum of a window at a nearby s is a good one.

    From the top degree n on, B = d_s^k + (t^-1 d_s^{k+1})* (cartan._cartan)
    gives Delta^k = B*B and Delta^{k+1} = BB*, since d_s^2 = 0, so S_k and
    S_{k+1} share their nonzero spectrum and kappa_{k+1} = kappa_k +
    dim_{k+1} - dim_k, the index of B (Witten, J. Diff. Geom. 17, 1982).
    A count window of such a degree whose S_k is one block (_split), which
    S_k would not solve densely (2m <= dim_k), and whose partner window of
    m + dim_{k+1} - dim_k pairs holds at least 2 _MIN_SHARE = 20, the
    least that splits, is solved on the partner: degrees 2, 4, ... of a
    surface from the dtheta and dphi blocks of degrees 3, 5, ....  The
    partner window, eigensolve of Delta^{k+1} started from B~ start with
    B~ = M_{k+1}^{1/2} B M_k^{-1/2}, is split and certified like any
    count window; its errors name it, "partner block 1 of 2 (dim 8192):
    ...".  Its lowest m - kappa_k nonzero pairs are the window's, with
    their residuals on S_{k+1}.  S_k adds only kappa_k, counted by its
    own kernel factor, and the kappa_k kernel pairs: a kernel window on
    that factor from start, solved and certified as eigensolve's are
    (_spectral).  So S_k is factored once.  What the window relies on
    is checked, else SolverError: B*B and BB* within a relative defect of
    64 eps of Delta^k and Delta^{k+1}, kappa_{k+1} the index of B away
    from kappa_k, and kappa_k the window's kernel dimension at S_k's tau.
    The report keeps S_k's dim and |A|, and its ritz_sum is the sum of the
    kernel vectors plus B~^T times the partner's, in S_k's frame.  Windows
    without a count, and so every window of verify, never take it.
    """
    d, d_star, delta = cartan.build_deformed(backend, s, k)
    mass = cartan.mass_vector(backend, delta.domain)
    dim, pdim = delta.domain.dim, cartan.degree_space(backend, k + 1).dim
    if (count is None or k < backend.n or 2 * count > dim
            or count + pdim - dim < 2 * _MIN_SHARE
            or _split(delta.matrix, count) is not None):
        del d, d_star
        return eigensolve(delta, mass, count=count, k=k, s=s, ceiling=ceiling,
                          start=start)
    B, _, above = cartan._cartan(backend, s, k, (d, d_star))
    del d, d_star
    B_star = cartan.adjoint(backend, B).matrix
    for name, product, laplacian, degree in (("B*B", B_star @ B.matrix, delta, k),
                                             ("BB*", B.matrix @ B_star, above, k + 1)):
        defect = _relative_defect(product, laplacian.matrix)
        if not defect <= 64 * np.finfo(float).eps:
            raise SolverError(f"partner: {name} misses the degree-{degree} Laplacian by "
                              f"a relative defect of {defect:.3e} > 64 eps")
    pmass = cartan.mass_vector(backend, above.domain)
    Bt = _scale(B.matrix, np.sqrt(pmass), 1.0 / np.sqrt(mass))
    del B, B_star
    with _naming("partner "):
        partner = eigensolve(above, pmass, count=count + pdim - dim, k=k + 1, s=s,
                             start=None if start is None else Bt @ start)
    del above
    sym = _symmetrized(delta, mass)
    tau = KERNEL_TAU_ABS * sym.norm
    kernel = _kernel_block(sym, tau)
    kappa = min(kernel.kernel, count)
    if partner.kernel_dim != kappa + pdim - dim:
        raise SolverError(f"partner: kernel dimensions {kappa} of degree {k} and "
                          f"{partner.kernel_dim} of degree {k + 1} break the index of B")
    # the kernel pairs, whose vectors add to the partner's in S_k's frame
    rep = _spectral(sym, [kernel], [kappa], kappa, k, s, start, Bt.T @ partner.ritz_sum)
    nonzero = slice(partner.kernel_dim, partner.kernel_dim + count - kappa)
    rep.eigenvalues += partner.eigenvalues[nonzero]
    rep.residual_norms += partner.residual_norms[nonzero]
    rep.kernel_dim, rep.gap, rep.separation = _kernel_split(np.asarray(rep.eigenvalues), tau)
    if rep.kernel_dim != kappa:
        raise SolverError(f"partner: {rep.kernel_dim} window eigenvalues are at most tau = "
                          f"{tau:.3e}, the kernel factor counts {kappa}")
    return rep


def betti_numbers(backend: BackendMatrices, kmax: int) -> list[int]:
    """Equivariant Betti numbers beta^0..beta^kmax as kernel dimensions at s = 0.

    The Laplacians come from cartan.build_laplacians, so each derivative
    is composed once; every degree is still solved, degree k >= n+2 on
    the operator of degree k-2.  Each window is the kernel and the gap
    (ceiling 0).  A kernel without a factor-100 separation from the gap
    raises AmbiguousKernelError, which states the largest kernel
    eigenvalue, the gap and tau.
    """
    betti = []
    for k, delta in enumerate(cartan.build_laplacians(backend, 0.0, kmax)):
        rep = eigensolve(delta, cartan.mass_vector(backend, delta.domain), k=k,
                         ceiling=0.0)
        if rep.kernel_dim > 0 and rep.separation < SEPARATION_FACTOR:
            raise AmbiguousKernelError(
                f"degree {k}: kernel/gap separation {rep.separation:.1f} < "
                f"{SEPARATION_FACTOR}: largest kernel eigenvalue "
                f"{rep.eigenvalues[rep.kernel_dim - 1]:.3e}, gap {rep.gap:.3e}, "
                f"tau {KERNEL_TAU_ABS * rep.operator_norm:.3e}; increase the grid")
        betti.append(rep.kernel_dim)
    return betti


def trace_phi(report: SpectrumReport, spec: TraceSpec) -> float:
    """Sum of phi over the window, guarded by the truncation tail bound.

    The tail a window leaves out is at most phi(its largest eigenvalue)
    times the number of missing eigenvalues.  A window solved to
    spec.ceiling() has a tail below dim x eps by construction, since its
    top lies at or above Lambda, phi(Lambda) = eps; a counted window's
    must stay below TRACE_TAIL_BOUND = 1e-6 (TailBoundError).  A sum
    that phi's overflow made infinite is a ConfigurationError.
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
    window up to trace_spec.ceiling().  Each window after the first
    continues from the one before: its Lanczos start is that window's
    ritz_sum, since the frame M^{1/2} is the same at every s.  What the
    start misses the certificate finds, so each window is the one a
    cold start would certify, to rounding.
    """
    s_values = list(s_list)
    if any(sv < 0 for sv in s_values):
        raise ValueError("deformation parameters must be nonnegative")
    if any(a >= b for a, b in zip(s_values, s_values[1:])):
        raise ValueError("s_list must be strictly ascending")
    points, start = [], None
    for sv in s_values:
        rep = delta_spectrum(backend, k, s=sv, count=count,
                             ceiling=trace_spec.ceiling(), start=start)
        start = rep.ritz_sum
        points.append(SweepPoint(s=sv, report=rep, mu=trace_phi(rep, trace_spec)))
    constant = len({p.report.kernel_dim for p in points}) <= 1
    monotone_from = None
    gaps = [p.report.gap for p in points]
    for first in range(len(gaps)):
        tail = gaps[first:]
        if all(b >= a * (1 - 1e-12) for a, b in zip(tail, tail[1:])):
            monotone_from = s_values[first]
            break
    return SweepResult(k=k, points=points, kernel_constant=constant,
                       gap_monotone_from=monotone_from)


def de_rham_index(backend: BackendMatrices) -> int:
    """dim ker Delta^n - dim ker Delta^{n+1}: the index of d_eq + d_eq*."""
    n = backend.n
    return (delta_spectrum(backend, n, ceiling=0.0).kernel_dim
            - delta_spectrum(backend, n + 1, ceiling=0.0).kernel_dim)


def periodicity_defect(backend: BackendMatrices, k: int) -> float:
    """Largest entry of |Delta^k - Delta^{k+2}| over the largest of either.

    Multiplication by t maps the blocks of degree k onto those of degree
    k+2 in order; for k >= n it conjugates one Laplacian into the other,
    so the matrices, and hence the spectra, agree.  Nothing is solved.
    """
    if not cartan.t_shift_dims_match(backend, k):
        raise cartan.AssemblyError(f"t-shift is not a bijection at degree {k}")
    return _relative_defect(cartan.build_delta_eq(backend, k).matrix,
                            cartan.build_delta_eq(backend, k + 2).matrix)
