"""The graded S^1-equivariant complex and its operators as sparse matrices.

Degree-k equivariant forms are sums of t^i (x) omega with omega an
invariant j-form and 2i + j = k; since 0 <= j <= n each total degree is a
finite direct sum of blocks (i, j) and no truncation in the polynomial
variable t is needed.  Every degree k >= 0 holds the block
(k // 2, k mod 2), so no degree space is empty; negative degrees are not
part of the complex.  The equivariant derivative acts blockwise,

    d_eq (t^i (x) omega) = t^i (x) d(omega) + t^{i+1} (x) i_v(omega),

its adjoint is taken exactly with respect to the block-diagonal inner
product <t^i (x) omega, t^j (x) eta> = delta_ij <omega, eta>, and the
Laplacians (plain and Witten-deformed) are assembled by composition so
that symmetry and positive semi-definiteness are exact.  The adjoint's
blocks then coincide with t^i (x) d* and, for i >= 1 only, the lowering
block t^{i-1} (x) v* wedge --- the i = 0 lowering block must be absent,
which the tests assert.

The deformation d_eq,s = d_eq + s (df wedge) gives one complex per s.
Each deformed derivative is one grid of CSR blocks whose form-raising
blocks are d_j + s (df wedge)_j.  build_laplacians composes each
derivative and its adjoint once per s and shares it between the two
Laplacians it enters; for k >= n+2 it returns Delta^k as the operator
Delta^{k-2} itself, which the t-shift conjugates into it bitwise.

Every block operator --- a derivative, the block diagonal of
expansion_residual's right-hand side, the de Rham operator and the pair
of Laplacians it squares to --- is assembled by _csr_grid, which fills
each zero block with an empty CSR block of its size.  A grid of CSR
blocks alone keeps bmat on scipy's compressed path, which stacks the
blocks' arrays as they are stored; one None or non-CSR block would send
the whole grid through COO.  The right-hand side of the Witten expansion
is summed once per form degree j of its space, s^2 |df|^2_j + s H_j,
and added to Delta_eq as a single block diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .backend import SQRT_FLOAT_MAX, BackendMatrices, _adjoint, _relative_defect

__all__ = [
    "EqDegreeSpace",
    "EqOperator",
    "AssemblyError",
    "ConfigurationError",
    "degree_space",
    "mass_vector",
    "build_deq",
    "build_deq_star",
    "build_delta_eq",
    "build_deformed",
    "build_laplacians",
    "deformation_blocks",
    "expansion_residual",
    "t_shift_dims_match",
    "build_equivariant_de_rham",
    "EquivariantDeRham",
]

class AssemblyError(RuntimeError):
    """Two degree spaces that an operation needs to match do not."""


class ConfigurationError(ValueError):
    """An operator or check was requested that the backend cannot supply
    (missing data, or a negative degree or deformation parameter)."""


@dataclass(frozen=True)
class EqDegreeSpace:
    """Basis bookkeeping for one degree k >= 0 of the equivariant forms.

    blocks are the pairs (t_power i, form_degree j) with 2i + j = k and
    0 <= j <= n, ordered by increasing i; block_dims are the discretized
    invariant j-form dimensions.  blocks always holds (k // 2, k mod 2),
    so dim >= 1.
    """

    blocks: tuple[tuple[int, int], ...]
    block_dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return sum(self.block_dims)


@dataclass
class EqOperator:
    """A sparse linear map between two equivariant degree spaces."""

    domain: EqDegreeSpace
    codomain: EqDegreeSpace
    matrix: sp.csr_matrix


def degree_space(backend: BackendMatrices, k: int) -> EqDegreeSpace:
    """Block list {(i, k-2i) : k-2i <= n} with backend dimensions, k >= 0.

    A negative degree raises ConfigurationError.
    """
    if k < 0:
        raise ConfigurationError(f"degree {k} is negative")
    blocks = tuple((i, k - 2 * i) for i in range(k // 2 + 1) if k - 2 * i <= backend.n)
    return EqDegreeSpace(blocks, tuple(backend.dims[j] for _, j in blocks))


def mass_vector(backend: BackendMatrices, space: EqDegreeSpace) -> np.ndarray:
    """Diagonal of the inner product on a degree space (blockwise masses)."""
    return np.concatenate([backend.mass[j] for (_, j) in space.blocks])


def _csr_grid(heights, widths, blocks: dict) -> sp.csr_matrix:
    """The CSR matrix whose block (r, c) is blocks[r, c], a CSR matrix of
    shape (heights[r], widths[c]); every block not given is zero.

    A zero block is an empty CSR block of its size, never None: with CSR
    blocks only, bmat(format="csr") stacks the blocks' compressed arrays
    and keeps each block's entries in their stored order, where a single
    None or COO block would send the whole grid through COO.
    """
    grid = [[blocks[r, c] if (r, c) in blocks else sp.csr_matrix((rows, cols))
             for c, cols in enumerate(widths)]
            for r, rows in enumerate(heights)]
    return sp.bmat(grid, format="csr")


def _assemble_blocks(dom: EqDegreeSpace, cod: EqDegreeSpace, entries) -> EqOperator:
    """Place per-(i,j) block matrices into the (codomain x domain) grid.

    entries: iterable of (target (i,j), source (i,j), matrix); every other
    block is zero.
    """
    blocks = {(cod.blocks.index(tgt), dom.blocks.index(src)): mat
              for tgt, src, mat in entries}
    return EqOperator(dom, cod, _csr_grid(cod.block_dims, dom.block_dims, blocks))


def _derivative(backend: BackendMatrices, s: float, k: int) -> EqOperator:
    """The deformed derivative d_eq,s from degree k to degree k+1, in one grid.

    Block (i, j) -> (i, j+1) is d_j + s (df wedge)_j, or d_j alone at
    s = 0, and block (i, j) -> (i+1, j-1) is the contraction i_v; all
    other blocks vanish.  An s that is negative or not finite, and s > 0
    on a backend without a sampled function (the circle), raise
    ConfigurationError.
    """
    if not 0.0 <= s < math.inf:
        raise ConfigurationError(
            f"deformation parameter s = {s} must be finite and nonnegative")
    if s > 0 and backend.dfwedge is None:
        raise ConfigurationError(
            "backend has no invariant function sampled on its grid; "
            "deformed operators are unavailable")
    dom = degree_space(backend, k)
    cod = degree_space(backend, k + 1)
    entries = []
    for (i, j) in dom.blocks:
        if j + 1 <= backend.n:
            up = backend.d[j] if s == 0 else backend.d[j] + s * backend.dfwedge[j]
            entries.append(((i, j + 1), (i, j), up))
        if j - 1 >= 0:
            entries.append(((i + 1, j - 1), (i, j), backend.iv[j]))
    return _assemble_blocks(dom, cod, entries)


def build_deq(backend: BackendMatrices, k: int) -> EqOperator:
    """The equivariant derivative from degree k to degree k+1.

    Block (i, j) -> (i, j+1) is d_j and block (i, j) -> (i+1, j-1) is the
    contraction i_v; all other blocks vanish.
    """
    return _derivative(backend, 0.0, k)


def adjoint(backend: BackendMatrices, op: EqOperator) -> EqOperator:
    """Exact adjoint with respect to the blockwise mass inner products."""
    m_dom = mass_vector(backend, op.domain)
    m_cod = mass_vector(backend, op.codomain)
    # written so that a NaN mass fails the check
    if not (m_dom.min() > 0.0 and m_cod.min() > 0.0):
        raise ConfigurationError("mass inner product is not positive")
    return EqOperator(op.codomain, op.domain, _adjoint(op.matrix, m_dom, m_cod))


def build_deq_star(backend: BackendMatrices, k: int) -> EqOperator:
    """The grade -1 adjoint of the equivariant derivative (degree k -> k-1).

    Defined as the exact matrix adjoint of build_deq(backend, k-1); its
    blocks coincide with t^i (x) d* and, when i >= 1, t^{i-1} (x) v* wedge.
    """
    return adjoint(backend, build_deq(backend, k - 1))


def build_delta_eq(backend: BackendMatrices, k: int) -> EqOperator:
    """The equivariant Laplacian d_eq* d_eq + d_eq d_eq* on degree k."""
    return build_deformed(backend, 0.0, k)[2]


def deformation_blocks(backend: BackendMatrices, k: int) -> EqOperator:
    """The wedge-by-df operator in degree k (t-diagonal, degree +1)."""
    if backend.dfwedge is None:
        raise ConfigurationError(
            "backend has no invariant function sampled on its grid; "
            "deformed operators are unavailable")
    dom = degree_space(backend, k)
    cod = degree_space(backend, k + 1)
    entries = []
    for (i, j) in dom.blocks:
        if j + 1 <= backend.n:
            entries.append(((i, j + 1), (i, j), backend.dfwedge[j]))
    return _assemble_blocks(dom, cod, entries)


def _with_adjoint(backend: BackendMatrices, s: float, k: int):
    """(d_eq,s, d_eq,s*) from degree k."""
    d = _derivative(backend, s, k)
    return d, adjoint(backend, d)


def _laplacian(backend: BackendMatrices, s: float, k: int, up, lo) -> EqOperator:
    """Delta_eq,s on degree k from the pair (d, d*) leaving degree k and,
    for k >= 1, the pair entering it.

    An entry that is not finite, or whose square overflows, raises
    ConfigurationError.
    """
    d_up, d_up_star = up
    mat = d_up_star.matrix @ d_up.matrix
    if lo is not None:
        d_lo, d_lo_star = lo
        # copied into arrays of the sum's own size: the sum alone keeps the
        # addition's larger scratch arrays
        mat = (mat + d_lo.matrix @ d_lo_star.matrix).copy()
    mat = sp.csr_matrix(mat)
    peak = max(mat.data.max(initial=0.0), -mat.data.min(initial=0.0))
    if not peak < SQRT_FLOAT_MAX:
        raise ConfigurationError(
            f"the degree-{k} Laplacian at s = {s:g} has entries of size {peak:.3g}, "
            "beyond the range the eigensolvers can square")
    space = degree_space(backend, k)
    return EqOperator(space, space, mat)


def build_deformed(backend: BackendMatrices, s: float, k: int):
    """(d_eq,s, d_eq,s*, Delta_eq,s) at a finite deformation parameter s >= 0.

    d_eq,s = d_eq + s (df wedge) is assembled in one grid, with the
    df-wedge term in its form-raising blocks only for s > 0, so at s = 0
    the undeformed operators come out bitwise and backends without a
    sampled function (the circle) still have a Laplacian.  The adjoint is
    exact and the Laplacian is assembled by composition, from the same
    derivatives and in the same order as build_laplacians, so the two
    agree bitwise.  A Laplacian entry that is not finite, or whose square
    overflows, raises ConfigurationError.
    """
    up = _with_adjoint(backend, s, k)
    lo = _with_adjoint(backend, s, k - 1) if k >= 1 else None
    return (*up, _laplacian(backend, s, k, up, lo))


def build_laplacians(backend: BackendMatrices, s: float, kmax: int) -> list[EqOperator]:
    """[Delta_eq,s^0, ..., Delta_eq,s^kmax] of one deformed complex.

    Each derivative d_eq,s^j and its adjoint is composed once, for
    j <= min(kmax, n+1), and serves both Laplacians it enters.  From
    degree n on, multiplication by t conjugates Delta^k into Delta^{k+2}
    bitwise, so for k >= n+2 the entry is the degree k-2 operator itself,
    not a copy; its domain is the degree k-2 space.  The t-shift maps that
    space onto degree k: a block (i, k-2i) of degree k >= n+2 has i >= 1,
    since i = 0 would need the form degree k > n, so it is the t-image of
    the block (i-1, k-2i) of degree k-2.  Entry k is bitwise
    build_deformed(backend, s, k)[2].  The Betti loop
    (spectral.betti_numbers) and local_models.near_zero_counts read this
    list; verify's trace windows come from spectral.sweep_s, one degree
    at a time, through build_deformed.
    """
    deltas: list[EqOperator] = []
    lo = None
    for k in range(kmax + 1):
        if k >= backend.n + 2:
            deltas.append(deltas[k - 2])
            continue
        up = _with_adjoint(backend, s, k)
        deltas.append(_laplacian(backend, s, k, up, lo))
        lo = up
    return deltas


def _block_diagonal_term(mats) -> sp.csr_matrix:
    """The block diagonal of the square CSR matrices mats, in one _csr_grid."""
    dims = [mat.shape[0] for mat in mats]
    return _csr_grid(dims, dims, {(b, b): mat for b, mat in enumerate(mats)})


def expansion_residual(backend: BackendMatrices, s: float, k: int,
                       seed: int = 1234) -> float:
    """Relative defect of Delta_eq,s = Delta_eq + s^2 |df|^2 + s H_f.

    Both sides are assembled independently: the left by composing the
    deformed derivative with its exact adjoint, the right from the
    undeformed Laplacian plus the backend's multiplication and Clifford
    Hessian matrices.  The right-hand side sums s^2 |df|^2_j + s H_j once
    for each form degree j of the space and adds their block diagonal,
    one _csr_grid, to Delta_eq.  The defect is the largest entry of the
    difference over the largest entry of either side, taken entry by entry
    on the sparse matrices, as in EquivariantDeRham.square_defect.  seed
    is ignored.
    """
    if backend.mult_df2 is None:
        raise ConfigurationError("backend carries no |df|^2 data")
    _, _, delta_s = build_deformed(backend, s, k)
    delta0 = build_delta_eq(backend, k)
    rhs = delta0.matrix + _block_diagonal_term(
        [s * s * backend.mult_df2[j] + s * backend.cliff_hess[j]
         for (_, j) in delta0.domain.blocks])
    return _relative_defect(delta_s.matrix, rhs)


def t_shift_dims_match(backend: BackendMatrices, k: int) -> bool:
    """True when t-multiplication maps degree k bijectively onto k+2."""
    lo = degree_space(backend, k)
    hi = degree_space(backend, k + 2)
    return [(i + 1, j) for (i, j) in lo.blocks] == list(hi.blocks)


@dataclass
class EquivariantDeRham:
    """The grading-reversing operator d_eq + d_eq* on Omega^n + Omega^{n+1}.

    The derivative leaving the top degree is folded back through the
    t-shift isomorphism Omega^{n+2} ~ t (x) Omega^n, which on coefficients
    is the identity because the block lists align.  Its square equals the
    pair of Laplacians, and the kernel-dimension difference
    dim ker Delta^n - dim ker Delta^{n+1} is the discrete Fredholm index,
    equal to the Euler characteristic.
    """

    operator: sp.csr_matrix
    delta_n: EqOperator
    delta_n1: EqOperator
    n: int

    def square_defect(self) -> float:
        """Relative defect of operator^2 against the pair of Laplacians."""
        pair = _block_diagonal_term([self.delta_n.matrix, self.delta_n1.matrix])
        return _relative_defect(self.operator @ self.operator, pair)


def _cartan(backend: BackendMatrices, s: float, k: int, mid):
    """(B, top, Delta^{k+1}) of degree k >= n at the parameter s, from
    mid = (d_s^k, d_s^k*), the pair that build_deformed also gives; top is
    the pair (d_s^{k+1}, d_s^{k+1}*).

    B = d_s^k + (t^{-1} d_s^{k+1})*: Omega^k -> Omega^{k+1}, with the
    derivative leaving degree k+1 folded back through the t-shift
    Omega^{k+2} ~ Omega^k, which is the identity on coefficients since
    the block lists and the masses align (t_shift_dims_match).  Since
    d_s^{k+1} d_s^k = 0, B*B = Delta^k and BB* = Delta^{k+1}: the two
    Laplacians share their nonzero spectrum, and a pair (lambda, u) of
    Delta^{k+1} gives the pair (lambda, B* u / sqrt(lambda)) of Delta^k.
    Delta^{k+1} is composed from the same derivatives as
    build_deformed's, so the two agree bitwise.
    """
    up, _ = mid
    top = _, down_star = _with_adjoint(backend, s, k + 1)
    B = EqOperator(up.domain, up.codomain, sp.csr_matrix(up.matrix + down_star.matrix))
    return B, top, _laplacian(backend, s, k + 1, top, mid)


def build_equivariant_de_rham(backend: BackendMatrices) -> EquivariantDeRham:
    """B + B* on Omega^n + Omega^{n+1} at s = 0 (_cartan of degree n), with
    B* summed from the same blocks, not taken as an adjoint."""
    n = backend.n
    lo = _with_adjoint(backend, 0.0, n - 1)
    mid = _with_adjoint(backend, 0.0, n)
    B, (down, _), delta_n1 = _cartan(backend, 0.0, n, mid)
    B_star = sp.csr_matrix(mid[1].matrix + down.matrix)
    dims = (B.domain.dim, B.codomain.dim)
    op = _csr_grid(dims, dims, {(0, 1): B_star, (1, 0): B.matrix})
    return EquivariantDeRham(operator=op,
                             delta_n=_laplacian(backend, 0.0, n, mid, lo),
                             delta_n1=delta_n1, n=n)
