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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .backend import SQRT_FLOAT_MAX, BackendMatrices, _adjoint

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


def _assemble_blocks(dom: EqDegreeSpace, cod: EqDegreeSpace, entries) -> EqOperator:
    """Place per-(i,j) block matrices into the (codomain x domain) grid.

    entries: iterable of (target (i,j), source (i,j), matrix); every other
    block is zero.
    """
    grid = [[sp.csr_matrix((rows, cols)) for cols in dom.block_dims]
            for rows in cod.block_dims]
    for tgt, src, mat in entries:
        grid[cod.blocks.index(tgt)][dom.blocks.index(src)] = mat
    return EqOperator(dom, cod, sp.csr_matrix(sp.bmat(grid, format="csr")))


def build_deq(backend: BackendMatrices, k: int) -> EqOperator:
    """The equivariant derivative from degree k to degree k+1.

    Block (i, j) -> (i, j+1) is d_j and block (i, j) -> (i+1, j-1) is the
    contraction i_v; all other blocks vanish.
    """
    dom = degree_space(backend, k)
    cod = degree_space(backend, k + 1)
    entries = []
    for (i, j) in dom.blocks:
        if j + 1 <= backend.n:
            entries.append(((i, j + 1), (i, j), backend.d[j]))
        if j - 1 >= 0:
            entries.append(((i + 1, j - 1), (i, j), backend.iv[j]))
    return _assemble_blocks(dom, cod, entries)


def adjoint(backend: BackendMatrices, op: EqOperator) -> EqOperator:
    """Exact adjoint with respect to the blockwise mass inner products."""
    m_dom = mass_vector(backend, op.domain)
    m_cod = mass_vector(backend, op.codomain)
    if m_dom.min() <= 0.0 or m_cod.min() <= 0.0:
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


def build_deformed(backend: BackendMatrices, s: float, k: int):
    """(d_eq,s, d_eq,s*, Delta_eq,s) at a finite deformation parameter s >= 0.

    d_eq,s = d_eq + s (df wedge); the adjoint is exact; the Laplacian is
    assembled by composition.  The df-wedge term is added only for s > 0,
    so at s = 0 the undeformed operators come out bitwise and backends
    without a sampled function (the circle) still have a Laplacian.  A
    Laplacian entry that is not finite, or whose square overflows, raises
    ConfigurationError.
    """
    if not 0.0 <= s < math.inf:
        raise ConfigurationError(
            f"deformation parameter s = {s} must be finite and nonnegative")

    def deformed(j: int) -> EqOperator:
        d = build_deq(backend, j)
        if s > 0:
            p = deformation_blocks(backend, j)
            d = EqOperator(d.domain, d.codomain, sp.csr_matrix(d.matrix + s * p.matrix))
        return d

    ds_up = deformed(k)
    ds_up_star = adjoint(backend, ds_up)
    mat = ds_up_star.matrix @ ds_up.matrix
    if k >= 1:
        ds_lo = deformed(k - 1)
        # copied into arrays of the sum's own size: the sum alone keeps the
        # addition's larger scratch arrays
        mat = (mat + ds_lo.matrix @ adjoint(backend, ds_lo).matrix).copy()
    mat = sp.csr_matrix(mat)
    peak = max(mat.data.max(initial=0.0), -mat.data.min(initial=0.0))
    if not peak < SQRT_FLOAT_MAX:
        raise ConfigurationError(
            f"the degree-{k} Laplacian at s = {s:g} has entries of size {peak:.3g}, "
            "beyond the range the eigensolvers can square")
    space = degree_space(backend, k)
    return ds_up, ds_up_star, EqOperator(space, space, mat)


def _block_diagonal_term(space: EqDegreeSpace, per_degree) -> sp.csr_matrix:
    return sp.csr_matrix(sp.block_diag([per_degree[j] for (_, j) in space.blocks]))


def expansion_residual(backend: BackendMatrices, s: float, k: int,
                       seed: int = 1234) -> float:
    """Relative defect of Delta_eq,s = Delta_eq + s^2 |df|^2 + s H_f.

    Both sides are assembled independently: the left by composing the
    deformed derivative with its exact adjoint, the right from the
    undeformed Laplacian plus the backend's multiplication and Clifford
    Hessian matrices.  The defect is the largest entry of their difference
    over the largest entry of Delta_eq,s, taken entry by entry on the
    sparse matrices, as in EquivariantDeRham.square_defect.  seed is
    ignored.
    """
    if backend.mult_df2 is None:
        raise ConfigurationError("backend carries no |df|^2 data")
    _, _, delta_s = build_deformed(backend, s, k)
    delta0 = build_delta_eq(backend, k)
    space = delta0.domain
    rhs = delta0.matrix \
        + s * s * _block_diagonal_term(space, backend.mult_df2) \
        + s * _block_diagonal_term(space, backend.cliff_hess)
    diff = sp.csr_matrix(delta_s.matrix - rhs)
    scale = np.abs(delta_s.matrix.data).max(initial=0.0)
    return float(np.abs(diff.data).max(initial=0.0) / scale) if scale > 0 else 0.0


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
        """Blockwise relative error of operator^2 against the Laplacians."""
        sq = sp.csr_matrix(self.operator @ self.operator)
        target = sp.block_diag([self.delta_n.matrix, self.delta_n1.matrix])
        diff = sq - sp.csr_matrix(target)
        scale = max(np.abs(self.delta_n.matrix.data).max(),
                    np.abs(self.delta_n1.matrix.data).max())
        return float(np.abs(diff.data).max(initial=0.0) / scale)


def build_equivariant_de_rham(backend: BackendMatrices) -> EquivariantDeRham:
    n = backend.n
    up = build_deq(backend, n)                 # Omega^n -> Omega^{n+1}
    down_raw = build_deq(backend, n + 1)       # Omega^{n+1} -> Omega^{n+2} ~ Omega^n
    space_n = degree_space(backend, n)
    down = EqOperator(down_raw.domain, space_n, down_raw.matrix)
    up_star = adjoint(backend, up)
    down_star = adjoint(backend, down)
    top_right = sp.csr_matrix(up_star.matrix + down.matrix)
    bottom_left = sp.csr_matrix(up.matrix + down_star.matrix)
    op = sp.bmat([[None, top_right], [bottom_left, None]], format="csr")
    return EquivariantDeRham(
        operator=sp.csr_matrix(op),
        delta_n=build_delta_eq(backend, n),
        delta_n1=build_delta_eq(backend, n + 1),
        n=n,
    )
