"""Discretized invariant-form calculus on S^1-symmetric model manifolds.

A surface of revolution carries coordinates (theta, psi) with metric
g = dtheta^2 + a(theta)^2 dpsi^2 and a circle action psi -> psi + m*t
generated by v = m * d/dpsi.  Invariant forms have theta-dependent
components only,

    omega = u(theta) + g(theta) dtheta + h(theta) dpsi + w(theta) dtheta^dpsi,

so the whole calculus (d, i_v, v* wedge, df wedge, masses, the squared
gradient |df|^2 and the Clifford Hessian of an invariant f) reduces to
banded matrices on a 1-D grid.  Scalar-like components (u, h) live on
integer nodes, derivative-like components (g, w) on half-integer nodes;
a single narrow difference matrix serves every occurrence of d/dtheta,
which makes d.d = 0, i_v.i_v = 0 and the Cartan identity d i_v + i_v d = 0
exact in floating point, not merely small.

Besides surfaces the catalog exposes the circle acting on itself, whose
invariant complex collapses to the two-dimensional basis {1, dpsi}.
Planes and cylinders with Gaussian-confined spectra (used as flat local
models around critical points and orbits) are obtained from the same
builder through 'cut' (Dirichlet) ends.

The one Morse analysis of an invariant function, find_critical_levels,
lives here too: catalog runs it on every surface case and the
verification pipeline reuses it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "RevolutionProfile",
    "InvariantMorseFunction",
    "CriticalLevel",
    "BackendMatrices",
    "BackendError",
    "ProfileValidationError",
    "DegenerateCriticalLevelError",
    "build_backend",
    "find_critical_levels",
    "catalog",
    "validate_backend",
    "flat_point_profile",
    "flat_orbit_profile",
    "CATALOG",
    "CATALOG_CASES",
]

END_KINDS = ("pole", "periodic", "cut", "free")

POLE_SLOPE_TOL = 1e-6
POLE_GRAD_TOL = 1e-8  # x the largest |f'| on the grid
SCAN_SAMPLES = 4096
ROOT_TOL = 1e-12
HESSIAN_TOL = 1e-8  # x the largest |f''| on the scan grid and the ends
# The largest magnitude whose square is a finite float.  The critical-level
# scan, the assembly, the eigensolvers and the grid oracles all square the
# values they are given, so every input must stay below it.
SQRT_FLOAT_MAX = math.sqrt(np.finfo(float).max)
# The largest n_grid whose operators SuperLU can factor.  SuperLU counts
# the nonzeros of its factors in 32-bit ints, and the factor of a
# Laplacian (spectral._factor) holds at most 21 per theta node (degree 2
# of the periodic torus; 12 on a sphere), so 32 per node stays within
# that range.
MAX_N_GRID = (2**31 - 1) // 32


class BackendError(Exception):
    """Raised when assembled matrices violate a structural identity."""


class ProfileValidationError(ValueError):
    """Raised for geometric inputs that cannot define a smooth model."""


class DegenerateCriticalLevelError(ValueError):
    """Raised when an invariant function has a flat critical level."""


@dataclass(frozen=True)
class RevolutionProfile:
    """Geometry of one S^1-model: orbit radius profile and action speed.

    theta_max : extent of the profile coordinate (arc length).
    ends      : pair of end kinds, or ("periodic", "periodic").
    a         : orbit radius a(theta) > 0 in the interior.
    a_prime   : derivative of a (used for validation only).
    weight    : action speed m >= 0, v = m * d/dpsi (m = 0 is allowed for
                flat local models with trivial rotation).
    n_grid    : number of integer theta nodes, 16..MAX_N_GRID.
    kind      : "surface" for the 2-D models, "circle" for M = S^1 itself.
    """

    name: str
    theta_max: float
    ends: tuple[str, str]
    a: Callable[[np.ndarray], np.ndarray]
    a_prime: Callable[[np.ndarray], np.ndarray]
    weight: int
    n_grid: int
    kind: str = "surface"

    def __post_init__(self):
        if self.kind not in ("surface", "circle"):
            raise ProfileValidationError(f"unknown profile kind {self.kind!r}")
        for e in self.ends:
            if e not in END_KINDS:
                raise ProfileValidationError(f"unknown end kind {e!r}")
        if ("periodic" in self.ends) and self.ends != ("periodic", "periodic"):
            raise ProfileValidationError("periodic profiles must be periodic at both ends")
        if not isinstance(self.n_grid, (int, np.integer)):
            raise ProfileValidationError(f"n_grid must be an integer, got {self.n_grid!r}")
        if self.n_grid < 16:
            raise ProfileValidationError(f"n_grid = {self.n_grid} < 16")
        if self.n_grid > MAX_N_GRID:
            raise ProfileValidationError(
                f"n_grid = {self.n_grid} > {MAX_N_GRID}, beyond the 32-bit index "
                "range of the sparse factorizations")
        if not 0.0 < self.theta_max < math.inf:
            raise ProfileValidationError("theta_max must be positive and finite")
        if not (self.weight >= 0 and float(self.weight).is_integer()):
            raise ProfileValidationError("weight must be a nonnegative integer")

    @property
    def periodic(self) -> bool:
        return self.ends[0] == "periodic"


@dataclass(frozen=True)
class InvariantMorseFunction:
    """An invariant function f(theta) with its first two derivatives.

    Invariance (v.f = 0) is automatic: there is no psi dependence.
    At a pole end smoothness forces f'(pole) = 0, which build_backend
    validates.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    fp: Callable[[np.ndarray], np.ndarray]
    fpp: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CriticalLevel:
    """One critical fixed point or critical orbit of an invariant function.

    index is the transversal Morse index: the number of negative
    eigenvalues of the Hessian on the normal space (two equal eigenvalues
    f'' at a pole, the single eigenvalue f'' across an orbit).
    """

    kind: str                     # "fixed_point" | "orbit"
    theta: float
    index: int
    hessian_eigenvalues: tuple[float, ...]
    value: float


@dataclass
class BackendMatrices:
    """The assembled calculus of one model, as sparse matrices per degree.

    Degree-j objects act on coefficient vectors of the invariant j-form
    space; 1-forms are stored as the concatenation (g | h) of the dtheta
    and dpsi components.  All adjoint-like matrices elsewhere in the
    package are derived from these together with the diagonal masses.

    d[j]        : Omega^j -> Omega^{j+1}, exterior derivative.
    iv[j]       : Omega^j -> Omega^{j-1}, contraction with v (None at j=0);
                  its mass-adjoint is the exterior product with v*.
    dfwedge[j]  : Omega^j -> Omega^{j+1}, exterior product with df (None
                  when no invariant function was supplied).
    mass[j]     : positive diagonal of the L^2 inner product.

    Two per-degree lists are derived from d, dfwedge and mass, composed
    together on the first read of either and kept; only the check of the
    expansion Delta_s = Delta + s^2 |df|^2 + s H_f reads them.  Both are None
    when dfwedge is.
    mult_df2[j] : Omega^j -> Omega^j, the scheme's multiplication by |df|^2,
                  P_j* P_j + P_{j-1} P_{j-1}* with P = dfwedge and * the
                  mass adjoint (a term whose map does not exist is absent).
    cliff_hess[j]: Omega^j -> Omega^j, the scheme's Clifford Hessian,
                  d_j* P_j + P_j* d_j + d_{j-1} P_{j-1}* + P_{j-1} d_{j-1}*;
                  its blocks are consistent with fpp*Z1 + (a'/a)*fp*Z2 in
                  the orthonormal frame, with Z-signs (-1,-1) on functions,
                  (+1,-1)/(-1,+1) on dtheta/dpsi components and (+1,+1)
                  on dtheta^dpsi components.
    """

    n: int
    dims: list[int]
    mass: list[np.ndarray]
    d: list[sp.csr_matrix]
    iv: list
    dfwedge: list
    profile: RevolutionProfile
    f: InvariantMorseFunction | None

    @functools.cached_property
    def _expansion_terms(self) -> tuple[list | None, list | None]:
        return _compose_expansion_terms(self)

    @functools.cached_property
    def mult_df2(self) -> list | None:
        return self._expansion_terms[0]

    @functools.cached_property
    def cliff_hess(self) -> list | None:
        return self._expansion_terms[1]


def _scale(mat: sp.spmatrix, left: np.ndarray, right: np.ndarray) -> sp.csr_matrix:
    """CSR diag(left) @ mat @ diag(right): (left[row] * a) * right[col], zeros dropped."""
    out = sp.csr_matrix(mat, dtype=float, copy=True)
    out.data *= np.repeat(left, np.diff(out.indptr))
    out.data *= right[out.indices]
    out.eliminate_zeros()
    return out


def _adjoint(mat: sp.spmatrix, mass_dom: np.ndarray, mass_cod: np.ndarray) -> sp.csr_matrix:
    """Exact adjoint of mat w.r.t. diagonal masses on domain and codomain."""
    return _scale(mat.T, 1.0 / mass_dom, mass_cod)


def _relative_defect(a: sp.spmatrix, b: sp.spmatrix) -> float:
    """max|a - b| over max(max|a|, max|b|), entry by entry on the sparse
    matrices: 0.0 only when both are zero."""
    def largest(mat):
        data = sp.csr_matrix(mat).data
        return float(max(data.max(initial=0.0), -data.min(initial=0.0)))

    scale = max(largest(a), largest(b))
    return largest(a - b) / scale if scale else 0.0


def _difference_average(n_int: int, n_half: int, dx: float):
    """Narrow difference and average matrices from integer to half nodes.

    Half node h joins integer nodes h and (h + 1) mod n_int: a periodic
    grid (n_half = n_int) closes up, a bounded one (n_half = n_int - 1)
    never wraps.
    """
    rows = np.repeat(np.arange(n_half), 2)
    cols = np.empty(2 * n_half, dtype=int)
    cols[0::2] = np.arange(n_half)
    cols[1::2] = (np.arange(n_half) + 1) % n_int
    dvals = np.tile([-1.0 / dx, 1.0 / dx], n_half)
    avals = np.tile([0.5, 0.5], n_half)
    D = sp.csr_matrix((dvals, (rows, cols)), shape=(n_half, n_int))
    A = sp.csr_matrix((avals, (rows, cols)), shape=(n_half, n_int))
    return D, A


def _circle_backend(profile: RevolutionProfile) -> BackendMatrices:
    # M = S^1 acting on itself with speed m: the invariant complex is the
    # two-dimensional span of {1, dpsi}; every theta dependence collapses
    # because the manifold is a single orbit.
    m = float(profile.weight)
    vol = 2.0 * math.pi
    z11 = sp.csr_matrix((1, 1))
    return BackendMatrices(
        n=1,
        dims=[1, 1],
        mass=[np.array([vol]), np.array([vol])],
        d=[z11.copy()],
        iv=[None, sp.csr_matrix(np.array([[m]]))],
        dfwedge=None,
        profile=profile,
        f=None,
    )


def build_backend(profile: RevolutionProfile,
                  f: InvariantMorseFunction | None) -> BackendMatrices:
    """Assemble the invariant calculus of one model.

    Validates the geometry (a > 0 in the interior, |a'| = 1 at poles) and
    the compatibility of f with the ends (f'(pole) = 0).  The returned
    matrices satisfy d.d = 0, i_v.i_v = 0 and d i_v + i_v d = 0 exactly;
    validate_backend re-checks these on every degree, and the mass
    positivity.
    """
    if profile.kind == "circle":
        return _circle_backend(profile)

    N = profile.n_grid
    L = profile.theta_max
    periodic = profile.periodic
    n_half = N if periodic else N - 1
    dx = L / n_half
    th_i = dx * np.arange(N)
    th_h = (th_i + dx / 2.0)[:n_half]

    a_i = np.asarray(profile.a(th_i), dtype=float)
    a_h = np.asarray(profile.a(th_h), dtype=float)

    # Half nodes are always interior.
    if np.any(a_h <= 0.0):
        raise ProfileValidationError(
            f"profile {profile.name!r}: a(theta) <= 0 at an interior node")

    # Dual-cell masses.  Functions integrate against a(theta) d(theta),
    # dpsi components against 1/a, over the half cells of the two half
    # nodes next to a node (h - 1 and h, mod n_half); half-node components
    # use the plain cell value.  End nodes of a bounded profile are
    # overwritten below.
    nodes = np.arange(N)
    a_lo, a_hi = a_h[nodes - 1], a_h[nodes % n_half]
    mu_u_full = 0.5 * dx * (a_lo + a_hi)
    mu_h_full = 0.5 * dx * (1.0 / a_lo + 1.0 / a_hi)

    # The ends of a bounded profile.  u and h are dropped at Dirichlet
    # ('cut') ends and stay at natural ('free') ends; at poles u stays (an
    # even, smooth extension) while h is pinned to zero (dpsi components
    # of smooth forms vanish there).  The two choices realize the relative
    # and absolute complexes of a manifold with boundary.  g and w live on
    # half nodes and always stay.  An end node keeps the half cell inside
    # the profile; at a pole u samples a at that cell's midpoint, which
    # keeps the quadrature second order where a vanishes linearly.
    u_keep = np.ones(N, dtype=bool)
    h_keep = np.ones(N, dtype=bool)
    poles: list[tuple[int, float]] = []
    end_nodes = () if periodic else ((0, 0, 0, dx / 4.0), (1, N - 1, -1, L - dx / 4.0))
    for side, node, half, quarter in end_nodes:
        kind = profile.ends[side]
        u_keep[node] = kind != "cut"
        h_keep[node] = kind == "free"
        mu_u_full[node] = 0.5 * dx * a_h[half]
        mu_h_full[node] = 0.5 * dx / a_h[half]
        if kind == "pole":
            poles.append((side, th_i[node]))
            slope = abs(float(profile.a_prime(np.array([th_i[node]]))[0]))
            if abs(a_i[node]) > 1e-9 * max(1.0, a_h.max()):
                raise ProfileValidationError(
                    f"profile {profile.name!r}: a does not vanish at the pole end {side}")
            if abs(slope - 1.0) > POLE_SLOPE_TOL:
                raise ProfileValidationError(
                    f"profile {profile.name!r}: |a'| = {slope:.3e} != 1 at pole end {side} "
                    "(metric would have a cone singularity)")
            mu_u_full[node] = 0.5 * dx * float(profile.a(np.array([quarter]))[0])
    # The nodes that keep h are exactly the interior ones.
    if np.any(a_i[h_keep] <= 0.0):
        raise ProfileValidationError(
            f"profile {profile.name!r}: a(theta) <= 0 at an interior node")

    # f is checked only once the whole geometry has passed, so a profile
    # that fails both reports its geometric fault.
    if f is not None and periodic:
        ends = np.array([0.0, L])
        if (abs(np.diff(f.f(ends))[0]) > 1e-9
                or abs(np.diff(f.fp(ends))[0]) > 1e-9):
            raise ProfileValidationError(
                f"{f.name!r} does not close up on the periodic profile")
    elif f is not None:
        grad_tol = POLE_GRAD_TOL * float(np.abs(f.fp(th_i)).max())
        for side, theta in poles:
            grad = float(f.fp(np.array([theta]))[0])
            if abs(grad) > grad_tol:
                raise ProfileValidationError(
                    f"{f.name!r} is not smooth at the pole end {side}: "
                    f"f'({theta:.6g}) = {grad:.3e} != 0")

    n_h = int(h_keep.sum())
    mu_u = mu_u_full[u_keep]
    mu_h = mu_h_full[h_keep]
    nu_g = dx * a_h
    nu_w = dx / a_h

    dims = [int(u_keep.sum()), n_half + n_h, n_half]
    mass = [mu_u, np.concatenate([nu_g, mu_h]), nu_w]

    D_full, A_full = _difference_average(N, n_half, dx)
    D_u = sp.csr_matrix(D_full[:, u_keep])
    D_h = sp.csr_matrix(D_full[:, h_keep])
    A_u = sp.csr_matrix(A_full[:, u_keep])
    A_h = sp.csr_matrix(A_full[:, h_keep])

    # d: d(u) = u' dtheta ; d(g dtheta + h dpsi) = h' dtheta^dpsi.
    d0 = sp.csr_matrix(sp.vstack([D_u, sp.csr_matrix((n_h, dims[0]))]))
    d1 = sp.csr_matrix(sp.hstack([sp.csr_matrix((n_half, n_half)), D_h]))

    # i_v: i_v(h dpsi) = m h ; i_v(w dtheta^dpsi) = -m w dtheta.
    m = float(profile.weight)
    # h nodes are a subset of u nodes, so the injection row of an h dof is
    # its position among the kept u nodes.
    inj_rows = np.where(h_keep[u_keep])[0]
    inj_hu = sp.csr_matrix(
        (np.ones(n_h), (inj_rows, np.arange(n_h))), shape=(dims[0], n_h))
    iv1 = sp.csr_matrix(sp.hstack([sp.csr_matrix((dims[0], n_half)), m * inj_hu]))
    iv2 = sp.csr_matrix(sp.vstack([-m * sp.identity(n_half, format="csr"),
                                   sp.csr_matrix((n_h, n_half))]))

    dfwedge = None
    if f is not None:
        S = sp.diags(np.asarray(f.fp(th_h), dtype=float))
        P0 = sp.csr_matrix(sp.vstack([S @ A_u, sp.csr_matrix((n_h, dims[0]))]))
        P1 = sp.csr_matrix(sp.hstack([sp.csr_matrix((n_half, n_half)), S @ A_h]))
        dfwedge = [P0, P1]

    return BackendMatrices(
        n=2,
        dims=dims,
        mass=mass,
        d=[d0, d1],
        iv=[None, iv1, iv2],
        dfwedge=dfwedge,
        profile=profile,
        f=f,
    )


def _compose_expansion_terms(backend: BackendMatrices):
    """(mult_df2, cliff_hess) of a backend, or (None, None) without dfwedge.

    Each map Omega^j -> Omega^{j+1} adds its terms of |df|^2 = P*P + PP*
    and H_f = d*P + P*d + dP* + Pd* to degrees j and j+1.  A sum added
    into its degree's matrix is copied into arrays of its own size; the
    sum alone would keep the larger working arrays of the addition.
    """
    if backend.dfwedge is None:
        return None, None
    dims, mass = backend.dims, backend.mass
    mult_df2 = [sp.csr_matrix((dim, dim)) for dim in dims]
    cliff_hess = [sp.csr_matrix((dim, dim)) for dim in dims]
    for j, (dj, pj) in enumerate(zip(backend.d, backend.dfwedge)):
        dj_adj = _adjoint(dj, mass[j], mass[j + 1])
        pj_adj = _adjoint(pj, mass[j], mass[j + 1])
        mult_df2[j] = mult_df2[j] + pj_adj @ pj
        mult_df2[j + 1] = mult_df2[j + 1] + pj @ pj_adj
        cliff_hess[j] = cliff_hess[j] + (dj_adj @ pj + pj_adj @ dj)
        cliff_hess[j + 1] = cliff_hess[j + 1] + (dj @ pj_adj + pj @ dj_adj)
    return mult_df2, cliff_hess


def validate_backend(backend: BackendMatrices) -> dict:
    """Check the structural identities on every degree and return the residuals.

    On each degree j = 0..n the identities d.d = 0, i_v.i_v = 0,
    d i_v + i_v d = 0 (Cartan), d df + df d = 0, df.df = 0 and
    df i_v + i_v df = 0 are checked wherever their maps exist, in that
    order; the report names each residual with its degree, as in
    'cartan[0]'.  The first, fourth and fifth make d_s = d + s df a
    complex at every s: d_s^2 = d^2 + s (d df + df d) + s^2 df^2.  A
    residual is the largest entry of the composed map over the product
    of the largest entries of the two families (each at least 1).  They hold exactly by construction;
    any residual beyond 1e-12 or NaN, or a mass that is not positive and
    finite, raises BackendError naming it.  An entry that no identity
    reaches, such as one in a pole column, is checked on its own: an
    infinite or NaN entry of d, i_v or df wedge raises BackendError naming
    the map and its degree.
    """
    # Each check is written so that a NaN fails it.
    for j, mvec in enumerate(backend.mass):
        if not 0.0 < mvec.min() <= mvec.max() < np.inf:
            raise BackendError(f"mass matrix of degree {j} is not positive and finite")

    d, iv, df = backend.d, backend.iv, backend.dfwedge or []

    def at(maps, j):
        return maps[j] if 0 <= j < len(maps) else None

    def largest(maps):
        return max([1.0] + [float(np.abs(m.data).max(initial=0.0))
                            for m in maps if m is not None])

    s_d, s_iv, s_df = largest(d), largest(iv), largest(df)
    report = {}
    for j in range(backend.n + 1):
        # Each identity on Omega^j: its (outer, inner) compositions and scale.
        for name, pairs, scale in (
                ("d_squared", [(at(d, j + 1), at(d, j))], s_d * s_d),
                ("iv_squared", [(at(iv, j - 1), at(iv, j))], s_iv * s_iv),
                ("cartan", [(at(d, j - 1), at(iv, j)), (at(iv, j + 1), at(d, j))],
                 s_d * s_iv),
                ("d_dfwedge", [(at(d, j + 1), at(df, j)), (at(df, j + 1), at(d, j))],
                 s_d * s_df),
                ("df_squared", [(at(df, j + 1), at(df, j))], s_df * s_df),
                ("cartan_df", [(at(df, j - 1), at(iv, j)), (at(iv, j + 1), at(df, j))],
                 s_df * s_iv)):
            products = [outer @ inner for outer, inner in pairs
                        if outer is not None and inner is not None]
            if products:
                residual = sp.csr_matrix(sum(products[1:], products[0]))
                report[f"{name}[{j}]"] = float(np.abs(residual.data).max(initial=0.0)) / scale

    for name, value in report.items():
        if not value <= 1e-12:
            raise BackendError(f"identity {name!r} violated: residual {value:.3e}")
    for name, maps in (("d", d), ("iv", iv), ("dfwedge", df)):
        for j, m in enumerate(maps):
            if m is not None and not np.isfinite(m.data).all():
                raise BackendError(f"map {name}[{j}] has a non-finite entry")
    return report


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _trig_series(const: float, cos: Sequence[float], sin: Sequence[float], scale: float):
    """(g, g', g'') of g(theta) = const + sum_j (cos[j-1] cos(j theta/scale)
    + sin[j-1] sin(j theta/scale)), j = 1, 2, ...

    const is the j = 0 cosine term.  g' is the sum of the differentiated
    terms over scale, g'' over scale**2; terms with a zero coefficient are
    skipped and the rest summed in the order of j, the cosine before the
    sine, so a series of one unit term is that term bitwise.
    """
    terms: tuple[list, list, list] = ([], [], [])  # (coefficient, j, wave) of g, g', g''
    pairs = itertools.zip_longest((const, *cos), (0.0, *sin), fillvalue=0.0)
    for j, (a, b) in enumerate(pairs):
        for order, coef, wave in ((0, a, np.cos), (1, -a * j, np.sin),
                                  (2, -a * (j * j), np.cos), (0, b, np.sin),
                                  (1, b * j, np.cos), (2, -b * (j * j), np.sin)):
            if coef:
                terms[order].append((coef, j, wave))

    def derivative(order: int):
        def g(th):
            if not terms[order]:
                return np.zeros(np.shape(th))
            first, *rest = (coef * wave(j * th / scale) for coef, j, wave in terms[order])
            return sum(rest, first) / scale ** order
        return g

    return derivative(0), derivative(1), derivative(2)


# The catalog, one row per case: the parameters it takes with their defaults;
# its model, from those parameters, of the profile (name, extent, ends, orbit
# radius a) and of f (name and values, None on the circle), a and f each as
# the (const, cos, sin, scale) of a _trig_series; the fault, if any, that
# rejects parameters; and the listing's text, kernels beta^0..beta^5 and notes.
CATALOG = {
    "sphere_height": {
        "params": {"R": 1.0},
        "model": lambda R: ((f"sphere(R={R:g})", math.pi * R, ("pole", "pole"),
                             (0.0, (), (R,), R)),
                            ("cos(theta)", (0.0, (1.0,), (), R))),
        "listing": ("R=1, f=cos(theta)", (1, 0, 2, 0, 2, 0),
                    "c=(1,0,1), d=0, slacks all zero"),
    },
    "sphere_bumpy": {
        "params": {"R": 1.0, "c": 0.6},
        "model": lambda R, c: ((f"sphere(R={R:g})", math.pi * R, ("pole", "pole"),
                                (0.0, (), (R,), R)),
                               (f"cos(theta)+{c:g}*cos(2 theta)", (0.0, (1.0, c), (), R))),
        "listing": ("R=1, f=cos(theta)+c*cos(2 theta), c=0.6", (1, 0, 2, 0, 2, 0),
                    "extra critical latitude(s); slacks >= 0"),
    },
    "torus_height": {
        "params": {"r": 1.0, "R": 3.0},
        "model": lambda r, R: ((f"torus(r={r:g},R={R:g})", 2.0 * math.pi * r,
                                ("periodic", "periodic"), (R, (r,), (), r)),
                               ("sin(theta)", (0.0, (), (1.0,), r))),
        "fault": lambda r, R: None if R > r else f"torus needs R > r, got R={R}, r={r}",
        "listing": ("r=1, R=3, f=sin(theta)", (1, 1, 0, 0, 0, 0),
                    "d=(1,1), c=0, slacks all zero"),
    },
    "circle_trivial": {
        "params": {},
        "model": lambda: (("circle", 2.0 * math.pi, ("periodic", "periodic"),
                           (1.0, (), (), 1.0)), None),
        "listing": ("free action of S^1 on itself", (1, 0, 0, 0, 0, 0),
                    "algebraic/spectral identities only"),
    },
}
CATALOG_CASES = tuple(CATALOG)


def find_critical_levels(profile: RevolutionProfile,
                         f: InvariantMorseFunction) -> list[CriticalLevel]:
    """Locate all critical levels of an invariant function.

    A sign-change scan of f' at SCAN_SAMPLES points over the interior of
    the profile, followed by bisection of every bracket to ROOT_TOL,
    finds every orbit; pole ends are always critical fixed points.  A
    Hessian |f''| at most HESSIAN_TOL times the largest |f''| on the scan
    grid and the ends, a refined root with |f'| above |f''| w + 4 eps
    max|f'| (w its last bracket's width, the max over the scan grid), or a
    critical latitude under the trivial action (weight 0, where the
    latitude is a circle of fixed points rather than a free orbit) raises
    DegenerateCriticalLevelError.  Both rules are scale-free.
    """
    if profile.kind != "surface":
        raise ValueError("critical-level analysis needs a surface profile")
    L = profile.theta_max
    if profile.periodic:
        lo, hi = 0.0, L
    else:
        # Exclude the ends from the scan: at poles f' vanishes identically
        # and cut/free ends are not critical levels of the closed model.
        margin = L / SCAN_SAMPLES
        lo, hi = margin, L - margin

    # For a periodic profile the end points of the scan coincide, so the
    # segments below cover the whole circle exactly once.
    grid = np.linspace(lo, hi, SCAN_SAMPLES)
    vals = f.fp(grid)
    ends = np.array([0.0, L])
    hess_tol = HESSIAN_TOL * float(np.abs(f.fpp(np.concatenate([grid, ends]))).max())
    # Bisect all brackets at once, an exact zero of f' on the grid as one of
    # width 0; each stops halving when narrower than ROOT_TOL, and its root
    # is the midpoint of its last bracket, so the roots come out ascending.
    at = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
    a, b, fa = grid[at], grid[at + (vals[at] != 0.0)], vals[at]
    for _ in range(200):
        live = ~(b - a < ROOT_TOL)
        if not live.any():
            break
        mid = 0.5 * (a + b)
        fmid = f.fp(mid)
        left = fa * fmid <= 0
        b = np.where(live & left, mid, b)
        a = np.where(live & ~left, mid, a)
        fa = np.where(live & ~left, fmid, fa)
    roots = 0.5 * (a + b)
    grad_tol = 4 * np.finfo(float).eps * float(np.abs(vals).max())
    if roots.size and profile.weight == 0:
        raise DegenerateCriticalLevelError(
            f"critical latitude at theta = {roots[0]:.6g} is a circle of fixed points "
            "under the trivial action (weight 0), neither an isolated fixed point "
            "nor a free orbit")

    levels: list[CriticalLevel] = []
    for theta, w, hess, grad, value in zip(roots, b - a, f.fpp(roots), f.fp(roots),
                                           f.f(roots)):
        if abs(hess) <= hess_tol:
            raise DegenerateCriticalLevelError(
                f"critical orbit at theta = {theta:.6g} has |f''| = {abs(hess):.2e}")
        if abs(grad) > abs(hess) * w + grad_tol:
            raise DegenerateCriticalLevelError(
                f"root refinement failed at theta = {theta:.6g}")
        levels.append(CriticalLevel(
            kind="orbit", theta=float(theta), index=1 if hess < 0 else 0,
            hessian_eigenvalues=(float(hess),), value=float(value)))

    if not profile.periodic:
        for side, theta, hess, value in zip((0, 1), (0.0, L), f.fpp(ends), f.f(ends)):
            if profile.ends[side] != "pole":
                continue
            if abs(hess) <= hess_tol:
                raise DegenerateCriticalLevelError(
                    f"pole at theta = {theta:.6g} has |f''| = {abs(hess):.2e}")
            levels.append(CriticalLevel(
                kind="fixed_point", theta=theta, index=2 if hess < 0 else 0,
                hessian_eigenvalues=(float(hess),) * 2, value=float(value)))
    return sorted(levels, key=lambda lv: lv.theta)


def catalog(name: str, params: dict | None = None, n_grid: int = 256,
            weight: int = 1):
    """Return (RevolutionProfile, InvariantMorseFunction | None) for a case.

    The case is a row of CATALOG, which gives its parameters with their
    defaults and its orbit radius a and function f as trigonometric
    series; _trig_series derives a', f' and f''.  The circle acting on
    itself has no function, since a constant is not Morse.  A parameter
    the case does not take raises ProfileValidationError, as do parameters
    that give no model (a torus with R <= r) and parameters at which the
    case's functions, or their squares, overflow on the profile.  Every
    surface case goes through find_critical_levels, so a flat critical
    level, or a critical latitude at weight 0, raises
    DegenerateCriticalLevelError.
    """
    if name not in CATALOG:
        raise ProfileValidationError(
            f"unknown catalog case {name!r}; choose from {CATALOG_CASES}")
    row, params = CATALOG[name], params or {}
    unused = sorted(set(params) - set(row["params"]))
    if unused:
        raise ProfileValidationError(f"unused parameters for {name!r}: {unused}")
    values = {key: float(params.get(key, default)) for key, default in row["params"].items()}
    fault = "fault" in row and row["fault"](**values)
    if fault:
        raise ProfileValidationError(fault)
    (label, theta_max, ends, a_series), function = row["model"](**values)
    a, a_prime, _ = _trig_series(*a_series)
    profile = RevolutionProfile(
        name=label, theta_max=theta_max, ends=ends, a=a, a_prime=a_prime,
        weight=weight, n_grid=n_grid, kind="surface" if function else "circle")
    if function is None:
        return profile, None
    f = InvariantMorseFunction(function[0], *_trig_series(*function[1]))
    th = np.linspace(0.0, profile.theta_max, SCAN_SAMPLES)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            peak = np.max([np.abs(fn(th)).max() for fn in
                           (profile.a, profile.a_prime, f.f, f.fp, f.fpp)])
    except ArithmeticError:
        peak = math.inf
    if not peak < SQRT_FLOAT_MAX:
        raise ProfileValidationError(
            f"{profile.name} with f = {f.name}: the case's functions, or their "
            "squares, overflow at these parameters")
    find_critical_levels(profile, f)
    return profile, f


# ---------------------------------------------------------------------------
# Flat local models (plane around a fixed point, cylinder around an orbit)
# ---------------------------------------------------------------------------

def flat_point_profile(weight: int, eps: int, radius: float, n_grid: int):
    """Plane R^2 with rotation speed `weight` and f = eps*r^2/2, truncated
    at `radius`.  The origin is a fixed point of Morse index 0 (eps=+1) or
    2 (eps=-1).  The truncation uses the boundary condition that carries
    no boundary contribution in the deformed complex: natural ('free')
    where the gradient of f exits the domain (eps=+1), Dirichlet ('cut')
    where it enters (eps=-1)."""
    if eps not in (+1, -1):
        raise ProfileValidationError("eps must be +1 or -1")
    profile = RevolutionProfile(
        name=f"plane(m={weight},eps={eps:+d})",
        theta_max=radius,
        ends=("pole", "free" if eps > 0 else "cut"),
        a=lambda th: np.asarray(th, dtype=float),
        a_prime=lambda th: np.ones_like(th),
        weight=weight,
        n_grid=n_grid,
    )
    f = InvariantMorseFunction(
        name=f"{eps:+d}*r^2/2",
        f=lambda th: 0.5 * eps * th ** 2,
        fp=lambda th: eps * np.asarray(th, dtype=float),
        fpp=lambda th: eps * np.ones_like(th),
    )
    return profile, f


def flat_orbit_profile(weight: int, lam: int, half_width: float, n_grid: int,
                       orbit_radius: float = 1.0):
    """Cylinder S^1 x R with orbit speed `weight`, constant orbit radius,
    and transverse f = lam*x^2/2 on x in [-half_width, half_width].  The
    central orbit has transversal index 0 (lam=+1) or 1 (lam=-1).  Ends
    are natural for lam=+1 (gradient exits) and Dirichlet for lam=-1
    (gradient enters), so the truncation adds no boundary modes."""
    if lam not in (+1, -1):
        raise ProfileValidationError("lam must be +1 or -1")
    X = half_width
    bc = "free" if lam > 0 else "cut"
    profile = RevolutionProfile(
        name=f"cylinder(m={weight},lam={lam:+d})",
        theta_max=2.0 * X,
        ends=(bc, bc),
        a=lambda th: orbit_radius * np.ones_like(np.asarray(th, dtype=float)),
        a_prime=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
        weight=weight,
        n_grid=n_grid,
    )
    f = InvariantMorseFunction(
        name=f"{lam:+d}*x^2/2",
        f=lambda th: 0.5 * lam * (np.asarray(th, dtype=float) - X) ** 2,
        fp=lambda th: lam * (np.asarray(th, dtype=float) - X),
        fpp=lambda th: lam * np.ones_like(np.asarray(th, dtype=float)),
    )
    return profile, f
