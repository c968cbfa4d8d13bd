"""Flat local models around critical points and orbits: closed-form
spectra, oscillator ground states, fiber Clifford algebra, and the
independent grid oracles that pin every constant factor.

Near a fixed point the deformed equivariant Laplacian is unitarily a sum
of commuting pieces: one isotropic two-dimensional oscillator per
rotation plane (coupled on the span of t and the plane's area form eta
by a constant 2x2 matrix) and one one-dimensional oscillator per fixed
direction.  Near a free orbit the same transverse pieces appear plus a
nonnegative multiplication operator on the orbit-circle factor that
suppresses every t power and every dpsi component.  The closed forms
below are cross-checked against finite-difference discretizations
(a 1-D Hermite grid, a radial zero-angular-momentum grid, the coupled
radial system, and the fully assembled plane/cylinder models built from
the shared revolution machinery).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import backend as _backend
from . import cartan as _cartan
from . import spectral as _spectral

__all__ = [
    "LocalPointModel",
    "LocalOrbitModel",
    "BranchSpectrum",
    "ho_spectrum",
    "ho_ground",
    "ho_grid_spectrum",
    "block_matrix_eigen",
    "ab_branch_spectra",
    "radial_invariant_spectrum",
    "coupled_branch_spectrum",
    "wedge_matrix",
    "contract_matrix",
    "z_matrix",
    "clifford_fiber",
    "point_contribution",
    "orbit_contribution",
    "asymptotic_counts",
    "near_zero_counts",
    "point_model_counts",
    "orbit_model_counts",
]

HO_GRID_POINTS = 600
RADIAL_GRID_POINTS = 700
COUPLED_GRID_POINTS = 500


# ---------------------------------------------------------------------------
# Model descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalPointModel:
    """Normal form of a fixed point: q rotation planes with speeds m_i and
    quadratic coefficients eps_i = +-1, plus n-2q fixed directions with
    coefficients lambda_l = +-1.  The Morse index is twice the number of
    negative eps plus the number of negative lambda."""

    q: int
    weights: tuple[int, ...]
    eps: tuple[int, ...]
    lambdas: tuple[int, ...]
    n: int
    s: float = 1.0

    def __post_init__(self):
        if 2 * self.q > self.n:
            raise ValueError(f"2q = {2 * self.q} exceeds the dimension {self.n}")
        if len(self.weights) != self.q or len(self.eps) != self.q:
            raise ValueError("need one weight and one eps per rotation plane")
        if len(self.lambdas) != self.n - 2 * self.q:
            raise ValueError("need one lambda per fixed direction")
        if any(not (m >= 1 and float(m).is_integer()) for m in self.weights):
            raise ValueError("rotation speeds must be positive integers")
        if any(e not in (-1, 1) for e in self.eps + self.lambdas):
            raise ValueError("eps and lambda entries must be +-1")
        if not 0.0 < self.s < math.inf:
            raise ValueError("deformation parameter must be positive and finite")

    @property
    def index(self) -> int:
        return 2 * sum(1 for e in self.eps if e == -1) \
            + sum(1 for l in self.lambdas if l == -1)


@dataclass(frozen=True)
class LocalOrbitModel:
    """Normal form of a free critical orbit: orbit speed m and a point
    model on the transverse (n-1)-dimensional slice."""

    speed: int
    transverse: LocalPointModel

    def __post_init__(self):
        if not (self.speed >= 1 and float(self.speed).is_integer()):
            raise ValueError("orbit speed must be a positive integer")

    @property
    def index(self) -> int:
        return self.transverse.index


@dataclass
class BranchSpectrum:
    """Lowest eigenvalues of one invariant branch."""

    eigenvalues: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Harmonic oscillator
# ---------------------------------------------------------------------------

def _lowest_tridiag(diag: np.ndarray, off: np.ndarray, count: int) -> np.ndarray:
    """Lowest count eigenvalues, ascending, of the symmetric tridiagonal (diag, off)."""
    return sla.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))


def ho_spectrum(a: float, count: int) -> list[float]:
    """Eigenvalues a(1+2p), p = 0..count-1, of -d^2/dx^2 + a^2 x^2."""
    if not 0.0 < a < math.inf:
        raise ValueError("oscillator frequency must be positive and finite")
    return [a * (1 + 2 * p) for p in range(count)]


def ho_ground(a: float):
    """Unit-L^2-norm ground state x -> (a/pi)^{1/4} exp(-a x^2 / 2)."""
    if not 0.0 < a < math.inf:
        raise ValueError("oscillator frequency must be positive and finite")
    norm = (a / math.pi) ** 0.25

    def W(x):
        return norm * np.exp(-0.5 * a * np.asarray(x, dtype=float) ** 2)

    return W


def ho_grid_spectrum(a: float, count: int) -> list[float]:
    """Finite-difference oracle for ho_spectrum on [-R, R], Dirichlet ends,
    R = sqrt(40/a)."""
    if not 0.0 < a < math.inf:
        raise ValueError("oscillator frequency must be positive and finite")
    R = math.sqrt(40.0 / a)
    n_grid = HO_GRID_POINTS
    h = 2.0 * R / (n_grid + 1)
    x = -R + h * (1 + np.arange(n_grid))
    diag = 2.0 / h**2 + a * a * x * x
    off = -np.ones(n_grid - 1) / h**2
    return [float(v) for v in _lowest_tridiag(diag, off, count)]


# ---------------------------------------------------------------------------
# The 2x2 fiber coupling on span{t, eta}
# ---------------------------------------------------------------------------

def block_matrix_eigen(s: float, m: float, eps: int):
    """Eigenpairs of [[-2 eps s, 2m], [2m, 2 eps s]] on span{t, eta}.

    Eigenvalues are -+2 sqrt(s^2 + m^2) with eigenvectors proportional to
    (m, eps*s -+ sqrt(s^2+m^2)); returned ascending, each vector unit and
    expressed in (t, eta) components.  As s grows the low vector turns
    into the pure t direction for eps = +1 and the pure eta direction for
    eps = -1.
    """
    if not (0.0 < s < math.inf and 0.0 <= m < math.inf):
        raise ValueError("need finite s > 0 and m >= 0")
    if eps not in (-1, 1):
        raise ValueError("eps must be +-1")
    r = math.hypot(s, m)
    if eps >= 0:
        v_plus = np.array([m, eps * s + r])
        v_plus /= np.linalg.norm(v_plus)
        v_minus = np.array([v_plus[1], -v_plus[0]])
    else:
        v_minus = np.array([m, eps * s - r])
        v_minus /= np.linalg.norm(v_minus)
        v_plus = np.array([-v_minus[1], v_minus[0]])
    return (-2.0 * r, v_minus), (2.0 * r, v_plus)


def ab_branch_spectra(s: float, m: float, eps: int, count: int):
    """Closed-form spectra of the two kernel-relevant invariant branches.

    Branch A (invariant functions of one rotation plane): the isotropic
    2-D oscillator restricted to zero angular momentum, shifted by the
    fiber sign term, eigenvalues 2s(1+2p) - 2 eps s.
    Branch B (the span{t, eta} fiber over invariant functions): oscillator
    frequency s' = sqrt(s^2+m^2) and constant shifts -+2s', eigenvalues
    2s'(1+2p) -+ 2s'; the minus series starts at an exact zero for every
    eps, which carries the t-power tower of the kernel.
    """
    if not (0.0 < s < math.inf and 0.0 <= m < math.inf):
        raise ValueError("need finite s > 0 and m >= 0")
    if eps not in (-1, 1):
        raise ValueError("eps must be +-1")
    a_vals = [2.0 * s * (1 + 2 * p) - 2.0 * eps * s for p in range(count)]
    sp = math.hypot(s, m)
    b_all = sorted([2.0 * sp * (1 + 2 * p) - 2.0 * sp for p in range(count + 1)]
                   + [2.0 * sp * (1 + 2 * p) + 2.0 * sp for p in range(count)])
    branch_a = BranchSpectrum(eigenvalues=sorted(a_vals)[:count])
    branch_b = BranchSpectrum(eigenvalues=[float(v) for v in b_all[:count]])
    return branch_a, branch_b


# ---------------------------------------------------------------------------
# Radial grid oracles
# ---------------------------------------------------------------------------

def _radial_sym_tridiag(omega_sq: float, n_grid: int):
    """Symmetrized FV matrix of -u'' - u'/r + omega^2 r^2 u on (0, R],
    R = sqrt(44/omega).  ValueError unless omega^2 is a positive float and
    the entries' squares, which the tridiagonal solvers form, are finite."""
    if not 0.0 < omega_sq < math.inf:
        raise ValueError(f"oracle frequency^2 {omega_sq:g} is not a positive finite float")
    h = math.sqrt(44.0 / math.sqrt(omega_sq)) / n_grid
    r = (0.5 + np.arange(n_grid)) * h
    r_up = r + 0.5 * h          # r_{j+1/2}; r_{-1/2} = 0 encodes regularity
    r_dn = r - 0.5 * h
    r_dn[0] = 0.0
    diag = (r_up + r_dn) / (r * h**2) + omega_sq * r * r
    off = -r_up[:-1] / (h**2 * np.sqrt(r[:-1] * r[1:]))
    if not np.abs(np.concatenate([diag, off])).max() < _backend.SQRT_FLOAT_MAX:
        raise ValueError(f"oracle grid at frequency^2 {omega_sq:g} overflows when squared")
    return diag, off


def radial_invariant_spectrum(omega_sq: float, count: int) -> list[float]:
    """Grid oracle for the zero-angular-momentum 2-D oscillator.

    Eigenvalues of -u'' - u'/r + omega^2 r^2 on (0, R], R = sqrt(44/omega),
    with the natural regularity condition at 0 and a Dirichlet cut at R;
    the closed form is 2 omega (1+2p).
    """
    diag, off = _radial_sym_tridiag(omega_sq, RADIAL_GRID_POINTS)
    return [float(v) for v in _lowest_tridiag(diag, off, count)]


def coupled_branch_spectrum(s: float, m: float, eps: int, count: int) -> list[float]:
    """Grid oracle for the coupled (t, eta) system of one rotation plane:
    radial oscillator T of frequency sqrt(s^2+m^2) on (0, sqrt(44/omega)]
    plus the constant 2x2 coupling C; validates the branch-B closed form
    including its factors.  The system blockdiag(T, T) + C (x) I_M is the
    Kronecker sum of T and C, so its spectrum is {t_i + c_j}, each solved alone."""
    diag, off = _radial_sym_tridiag(s * s + m * m, COUPLED_GRID_POINTS)
    C = np.array([[-2.0 * eps * s, 2.0 * m], [2.0 * m, 2.0 * eps * s]])
    t = _lowest_tridiag(diag, off, min(count, diag.size))
    w = np.sort(np.add.outer(t, np.linalg.eigvalsh(C)), axis=None)
    return [float(v) for v in w[:count]]


# ---------------------------------------------------------------------------
# Exterior fiber algebra and the Clifford Hessian sign rule
# ---------------------------------------------------------------------------

def wedge_matrix(i: int, n: int) -> np.ndarray:
    """dx_i wedge on the 2^n exterior fiber (basis ordered by bitmask)."""
    dim = 1 << n
    out = np.zeros((dim, dim))
    bit = 1 << i
    for mask in range(dim):
        if mask & bit:
            continue
        sign = (-1.0) ** bin(mask & (bit - 1)).count("1")
        out[mask | bit, mask] = sign
    return out


def contract_matrix(i: int, n: int) -> np.ndarray:
    """Interior product with dx_i: the Euclidean adjoint of the wedge."""
    return wedge_matrix(i, n).T


def z_matrix(i: int, n: int) -> np.ndarray:
    """Z_i = [dx_i wedge, dx_i contraction]: +1 on monomials containing
    dx_i, -1 on the others."""
    w = wedge_matrix(i, n)
    c = contract_matrix(i, n)
    return w @ c - c @ w


def clifford_fiber(lambdas) -> np.ndarray:
    """sum_i lambda_i Z_i on the exterior fiber of R^n, n = len(lambdas)."""
    lambdas = list(lambdas)
    n = len(lambdas)
    out = np.zeros((1 << n, 1 << n))
    for i, lam in enumerate(lambdas):
        out += lam * z_matrix(i, n)
    return out


# ---------------------------------------------------------------------------
# Contribution counts
# ---------------------------------------------------------------------------

def point_contribution(model: LocalPointModel, k: int) -> int:
    """1 when the flat point operator keeps a kernel in total degree k.

    The kernel element pairs the index-carrying form part with a t power
    of (k - index)/2, so the contribution is 1 exactly when the Morse
    index is one of k, k-2, k-4, ... and 0 otherwise.
    """
    d = k - model.index
    return 1 if d >= 0 and d % 2 == 0 else 0


def orbit_contribution(model: LocalOrbitModel, k: int) -> int:
    """1 when the flat orbit operator keeps a kernel in total degree k.

    The orbit-circle factor suppresses every positive t power (and every
    dpsi component), so only k equal to the transversal index survives.
    """
    return 1 if model.index == k else 0


def asymptotic_counts(models, k: int) -> int:
    """Sum of point and orbit contributions: d_k + c_k + c_{k-2} + ..."""
    total = 0
    for model in models:
        if isinstance(model, LocalOrbitModel):
            total += orbit_contribution(model, k)
        elif isinstance(model, LocalPointModel):
            total += point_contribution(model, k)
        else:
            raise TypeError(f"not a local model: {model!r}")
    return total


# ---------------------------------------------------------------------------
# Assembled flat operators as oracles for the contribution counts
# ---------------------------------------------------------------------------

def near_zero_counts(be, s: float, kmax: int) -> list[int]:
    """Count eigenvalues below s/10 per degree 0..kmax.

    The first eigenvalue above that threshold must clear s/2; otherwise
    the asymptotic regime is not reached and the count is refused rather
    than reported (AmbiguousKernelError).  The counts below s/10 and s/2
    are inertias of the degree-k Laplacian (spectral.inertia), so no
    eigenvalue is solved.  The Laplacians come from
    cartan.build_laplacians, which composes each derivative once; for
    k >= n+2, Delta^k is Delta^{k-2}, so its counts are those of degree
    k-2 and no inertia is taken for it.
    """
    deltas = _cartan.build_laplacians(be, s, kmax)
    counts = []
    for k, delta in enumerate(deltas):
        if k >= 2 and delta is deltas[k - 2]:
            counts.append(counts[k - 2])
            continue
        mass = _cartan.mass_vector(be, delta.domain)
        below, cleared = _spectral.inertia(delta, mass, (s / 10.0, s / 2.0))
        if cleared != below:
            raise _spectral.AmbiguousKernelError(
                f"degree {k}: {cleared - below} eigenvalue(s) in [{s / 10.0:.3e}, "
                f"{s / 2.0:.3e}), between the near-zero band and the required gap")
        counts.append(below)
    return counts


def _model_extent(s: float) -> float:
    """sqrt(80/s), the radius or half-width of a flat model at deformation s;
    ValueError unless s is positive and finite."""
    if not 0.0 < s < math.inf:
        raise ValueError("deformation parameter must be positive and finite")
    return math.sqrt(80.0 / s)


def point_model_counts(weight: int, eps: int, s: float, kmax: int,
                       n_grid: int = 256) -> list[int]:
    """Near-zero counts of the assembled plane model around a fixed point."""
    radius = _model_extent(s)
    profile, f = _backend.flat_point_profile(weight, eps, radius, n_grid)
    be = _backend.build_backend(profile, f)
    return near_zero_counts(be, s, kmax)


def orbit_model_counts(weight: int, lam: int, s: float, kmax: int,
                       n_grid: int = 256) -> list[int]:
    """Near-zero counts of the assembled cylinder model around an orbit.

    The orbit radius defaults to sqrt(s)/weight so that the squared orbit
    speed, which is the floor of the dpsi and t sectors, scales like s and
    clears the counting band at every s.
    """
    if not weight >= 1:
        raise ValueError("orbit speed must be a positive integer")
    half_width = _model_extent(s)
    orbit_radius = math.sqrt(s) / weight
    profile, f = _backend.flat_orbit_profile(weight, lam, half_width, n_grid,
                                             orbit_radius=orbit_radius)
    be = _backend.build_backend(profile, f)
    return near_zero_counts(be, s, kmax)
