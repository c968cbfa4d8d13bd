"""The equivariant complex: grading, differential, adjoint, Laplacians,
deformation, expansion identity, periodicity, and the index operator."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from equimorse import backend as B
from equimorse import cartan as C
from equimorse import spectral as S


@pytest.fixture(scope="module")
def sphere():
    profile, f = B.catalog("sphere_height", n_grid=96)
    return B.build_backend(profile, f)


@pytest.fixture(scope="module")
def torus():
    profile, f = B.catalog("torus_height", n_grid=96)
    return B.build_backend(profile, f)


@pytest.fixture(scope="module")
def circle():
    profile, f = B.catalog("circle_trivial", weight=1)
    return B.build_backend(profile, f)


# ---------------------------------------------------------------------------
# degree spaces
# ---------------------------------------------------------------------------

def test_degree_space_block_enumeration(sphere):
    assert C.degree_space(sphere, 0).blocks == ((0, 0),)
    assert C.degree_space(sphere, 2).blocks == ((0, 2), (1, 0))
    assert C.degree_space(sphere, 3).blocks == ((1, 1),)
    assert C.degree_space(sphere, 5).blocks == ((2, 1),)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=0, max_value=14), n=st.sampled_from([1, 2]))
def test_degree_space_invariants(k, n):
    _Stub = SimpleNamespace(n=n, dims=[5, 11, 7][:n + 1])
    space = C.degree_space(_Stub, k)
    for (i, j) in space.blocks:
        assert 2 * i + j == k
        assert 0 <= j <= n
        assert i >= 0
    assert space.dim == sum(space.block_dims)
    # no truncation in t: the i range is exactly what the constraint allows
    expected = [(i, k - 2 * i) for i in range(k // 2 + 1) if 0 <= k - 2 * i <= n]
    assert list(space.blocks) == expected
    # every degree holds t^(k // 2) (x) Omega^(k mod 2), so none is empty
    assert (k // 2, k % 2) in space.blocks


@pytest.mark.parametrize("k", range(8))
def test_every_degree_space_is_non_empty(k, sphere, circle):
    for be in (sphere, circle):
        space = C.degree_space(be, k)
        assert space.blocks and space.dim == sum(space.block_dims) >= 1
        assert C.mass_vector(be, space).size == space.dim


def test_negative_degree_is_a_configuration_error(sphere, circle):
    for be in (sphere, circle):
        with pytest.raises(C.ConfigurationError, match="negative"):
            C.degree_space(be, -1)
        with pytest.raises(C.ConfigurationError, match="negative"):
            C.build_deq_star(be, 0)


# ---------------------------------------------------------------------------
# differential and adjoint
# ---------------------------------------------------------------------------

def test_circle_differential_by_hand(circle):
    # d_eq(1) = 0 and d_eq(dpsi) = t (x) m, here with weight m = 1
    d0 = C.build_deq(circle, 0)
    assert d0.matrix.nnz == 0
    d1 = C.build_deq(circle, 1)
    assert d1.codomain.blocks == ((1, 0),)
    assert d1.matrix.toarray() == pytest.approx(np.array([[1.0]]))


def test_circle_adjoint_by_hand():
    profile, f = B.catalog("circle_trivial", weight=2)
    circle2 = B.build_backend(profile, f)
    # degree 2 -> 1: t (x) 1 maps to m dpsi (v-flat = m dpsi on the unit circle)
    star = C.build_deq_star(circle2, 2)
    assert star.domain.blocks == ((1, 0),)
    assert star.codomain.blocks == ((0, 1),)
    assert star.matrix.toarray() == pytest.approx(np.array([[2.0]]))


@pytest.mark.parametrize("kind", ["sphere", "torus"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_deq_squared_is_structurally_zero(kind, k, sphere, torus):
    be = {"sphere": sphere, "torus": torus}[kind]
    prod = C.build_deq(be, k + 1).matrix @ C.build_deq(be, k).matrix
    assert sp.csr_matrix(prod).nnz == 0


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_adjointness_on_random_vectors(sphere, k):
    rng = np.random.default_rng(7)
    d = C.build_deq(sphere, k)
    star = C.build_deq_star(sphere, k + 1)
    m_dom = C.mass_vector(sphere, d.domain)
    m_cod = C.mass_vector(sphere, d.codomain)
    for _ in range(5):
        x = rng.standard_normal(d.domain.dim)
        y = rng.standard_normal(d.codomain.dim)
        lhs = (d.matrix @ x) @ (m_cod * y)
        rhs = x @ (m_dom * (star.matrix @ y))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize("case", ["sphere_height", "sphere_bumpy", "torus_height"])
def test_row_column_scaling_is_bitwise_the_two_product_formula(case):
    """B._scale, as used by the adjoint and by the eigensolver's symmetric
    form, stores exactly what diag @ mat @ diag stores: same pattern, same
    rounding (left[row] * a first, then * right[col])."""
    def same(a, b):
        return all(np.array_equal(x, y) for x, y in
                   ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)))

    be = B.build_backend(*B.catalog(case, n_grid=64))
    for k in range(6):
        for s in (0.0, 3.7, 64.0):
            d, _, lap = C.build_deformed(be, s, k)
            m_dom = C.mass_vector(be, d.domain)
            m_cod = C.mass_vector(be, d.codomain)
            if d.domain.dim and d.codomain.dim:
                two_products = sp.csr_matrix(
                    sp.diags(1.0 / m_dom) @ d.matrix.T @ sp.diags(m_cod))
                assert same(B._adjoint(d.matrix, m_dom, m_cod), two_products)
            root = np.sqrt(C.mass_vector(be, lap.domain))
            two_products = sp.diags(root) @ sp.csr_matrix(lap.matrix) @ sp.diags(1.0 / root)
            assert same(B._scale(lap.matrix, root, 1.0 / root), two_products)


def test_row_column_scaling_drops_stored_zeros():
    """A stored zero, or a product that underflows, is dropped as the
    sparse product drops it."""
    mat = sp.csr_matrix((np.array([0.0, 2.0, 1e-300]), np.array([0, 1, 0]),
                         np.array([0, 2, 3])), shape=(2, 2))
    left, right = np.array([3.0, 1e-300]), np.array([0.5, 4.0])
    two_products = sp.diags(left) @ mat @ sp.diags(right)
    scaled = B._scale(mat, left, right)
    assert scaled.nnz == two_products.nnz == 1
    assert np.array_equal(scaled.toarray(), two_products.toarray())


def test_adjoint_blocks_match_lowering_formula(sphere):
    """The adjoint's blocks are t^i (x) d* plus v*-wedge lowering blocks
    present exactly for i >= 1; assembling that formula directly gives
    the same matrix."""
    for k in (1, 2, 3, 4):
        star = C.build_deq_star(sphere, k)
        dom = star.domain
        cod = star.codomain
        mats = {}
        for j, mvec in enumerate(sphere.mass):
            if j + 1 <= sphere.n:
                dj = sphere.d[j]
                mats[j] = sp.csr_matrix(
                    sp.diags(1.0 / sphere.mass[j]) @ dj.T @ sp.diags(sphere.mass[j + 1]))
        entries = []
        for (i, j) in dom.blocks:
            if j - 1 >= 0:
                entries.append(((i, j - 1), (i, j), mats[j - 1]))
            if i >= 1 and j + 1 <= sphere.n:   # epsilon_{0i} = 1 - delta_{0i}
                vstar = B._adjoint(sphere.iv[j + 1], sphere.mass[j + 1], sphere.mass[j])
                entries.append(((i - 1, j + 1), (i, j), vstar))
        formula = C._assemble_blocks(dom, cod, entries)
        diff = sp.csr_matrix(star.matrix - formula.matrix)
        scale = max(np.abs(star.matrix.data).max(), 1.0)
        assert diff.nnz == 0 or np.abs(diff.data).max() <= 1e-13 * scale


def test_lowering_block_absent_at_zero_t_power(sphere):
    # degree 1 = single block (0, 1): the adjoint may only produce d*,
    # never the v*-wedge block (which would need t-power -1)
    star = C.build_deq_star(sphere, 1)
    assert star.domain.blocks == ((0, 1),)
    assert star.codomain.blocks == ((0, 0),)
    # compare against pure d* transpose: identical
    pure = sp.csr_matrix(
        sp.diags(1.0 / sphere.mass[0]) @ sphere.d[0].T @ sp.diags(sphere.mass[1]))
    diff = sp.csr_matrix(star.matrix - pure)
    assert diff.nnz == 0


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_laplacian_psd(sphere, k):
    rep = S.delta_spectrum(sphere, k)
    assert rep.eigenvalues[0] >= -1e-10 * max(rep.operator_norm, 1.0)


def test_laplacian_block_pattern(sphere):
    """The Laplacian may only connect (i, j) to itself and to the
    degree-preserving neighbors (i+1, j-2) and (i-1, j+2)."""
    for k in (2, 3, 4):
        delta = C.build_delta_eq(sphere, k)
        space = delta.domain
        starts = np.cumsum((0,) + space.block_dims)
        cut = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]
        for bi, tgt in enumerate(space.blocks):
            for bj, src in enumerate(space.blocks):
                block = delta.matrix[cut[bi], cut[bj]]
                allowed = tgt == src or \
                    tgt == (src[0] + 1, src[1] - 2) or \
                    tgt == (src[0] - 1, src[1] + 2)
                if not allowed:
                    assert sp.csr_matrix(block).nnz == 0, \
                        f"forbidden block {src} -> {tgt} at degree {k}"


def test_adjoint_requires_positive_mass(sphere):
    bad = B.build_backend(*B.catalog("sphere_height", n_grid=64))
    bad.mass[0] = bad.mass[0].copy()
    bad.mass[0][0] = -1.0
    with pytest.raises(C.ConfigurationError):
        C.build_deq_star(bad, 1)


def test_circle_laplacian_values(circle):
    assert S.delta_spectrum(circle, 0).eigenvalues == pytest.approx([0.0], abs=1e-15)
    assert S.delta_spectrum(circle, 1).eigenvalues == pytest.approx([1.0])
    assert S.delta_spectrum(circle, 2).eigenvalues == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# deformation
# ---------------------------------------------------------------------------

def test_deformation_off_is_bitwise_identical(sphere):
    d0, star0, delta0 = C.build_deformed(sphere, 0.0, 1)
    d_ref = C.build_deq(sphere, 1)
    delta_ref = C.build_delta_eq(sphere, 1)
    assert sp.csr_matrix(d0.matrix - d_ref.matrix).nnz == 0
    assert sp.csr_matrix(delta0.matrix - delta_ref.matrix).nnz == 0


@pytest.mark.parametrize("s", [0.0, 16.0])
def test_degree_two_laplacian_holds_no_scratch_slots(sphere, s):
    """The degree-2 Laplacian is a sum of two products; it is stored in
    arrays of exactly its nnz, and is bitwise the plain scipy sum."""
    d_up, d_up_star, delta = C.build_deformed(sphere, s, 2)
    d_lo, d_lo_star, _ = C.build_deformed(sphere, s, 1)
    plain = d_up_star.matrix @ d_up.matrix + d_lo.matrix @ d_lo_star.matrix
    mat = delta.matrix
    for array in (mat.data, mat.indices):
        owner = array if array.base is None else array.base
        assert owner.size == mat.nnz
    for got, want in ((mat.data, plain.data), (mat.indices, plain.indices),
                      (mat.indptr, plain.indptr)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("s", [1.0, 8.0])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_deformed_differential_squares_to_zero(sphere, s, k):
    d_lo, _, _ = C.build_deformed(sphere, s, k)
    d_hi, _, _ = C.build_deformed(sphere, s, k + 1)
    prod = sp.csr_matrix(d_hi.matrix @ d_lo.matrix)
    assert prod.nnz == 0


def test_deformed_adjoint_symmetry(sphere):
    _, _, delta = C.build_deformed(sphere, 8.0, 1)
    m = C.mass_vector(sphere, delta.domain)
    A = sp.diags(m) @ delta.matrix
    asym = sp.csr_matrix(A - A.T)
    assert np.abs(asym.data).max() <= 1e-12 * np.abs(A.data).max()


@pytest.mark.parametrize("kind", ["sphere", "torus"])
@pytest.mark.parametrize("s", [1.0, 8.0, 32.0])
@pytest.mark.parametrize("k", [0, 1])
def test_expansion_identity_below_top_degree(kind, s, k, sphere, torus):
    be = {"sphere": sphere, "torus": torus}[kind]
    assert C.expansion_residual(be, s, k) <= 1e-8


def test_expansion_identity_odd_degree(sphere):
    assert C.expansion_residual(sphere, 8.0, 3) <= 1e-8


def test_expansion_two_form_defect_is_second_order(sphere):
    # In even degrees >= 2 the t-lowering block picks up the finite-grid
    # anticommutator of the v*-wedge with the df-wedge, an O(dx) effect;
    # it shrinks under refinement and stays far below the exact terms.
    coarse = C.expansion_residual(sphere, 8.0, 2)
    profile, f = B.catalog("sphere_height", n_grid=192)
    fine = C.expansion_residual(B.build_backend(profile, f), 8.0, 2)
    assert coarse <= 1e-3
    assert fine <= 0.6 * coarse


@pytest.mark.parametrize("field,fault", [
    ("cliff_hess", lambda m: -m), ("mult_df2", lambda m: 0 * m),
], ids=["flipped-hessian", "dropped-df2"])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_expansion_residual_catches_a_wrong_backend(sphere, field, fault, j):
    # degree j holds the block (0, j), so a fault in the degree-j data shows there
    per_degree = list(getattr(sphere, field))
    per_degree[j] = fault(per_degree[j])
    wrong = dataclasses.replace(sphere, **{field: per_degree})
    assert C.expansion_residual(wrong, 8.0, j) > 1e-8


def test_expansion_residual_ignores_the_seed(sphere):
    assert C.expansion_residual(sphere, 8.0, 2, seed=0) \
        == C.expansion_residual(sphere, 8.0, 2, seed=987654321)


def test_constant_function_gives_zero_deformation():
    profile, _ = B.catalog("sphere_height", n_grid=64)
    const = B.InvariantMorseFunction(
        name="const", f=lambda t: np.ones_like(t),
        fp=lambda t: np.zeros_like(t), fpp=lambda t: np.zeros_like(t))
    be = B.build_backend(profile, const)
    _, _, delta_s = C.build_deformed(be, 5.0, 1)
    delta = C.build_delta_eq(be, 1)
    diff = sp.csr_matrix(delta_s.matrix - delta.matrix)
    assert diff.nnz == 0 or np.abs(diff.data).max() <= 1e-14
    assert C.expansion_residual(be, 5.0, 1) <= 1e-14


def test_deformation_requires_function(circle):
    with pytest.raises(C.ConfigurationError):
        C.build_deformed(circle, 2.0, 1)


def test_negative_s_rejected(sphere):
    with pytest.raises(C.ConfigurationError):
        C.build_deformed(sphere, -1.0, 1)


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_non_finite_s_rejected(sphere, s):
    with pytest.raises(C.ConfigurationError):
        C.build_deformed(sphere, s, 1)


# ---------------------------------------------------------------------------
# periodicity in t and the index operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["sphere", "torus"])
def test_t_shift_conjugates_laplacians_from_degree_n(kind, sphere, torus):
    be = {"sphere": sphere, "torus": torus}[kind]
    for k in (2, 3):
        assert C.t_shift_dims_match(be, k)
        lo = C.build_delta_eq(be, k).matrix
        hi = C.build_delta_eq(be, k + 2).matrix
        assert sp.csr_matrix(lo - hi).nnz == 0


def test_t_shift_not_bijective_below(sphere):
    assert not C.t_shift_dims_match(sphere, 0)
    assert C.t_shift_dims_match(sphere, 1)  # blocks align from n-1 on


def test_degree_one_laplacians_differ_across_t_shift(sphere):
    """The t-shift aligns the degree-1 and degree-3 spaces, but the
    co-differential is t-linear only from degree n on: degree 3 carries
    an extra lowering route, so the operators differ by a v*-contraction
    term of size ~ (weight * radius)^2."""
    d1 = C.build_delta_eq(sphere, 1).matrix
    d3 = C.build_delta_eq(sphere, 3).matrix
    diff = sp.csr_matrix(d3 - d1)
    assert diff.nnz > 0
    assert np.abs(diff.data).max() == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("kind", ["sphere", "torus"])
def test_de_rham_square_and_index(kind, sphere, torus):
    be = {"sphere": sphere, "torus": torus}[kind]
    dr = C.build_equivariant_de_rham(be)
    assert dr.square_defect() <= 1e-10
    expected = {"sphere": 2, "torus": 0}[kind]
    assert S.de_rham_index(be) == expected
