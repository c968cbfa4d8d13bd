"""The equivariant complex: grading, differential, adjoint, Laplacians,
deformation, expansion identity, periodicity, and the index operator."""

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from equimorse import backend as B
from equimorse import cartan as C
from equimorse import local_models
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


def test_adjoint_rejects_a_nan_mass():
    bad = B.build_backend(*B.catalog("sphere_height", n_grid=64))
    bad.mass[1] = bad.mass[1].copy()
    bad.mass[1][5] = math.nan
    with pytest.raises(C.ConfigurationError, match="mass inner product is not positive"):
        C.adjoint(bad, C.build_deq(bad, 0))


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
    wrong = copy.copy(sphere)
    setattr(wrong, field, per_degree)
    assert C.expansion_residual(wrong, 8.0, j) > 1e-8


def test_expansion_residual_is_a_full_defect_when_only_delta_s_is_zero(sphere,
                                                                        monkeypatch):
    """The scale is the larger side, so a zero Delta_s against the nonzero
    right-hand side is a defect of 1, not 0."""
    build = C.build_deformed
    d, d_star, delta_s = build(sphere, 8.0, 1)
    zero = C.EqOperator(delta_s.domain, delta_s.codomain,
                        sp.csr_matrix(delta_s.matrix.shape))
    monkeypatch.setattr(C, "build_deformed",
                        lambda be, s, k: (d, d_star, zero) if s else build(be, s, k))
    assert C.expansion_residual(sphere, 8.0, 1) == 1.0


def test_expansion_residual_needs_df2_data(circle):
    with pytest.raises(C.ConfigurationError, match="carries no \\|df\\|\\^2 data"):
        C.expansion_residual(circle, 1.0, 0)


def test_expansion_terms_are_composed_once_and_only_for_the_check(monkeypatch):
    calls = []
    compose = B._compose_expansion_terms
    monkeypatch.setattr(B, "_compose_expansion_terms",
                        lambda be: calls.append(be) or compose(be))
    profile, f = B.catalog("sphere_height", n_grid=64)
    be = B.build_backend(profile, f)
    S.betti_numbers(be, 3)
    S.delta_spectrum(be, 1, s=16.0)
    flat = B.build_backend(*B.flat_point_profile(1, +1, math.sqrt(5.0), 64))
    local_models.near_zero_counts(flat, 16.0, 2)
    assert not calls
    C.expansion_residual(be, 8.0, 1)
    C.expansion_residual(be, 8.0, 2)
    assert len(calls) == 1 and calls[0] is be


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


def _bitwise_equal(a, b):
    return all(np.array_equal(x, y) for x, y in
               ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)))


@pytest.mark.parametrize("s", [0.0, 4.0, 64.0])
@pytest.mark.parametrize("case", ["sphere_height", "torus_height", "sphere_bumpy"])
def test_laplacian_list_is_bitwise_build_deformed(case, s):
    """One complex per s: each entry equals the Laplacian built alone, and
    from degree n+2 on it is the degree k-2 operator itself."""
    be = B.build_backend(*B.catalog(case, n_grid=96))
    deltas = C.build_laplacians(be, s, 5)
    assert len(deltas) == 6
    for k, delta in enumerate(deltas):
        assert _bitwise_equal(delta.matrix, C.build_deformed(be, s, k)[2].matrix)
        assert (k >= 2 and delta is deltas[k - 2]) == (k >= be.n + 2)


def test_circle_laplacian_list(circle):
    deltas = C.build_laplacians(circle, 0.0, 5)
    for k, delta in enumerate(deltas):
        assert _bitwise_equal(delta.matrix, C.build_deformed(circle, 0.0, k)[2].matrix)
        assert (k >= 2 and delta is deltas[k - 2]) == (k >= circle.n + 2)
    with pytest.raises(C.ConfigurationError) as alone:
        C.build_deformed(circle, 4.0, 1)
    with pytest.raises(C.ConfigurationError) as listed:
        C.build_laplacians(circle, 4.0, 5)
    assert str(listed.value) == str(alone.value)


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


def test_square_defect_of_the_zero_operator_is_zero():
    """Under the trivial action the circle's top Laplacians are 1x1 zeros
    with no stored entry; both sides are zero, so the defect is 0."""
    dr = C.build_equivariant_de_rham(B.build_backend(*B.catalog("circle_trivial",
                                                                weight=0)))
    assert dr.operator.nnz == dr.delta_n.matrix.nnz == dr.delta_n1.matrix.nnz == 0
    assert dr.square_defect() == 0.0


@pytest.mark.parametrize("case", B.CATALOG_CASES)
def test_de_rham_laplacians_are_bitwise_build_delta_eq(case):
    be = B.build_backend(*B.catalog(case, n_grid=96))
    dr = C.build_equivariant_de_rham(be)
    assert _bitwise_equal(dr.delta_n.matrix, C.build_delta_eq(be, be.n).matrix)
    assert _bitwise_equal(dr.delta_n1.matrix, C.build_delta_eq(be, be.n + 1).matrix)


@pytest.mark.parametrize("case", B.CATALOG_CASES)
def test_cartan_operator_factors_both_laplacians(case):
    """B = d_s^k + (t^-1 d_s^{k+1})* for k in {n, n+2}: in the frames
    M^{1/2}, B~^T B~ is S_k and B~ B~^T is S_{k+1}, entry by entry within
    16 eps of the largest entry (3.7 eps measured), and Delta^{k+1} is
    bitwise build_deformed's.  At s = 0 and k = n, B is the bottom-left
    block of build_equivariant_de_rham's operator, and its top-right
    block, summed from the same blocks, is the adjoint of B within 4 eps
    (1.4 measured)."""
    be = B.build_backend(*B.catalog(case, n_grid=64))
    eps = np.finfo(float).eps
    for s in (0.0, 16.0, 64.0) if be.dfwedge is not None else (0.0,):
        for k in (be.n, be.n + 2):
            d, d_star, below = C.build_deformed(be, s, k)
            op, (down, _), above = C._cartan(be, s, k, (d, d_star))
            assert _bitwise_equal(down.matrix, C.build_deformed(be, s, k + 1)[0].matrix)
            assert _bitwise_equal(above.matrix, C.build_deformed(be, s, k + 1)[2].matrix)
            m0, m1 = (C.mass_vector(be, x.domain) for x in (below, above))
            Bt = B._scale(op.matrix, np.sqrt(m1), 1.0 / np.sqrt(m0))
            for delta, mass, product in ((below, m0, Bt.T @ Bt), (above, m1, Bt @ Bt.T)):
                sym = S._symmetrized(delta, mass).matrix
                assert B._relative_defect(product, sym) <= 16 * eps, (s, k)
            if s == 0.0 and k == be.n:
                dr, dim = C.build_equivariant_de_rham(be), below.domain.dim
                assert _bitwise_equal(sp.csr_matrix(dr.operator[dim:, :dim]), op.matrix)
                assert B._relative_defect(dr.operator[:dim, dim:],
                                          C.adjoint(be, op).matrix) <= 4 * eps


# ---------------------------------------------------------------------------
# block grids on scipy's compressed path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["sphere_height", "torus_height", "sphere_bumpy"])
@pytest.mark.parametrize("field", ["mult_df2", "cliff_hess"])
def test_block_diagonal_term_is_the_block_diag_formula(case, field):
    """The compressed grid holds block_diag's entries with the same values
    and row pointers; the COO route of block_diag sorts each row by
    column, while the grid keeps each block's stored order."""
    be = B.build_backend(*B.catalog(case, n_grid=64))
    per_degree = getattr(be, field)
    for k in range(5):
        space = C.degree_space(be, k)
        mats = [per_degree[j] for (_, j) in space.blocks]
        term = C._block_diagonal_term(mats)
        formula = sp.block_diag(mats).tocsr()
        assert type(term) is sp.csr_matrix
        assert np.array_equal(term.indptr, formula.indptr)
        assert _bitwise_equal(term.sorted_indices(), formula)
        offsets = np.cumsum([0] + [m.shape[1] for m in mats[:-1]])
        assert np.array_equal(term.indices, np.concatenate(
            [m.indices + off for m, off in zip(mats, offsets)]))


@pytest.mark.parametrize("case", B.CATALOG_CASES)
def test_de_rham_operator_is_the_holed_bmat_formula(case):
    be = B.build_backend(*B.catalog(case, n_grid=64))
    n = be.n
    mid = C._with_adjoint(be, 0.0, n)
    op, (down, _), _ = C._cartan(be, 0.0, n, mid)
    B_star = sp.csr_matrix(mid[1].matrix + down.matrix)
    formula = sp.bmat([[None, B_star], [op.matrix, None]], format="csr")
    assert _bitwise_equal(C.build_equivariant_de_rham(be).operator, formula)


@pytest.mark.parametrize("case", ["sphere_height", "torus_height", "sphere_bumpy"])
def test_expansion_residual_is_the_two_term_formula(case):
    """Summing s^2 |df|^2_j + s H_j per form degree before adding it to
    Delta_eq moves the defect by rounding only: within 4 eps of the
    formula with two full-size block diagonals (0.61 eps measured), and
    exactly 0.0 at s = 0, where both sides are Delta_eq bitwise."""
    be = B.build_backend(*B.catalog(case, n_grid=64))
    eps = np.finfo(float).eps
    for k in range(4):
        space = C.degree_space(be, k)
        delta0 = C.build_delta_eq(be, k).matrix
        mult, hess = ([per_degree[j] for (_, j) in space.blocks]
                      for per_degree in (be.mult_df2, be.cliff_hess))
        assert C.expansion_residual(be, 0.0, k) == 0.0
        for s in (1.0, 8.0, 32.0):
            rhs = delta0 + s * s * sp.csr_matrix(sp.block_diag(mult)) \
                + s * sp.csr_matrix(sp.block_diag(hess))
            formula = B._relative_defect(C.build_deformed(be, s, k)[2].matrix, rhs)
            assert abs(C.expansion_residual(be, s, k) - formula) <= 4 * eps, (k, s)


def test_identity_checks_make_no_coo_round_trip(monkeypatch):
    """expansion_residual and square_defect assemble every block grid on
    scipy's compressed path: no COO matrix is converted to CSR."""
    backends = [B.build_backend(*B.catalog(case, n_grid=256))
                for case in ("sphere_height", "torus_height")]
    for be in backends:
        be.mult_df2
    conversions = []
    for cls in (sp.coo_matrix, sp.coo_array):
        tocsr = cls.tocsr
        monkeypatch.setattr(cls, "tocsr", lambda self, *args, _tocsr=tocsr, **kw:
                            conversions.append(self.shape) or _tocsr(self, *args, **kw))
    for be in backends:
        for k in range(4):
            C.expansion_residual(be, 8.0, k)
        C.build_equivariant_de_rham(be).square_defect()
    assert conversions == []
