"""Map layer: validation, decomposition, composition, numeric round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import limitalg as la
from limitalg import homs
from limitalg.errors import (BlockPartial, EdgeIncompatible, ImageOverlap,
                             NotInjective, NotInRange, NotStarConsistent,
                             ShapeMismatch)

from conftest import (EXACT_PHASES, random_algebra, random_monomial_unitary,
                      random_standard_map)


def test_validate_multiplicity_one_catches_non_injective():
    a = la.diagonal_algebra(2)
    b = la.diagonal_algebra(2)
    with pytest.raises(NotInjective):
        la.validate_multiplicity_one({1: 1, 2: 1}, a, b)


def test_validate_multiplicity_one_catches_missing_edge():
    a = la.tr_algebra(2)
    b = la.diagonal_algebra(2)
    with pytest.raises(EdgeIncompatible):
        la.validate_multiplicity_one({1: 1, 2: 2}, a, b)


def test_validate_multiplicity_one_catches_partial_block():
    a = la.full_matrix_algebra(2)
    b = la.full_matrix_algebra(2)
    with pytest.raises(BlockPartial):
        la.validate_multiplicity_one({1: 1}, a, b)


def test_assemble_rejects_overlapping_images():
    a = la.tr_algebra(2)
    b = la.tr_algebra(2, 2)
    s1 = la.validate_multiplicity_one({1: 1, 2: 3}, a, b)
    s2 = la.validate_multiplicity_one({1: 1, 2: 4}, a, b)
    with pytest.raises(ImageOverlap):
        la.assemble_regular([s1, s2])


def test_refinement_map_shape():
    phi = la.refinement_map(2, 1, 2)
    assert phi.source.n == 2 and phi.target.n == 4
    assert len(phi.summands) == 2
    # rows indexed by the two target bands, columns by source indices
    assert phi.rank_matrix().entries == ((2, 0), (0, 2))


def test_decompose_direct_sum_multiset():
    # spec example: direct sum of two classes decomposes into both
    a = la.tr_algebra(2)
    b = la.tr_algebra(2, 2)
    s1 = la.validate_multiplicity_one({1: 1, 2: 3}, a, b)
    s2 = la.validate_multiplicity_one({1: 2, 2: 4}, a, b)
    phi = la.assemble_regular([s1, s2])
    pieces = la.decompose_maximal(phi)
    assert len(pieces) == 2
    keys = sorted(p.index_map().sort_key() for p in pieces)
    assert keys == sorted([s1.index_map().sort_key(),
                           s2.index_map().sort_key()])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_decompose_invariant_under_target_monomial(seed):
    rng = np.random.default_rng(seed)
    phi = random_standard_map(rng, n_max=4)
    u = random_monomial_unitary(rng, phi.target)
    moved = la.conjugate_standard(phi, u)
    assert phi.class_multiset() == moved.class_multiset()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_compose_class_multiset_is_pairwise_composition(seed):
    rng = np.random.default_rng(seed)
    src = random_algebra(rng, n_max=3)
    phi = random_standard_map(rng, source=src, copies=2)
    psi = random_standard_map(rng, source=phi.target, copies=2)
    comp = la.compose(psi, phi)
    lhs = sorted(comp.class_multiset())
    pairs = []
    for p in la.decompose_maximal(phi):
        for q in la.decompose_maximal(psi):
            piece = la.compose(
                la.assemble_regular([q], source=psi.source, target=psi.target),
                la.assemble_regular([p], source=phi.source, target=phi.target))
            pairs.extend(piece.class_multiset())
    assert lhs == sorted(pairs)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_to_numeric_round_trip_zero_residual(seed):
    rng = np.random.default_rng(seed)
    phi = random_standard_map(rng, n_max=4)
    num = la.to_numeric(phi)
    # strict maps validate at tolerance 0; weighted ones carry a float fuzz
    tol = 0.0 if phi.is_strict else num.tolerance
    again = la.validate_numeric(dict(num.images), phi.source, phi.target,
                                tol=tol)
    assert la.map_distance(num, again) == 0.0


def test_validate_numeric_rejects_star_inconsistency():
    a = la.full_matrix_algebra(2)
    images = {(1, 1): np.diag([1.0, 0.0]), (2, 2): np.diag([0.0, 1.0]),
              (1, 2): np.array([[0, 1], [0, 0]], dtype=complex),
              (2, 1): np.array([[0, 0], [0.5, 0]], dtype=complex)}
    with pytest.raises(NotStarConsistent):
        la.validate_numeric(images, a, a, tol=1e-9)


def test_validate_numeric_prefilter_falls_through_to_spectral_norm():
    # off-support part X: equal entries d in distinct rows and columns, so
    # ||X||_2 = d <= tol < 2d = ||X||_F; the product residual is X + d^2 I
    d, tol = 0.1, 0.12
    x = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
        x[i, j] = d
    assert np.linalg.norm(x) > tol >= la.operator_norm(x)
    src, tgt = la.diagonal_algebra(1), la.diagonal_algebra(4)
    la.validate_numeric({(1, 1): np.eye(4) + x}, src, tgt, tol=tol)
    # just over tol in operator norm, still under 2 tol in Frobenius norm
    x[2, 3] = x[3, 2] = 0.13
    with pytest.raises(NotInRange) as err:
        la.validate_numeric({(1, 1): np.eye(4) + x}, src, tgt, tol=tol)
    assert err.value.data["residual"] == la.operator_norm(x)


def test_validate_numeric_exact_map_needs_no_svd(monkeypatch):
    def no_svd(m):
        raise AssertionError("operator_norm called on a zero residual")

    phi = la.to_numeric(la.refinement_map(2, 2, 3))
    monkeypatch.setattr(homs, "operator_norm", no_svd)
    la.validate_numeric(dict(phi.images), phi.source, phi.target)


def test_validate_numeric_rejects_wrong_shape():
    a = la.diagonal_algebra(1)
    with pytest.raises(ShapeMismatch):
        la.validate_numeric({(1, 1): np.eye(3)}, a, la.diagonal_algebra(2))


def test_weighted_summand_unit_coeffs():
    a = la.tr_algebra(2)
    s = la.validate_multiplicity_one({1: 1, 2: 2}, a, a,
                                     phases={1: 1j, 2: -1})
    phi = la.assemble_regular([s])
    ((i, j, coeff),) = phi.unit_image(1, 2)
    assert (i, j) == (1, 2)
    assert coeff == 1j * np.conj(-1)


def test_strictify_produces_trivial_weights():
    rng = np.random.default_rng(7)
    phi = random_standard_map(rng, n_max=4, exact=False)
    strict, d = la.strictify(phi)
    assert strict.is_strict
    # Ad(d) strict == phi
    back = la.conjugate_standard(strict, d.adjoint())
    assert la.same_action(back, phi)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_conjugate_standard_matches_numeric_conjugation(seed):
    rng = np.random.default_rng(seed)
    phi = random_standard_map(rng, n_max=4)
    u = random_monomial_unitary(rng, phi.target, exact=False)
    moved = la.conjugate_standard(phi, u)
    lhs = la.to_numeric(moved)
    rhs = la.conjugate_numeric(u.matrix(), la.to_numeric(phi))
    assert la.map_distance(lhs, rhs) <= 1e-12


def test_apply_to_unitary_transports_monomials():
    phi = la.refinement_map(2, 1, 2)
    src = phi.source
    v = la.StandardPartialIsometry(src, {1: 1, 2: 2}, {1: 1j, 2: -1j})
    out = la.apply_to_unitary(phi, v)
    # phi(v) + (1 - phi(1)) as matrices
    expect = la.to_numeric(phi).apply(v.matrix()) + (
        np.eye(phi.target.n) - la.to_numeric(phi).image_of_one())
    assert np.allclose(out.matrix(), expect)
    assert out.is_unitary


def test_map_distance_mixed_forms():
    phi = la.refinement_map(2, 1, 2)
    assert la.map_distance(phi, la.to_numeric(phi)) == 0.0


def test_direct_sum_of_maps():
    # common-source sum: phi + psi acts A -> B1 (+) B2
    a = la.tr_algebra(2)
    phi = la.identity_map(a)
    both = la.direct_sum(phi, phi)
    assert both.source.n == 2 and both.target.n == 4
    assert len(la.decompose_maximal(both)) == 2


def test_unitary_factor_algebra():
    a = la.full_matrix_algebra(3)
    rng = np.random.default_rng(3)
    u1 = random_monomial_unitary(rng, a)
    u2 = random_monomial_unitary(rng, a)
    w = la.Unitary(3, [u1, u2])
    assert np.allclose(w.matrix(), u1.matrix() @ u2.matrix())
    assert np.allclose(w.adjoint().matrix(), w.matrix().conj().T)
    assert w.compact().is_monomial
    assert np.allclose(w.compact().matrix(), w.matrix())


def test_unitary_then_ad_combinatorial_vs_dense():
    rng = np.random.default_rng(11)
    phi = random_standard_map(rng, n_max=4)
    u = random_monomial_unitary(rng, phi.target)
    w = la.Unitary(phi.target.n, [u])
    moved = w.then_ad(phi)
    assert isinstance(moved, la.StandardRegularMap)
    dense = la.conjugate_numeric(w.matrix(), la.to_numeric(phi))
    assert la.map_distance(la.to_numeric(moved), dense) <= 1e-12
