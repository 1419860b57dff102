"""Shared randomized builders for the test suite.

All randomness is seeded per test; phases for exact-arithmetic paths are
drawn from {1, -1, i, -i} so float multiplication stays exact.
"""

import numpy as np
import pytest

import limitalg as la

EXACT_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)


def random_algebra(rng, n_max=8, edge_bias=0.3):
    """Random reflexive-transitive digraph algebra on up to n_max indices."""
    n = int(rng.integers(1, n_max + 1))
    edges = {(i, i) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.random() < edge_bias:
                edges.add((i, j))
    # transitive closure
    changed = True
    while changed:
        changed = False
        for (a, b) in list(edges):
            for c in range(1, n + 1):
                if (b, c) in edges and (a, c) not in edges:
                    edges.add((a, c))
                    changed = True
    return la.build_digraph_algebra(n, edges)


def random_block_permutation(rng, a):
    """Uniform block-preserving permutation of a's indices."""
    perm = list(range(a.n + 1))
    for blk in a.blocks:
        order = list(blk)
        rng.shuffle(order)
        for src, dst in zip(blk, order):
            perm[src] = dst
    return tuple(perm[1:])


def random_monomial_unitary(rng, a, exact=True):
    """Monomial unitary in a: block-preserving permutation plus phases."""
    perm = random_block_permutation(rng, a)
    pairs = {i: perm[i - 1] for i in range(1, a.n + 1)}
    if exact:
        phases = {i: EXACT_PHASES[rng.integers(0, 4)]
                  for i in range(1, a.n + 1)}
    else:
        phases = {i: np.exp(2j * np.pi * rng.random())
                  for i in range(1, a.n + 1)}
    return la.StandardPartialIsometry(a, pairs, phases)


def random_standard_map(rng, source=None, copies=None, pad=0, exact=True,
                        n_max=5):
    """Ampliation of a random algebra, slot-shuffled and phase-twisted.

    Returns a standard regular map whose target is source tensor M_copies
    (plus optional diagonal padding), conjugated by a random monomial
    unitary so summand slots and weights are scrambled.
    """
    if source is None:
        source = random_algebra(rng, n_max=n_max)
    if copies is None:
        copies = int(rng.integers(1, 4))
    phi = la.assemble_regular([la.ampliation(source, copies, c)
                               for c in range(1, copies + 1)])
    target = phi.target
    if pad:
        target = la.direct_sum_algebra(target, la.diagonal_algebra(pad))
        phi = la.assemble_regular(
            [la.validate_multiplicity_one(s.iota, source, target)
             for s in phi.summands], source=source, target=target)
    v = random_monomial_unitary(rng, target, exact=exact)
    return la.conjugate_standard(phi, v)


def random_block_hermitian(rng, a, norm=1.0):
    """Hermitian element of a's diagonal part, scaled to the given norm."""
    h = np.zeros((a.n, a.n), dtype=complex)
    for blk in a.blocks:
        k = len(blk)
        raw = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        sym = (raw + raw.conj().T) / 2
        idx = [b - 1 for b in blk]
        h[np.ix_(idx, idx)] = sym
    top = la.operator_norm(h)
    if top > 0:
        h = h * (norm / top)
    return h


def unitary_exp(h, eps):
    """exp(i * eps * h) for Hermitian h, by eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * eps * w)) @ v.conj().T


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


def matrix_connector(n, k):
    """Full matrix connector M_n -> M_{nk} with k coordinate summands."""
    src = la.full_matrix_algebra(n)
    return la.assemble_regular(
        [la.ampliation(src, k, c) for c in range(1, k + 1)])


def uhf_system(base, levels):
    """Tower M_base -> M_base^2 -> ... with all coordinate summands."""
    stages = [la.full_matrix_algebra(base ** (j + 1)) for j in range(levels)]
    conns = [matrix_connector(base ** (j + 1), base) for j in range(levels - 1)]
    return la.DirectSystem(tuple(stages), tuple(conns))


def fan_out_system(p):
    """D_1 -> D_p, the one index fanned out by p one-index summands: p
    paths of depth 2."""
    d1, dp = la.diagonal_algebra(1), la.diagonal_algebra(p)
    conn = la.assemble_regular([la.validate_multiplicity_one({1: s}, d1, dp)
                                for s in range(1, p + 1)])
    return la.DirectSystem((d1, dp), (conn,))


def assemble_band_map(src, tgt, placements):
    """Standard map between T_r-shaped algebras from (class, class, theta)
    placement triples, one per multiplicity-one copy.

    Each copy embeds source class b into target class c along the band map
    theta, taking the lowest free slots band by band. Raises ValueError when
    a band runs out of slots.
    """
    from limitalg import dimmod
    src_shape = dimmod.tr_shape(src)
    tgt_shape = dimmod.tr_shape(tgt)
    free = {}
    for c, summ in enumerate(tgt_shape.summands):
        for q, blk in enumerate(summ.blocks):
            free[(c, q + 1)] = list(tgt.blocks[blk])
    pieces = []
    for (b, c, theta) in placements:
        if not isinstance(theta, dimmod.MonotoneMap):
            theta = dimmod.MonotoneMap(src_shape.r, tuple(theta))
        iota = {}
        for p, blk in enumerate(src_shape.summands[b].blocks, start=1):
            band = free[(c, theta(p))]
            idx = list(src.blocks[blk])
            if len(band) < len(idx):
                raise ValueError(f"band {theta(p)} of class {c} is full")
            for i in idx:
                iota[i] = band.pop(0)
        pieces.append(la.validate_multiplicity_one(iota, src, tgt))
    return la.assemble_regular(pieces, source=src, target=tgt)
