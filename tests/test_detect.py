"""Detection machinery: test words, test products, the census, the
regularity decision, and close-conjugacy witnesses."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import limitalg as la
from limitalg import detect, tolerance
from limitalg.errors import (CapacityExceeded, InconsistentRanks, NotRegular,
                             SourceTargetMismatch, TooFarApart)

from conftest import (random_algebra, random_block_hermitian,
                      random_monomial_unitary, random_standard_map,
                      unitary_exp)


def unit9(i, j):
    m = np.zeros((9, 9), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def rotated_specimen():
    """Star-extendible T3 map into a 3-band target that is not regular.

    The middle partial isometry splits its amplitude 1/sqrt(2) between two
    column bands; block-diagonal conjugation preserves those band-component
    norms, and a standard map only ever shows 0 or 1 there.
    """
    src = la.tr_algebra(3)
    tgt = la.tr_algebra(3, 3)
    s = 1.0 / np.sqrt(2.0)
    e12 = unit9(1, 3) + unit9(2, 4)
    e23 = s * (unit9(3, 5) + unit9(3, 7) + unit9(4, 5) - unit9(4, 7))
    images = {
        (1, 1): unit9(1, 1) + unit9(2, 2),
        (2, 2): unit9(3, 3) + unit9(4, 4),
        (3, 3): unit9(5, 5) + unit9(7, 7),
        (1, 2): e12,
        (2, 3): e23,
        (1, 3): e12 @ e23,
    }
    return la.validate_numeric(images, src, tgt)


def rotated_specimen_angle(t):
    """Middle isometry split across two column bands by the angle t."""
    src = la.tr_algebra(3)
    tgt = la.tr_algebra(3, 3)
    c, s = np.cos(t), np.sin(t)
    e12 = unit9(1, 3) + unit9(2, 4)
    e23 = (c * unit9(3, 5) + s * unit9(3, 7)
           + s * unit9(4, 5) - c * unit9(4, 7))
    images = {
        (1, 1): unit9(1, 1) + unit9(2, 2),
        (2, 2): unit9(3, 3) + unit9(4, 4),
        (3, 3): unit9(5, 5) + unit9(7, 7),
        (1, 2): e12,
        (2, 3): e23,
        (1, 3): e12 @ e23,
    }
    return la.validate_numeric(images, src, tgt)


def dft_specimen():
    """Three copies of T3 in tr_algebra(9) that no block-diagonal unitary
    makes standard.

    Copy c sends 1 -> c and 2 -> 3 + c, and sends 3 to the unit vector
    (e_7 + w^c e_8 + w^2c e_9) / sqrt(3), w = exp(2 pi i / 3). The three
    vectors are orthonormal, so the map is star-extendible, and each has
    weight 1/3 on every band, so each test product has singular value 1/3,
    a sixth below the 1/2 cut whatever the rounding.
    """
    src, tgt = la.tr_algebra(3), la.tr_algebra(9)
    w = np.exp(2j * np.pi / 3)
    frames = []
    for c in range(1, 4):
        f = np.zeros((9, 3), dtype=complex)
        f[c - 1, 0] = f[c + 2, 1] = 1.0
        f[6:, 2] = w ** (c * np.arange(3)) / np.sqrt(3)
        frames.append(f)
    images = {(i, j): sum(np.outer(f[:, i - 1], f[:, j - 1].conj())
                          for f in frames) for (i, j) in src.edges}
    return la.validate_numeric(images, src, tgt)


def test_word_golden_t3():
    a = la.tr_algebra(3)
    w = la.test_word(a, 0)
    assert w.tokens == ((1, 2, False), (2, 3, False),
                        (2, 3, True), (1, 2, True))
    assert w.length == 4
    assert w.threshold == pytest.approx(1.0 / 5.0)
    assert w.product_projection == 1
    assert w.component == (1, 2, 3)


def test_word_singleton():
    a = la.diagonal_algebra(3)
    w = la.test_word(a, 1)
    assert w.tokens == ((2, 2, False),)
    assert w.length == 1
    assert w.threshold == pytest.approx(0.5)


def recursive_word_steps(a, c):
    """The depth-first walk of test_word as a recursive function."""
    vset = set(a.cstar_classes[c])
    und = {i: {j for (x, j) in a.edges if x == i and j != i and j in vset}
           | {x for (x, j) in a.edges if j == i and x != i and x in vset}
           for i in vset}
    root = min(vset)
    seen, steps = {root}, []

    def visit(u):
        for v in sorted(und[u]):
            if v not in seen:
                seen.add(v)
                steps.append((u, v))
                visit(v)
                steps.append((v, u))

    visit(root)
    return steps


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_word_walk_matches_recursive_walk(seed):
    a = random_algebra(np.random.default_rng(seed), n_max=9)
    for c, cls in enumerate(a.cstar_classes):
        steps = recursive_word_steps(a, c)
        want = (tuple((u, v, False) if a.has_edge(u, v) else (v, u, True)
                      for u, v in steps) or ((cls[0], cls[0], False),))
        w = la.test_word(a, c)
        assert (w.tokens, w.component) == (want, cls)


def test_threshold_constant():
    assert la.threshold_constant(la.tr_algebra(3)) == pytest.approx(0.2)
    assert la.threshold_constant(la.diagonal_algebra(2)) == pytest.approx(0.5)
    # one band class of size 4: word length 6
    assert la.threshold_constant(la.tr_algebra(2, 2)) == pytest.approx(1 / 7)


def test_product_presence_and_multiplicity():
    phi = la.to_numeric(la.refinement_map(2, 1, 2))
    alpha = la.refinement_summand(2, 1, 2, 1)
    res = la.test_product(phi, alpha)
    assert res.present
    assert res.norm == pytest.approx(1.0)
    # both copies share the block map, so the rank counts them together
    assert res.per_class == ((0, pytest.approx(1.0), 2),)


def test_product_absence():
    src = la.tr_algebra(2)
    tgt = la.tr_algebra(3, 2)
    a = la.validate_multiplicity_one({1: 1, 2: 3}, src, tgt)
    b = la.validate_multiplicity_one({1: 2, 2: 5}, src, tgt)
    phi = la.to_numeric(la.assemble_regular([a, b]))
    absent = la.validate_multiplicity_one({1: 3, 2: 5}, src, tgt)
    res = la.test_product(phi, absent)
    assert not res.present
    assert res.norm == pytest.approx(0.0)


def test_product_algebra_mismatch():
    phi = la.to_numeric(la.refinement_map(2, 1, 2))
    alpha = la.refinement_summand(2, 1, 3, 1)
    with pytest.raises(SourceTargetMismatch):
        la.test_product(phi, alpha)


def test_census_matches_decomposition():
    rng = np.random.default_rng(41)
    for _ in range(30):
        phi = random_standard_map(rng, n_max=4)
        census = la.summand_census(la.to_numeric(phi))
        assert census.residual_rank == 0
        assert census.multiset() == phi.class_multiset()


def test_census_stable_under_dense_conjugation():
    rng = np.random.default_rng(43)
    for _ in range(15):
        phi = random_standard_map(rng, n_max=3)
        num = la.to_numeric(phi)
        h = random_block_hermitian(rng, phi.target)
        moved = la.conjugate_numeric(unitary_exp(h, 1.0), num)
        census = la.summand_census(moved)
        assert census.residual_rank == 0
        assert census.multiset() == phi.class_multiset()


def _dense_product(phi, word, bmap):
    """The interleaved product with dense n x n block projections."""
    eye = np.eye(phi.target.n)
    out = eye
    for (a, b, star) in word.tokens:
        m = phi.unit_image(a, b)
        m, right = (m.conj().T, a) if star else (m, b)
        idx = [i - 1 for i in
               phi.target.blocks[bmap[phi.source.block_index(right)]]]
        out = out @ m @ (eye[:, idx] @ eye[idx, :])
    return out


def _feasible_block_maps(src, tgt, c):
    """Every size-feasible, edge-preserving block map of class c."""
    rs = src.class_blocks(c)
    ss, ts = src.block_sizes(), tgt.block_sizes()
    for image in itertools.product(range(len(tgt.blocks)), repeat=len(rs)):
        bmap = dict(zip(rs, image))
        if any(ss[r] > ts[t] for r, t in bmap.items()):
            continue
        if all((bmap[r1], bmap[r2]) in tgt.reduced.edges
               for r1 in rs for r2 in rs if (r1, r2) in src.reduced.edges):
            yield bmap


def _brute_force_census(phi):
    """Census scored densely on every feasible block map, no pruning."""
    src = phi.source
    found = {}
    for c in range(len(src.cstar_classes)):
        word = la.test_word(src, c)
        for bmap in _feasible_block_maps(src, phi.target, c):
            sv = np.linalg.svd(_dense_product(phi, word, bmap),
                               compute_uv=False)
            rank = int(np.count_nonzero(sv > 0.5))
            if rank:
                found[la.IndexMap(tuple(bmap.items()))] = rank
    ranks = phi.rank_matrix().entries
    residual = 0
    for r in range(len(phi.target.blocks)):
        for j in range(1, src.n + 1):
            left = ranks[r][j - 1] - sum(
                mult for im, mult in found.items()
                if dict(im.pairs).get(src.block_index(j)) == r)
            if left < 0:
                raise InconsistentRanks(r, j, left)
            residual += left
    return la.SummandCensus(found, residual, sum(map(sum, ranks)))


def _class_alpha(src, tgt, bmap):
    """A multiplicity-one map with block map bmap, or None if none fits."""
    free = {t: list(tgt.blocks[t]) for t in bmap.values()}
    iota = {}
    for r, t in sorted(bmap.items()):
        for i in src.blocks[r]:
            if not free[t]:
                return None
            iota[i] = free[t].pop(0)
    return la.validate_multiplicity_one(iota, src, tgt)


def _check_against_oracle(phi):
    try:
        want = _brute_force_census(phi)
    except InconsistentRanks as exc:
        with pytest.raises(InconsistentRanks) as got:
            la.summand_census(phi)
        assert got.value.args == exc.args and got.value.data == exc.data
        assert all(type(x) is int for x in got.value.data.values())
    else:
        got = la.summand_census(phi)
        assert got == want and got.total_rank == want.total_rank
        assert type(got.residual_rank) is type(got.total_rank) is int
    src, tgt = phi.source, phi.target
    for c in range(len(src.cstar_classes)):
        word = la.test_word(src, c)
        for bmap in _feasible_block_maps(src, tgt, c):
            alpha = _class_alpha(src, tgt, bmap)
            if alpha is None:
                continue
            sv = np.linalg.svd(_dense_product(phi, word, bmap),
                               compute_uv=False)
            ((cls, norm, rank),) = la.test_product(phi, alpha).per_class
            assert cls == c
            assert abs(norm - sv[0]) <= 1e-12 * max(1.0, sv[0])
            assert rank == int(np.count_nonzero(sv > 0.5))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_census_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    phi = random_standard_map(rng, n_max=4, pad=int(rng.integers(0, 3)))
    num = la.to_numeric(phi)
    _check_against_oracle(num)
    h = random_block_hermitian(rng, phi.target)
    _check_against_oracle(la.conjugate_numeric(unitary_exp(h, 1.0), num))


def test_census_oracle_on_rotated_specimen_plus_summand():
    rot = rotated_specimen()
    src = rot.source
    tgt = la.direct_sum_algebra(rot.target, la.tr_algebra(3))
    images = {}
    for key, m in rot.images.items():
        big = np.zeros((tgt.n, tgt.n), dtype=complex)
        big[:9, :9] = m
        big[9 + key[0] - 1, 9 + key[1] - 1] = 1.0
        images[key] = big
    phi = la.validate_numeric(images, src, tgt)
    census = la.summand_census(phi)
    assert census.residual_rank == 6 and len(census.multiset()) == 1
    _check_against_oracle(phi)


def test_census_oracle_at_loose_tolerance():
    rng = np.random.default_rng(50)
    phi = la.to_numeric(random_standard_map(rng, n_max=4, copies=2, pad=1))
    mask = phi.target.support_mask()
    images = {}
    for (i, j) in sorted(phi.images):
        if (j, i) in images:
            images[(i, j)] = images[(j, i)].conj().T
            continue
        noise = rng.normal(size=mask.shape) + 1j * rng.normal(size=mask.shape)
        if i == j:
            noise = noise + noise.conj().T
        images[(i, j)] = phi.images[(i, j)] + 0.01 * noise * mask
    loose = la.validate_numeric(images, phi.source, phi.target, tol=0.3)
    assert la.map_distance(loose, phi) > 1e-3
    _check_against_oracle(loose)


def test_census_oracle_on_a_scaled_summand():
    # the second copy is scaled by 0.8, so its test products have singular
    # values 0.8^L, between the 1/2 cut and 1: a bound cut too high shows
    src = la.direct_sum_algebra(la.tr_algebra(2), la.diagonal_algebra(1))
    tgt = la.direct_sum_algebra(src, src)
    phi = la.to_numeric(la.assemble_regular(
        [la.validate_multiplicity_one({i: q * 3 + i for i in range(1, 4)},
                                      src, tgt) for q in (0, 1)],
        source=src, target=tgt))
    d = np.sqrt([1.0] * 3 + [0.8] * 3)
    images = {k: d[:, None] * m * d[None, :] for k, m in phi.images.items()}
    scaled = la.validate_numeric(images, src, tgt, tol=0.45)
    census = la.summand_census(scaled)
    assert census.residual_rank == 0 and len(census.multiset()) == 4
    _check_against_oracle(scaled)


def _copies_map(r, copies, used):
    """T_r into copies x T_r, one identity summand in each copy of used."""
    src = la.tr_algebra(r)
    tgt = la.direct_sum_algebra(*[la.tr_algebra(r)] * copies)
    pieces = [la.validate_multiplicity_one(
        {i: q * r + i for i in range(1, r + 1)}, src, tgt) for q in used]
    return la.to_numeric(la.assemble_regular(pieces, source=src, target=tgt))


def _loop_allowed_targets(phi, word):
    """_allowed_targets as a loop over tokens and target blocks, kept as
    the oracle for the one-product version."""
    bi = phi.source.block_index
    mats = [detect._token_matrix(phi, tok) for tok in word.tokens]
    colsq = [np.sum(np.abs(m) ** 2, axis=0) for m in mats]
    fro = [math.sqrt(float(c.sum())) for c in colsq]
    blocks = [[i - 1 for i in blk] for blk in phi.target.blocks]
    allowed = {}
    for k, tok in enumerate(word.tokens):
        others = math.prod(fro[:k]) * math.prod(fro[k + 1:])
        keep = {t for t, cols in enumerate(blocks)
                if math.sqrt(float(colsq[k][cols].sum())) * others
                > detect._PRUNE_CUT}
        r = bi(detect._right_index(tok))
        allowed[r] = allowed[r] & keep if r in allowed else keep
    return {r: sorted(ts) for r, ts in allowed.items()}


def _census_fields(phi):
    try:
        census = la.summand_census(phi)
    except InconsistentRanks as exc:
        return "InconsistentRanks", exc.data
    return census.classes, census.residual_rank, census.total_rank


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.floats(0.2, 1.5))
def test_allowed_targets_match_the_block_loop(seed, scale):
    """Same allowed sets and census as the per-block loop, on maps into
    targets of several blocks, scaled so that the bound crosses the cut."""
    rng = np.random.default_rng(seed)
    phi = random_standard_map(rng, n_max=4, copies=int(rng.integers(2, 4)),
                              pad=int(rng.integers(0, 3)))
    h = random_block_hermitian(rng, phi.target)
    moved = la.conjugate_numeric(unitary_exp(h, 1.0), la.to_numeric(phi))
    num = la.NumericStarMap(phi.source, phi.target, moved.stack * scale,
                            moved.tolerance)
    for c in range(len(num.source.cstar_classes)):
        word = la.test_word(num.source, c)
        assert (detect._allowed_targets(num, word)
                == _loop_allowed_targets(num, word))
    got = _census_fields(num)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(detect, "_allowed_targets", _loop_allowed_targets)
        assert _census_fields(num) == got


def test_census_scores_only_candidates_above_the_bound(monkeypatch):
    phi = _copies_map(5, 6, [2])
    scored = []

    def counting(m):
        scored.append(m.shape)
        return norm_and_rank(m)

    norm_and_rank = detect._norm_and_rank
    monkeypatch.setattr(detect, "_norm_and_rank", counting)
    census = la.summand_census(phi)
    assert len(scored) == 1
    assert census.residual_rank == 0 and len(census.multiset()) == 1


def test_census_prunes_inside_the_backtracking(monkeypatch):
    monkeypatch.setattr(detect, "_CENSUS_CAP", 10)
    phi = _copies_map(6, 4, [0, 3])
    src, tgt = phi.source, phi.target
    everything = {r: range(len(tgt.blocks)) for r in range(len(src.blocks))}
    with pytest.raises(CapacityExceeded):
        detect._class_candidates(src, tgt, 0, everything)
    census = la.summand_census(phi)
    assert census.residual_rank == 0 and len(census.multiset()) == 2
    # twelve copies leave twelve block maps above the bound
    with pytest.raises(CapacityExceeded):
        la.summand_census(_copies_map(3, 12, range(12)))


def test_rotated_specimen_not_regular():
    phi = rotated_specimen()
    census = la.summand_census(phi)
    assert census.multiset() == ()
    assert census.residual_rank == 6
    cert = la.is_regular(phi)
    assert not cert.regular
    assert cert.residual_rank == 6
    assert cert.standard_form is None
    assert "unexplained" in cert.reason


def test_dft_specimen_not_regular():
    """Unexplained image rank with every test-product singular value at
    1/3; the rotated specimen reaches it only by the rounding of 1/sqrt(2)."""
    phi = dft_specimen()
    for c in range(1, 4):
        for d in range(7, 10):
            alpha = la.validate_multiplicity_one({1: c, 2: 3 + c, 3: d},
                                                 phi.source, phi.target)
            res = la.test_product(phi, alpha)
            assert res.norm == pytest.approx(1 / 3)
            assert res.present is False
    census = la.summand_census(phi)
    assert census.multiset() == ()
    assert census.residual_rank == census.total_rank == 9
    cert = la.is_regular(phi)
    assert not cert.regular
    assert cert.residual_rank == 9
    assert cert.standard_form is None
    assert cert.reason == "unexplained image rank"


def test_rotated_specimen_band_norms():
    # the invariant that kills regularity: band components of norm 1/sqrt(2)
    phi = rotated_specimen()
    tgt = phi.target
    m = phi.images[(2, 3)]
    p0 = la.projection(tgt, set(tgt.blocks[0])).matrix()
    q1 = la.projection(tgt, set(tgt.blocks[1])).matrix()
    q2 = la.projection(tgt, set(tgt.blocks[2])).matrix()
    for q in (q1, q2):
        comp = np.linalg.norm(p0 @ m @ q, 2)
        assert comp == pytest.approx(1 / np.sqrt(2))


def test_is_regular_certificate_round_trip():
    rng = np.random.default_rng(47)
    for _ in range(20):
        phi = random_standard_map(rng, n_max=3)
        num = la.to_numeric(phi)
        h = random_block_hermitian(rng, phi.target)
        moved = la.conjugate_numeric(unitary_exp(h, 0.7), num)
        cert = la.is_regular(moved)
        assert cert.regular
        assert cert.residual <= cert.tolerance
        assert cert.census.multiset() == phi.class_multiset()
        back = la.conjugate_numeric(cert.unitary.matrix(), moved)
        assert la.map_distance(back, la.to_numeric(cert.standard_form)) <= 1e-9


def test_is_regular_standard_input():
    phi = la.to_numeric(la.refinement_map(2, 2, 3))
    cert = la.is_regular(phi)
    assert cert.regular
    assert cert.residual <= 1e-12


def _solve(phi):
    """The census intertwiner of phi and the canonical form it aims at."""
    census = la.summand_census(phi)
    assert census.residual_rank == 0
    psi = detect._canonical_from_census(census, phi.source, phi.target)
    psi_n = la.to_numeric(psi)
    return detect._census_intertwiner(phi, census, psi, psi_n), psi_n


def _assert_block_unitary(u, target, tol):
    off = np.ones(u.shape, dtype=bool)
    for blk in target.blocks:
        idx = [b - 1 for b in blk]
        off[np.ix_(idx, idx)] = False
    assert not u[off].any()
    assert la.operator_norm(u.conj().T @ u - np.eye(len(u))) <= tol


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.floats(0.1, 1.5))
def test_intertwiner_unitary_oracle(seed, eps):
    rng = np.random.default_rng(seed)
    phi = random_standard_map(rng, n_max=3, exact=bool(seed % 2))
    # dropping summands leaves free slots inside the target blocks, where
    # the complement step has to find them under the twist
    keep = [s for s in phi.summands if rng.random() < 0.7]
    phi = la.assemble_regular(keep or phi.summands[:1], source=phi.source,
                              target=phi.target)
    h = random_block_hermitian(rng, phi.target)
    moved = la.conjugate_numeric(unitary_exp(h, eps), la.to_numeric(phi))
    u, psi_n = _solve(moved)
    tol = tolerance.map_tolerance(moved)
    _assert_block_unitary(u, phi.target, tol)
    assert la.map_distance(la.conjugate_numeric(u, moved), psi_n) <= tol


@settings(max_examples=10, deadline=None)
# at pi/4 the test products' singular values sit on the 1/2 cut, so the
# census there depends on the last bit of cos and sin
@given(st.floats(0.25, 1.3).filter(lambda t: abs(t - np.pi / 4) > 1e-6))
def test_rotated_specimens_fail_on_the_residual(angle):
    phi = rotated_specimen_angle(angle)
    u, _ = _solve(phi)
    _assert_block_unitary(u, phi.target, 1e-12)
    cert = la.is_regular(phi)
    assert not cert.regular
    assert cert.residual_rank == 0
    assert cert.residual > cert.tolerance
    assert cert.reason == "conjugation residual exceeds tolerance"
    assert cert.as_payload()["residual"] == cert.residual


def test_is_regular_certifies_large_refinements_in_small_memory():
    rng = np.random.default_rng(59)
    for args in ((3, 2, 2), (2, 4, 2), (3, 2, 3)):
        std = la.refinement_map(*args)
        h = random_block_hermitian(rng, std.target)
        phi = la.conjugate_numeric(unitary_exp(h, 0.9), la.to_numeric(std))
        tracemalloc.start()
        try:
            cert = la.is_regular(phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.regular
        assert cert.residual <= 1e-12
        assert cert.census.multiset() == std.class_multiset()
        assert peak <= 2 * 2 ** 20


def test_is_regular_draws_nothing_random(monkeypatch):
    rng = np.random.default_rng(61)
    phi = random_standard_map(rng, n_max=4)
    h = random_block_hermitian(rng, phi.target)
    moved = la.conjugate_numeric(unitary_exp(h, 0.8), la.to_numeric(phi))

    def refuse(*args, **kwargs):
        raise AssertionError("the regularity decision drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    first = la.is_regular(moved)
    second = la.is_regular(moved)
    assert first.regular and second.regular
    assert np.array_equal(first.unitary.matrix(), second.unitary.matrix())


def test_close_conjugacy_round_trip():
    rng = np.random.default_rng(53)
    for _ in range(15):
        phi = random_standard_map(rng, n_max=3)
        num = la.to_numeric(phi)
        h = random_block_hermitian(rng, phi.target)
        moved = la.conjugate_numeric(unitary_exp(h, 0.01), num)
        assert la.map_distance(num, moved) < la.threshold_constant(phi.source)
        u = la.close_conjugacy(num, moved)
        back = la.conjugate_numeric(u.matrix(), num)
        assert la.map_distance(back, moved) <= 1e-9


def test_close_conjugacy_distance_gate():
    a = la.refinement_summand(2, 1, 2, 1)
    b = la.refinement_summand(2, 1, 2, 2)
    phi1 = la.to_numeric(la.assemble_regular([a, b]))
    swap = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
        swap[i, j] = 1.0
    rot = np.eye(4, dtype=complex)
    c = np.cos(0.9)
    s = np.sin(0.9)
    rot[0, 0] = rot[1, 1] = c
    rot[0, 1] = rot[1, 0] = 1j * s
    phi2 = la.conjugate_numeric(rot, phi1)
    if la.map_distance(phi1, phi2) >= la.threshold_constant(phi1.source):
        with pytest.raises(TooFarApart) as err:
            la.close_conjugacy(phi1, phi2)
        assert err.value.data["distance"] >= err.value.data["bound"]
    else:
        pytest.fail("perturbation unexpectedly small")


def test_close_conjugacy_rejects_irregular():
    phi = rotated_specimen()
    with pytest.raises((NotRegular, TooFarApart)):
        la.close_conjugacy(phi, phi)
