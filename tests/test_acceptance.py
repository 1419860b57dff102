"""Acceptance checklist: the eight headline guarantees at full scale.

Each test ends with one printed PASS line (visible under pytest -s) so a
run reads as a checklist; a failure surfaces as the matching pytest FAIL
row. Scales, tolerances and time budgets are part of the assertions.
"""

import itertools
import time

import numpy as np
import pytest

import limitalg as la
from limitalg import dimmod
from limitalg.dimmod import (MonotoneMap, SemiringElement, class_of_map,
                             enumerate_monotone, limit_presentation,
                             matrix_product, semiring_one, semiring_zero)
from limitalg.errors import TooFarApart

from conftest import (assemble_band_map, random_algebra,
                      random_block_hermitian, random_block_permutation,
                      random_monomial_unitary, random_standard_map,
                      uhf_system, unitary_exp)
from test_conjugacy import (random_projection_family, transported_family,
                            weighted_without_breaking)
from test_detect import rotated_specimen_angle
from test_dimmod import fib_system
from test_spectrum import refinement_tower


def _checkline(num, label, detail):
    print(f"[{num}/8] {label}: PASS ({detail})")


def test_a1_projection_transport_exact():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(500):
        a = random_algebra(rng, n_max=8)
        ps = random_projection_family(rng, a, max_projections=4)
        perm = random_block_permutation(rng, a)
        qs = transported_family(a, ps, perm)
        u = la.permutation_intertwiner(ps, qs, a)
        um = u.matrix()
        for p, q in zip(ps, qs):
            assert np.array_equal(um.conj().T @ p.matrix() @ um, q.matrix())
        for i in range(1, a.n + 1):
            assert a.block_index(u(i)) == a.block_index(i)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _checkline(1, "projection families transported exactly",
               f"500 instances, {elapsed:.2f}s")


def test_a2_witness_round_trips():
    rng = np.random.default_rng(102)
    for _ in range(200):
        src = random_algebra(rng, n_max=3)
        phi1 = random_standard_map(rng, source=src, copies=2)
        phi1, _ = la.strictify(phi1)
        v = random_monomial_unitary(rng, phi1.target)
        psi = la.conjugate_standard(phi1, v)
        w = la.standard_witness(phi1, psi)
        recovered = la.conjugate_standard(phi1, w)
        assert la.same_action(recovered, psi)  # residual 0, exact
        assert la.map_distance(la.to_numeric(recovered),
                               la.to_numeric(psi)) <= 1e-9

        phi2, _ = la.strictify(
            random_standard_map(rng, source=phi1.target, copies=2))
        theta = la.compose(phi2, phi1)
        crooked = weighted_without_breaking(rng, phi2, phi1)
        u, fixed = la.restandardize_triangle(theta, phi1, crooked)
        assert fixed.is_strict
        assert la.same_action(la.compose(fixed, phi1), theta)
        moved = la.conjugate_numeric(u.matrix(), la.to_numeric(crooked))
        assert la.map_distance(moved, la.to_numeric(fixed)) <= 1e-9
    _checkline(2, "witness and triangle round-trips", "200 twisted maps")


def test_a3_exact_intertwine_engine():
    from test_intertwine import twisted_refinement_diagram
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    for _ in range(3):
        d = twisted_refinement_diagram(rng, stages=5)
        out = la.exact_intertwine(d)
        assert out.report.exact
        assert all(row["residual"] == 0.0 for row in out.report.triangles)
        assert all(a.is_strict for a in out.alphas_hat)
        assert all(b.is_strict for b in out.betas_hat)
        check = la.verify_diagram(out.diagram)
        assert check.exact
        assert all(row["residual"] == 0.0 for row in check.triangles)
        again = la.exact_intertwine(out.diagram)
        for f, g in zip(out.alphas_hat + out.betas_hat,
                        again.alphas_hat + again.betas_hat):
            assert la.same_action(f, g)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _checkline(3, "exact intertwining over 5 stages",
               f"3 twisted diagrams, {elapsed:.2f}s")


def _place_map(src, tgt, thetas):
    """Standard map realizing band maps theta, first free slot per band."""
    free = {b: list(blk) for b, blk in enumerate(tgt.blocks)}
    pieces = []
    for th in thetas:
        iota = {p: free[th[p - 1] - 1].pop(0) for p in range(1, src.n + 1)}
        pieces.append(la.validate_multiplicity_one(iota, src, tgt))
    return la.assemble_regular(pieces, source=src, target=tgt)


def _band_usage(thetas, t):
    return [sum(1 for th in thetas for p in th if p == b)
            for b in range(1, t + 1)]


def test_a4_census_decomposition_sweep():
    checked = 0
    products = 0
    for r in (1, 2, 3):
        src = la.tr_algebra(r)
        for t in (1, 2, 3):
            thetas = [th for th in
                      itertools.product(range(1, t + 1), repeat=r)
                      if all(th[i] <= th[i + 1] for i in range(r - 1))]
            for m in (1, 2, 3):
                tgt = la.tr_algebra(t, m)
                singles = [th for th in thetas
                           if max(_band_usage([th], t)) <= m]
                max_size = (t * m) // r
                for size in range(1, max_size + 1):
                    for ms in itertools.combinations_with_replacement(
                            thetas, size):
                        if max(_band_usage(ms, t)) > m:
                            continue
                        phi = _place_map(src, tgt, ms)
                        num = la.to_numeric(phi)
                        census = la.summand_census(num)
                        assert census.residual_rank == 0
                        want = tuple(sorted(
                            p.index_map().sort_key()
                            for p in la.decompose_maximal(phi)))
                        assert census.multiset() == want
                        for th in singles:
                            one = _place_map(src, tgt, [th])
                            res = la.test_product(num, one.summands[0])
                            assert min(res.norm, abs(res.norm - 1.0)) <= 1e-9
                            cls = one.class_multiset()[0]
                            assert res.present == (cls in census.multiset())
                            products += 1
                        checked += 1
    _checkline(4, "census equals maximal decomposition",
               f"{checked} maps exhausted, {products} test products")


def test_a5_perturbation_threshold():
    rng = np.random.default_rng(105)
    src = la.tr_algebra(3)
    word = la.test_word(src, 0)
    assert word.length == 4
    c = la.threshold_constant(src)
    assert c == pytest.approx(1.0 / 5.0)
    tgt = la.tr_algebra(3, 2)
    phi = _place_map(src, tgt, [(1, 2, 3), (1, 2, 3)])
    num = la.to_numeric(phi)

    ok = 0
    for _ in range(200):
        h = random_block_hermitian(rng, tgt)
        eps = float(rng.uniform(0.02, 0.12))
        moved = la.conjugate_numeric(unitary_exp(h, eps), num)
        while la.map_distance(num, moved) >= c:
            eps /= 2.0
            moved = la.conjugate_numeric(unitary_exp(h, eps), num)
        u = la.close_conjugacy(num, moved)
        back = la.conjugate_numeric(u.matrix(), num)
        if la.map_distance(back, moved) <= 1e-9:
            ok += 1
    assert ok >= 198  # at least 99 percent

    far = 0
    for _ in range(40):
        h = random_block_hermitian(rng, tgt)
        eps = float(rng.uniform(1.0, 2.8))
        moved = la.conjugate_numeric(unitary_exp(h, eps), num)
        tries = 0
        while la.map_distance(num, moved) < c and tries < 20:
            eps *= 1.5
            moved = la.conjugate_numeric(unitary_exp(h, eps), num)
            tries += 1
        if la.map_distance(num, moved) < c:
            continue
        try:
            u = la.close_conjugacy(num, moved)
        except TooFarApart as err:
            assert err.data["distance"] >= err.data["bound"]
            far += 1
        else:
            # a returned witness is never allowed to be wrong
            back = la.conjugate_numeric(u.matrix(), num)
            assert la.map_distance(back, moved) <= 1e-9
    assert far >= 30
    _checkline(5, "perturbations under the 1/5 word bound",
               f"{ok}/200 recovered, {far} gated above threshold")


def test_a6_spectrum_invariants():
    s2 = uhf_system(2, 2)
    s3 = uhf_system(3, 2)
    assert len(la.path_space(s2, 2)) == 4
    assert len(la.path_space(s3, 2)) == 9
    cmp = la.relation_isomorphic_at_depth(s2, s3, 2)
    assert cmp.verdict == "distinguished"
    assert "path_count" in cmp.mismatched

    tower = refinement_tower(2)
    rel = la.cylinder_relation(tower, 1)
    pairs = {(x[0], y[0]) for (x, y) in rel.pair_set()}
    assert pairs == {(1, 1), (2, 2), (1, 2)}

    base = refinement_tower(3)
    plain = la.cylinder_relation(base, 3)
    rng = np.random.default_rng(106)
    for _ in range(50):
        conns = []
        for conn in base.connectors:
            pieces = []
            for s in conn.summands:
                phases = {i: np.exp(2j * np.pi * rng.random())
                          for i in s.domain()}
                pieces.append(la.validate_multiplicity_one(
                    s.iota, conn.source, conn.target, phases=phases))
            conns.append(la.assemble_regular(pieces))
        phased = la.DirectSystem(base.stages, tuple(conns))
        rel = la.cylinder_relation(phased, 3)
        assert rel.pair_set() == plain.pair_set()
        assert rel.statistics() == plain.statistics()
    _checkline(6, "spectra distinguish and ignore phases",
               "4 vs 9 paths at depth 2, 50 phased systems")


def _connector_matrix(conn):
    """Classical multiplicity matrix, counted straight off the summands."""
    src, tgt = conn.source, conn.target
    m = np.zeros((len(tgt.cstar_classes), len(src.cstar_classes)), dtype=int)
    for p in la.decompose_maximal(conn):
        i = min(p.domain())
        m[tgt.class_of_block(tgt.block_index(p(i))),
          src.class_of_block(src.block_index(i))] += 1
    return m


def _element_from_vector(pres, vec):
    one = MonotoneMap.identity(1)
    return pres.element(0, tuple(
        SemiringElement(1, {one: int(v)} if v else {}) for v in vec))


def test_a7_dimension_module():
    assert tuple(len(enumerate_monotone(r)) for r in range(1, 6)) == \
        (1, 3, 10, 35, 126)

    rng = np.random.default_rng(107)
    from test_dimmod import random_semiring_element
    for trial in range(1000):
        r = 1 + trial % 4
        a = random_semiring_element(rng, r)
        b = random_semiring_element(rng, r)
        cc = random_semiring_element(rng, r)
        one, zero = semiring_one(r), semiring_zero(r)
        assert a + b == b + a
        assert (a + b) + cc == a + (b + cc)
        assert (a * b) * cc == a * (b * cc)
        assert a * (b + cc) == a * b + a * cc
        assert (a + b) * cc == a * cc + b * cc
        assert one * a == a and a * one == a
        assert zero + a == a
        assert zero * a == zero and a * zero == zero

    done = 0
    while done < 200:
        r = 1 + done % 3
        maps = enumerate_monotone(r)
        src = la.tr_algebra(r)
        mid = la.direct_sum_algebra(la.tr_algebra(r, 2), la.tr_algebra(r, 2))
        big = la.direct_sum_algebra(la.tr_algebra(r, 8), la.tr_algebra(r, 8))
        try:
            p1 = [(0, int(rng.integers(0, 2)),
                   maps[int(rng.integers(0, len(maps)))])
                  for _ in range(int(rng.integers(1, 3)))]
            p2 = [(int(rng.integers(0, 2)), int(rng.integers(0, 2)),
                   maps[int(rng.integers(0, len(maps)))])
                  for _ in range(int(rng.integers(1, 4)))]
            phi = assemble_band_map(src, mid, p1)
            psi = assemble_band_map(mid, big, p2)
        except ValueError:
            continue
        assert class_of_map(la.compose(psi, phi)) == matrix_product(
            class_of_map(psi), class_of_map(phi))
        done += 1

    one = MonotoneMap.identity(1)
    goldens = [fib_system(4)]
    algs = [la.full_matrix_algebra(2 ** k) for k in range(3)]
    goldens.append(la.DirectSystem(tuple(algs), tuple(
        assemble_band_map(algs[k], algs[k + 1], [(0, 0, one), (0, 0, one)])
        for k in range(2))))
    tri = [la.direct_sum_algebra(la.full_matrix_algebra(k + 1),
                                 la.full_matrix_algebra(1))
           for k in range(3)]
    goldens.append(la.DirectSystem(tuple(tri), tuple(
        assemble_band_map(tri[k], tri[k + 1],
                          [(0, 0, one), (1, 0, one), (1, 1, one)])
        for k in range(2))))
    for sysd in goldens:
        pres = limit_presentation(sysd)
        assert pres.r == 1
        mats = [_connector_matrix(c) for c in sysd.connectors]
        width = len(sysd.stages[0].cstar_classes)
        for _ in range(5):
            u = rng.integers(0, 4, size=width)
            v = rng.integers(0, 4, size=width)
            eu = _element_from_vector(pres, u)
            ev = _element_from_vector(pres, v)
            acc_u, acc_v = np.array(u), np.array(v)
            for k in range(1, len(sysd.stages)):
                acc_u = mats[k - 1] @ acc_u
                acc_v = mats[k - 1] @ acc_v
                got = tuple(x.coeff(one) for x in pres.push(eu, k).entries)
                assert got == tuple(int(x) for x in acc_u)
                verdict = dimmod.equal_up_to_stage(eu, ev, k)
                assert (verdict == dimmod.EQUAL) == bool(
                    np.array_equal(acc_u, acc_v))
    _checkline(7, "dimension-module arithmetic and reduction",
               "counts 1,3,10,35,126; 1000 triples; 200 pairs; 3 systems")


MONO3 = [th for th in itertools.product((1, 2, 3), repeat=3)
         if th[0] <= th[1] <= th[2]]


def _band_ranks(psi):
    tgt = psi.target
    out = np.zeros((3, 3), dtype=int)
    for p in (1, 2, 3):
        img = psi.images[(p, p)]
        for b, blk in enumerate(tgt.blocks):
            idx = [i - 1 for i in blk]
            out[p - 1, b] = np.linalg.matrix_rank(
                img[np.ix_(idx, idx)], tol=1e-6)
    return out


def _candidate_multisets(ranks):
    """All multisets of band maps whose unit counts hit the rank matrix."""
    found = []

    def rec(k, left, chosen):
        if not any(left.values()):
            found.append(tuple(chosen))
            return
        if k == len(MONO3):
            return
        th = MONO3[k]
        cap = min(left[(p, th[p - 1])] for p in (1, 2, 3))
        for count in range(cap + 1):
            nxt = dict(left)
            for p in (1, 2, 3):
                nxt[(p, th[p - 1])] -= count
            rec(k + 1, nxt, chosen + [th] * count)

    rec(0, {(p, b): int(ranks[p - 1, b - 1])
            for p in (1, 2, 3) for b in (1, 2, 3)}, [])
    return found


def _similar_blockdiag(psi, phi_std, rng):
    """Invertible block-diagonal X with X psi(a) = phi(a) X, if any.

    The nullspace of the intertwining equations is sampled for an
    invertible point; star-extendibility upgrades any such X to a
    block-diagonal unitary by the polar decomposition, so similarity
    here is exactly regular equivalence onto the candidate.
    """
    n = psi.target.n
    params = [(i - 1, j - 1) for blk in psi.target.blocks
              for i in blk for j in blk]
    phin = la.to_numeric(phi_std)
    rows = []
    for edge in sorted(psi.source.edges):
        block = np.zeros((n * n, len(params)), dtype=complex)
        for col, (i, j) in enumerate(params):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            block[:, col] = (e @ psi.images[edge]
                             - phin.images[edge] @ e).reshape(-1)
        rows.append(block)
    sysm = np.vstack(rows)
    _, svals, vh = np.linalg.svd(sysm)
    cutoff = max(sysm.shape) * float(svals[0] if svals.size else 1.0) * 1e-12
    null = vh[int(np.sum(svals > cutoff)):].conj()
    if null.shape[0] == 0:
        return False
    for _ in range(40):
        coef = rng.normal(size=null.shape[0]) \
            + 1j * rng.normal(size=null.shape[0])
        flat = coef @ null
        x = np.zeros((n, n), dtype=complex)
        for col, (i, j) in enumerate(params):
            x[i, j] = flat[col]
        if np.linalg.matrix_rank(x, tol=1e-8) == n:
            worst = max(
                la.operator_norm(x @ psi.images[e] - phin.images[e] @ x)
                for e in psi.source.edges)
            if worst <= 1e-8 * max(1.0, la.operator_norm(x)):
                return True
    return False


def _oracle_regular(psi, seed):
    rng = np.random.default_rng(seed)
    src = la.tr_algebra(3)
    tgt = psi.target
    for cand in _candidate_multisets(_band_ranks(psi)):
        if max(_band_usage(cand, 3)) > len(tgt.blocks[0]):
            continue
        if _similar_blockdiag(psi, _place_map(src, tgt, cand), rng):
            return True
    return False


def test_a8_regularity_decision():
    rng = np.random.default_rng(108)
    src = la.tr_algebra(3)
    tgt = la.tr_algebra(3, 3)
    curated = []
    while len(curated) < 15:
        size = int(rng.integers(1, 4))
        picks = [MONO3[int(rng.integers(0, len(MONO3)))] for _ in range(size)]
        if max(_band_usage(picks, 3)) > 3:
            continue
        num = la.to_numeric(_place_map(src, tgt, picks))
        h = random_block_hermitian(rng, tgt)
        moved = la.conjugate_numeric(
            unitary_exp(h, float(rng.uniform(0.2, 1.2))), num)
        curated.append((moved, True))
    for angle in (np.pi / 4, np.pi / 6, np.pi / 3, 0.5, 1.1):
        curated.append((rotated_specimen_angle(angle), False))
    assert len(curated) == 20

    agreements = 0
    for k, (psi, constructed_regular) in enumerate(curated):
        oracle = _oracle_regular(psi, seed=1000 + k)
        assert oracle == constructed_regular
        cert = la.is_regular(psi, tol=1e-9)
        assert cert.regular == oracle
        if not constructed_regular:
            assert cert.reason == "no invertible block-diagonal intertwiner"
            assert cert.residual_rank == 0
        agreements += 1
    _checkline(8, "regularity agrees with the brute-force oracle",
               f"{agreements}/20, 5 non-regular specimens")
