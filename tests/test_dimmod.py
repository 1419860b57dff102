"""Band-map semiring, induced module matrices, scale, and staged limit
comparisons."""

import itertools

import numpy as np
import pytest

import limitalg as la
from limitalg import dimmod
from limitalg.dimmod import (MonotoneMap, ScaleConstraint, SemiringElement,
                             StageModule, class_of_map, enumerate_monotone,
                             ModuleMapMatrix, in_scale, induced_map,
                             limit_presentation, matrix_injective,
                             matrix_product, semiring_one, semiring_zero,
                             tr_shape)
from limitalg.errors import (BandMismatch, CapacityExceeded, DepthUnavailable,
                             DimensionMismatch, NotTrBand, ShapeMismatch,
                             UsageError)

from conftest import assemble_band_map


def fib_system(stages=4):
    """Stage sizes follow consecutive Fibonacci pairs; every connector has
    the matrix [[1, 1], [1, 0]] over the one-band semiring."""
    f = [1, 1]
    while len(f) < stages + 2:
        f.append(f[-1] + f[-2])
    algs = [la.direct_sum_algebra(la.full_matrix_algebra(f[k + 1]),
                                  la.full_matrix_algebra(f[k]))
            for k in range(stages)]
    one = MonotoneMap.identity(1)
    conns = [assemble_band_map(algs[k], algs[k + 1],
                               [(0, 0, one), (1, 0, one), (0, 1, one)])
             for k in range(stages - 1)]
    return la.DirectSystem(tuple(algs), tuple(conns))


def random_semiring_element(rng, r, max_terms=3, max_coeff=3):
    maps = enumerate_monotone(r)
    terms = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        theta = maps[int(rng.integers(0, len(maps)))]
        terms[theta] = terms.get(theta, 0) + int(rng.integers(1, max_coeff))
    return SemiringElement(r, terms)


def test_monotone_counts():
    assert [len(enumerate_monotone(r)) for r in (1, 2, 3, 4, 5)] == \
        [1, 3, 10, 35, 126]
    for r in (1, 2, 3):
        maps = enumerate_monotone(r)
        assert len(set(maps)) == len(maps)
        assert MonotoneMap.identity(r) in maps
    with pytest.raises(CapacityExceeded):
        enumerate_monotone(9)


def test_monotone_map_validation():
    with pytest.raises(ValueError):
        MonotoneMap(2, (2, 1))
    with pytest.raises(ValueError):
        MonotoneMap(2, (1, 3))
    with pytest.raises(ValueError):
        MonotoneMap(2, (1,))
    theta = MonotoneMap(3, (1, 1, 3))
    assert theta(2) == 1
    assert theta.preimage_size(1) == 2
    assert theta.preimage_size(2) == 0
    assert not theta.is_identity
    sigma = MonotoneMap(3, (2, 3, 3))
    # self after other
    assert theta.compose(sigma).values == (1, 3, 3)
    assert sigma.compose(theta).values == (2, 2, 3)
    with pytest.raises(BandMismatch):
        theta.compose(MonotoneMap(2, (1, 2)))


def test_semiring_laws():
    rng = np.random.default_rng(103)
    for r in (1, 2, 3, 4):
        one = semiring_one(r)
        zero = semiring_zero(r)
        for _ in range(60):
            a = random_semiring_element(rng, r)
            b = random_semiring_element(rng, r)
            c = random_semiring_element(rng, r)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a * one == a
            assert one * a == a
            assert a + zero == a
            assert (a * zero).is_zero
            assert 2 * a == a + a
            assert a.scale(3) == a + a + a


def test_semiring_is_noncommutative():
    r = 2
    t1 = SemiringElement.single(MonotoneMap(r, (1, 1)))
    t2 = SemiringElement.single(MonotoneMap(r, (2, 2)))
    assert t1 * t2 != t2 * t1


def test_stage_module_arithmetic():
    r = 2
    x = StageModule(r, (semiring_one(r), semiring_zero(r)))
    y = StageModule(r, (semiring_one(r), semiring_one(r)))
    s = x + y
    assert s.entries[0].coeff(MonotoneMap.identity(r)) == 2
    assert StageModule.zero(r, 2) + x == x
    with pytest.raises(ShapeMismatch):
        x + StageModule.zero(r, 3)
    with pytest.raises(BandMismatch):
        x + StageModule.zero(3, 2)


def random_matrix(rng, r, rows, cols):
    return dimmod.ModuleMapMatrix(
        r, tuple(tuple(random_semiring_element(rng, r, max_terms=2)
                       for _ in range(cols)) for _ in range(rows)))


def test_matrix_action_functorial():
    rng = np.random.default_rng(107)
    for r in (1, 2, 3):
        for _ in range(25):
            m2 = random_matrix(rng, r, 3, 2)
            m1 = random_matrix(rng, r, 2, 3)
            x = StageModule(r, tuple(random_semiring_element(rng, r)
                                     for _ in range(2)))
            lhs = induced_map(matrix_product(m1, m2), x)
            rhs = induced_map(m1, induced_map(m2, x))
            assert lhs == rhs
            one, zero = semiring_one(r), semiring_zero(r)
            ident = ModuleMapMatrix(r, ((one, zero), (zero, one)))
            assert induced_map(ident, x) == x


def test_tr_shape_recognition():
    shape = tr_shape(la.tr_algebra(2, 2))
    assert shape.r == 2
    assert shape.width == 1
    assert shape.summands[0].size == 2
    both = tr_shape(la.direct_sum_algebra(la.tr_algebra(2, 2),
                                          la.tr_algebra(2, 3)))
    assert both.width == 2
    assert [s.size for s in both.summands] == [2, 3]
    assert tr_shape(la.full_matrix_algebra(3)).r == 1
    # diagonal algebra: two T_1 bands of size one
    assert tr_shape(la.diagonal_algebra(2)).width == 2


def test_tr_shape_rejections():
    loops = {(1, 1), (2, 2), (3, 3)}
    uneven = la.build_digraph_algebra(
        3, loops | {(1, 2), (2, 1), (1, 3), (2, 3)})
    with pytest.raises(NotTrBand):
        tr_shape(uneven)
    vee = la.build_digraph_algebra(3, loops | {(1, 2), (3, 2)})
    with pytest.raises(NotTrBand):
        tr_shape(vee)
    mixed = la.direct_sum_algebra(la.tr_algebra(2), la.full_matrix_algebra(2))
    with pytest.raises(NotTrBand):
        tr_shape(mixed)


def test_class_of_refinement():
    m = class_of_map(la.refinement_map(2, 1, 2))
    assert m.rows == 1 and m.cols == 1
    e = m.entries[0][0]
    assert e.terms() == ((MonotoneMap.identity(2), 2),)
    assert matrix_injective(m)


def test_class_of_map_matches_placements():
    rng = np.random.default_rng(109)
    for r in (2, 3):
        src = la.tr_algebra(r)
        tgt = la.direct_sum_algebra(la.tr_algebra(r, 3), la.tr_algebra(r, 2))
        maps = enumerate_monotone(r)
        for _ in range(20):
            placements = []
            for _ in range(int(rng.integers(1, 4))):
                placements.append((0, int(rng.integers(0, 2)),
                                   maps[int(rng.integers(0, len(maps)))]))
            try:
                phi = assemble_band_map(src, tgt, placements)
            except ValueError:
                continue
            m = class_of_map(phi)
            for c in range(2):
                want = {}
                for (_, cc, theta) in placements:
                    if cc == c:
                        want[theta] = want.get(theta, 0) + 1
                assert m.entries[c][0] == SemiringElement(r, want)


def test_class_of_map_functorial():
    rng = np.random.default_rng(113)
    r = 2
    a = la.tr_algebra(r)
    b = la.direct_sum_algebra(la.tr_algebra(r, 2), la.tr_algebra(r, 2))
    c = la.direct_sum_algebra(la.tr_algebra(r, 8), la.tr_algebra(r, 8))
    maps = enumerate_monotone(r)
    done = 0
    while done < 25:
        p1 = [(0, int(rng.integers(0, 2)),
               maps[int(rng.integers(0, len(maps)))])
              for _ in range(int(rng.integers(1, 3)))]
        p2 = [(int(rng.integers(0, 2)), int(rng.integers(0, 2)),
               maps[int(rng.integers(0, len(maps)))])
              for _ in range(int(rng.integers(1, 4)))]
        try:
            phi = assemble_band_map(a, b, p1)
            psi = assemble_band_map(b, c, p2)
        except ValueError:
            continue
        lhs = class_of_map(la.compose(psi, phi))
        rhs = matrix_product(class_of_map(psi), class_of_map(phi))
        assert lhs == rhs
        done += 1


def all_modules(r, width, max_coeff):
    """Every stage module with coefficients bounded by max_coeff."""
    maps = enumerate_monotone(r)
    per_entry = []
    for coeffs in itertools.product(range(max_coeff + 1), repeat=len(maps)):
        per_entry.append(SemiringElement(
            r, {m: c for m, c in zip(maps, coeffs) if c}))
    for combo in itertools.product(per_entry, repeat=width):
        yield StageModule(r, combo)


def test_in_scale_matches_realizability():
    # in_scale must agree with actually assembling a standard map: one slot
    # per band position of each placed copy, capacities from the class sizes
    for r, size in ((1, 2), (2, 2), (3, 2)):
        src = la.tr_algebra(r)
        tgt = la.tr_algebra(r, size)
        scale = ScaleConstraint(
            r, tuple(s.size for s in tr_shape(tgt).summands))
        for x in all_modules(r, 1, 2 if r < 3 else 1):
            want = in_scale(x, scale)
            placements = []
            for theta, coeff in x.entries[0].terms():
                placements.extend([(0, 0, theta)] * coeff)
            if not placements:
                assert want
                continue
            try:
                assemble_band_map(src, tgt, placements)
                got = True
            except ValueError:
                got = False
            assert want == got, (r, size, x.as_payload())


def test_in_scale_shape_checks():
    x = StageModule(2, (semiring_one(2),))
    with pytest.raises(BandMismatch):
        in_scale(x, ScaleConstraint(1, (2,)))
    with pytest.raises(DimensionMismatch):
        in_scale(x, ScaleConstraint(2, (2, 2)))


def test_matrix_injectivity_flags():
    one = MonotoneMap.identity(1)
    fib = dimmod.ModuleMapMatrix(1, (
        (SemiringElement.single(one), SemiringElement.single(one)),
        (SemiringElement.single(one), semiring_zero(1))))
    assert matrix_injective(fib)
    collapse = dimmod.ModuleMapMatrix(
        1, ((SemiringElement.single(one), SemiringElement.single(one)),))
    assert not matrix_injective(collapse)
    # r = 2: a doubled identity passes through, a lone non-identity does not
    two_id = dimmod.ModuleMapMatrix(
        2, ((SemiringElement.single(MonotoneMap.identity(2), 2),),))
    assert matrix_injective(two_id)
    fold = dimmod.ModuleMapMatrix(
        2, ((SemiringElement.single(MonotoneMap(2, (1, 1))),),))
    assert not matrix_injective(fold)


def test_fibonacci_presentation_golden():
    sys = fib_system(4)
    pres = limit_presentation(sys)
    assert pres.r == 1
    assert pres.stage_count() == 4
    assert all(pres.injective)
    one = MonotoneMap.identity(1)
    e = pres.element(0, (SemiringElement.single(one), semiring_zero(1)))

    def coeffs(mod):
        return tuple(x.coeff(one) for x in mod.entries)

    assert coeffs(pres.push(e, 1)) == (1, 1)
    assert coeffs(pres.push(e, 2)) == (2, 1)
    assert coeffs(pres.push(e, 3)) == (3, 2)
    with pytest.raises(UsageError):
        e2 = pres.element(1, (semiring_one(1), semiring_one(1)))
        pres.push(e2, 0)
    with pytest.raises(DepthUnavailable):
        pres.push(e, 9)


def test_doubling_and_triangular_presentations():
    one = MonotoneMap.identity(1)
    algs = [la.full_matrix_algebra(2 ** k) for k in range(3)]
    conns = [assemble_band_map(algs[k], algs[k + 1], [(0, 0, one), (0, 0, one)])
             for k in range(2)]
    pres = limit_presentation(la.DirectSystem(tuple(algs), tuple(conns)))
    e = pres.element(0, (SemiringElement.single(one),))
    assert pres.push(e, 2).entries[0].coeff(one) == 4
    assert all(pres.injective)

    tri_algs = [la.direct_sum_algebra(la.full_matrix_algebra(k + 1),
                                      la.full_matrix_algebra(1))
                for k in range(3)]
    tri_conns = [assemble_band_map(
        tri_algs[k], tri_algs[k + 1], [(0, 0, one), (1, 0, one), (1, 1, one)])
        for k in range(2)]
    tri = limit_presentation(la.DirectSystem(tuple(tri_algs),
                                             tuple(tri_conns)))
    assert all(tri.injective)
    e = tri.element(0, (semiring_zero(1), SemiringElement.single(one)))
    assert tuple(x.coeff(one) for x in tri.push(e, 2).entries) == (2, 1)


def test_equal_up_to_stage_verdicts():
    sys = fib_system(4)
    pres = limit_presentation(sys)
    one = MonotoneMap.identity(1)
    a = pres.element(0, (SemiringElement.single(one), semiring_zero(1)))
    b = pres.element(0, (semiring_zero(1), SemiringElement.single(one)))
    assert dimmod.equal_up_to_stage(a, a, 3) == dimmod.EQUAL
    assert dimmod.equal_up_to_stage(a, b, 0) == dimmod.DISTINCT
    assert dimmod.equal_up_to_stage(a, b, 3) == dimmod.DISTINCT

    # a collapsing connector downgrades the verdict until it is passed
    f2 = la.full_matrix_algebra(2)
    pair = la.direct_sum_algebra(la.full_matrix_algebra(1),
                                 la.full_matrix_algebra(1))
    merge = assemble_band_map(pair, f2, [(0, 0, one), (1, 0, one)])
    dbl = assemble_band_map(f2, la.full_matrix_algebra(4),
                            [(0, 0, one), (0, 0, one)])
    sys2 = la.DirectSystem((pair, f2, la.full_matrix_algebra(4)),
                           (merge, dbl))
    pres2 = limit_presentation(sys2)
    assert pres2.injective == (False, True)
    x = pres2.element(0, (SemiringElement.single(one), semiring_zero(1)))
    y = pres2.element(0, (semiring_zero(1), SemiringElement.single(one)))
    assert dimmod.equal_up_to_stage(x, y, 0) == dimmod.NOT_YET_DISTINGUISHABLE
    assert dimmod.equal_up_to_stage(x, y, 1) == dimmod.EQUAL
    with pytest.raises(UsageError):
        dimmod.equal_up_to_stage(a, x, 0)


def test_group_elements():
    r = 1
    one = MonotoneMap.identity(r)

    def mod(k):
        return StageModule(r, (SemiringElement.single(one, k)
                               if k else semiring_zero(r),))

    g = dimmod.GroupElement(mod(3), mod(1))
    assert g.plus == mod(2)
    assert g.minus == mod(0)
    h = dimmod.GroupElement(mod(6), mod(4))
    assert g == h
    assert g != dimmod.GroupElement(mod(1), mod(0))
    wide = dimmod.GroupElement(StageModule.zero(r, 2), StageModule.zero(r, 2))
    assert (g == wide) is False


def test_nonperiodic_final_stage_is_colimit():
    # with no connectors after the last stage, Distinct is sound there even
    # when earlier connectors collapse
    one = MonotoneMap.identity(1)
    pair = la.direct_sum_algebra(la.full_matrix_algebra(1),
                                 la.full_matrix_algebra(1))
    f2 = la.full_matrix_algebra(2)
    merge = assemble_band_map(pair, f2, [(0, 0, one), (1, 0, one)])
    pres = limit_presentation(la.DirectSystem((pair, f2), (merge,)))
    assert pres.injective_from(1)
    assert not pres.injective_from(0)
    x = pres.element(1, (SemiringElement.single(one),))
    y = pres.element(1, (SemiringElement.single(one, 2),))
    assert dimmod.equal_up_to_stage(x, y, 1) == dimmod.DISTINCT


def test_periodic_presentation():
    one = MonotoneMap.identity(1)
    f2 = la.full_matrix_algebra(2)
    endo = assemble_band_map(f2, f2, [(0, 0, one)])
    sys = la.DirectSystem((f2, f2), (endo,), periodic=True)
    pres = limit_presentation(sys)
    e = pres.element(0, (SemiringElement.single(one),))
    assert pres.push(e, 25).entries[0].coeff(one) == 1
    assert pres.shape(40).r == 1
    assert pres.injective_from(1)
