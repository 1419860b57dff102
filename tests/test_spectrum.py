"""Finite-depth path spaces and cylinder relations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import limitalg as la
from limitalg.errors import DepthUnavailable

from conftest import random_monomial_unitary, random_standard_map, uhf_system


def identity_endo(a):
    return la.assemble_regular(
        [la.validate_multiplicity_one({i: i for i in range(1, a.n + 1)}, a, a)])


def refinement_tower(stages):
    algs = [la.tr_algebra(2, 2 ** k) for k in range(stages)]
    conns = [la.refinement_map(2, 2 ** k, 2) for k in range(stages - 1)]
    return la.DirectSystem(tuple(algs), tuple(conns))


def test_path_space_counts_and_order():
    sys2 = uhf_system(2, 3)
    assert len(la.path_space(sys2, 1)) == 2
    assert len(la.path_space(sys2, 2)) == 4
    paths = la.path_space(sys2, 3)
    assert len(paths) == 8
    tuples = [p.indices for p in paths]
    assert tuples == sorted(tuples)
    assert all(len(p) == 3 for p in paths)


def test_depth2_counts_distinguish_2_and_3():
    sys2 = uhf_system(2, 2)
    sys3 = uhf_system(3, 2)
    assert len(la.path_space(sys2, 2)) == 4
    assert len(la.path_space(sys3, 2)) == 9
    cmp = la.relation_isomorphic_at_depth(sys2, sys3, 2)
    assert cmp.verdict == "distinguished"
    assert "path_count" in cmp.mismatched
    assert "pair_count" in cmp.mismatched


def test_self_comparison_compatible():
    sys2 = uhf_system(2, 2)
    cmp = la.relation_isomorphic_at_depth(sys2, sys2, 2)
    assert cmp.verdict == "compatible"
    assert cmp.mismatched == ()


def test_t2_single_stage_relation():
    sys = la.DirectSystem((la.tr_algebra(2),), ())
    rel = la.cylinder_relation(sys, 1)
    assert rel.pair_set() == {((1,), (1,)), ((1,), (2,)), ((2,), (2,))}
    st = rel.statistics()
    assert st.path_count == 2
    assert st.pair_count == 3
    assert st.symmetric_count == 2
    assert st.antisymmetric_count == 1
    assert st.witness_levels == ((1, 3),)


def test_full_matrix_tower_saturates():
    sys2 = uhf_system(2, 2)
    rel = la.cylinder_relation(sys2, 2)
    st = rel.statistics()
    assert st.pair_count == 16
    assert st.symmetric_count == 16
    # common-summand pairs witness at level 1, crossed ones at level 2
    assert st.witness_levels == ((1, 8), (2, 8))


def test_refinement_tower_depth2_golden():
    sys = refinement_tower(2)
    rel = la.cylinder_relation(sys, 2)
    st = rel.statistics()
    assert st.path_count == 4
    assert st.pair_count == 12
    assert st.witness_levels == ((1, 6), (2, 6))
    assert st.symmetric_count == 8
    assert st.antisymmetric_count == 4
    assert st.out_degrees == (2, 2, 4, 4)
    assert st.in_degrees == (2, 2, 4, 4)
    assert ((1, 1), (2, 3)) in rel.pair_set()
    assert ((2, 3), (1, 1)) not in rel.pair_set()


def test_every_path_reflexively_related():
    for sys in (refinement_tower(3), uhf_system(2, 3), uhf_system(3, 2)):
        d = sys.available_stages()
        paths = la.path_space(sys, d)
        rel = la.cylinder_relation(sys, d)
        levels = {(x, y): lvl for (x, y, lvl, _) in rel.pairs}
        for p in paths:
            t = p.indices
            assert levels.get((t, t)) == 1
        assert rel.statistics().path_count == len(paths)


def test_relation_projection_consistency():
    # deeper relations project onto shallower ones when the connectors cover
    # every class, and early-witness pairs always truncate to related pairs
    for sys in (refinement_tower(3), uhf_system(2, 3)):
        for d in (1, 2):
            shallow = la.cylinder_relation(sys, d).pair_set()
            deep = la.cylinder_relation(sys, d + 1)
            truncated = {(x[:d], y[:d]) for (x, y) in deep.pair_set()}
            assert shallow <= truncated
            for (x, y, lvl, _) in deep.pairs:
                if lvl <= d:
                    assert (x[:d], y[:d]) in shallow


def test_phase_weights_do_not_change_relation():
    rng = np.random.default_rng(20260818)
    base = refinement_tower(3)
    plain = la.cylinder_relation(base, 3)
    for _ in range(20):
        conns = []
        for c in base.connectors:
            pieces = []
            for s in c.summands:
                phases = {i: np.exp(2j * np.pi * rng.random())
                          for i in s.domain()}
                pieces.append(la.validate_multiplicity_one(
                    s.iota, c.source, c.target, phases=phases))
            conns.append(la.assemble_regular(pieces))
        phased = la.DirectSystem(base.stages, tuple(conns))
        rel = la.cylinder_relation(phased, 3)
        assert rel.pair_set() == plain.pair_set()
        assert rel.statistics() == plain.statistics()


def test_depth_checks():
    sys = refinement_tower(2)
    with pytest.raises(ValueError):
        la.path_space(sys, 0)
    with pytest.raises(DepthUnavailable):
        la.path_space(sys, 3)
    with pytest.raises(DepthUnavailable):
        la.cylinder_relation(sys, 5)


def test_periodic_system_unbounded_depth():
    t2 = la.tr_algebra(2)
    sys = la.DirectSystem((t2, t2), (identity_endo(t2),), periodic=True)
    paths = la.path_space(sys, 10)
    assert [p.indices for p in paths] == [tuple([1] * 10), tuple([2] * 10)]
    rel = la.cylinder_relation(sys, 10)
    st = rel.statistics()
    assert st.pair_count == 3
    assert st.witness_levels == ((1, 3),)


# reference implementations: the per-pair loops the array code replaced

def reference_paths(sys, depth):
    paths = [(i,) for i in range(1, sys.stage_algebra(0).n + 1)]
    for l in range(depth - 1):
        succ = {}
        for s in sys.connector(l).summands:
            for i in s.domain():
                succ.setdefault(i, set()).add(s(i))
        paths = [p + (j,) for p in paths for j in sorted(succ.get(p[-1], ()))]
    return paths


def reference_pairs(sys, depth):
    paths = reference_paths(sys, depth)
    tables = [[s.iota for s in sys.connector(l).summands]
              for l in range(depth - 1)]

    def joint_step(l, a, b, a2, b2):
        return any(iota.get(a) == a2 and iota.get(b) == b2
                   for iota in tables[l])

    stages = [sys.stage_algebra(k) for k in range(depth)]
    pairs = []
    for x in paths:
        for y in paths:
            for k in range(depth):
                if not stages[k].has_edge(x[k], y[k]):
                    continue
                if all(joint_step(l, x[l], y[l], x[l + 1], y[l + 1])
                       for l in range(k, depth - 1)):
                    pairs.append((x, y, k + 1, (x[k], y[k])))
                    break
    return tuple(pairs)


def reference_statistics(pairs):
    pair_set = {(x, y) for (x, y, _, _) in pairs}
    outs, ins, hist, anti_out = {}, {}, {}, {}
    sym = 0
    for (x, y, lvl, _) in pairs:
        outs[x] = outs.get(x, 0) + 1
        ins[y] = ins.get(y, 0) + 1
        hist[lvl] = hist.get(lvl, 0) + 1
        if (y, x) in pair_set:
            sym += 1
        else:
            anti_out[x] = anti_out.get(x, 0) + 1
    return la.RelationStatistics(
        path_count=len({x for (x, _) in pair_set} | {y for (_, y) in pair_set}),
        pair_count=len(pairs),
        out_degrees=tuple(sorted(outs.values())),
        in_degrees=tuple(sorted(ins.values())),
        witness_levels=tuple(sorted(hist.items())),
        symmetric_count=sym,
        antisymmetric_count=len(pairs) - sym,
        antisym_out_degrees=tuple(sorted(anti_out.values())))


def reference_comparison(sys1, sys2, depth):
    s1 = reference_statistics(reference_pairs(sys1, depth))
    s2 = reference_statistics(reference_pairs(sys2, depth))
    mismatched = []
    if len(reference_paths(sys1, depth)) != len(reference_paths(sys2, depth)):
        mismatched.append("path_count")
    for name in ("pair_count", "out_degrees", "in_degrees", "witness_levels",
                 "symmetric_count", "antisymmetric_count",
                 "antisym_out_degrees"):
        if getattr(s1, name) != getattr(s2, name):
            mismatched.append(name)
    return la.DepthComparison("distinguished" if mismatched else "compatible",
                              depth, tuple(mismatched), s1, s2)


# random systems

def random_stage(rng):
    """T_r tensor M_size, a full or diagonal algebra, or a sum of two."""
    kind = int(rng.integers(4))
    if kind == 0:
        return la.tr_algebra(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    if kind == 1:
        return la.full_matrix_algebra(int(rng.integers(1, 3)))
    if kind == 2:
        return la.diagonal_algebra(int(rng.integers(1, 3)))
    return la.direct_sum_algebra(la.tr_algebra(2), la.diagonal_algebra(1))


def random_connector(rng, src):
    """A weighted, slot-scrambled connector out of src.

    Either an ampliation into src tensor M_c plus padding, or up to three
    summands into a sum of copies of src plus padding, each summand
    covering a random set of src's classes; uncovered classes end their
    paths and padding is never hit.
    """
    pad = int(rng.integers(2))
    if rng.random() < 0.5:
        return random_standard_map(rng, source=src,
                                   copies=int(rng.integers(1, 3)), pad=pad,
                                   exact=False)
    copies = int(rng.integers(1, 4))
    parts = [src] * copies + ([la.diagonal_algebra(pad)] if pad else [])
    tgt = la.direct_sum_algebra(*parts)
    pieces = []
    for c in range(copies):
        keep = [cls for cls in src.cstar_classes if rng.random() < 0.7]
        iota = {i: c * src.n + i for cls in keep for i in cls}
        if iota:
            phases = {i: np.exp(2j * np.pi * rng.random()) for i in iota}
            pieces.append(la.validate_multiplicity_one(iota, src, tgt,
                                                       phases=phases))
    phi = la.assemble_regular(pieces, source=src, target=tgt)
    return la.conjugate_standard(phi, random_monomial_unitary(rng, tgt,
                                                              exact=False))


def random_system(rng, stages):
    algs = [random_stage(rng)]
    conns = []
    for _ in range(stages - 1):
        conns.append(random_connector(rng, algs[-1]))
        algs.append(conns[-1].target)
    return la.DirectSystem(tuple(algs), tuple(conns))


def periodic_system(rng):
    """T2 + D2 with a scrambled endomorphism repeating forever: T2 onto
    itself and the two diagonal indices swapped."""
    a = la.direct_sum_algebra(la.tr_algebra(2), la.diagonal_algebra(2))
    pieces = [la.validate_multiplicity_one(iota, a, a)
              for iota in ({1: 1, 2: 2}, {3: 4}, {4: 3})]
    endo = la.conjugate_standard(la.assemble_regular(pieces),
                                 random_monomial_unitary(rng, a, exact=False))
    return la.DirectSystem((a, a), (endo,), periodic=True)


def assert_matches_reference(sys, depth):
    rel = la.cylinder_relation(sys, depth)
    want = reference_pairs(sys, depth)
    assert rel.pairs == want
    assert rel.pair_set() == {(x, y) for (x, y, _, _) in want}
    assert rel.statistics() == reference_statistics(want)
    paths = reference_paths(sys, depth)
    assert [p.indices for p in la.path_space(sys, depth)] == paths
    assert rel.paths.tolist() == [list(p) for p in paths]
    assert rel.as_payload() == {
        "depth": depth,
        "pairs": [{"x": list(x), "y": list(y), "level": lvl,
                   "unit": list(unit)} for (x, y, lvl, unit) in want]}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_relation_matches_reference_loops(seed):
    rng = np.random.default_rng(seed)
    stages = int(rng.integers(1, 4))
    sys1 = random_system(rng, stages)
    sys2 = random_system(rng, stages)
    for depth in range(1, stages + 1):
        assert_matches_reference(sys1, depth)
        got = la.relation_isomorphic_at_depth(sys1, sys2, depth)
        assert (got.as_payload()
                == reference_comparison(sys1, sys2, depth).as_payload())


def test_periodic_relation_matches_reference_loops():
    rng = np.random.default_rng(20260818)
    for _ in range(5):
        sys = periodic_system(rng)
        for depth in (1, 2, 5):
            assert_matches_reference(sys, depth)
        got = la.relation_isomorphic_at_depth(sys, uhf_system(2, 5), 5)
        assert (got.as_payload() == reference_comparison(
            sys, uhf_system(2, 5), 5).as_payload())
