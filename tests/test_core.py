"""Digraph algebra structure: blocks, classes, reduced digraph, projections."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import limitalg as la
from limitalg import core
from limitalg.core import rational_rank
from limitalg.errors import (NotReflexive, NotTransitive, NotOrthogonal)

from conftest import random_algebra


def test_rejects_non_reflexive():
    with pytest.raises(NotReflexive):
        la.build_digraph_algebra(2, {(1, 1), (1, 2)})


def test_rejects_non_transitive():
    with pytest.raises(NotTransitive):
        la.build_digraph_algebra(3, {(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)})


def _brute_force_relation_error(n, edges):
    """The least witness in scan order, by a plain triple loop."""
    for i in range(1, n + 1):
        if (i, i) not in edges:
            return NotReflexive(i)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if ((i, j) in edges and (j, k) in edges
                        and (i, k) not in edges):
                    return NotTransitive(i, j, k)
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_relation_check_matches_brute_force(data):
    n = data.draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    # mostly reflexive relations, so the transitivity scan is reached, and
    # some closed ones, so the check also passes
    kind = data.draw(st.sampled_from(["some", "reflexive", "closed"]))
    edges = set(data.draw(st.sets(st.sampled_from(pairs))))
    if kind != "some":
        edges |= {(i, i) for i in range(1, n + 1)}
    while kind == "closed":
        more = {(i, k) for (i, j) in edges for (jj, k) in edges if j == jj}
        if more <= edges:
            break
        edges |= more
    want = _brute_force_relation_error(n, edges)
    if want is None:
        assert la.build_digraph_algebra(n, edges).edges == frozenset(edges)
        return
    with pytest.raises(type(want)) as got:
        la.build_digraph_algebra(n, edges)
    assert got.value.args == want.args
    assert got.value.data == want.data


def test_tr3_structure():
    a = la.tr_algebra(3)
    assert a.n == 3
    assert a.blocks == ((1,), (2,), (3,))
    assert a.cstar_classes == ((1, 2, 3),)
    assert a.has_edge(1, 3) and not a.has_edge(3, 1)


def test_tr_with_size_bands():
    a = la.tr_algebra(2, 2)
    assert a.n == 4
    assert a.blocks == ((1, 2), (3, 4))
    # full upper-triangular between bands
    for i in (1, 2):
        for j in (3, 4):
            assert a.has_edge(i, j)
            assert not a.has_edge(j, i)


def test_full_matrix_is_single_block():
    a = la.full_matrix_algebra(4)
    assert a.blocks == ((1, 2, 3, 4),)
    assert a.cstar_classes == ((1, 2, 3, 4),)


def test_diagonal_algebra_blocks():
    a = la.diagonal_algebra(3)
    assert a.blocks == ((1,), (2,), (3,))
    assert len(a.cstar_classes) == 3


def test_direct_sum_offsets_classes():
    a = la.direct_sum_algebra(la.full_matrix_algebra(2), la.tr_algebra(2))
    assert a.n == 4
    assert a.cstar_classes == ((1, 2), (3, 4))
    assert a.has_edge(3, 4) and not a.has_edge(4, 3)
    assert not a.has_edge(1, 3)


def test_tensor_model_blowup():
    a = la.tensor_model(la.tr_algebra(2), 2)
    assert a.n == 4
    assert a.blocks == ((1, 2), (3, 4))
    assert a.has_edge(1, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_blocks_partition_and_reduced_consistency(seed):
    rng = np.random.default_rng(seed)
    a = random_algebra(rng, n_max=7)
    seen = set()
    for blk in a.blocks:
        for i in blk:
            assert i not in seen
            seen.add(i)
        # mutual edges inside a block
        for i in blk:
            for j in blk:
                assert a.has_edge(i, j)
    assert seen == set(range(1, a.n + 1))
    # blocks ordered by least element
    least = [blk[0] for blk in a.blocks]
    assert least == sorted(least)
    # reduced digraph edges match representative edges
    for r, blk in enumerate(a.blocks):
        for s, blk2 in enumerate(a.blocks):
            assert ((r, s) in a.reduced.edges) == a.has_edge(blk[0], blk2[0])
    # classes refine blocks
    for blk in a.blocks:
        cls = {a.class_index(i) for i in blk}
        assert len(cls) == 1


def quadratic_blocks(a):
    """Blocks as a scan of every pair (i, j), j >= i, finds them."""
    seen, blocks = set(), []
    for i in range(1, a.n + 1):
        if i not in seen:
            blk = tuple(j for j in range(i, a.n + 1)
                        if a.has_edge(i, j) and a.has_edge(j, i))
            seen.update(blk)
            blocks.append(blk)
    return tuple(blocks)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.1, 0.3, 0.6]))
def test_blocks_match_the_quadratic_scan(seed, bias):
    a = random_algebra(np.random.default_rng(seed), n_max=9, edge_bias=bias)
    assert a.blocks == quadratic_blocks(a)


def triple_scan_rows(a):
    """(class, triangle rows, cycle dimension) of each class with a cycle,
    the rows taken over every block triple x < y < z in lexicographic
    order, as cycle_flagged_classes used to build them."""
    out = []
    for c in range(len(a.cstar_classes)):
        verts = a.class_blocks(c)
        und = sorted({(min(r, s), max(r, s)) for (r, s) in a.reduced.edges
                      if r != s and r in verts and s in verts})
        if not und or len(und) - len(verts) + 1 <= 0:
            continue
        pos = {e: k for k, e in enumerate(und)}
        rows = []
        for x, y, z in itertools.combinations(sorted(verts), 3):
            if (x, y) in pos and (y, z) in pos and (x, z) in pos:
                row = [0] * len(und)
                row[pos[(x, y)]] += 1
                row[pos[(y, z)]] += 1
                row[pos[(x, z)]] -= 1
                rows.append(row)
        out.append((c, rows, len(und) - len(verts) + 1))
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.1, 0.3, 0.6]))
def test_triangles_from_edges_match_the_triple_scan(seed, bias):
    a = random_algebra(np.random.default_rng(seed), n_max=12, edge_bias=bias)
    with mock.patch.object(core, "rational_rank", wraps=rational_rank) as rank:
        flagged = la.cycle_flagged_classes(a)
    want = triple_scan_rows(a)
    assert [call.args[0] for call in rank.call_args_list] == [
        rows for _, rows, _ in want]
    assert flagged == tuple(c for c, rows, dim in want
                            if rational_rank(rows) < dim)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_bimodule_support_mask_idempotent(seed):
    rng = np.random.default_rng(seed)
    a = random_algebra(rng, n_max=6)
    mask = a.support_mask()
    assert mask.shape == (a.n, a.n)
    for i in range(1, a.n + 1):
        for j in range(1, a.n + 1):
            assert mask[i - 1, j - 1] == a.has_edge(i, j)


def test_support_mask_built_once_and_read_only():
    a = la.direct_sum_algebra(la.tr_algebra(2, 2), la.diagonal_algebra(1))
    mask = a.support_mask()
    assert {(int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(mask))} \
        == a.edges
    assert a.support_mask() is mask
    with pytest.raises(ValueError):
        mask[0, 4] = True
    assert not a.support_mask()[0, 4]


def test_envelope_units_built_once_and_read_only():
    v = la.build_digraph_algebra(3, [(1, 1), (2, 2), (3, 3), (1, 3), (2, 3)])
    a = la.direct_sum_algebra(v, la.tr_algebra(2), la.diagonal_algebra(1))
    units, row = a.envelope_units()
    assert a.envelope_units()[1] is row
    # sorted edges first, then the other units class by class, row-major
    derived = [(i, j) for cls in a.cstar_classes for i in cls for j in cls
               if (i, j) not in a.edges]
    assert units == tuple(sorted(a.edges) + derived)
    assert row.shape == (a.n + 1, a.n + 1)
    assert {(i, j): int(row[i, j]) for i, j in zip(*np.nonzero(row >= 0))} \
        == {u: k for k, u in enumerate(units)}
    with pytest.raises(ValueError):
        row[1, 1] = 0


def test_block_layout_built_once_and_read_only():
    v = la.build_digraph_algebra(3, [(1, 1), (2, 2), (3, 3), (1, 3), (2, 3)])
    a = la.direct_sum_algebra(la.tr_algebra(2, 2), v, la.diagonal_algebra(1))
    layout = a.block_layout()
    assert a.block_layout() is layout
    for part, groups in ((layout.blocks, a.blocks),
                         (layout.classes, a.cstar_classes)):
        assert [p.tolist() for p in part.parts] == [
            [i - 1 for i in g] for g in groups]
        assert part.of.tolist() == [
            next(p for p, g in enumerate(groups) if i in g)
            for i in range(1, a.n + 1)]
        for p, g in enumerate(groups):
            assert part.padded[p][part.real[p]].tolist() == [i - 1 for i in g]
            assert part.indicator[:, p].tolist() == [
                1.0 if i in g else 0.0 for i in range(1, a.n + 1)]
        assert not part.real.all()
        for arr in (part.of, part.padded, part.real, part.indicator,
                    *part.parts):
            with pytest.raises(ValueError):
                arr[0] = 0


def test_interned_algebras_and_failed_builds():
    import gc
    from limitalg import core
    edges = [(i, j) for i in range(1, 4) for j in range(i, 4)]
    a = la.build_digraph_algebra(3, edges)
    assert la.build_digraph_algebra(3, set(edges)) is a
    assert la.tr_algebra(3) is a
    # equality is identity: equal relations share the live instance
    assert a == la.build_digraph_algebra(3, reversed(edges))
    assert a != la.diagonal_algebra(3) and a != la.tr_algebra(2)
    key = (3, frozenset(edges))
    del a
    gc.collect()
    assert key not in core._INTERNED
    bad = [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)]
    errors = []
    for _ in range(2):
        with pytest.raises(NotTransitive) as err:
            la.build_digraph_algebra(3, bad)
        errors.append((err.value.args, err.value.data))
        assert (3, frozenset(bad)) not in core._INTERNED
    assert errors[0] == errors[1]
    assert errors[0][1] == {"i": 1, "j": 2, "k": 3}


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                max_size=5),
       st.integers(0, 4))
def test_rational_rank_matches_numpy(rows, cols):
    rows = [row[:cols] for row in rows]
    want = (np.linalg.matrix_rank(np.array(rows, dtype=float))
            if rows and cols else 0)
    assert rational_rank(rows) == want


def test_class_trees_span_each_class_breadth_first():
    # undirected 1-2, 1-3, 2-4: breadth first reaches 3 before 4
    a = la.build_digraph_algebra(
        5, [(i, i) for i in range(1, 6)] + [(2, 1), (3, 1), (2, 4)])
    assert a.cstar_classes == ((1, 2, 3, 4), (5,))
    assert a.class_trees == (((1, 2), (1, 3), (2, 4)), ())


def test_projection_matrix_and_orthogonality():
    a = la.tr_algebra(2, 2)
    p = la.projection(a, {1, 2})
    q = la.projection(a, {3, 4})
    pm, qm = p.matrix(), q.matrix()
    assert np.allclose(pm @ pm, pm)
    assert np.allclose(pm @ qm, 0)


def test_rank_profile_counts_block_overlaps():
    a = la.tr_algebra(2, 2)
    fam = [la.projection(a, {1, 3}), la.projection(a, {2})]
    prof = la.rank_profile(fam, a)
    assert prof.entries == ((1, 1), (1, 0))


def test_rank_profile_rejects_overlap():
    a = la.tr_algebra(2)
    with pytest.raises(NotOrthogonal):
        la.rank_profile([la.projection(a, {1}), la.projection(a, {1, 2})], a)


def test_partial_isometry_product_and_adjoint():
    a = la.full_matrix_algebra(3)
    v = la.StandardPartialIsometry(a, {1: 2, 2: 3, 3: 1},
                                   {1: 1j, 2: -1, 3: 1})
    w = v @ v
    m = v.matrix()
    assert np.allclose(w.matrix(), m @ m)
    assert np.allclose(v.adjoint().matrix(), m.conj().T)
    assert v.is_unitary
    # fourth-root phases stay exact Python complex values through adjoints,
    # signed zeros included
    u = v.adjoint()
    assert {type(p) for p in u.phases.values()} == {complex}
    back = u.adjoint()
    assert back.pairs == v.pairs and repr(back.phases) == repr(v.phases)


def test_partial_isometry_block_preserving_flag():
    a = la.tr_algebra(2)
    v = la.StandardPartialIsometry(a, {1: 1, 2: 2}, {1: 1, 2: -1})
    assert v.is_block_preserving()
    w = la.StandardPartialIsometry(a, {1: 2}, {1: 1})
    assert not w.is_block_preserving()


def test_permutation_unitary_requires_block_preservation():
    # T2 has two singleton blocks: the identity keeps both, a swap moves both
    a = la.tr_algebra(2)
    assert la.PermutationUnitary(a, (1, 2)).as_partial_isometry().pairs == (
        (1, 1), (2, 2))
    with pytest.raises(ValueError, match="perm moves 1 across blocks to 2"):
        la.PermutationUnitary(a, (2, 1))


def test_cycle_flagged_classes_on_four_cycle():
    # undirected 4-cycle of blocks: 1->2, 3->2, 3->4, 1->4 (plus loops)
    edges = {(i, i) for i in range(1, 5)}
    edges |= {(1, 2), (3, 2), (3, 4), (1, 4)}
    a = la.build_digraph_algebra(4, edges)
    assert la.cycle_flagged_classes(a) == (0,)
    # the triangle T_3 is spanned by its transitivity triangle
    assert la.cycle_flagged_classes(la.tr_algebra(3)) == ()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.tuples(st.integers(-2, 6), st.integers(-2, 6)),
                max_size=10))
def test_out_of_range_edge_named_is_the_least(n, edges):
    from limitalg import io as iolib
    # -1 and -2 share a hash, so the set's iteration order depends on the
    # order of insertion
    edges = [(0, 0), (0, 2), (-1, 1), (-2, 1)] + edges
    i, j = min(e for e in edges if not (1 <= e[0] <= n and 1 <= e[1] <= n))
    want = f"edge ({i},{j}) out of range 1..{n}"
    for rows in (edges, edges[::-1]):
        for build in (lambda: la.build_digraph_algebra(n, rows),
                      lambda: iolib.parse_algebra(
                          {"n": n, "edges": [list(e) for e in rows]}, "")):
            with pytest.raises(ValueError) as err:
                build()
            assert type(err.value) is ValueError and str(err.value) == want


def test_model_builders_make_python_int_edges():
    i64 = np.int64
    t2 = la.tr_algebra(2)
    # the NumPy-int builds run first, so the interned instances are theirs
    built = [la.tr_algebra(i64(2), i64(3)), la.full_matrix_algebra(i64(3)),
             la.diagonal_algebra(i64(4)), la.tensor_model(t2, i64(2)),
             la.direct_sum_algebra(t2, la.diagonal_algebra(i64(2)))]
    plain = [la.tr_algebra(2, 3), la.full_matrix_algebra(3),
             la.diagonal_algebra(4), la.tensor_model(t2, 2),
             la.direct_sum_algebra(t2, la.diagonal_algebra(2))]
    for a, b in zip(built, plain):
        assert a is b and type(a.n) is int
        assert all(type(i) is int and type(j) is int for i, j in a.edges)
    for bad in (lambda: la.tr_algebra(2.0), lambda: la.diagonal_algebra(2.5),
                lambda: la.tensor_model(t2, 1.0)):
        with pytest.raises(TypeError):
            bad()
