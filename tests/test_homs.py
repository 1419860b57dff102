"""Map layer: validation, decomposition, composition, numeric round-trips."""

import ast
import itertools
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import limitalg as la
from limitalg import homs
from limitalg.errors import (BlockPartial, CapacityExceeded,
                             EdgeIncompatible, ImageOverlap, LimitalgError,
                             NotInjective, NotInRange, NotMultiplicative,
                             NotStarConsistent, ShapeMismatch)

import dict_reference as ref
from conftest import (EXACT_PHASES, random_algebra, random_block_permutation,
                      random_monomial_unitary, random_standard_map)
from dict_reference import reference_multiplicity_one


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


def _build_outcome(build):
    try:
        out = build()
    except (ValueError, LimitalgError) as e:
        return type(e).__name__, getattr(e, "data", str(e))
    if isinstance(out, tuple):
        iota, w = out
    else:
        iota, w = out.iota, {i: out.weight(i) for i in out.iota}
    return "ok", (iota, {i: 1.0 + 0.0j for i in iota} if w is None else w)


def _random_index_map(rng, kind):
    """(iota, source, target, phases) of the given kind: a valid map, or
    one that breaks an edge, covers a class partially, repeats a target
    index or leaves the range."""
    source = random_algebra(rng, n_max=7)
    m = int(rng.integers(1, 3))
    target = la.direct_sum_algebra(la.tensor_model(source, m),
                                   random_algebra(rng, n_max=6))
    perm = random_block_permutation(rng, target)
    c = int(rng.integers(1, m + 1))
    keep = [k for k in range(len(source.cstar_classes)) if rng.random() < 0.7]
    iota = {i: perm[(i - 1) * m + c - 1]
            for k in keep for i in source.cstar_classes[k]}
    if not iota:
        iota = {i: perm[(i - 1) * m + c - 1]
                for i in source.cstar_classes[0]}
    dom = sorted(iota)
    if kind == "edge":
        # move some images to random target indices and shuffle them over
        # the domain, so that none, one or many edges fail; a collision
        # falls back to a random injective map
        free = rng.permutation(np.arange(1, target.n + 1))
        for i in dom:
            if rng.random() < 0.6:
                iota[i] = int(free[i - 1])
        iota = dict(zip(dom, rng.permutation(list(iota.values())).tolist()))
        if len(set(iota.values())) < len(iota):
            iota = {i: int(free[k]) for k, i in enumerate(dom)}
    elif kind == "partial":
        del iota[dom[int(rng.integers(len(dom)))]]
    elif kind == "injective" and len(dom) > 1:
        a, b = rng.choice(dom, size=2, replace=False)
        iota[int(b)] = iota[int(a)]
    elif kind == "range":
        if rng.random() < 0.5:
            iota[source.n + int(rng.integers(0, 3))] = target.n + 5
        else:
            iota[dom[-1]] = target.n + int(rng.integers(1, 3))
    phases = None
    if rng.random() < 0.5:
        phases = {i: EXACT_PHASES[rng.integers(0, 4)] for i in iota}
        if rng.random() < 0.1:
            phases[dom[0]] = 1.5
    return iota, source, target, phases


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9),
       st.sampled_from(["valid", "edge", "partial", "injective", "range"]))
def test_block_validation_matches_per_edge_scan(seed, kind):
    iota, source, target, phases = _random_index_map(
        np.random.default_rng(seed), kind)
    got = _build_outcome(lambda: la.validate_multiplicity_one(
        iota, source, target, phases=phases))
    want = _build_outcome(lambda: reference_multiplicity_one(
        iota, source, target, phases=phases))
    assert got == want


def test_nan_weight_is_not_unimodular():
    d = la.diagonal_algebra(1)
    for nan in (float("nan"), complex(1.0, float("nan"))):
        with pytest.raises(ValueError, match="phase at 1 is not unimodular"):
            la.validate_multiplicity_one({1: 1}, d, d, phases={1: nan})
        with pytest.raises(ValueError, match="phase at 1 is not unimodular"):
            la.StandardPartialIsometry(d, {1: 1}, {1: nan})


def test_edge_incompatible_names_the_least_failing_pair():
    # every edge among the three bands fails; (1, 2) is the least
    a = la.tr_algebra(3)
    with pytest.raises(EdgeIncompatible) as err:
        la.validate_multiplicity_one({1: 3, 2: 2, 3: 1}, a, a)
    assert err.value.data == {"i": 1, "j": 2}


def test_index_map_is_built_once():
    s = la.refinement_summand(2, 2, 3, 2)
    assert s.index_map() is s.index_map()


def _bits(z):
    return float(z.real).hex(), float(z.imag).hex()


def _table(m):
    """The summands of a map or of its reference form, weights as bits."""
    rows = ref.of(m)[2] if isinstance(m, la.StandardRegularMap) else m[2]
    return [(iota, [_bits(1.0 + 0.0j if w is None else w[i]) for i in iota])
            for iota, w in rows]


def _monomial_bits(v):
    return [(i, j, _bits(v.phase(i))) for i, j in v.pairs]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_canonical_summands_match_per_class_restrictions(seed):
    rng = np.random.default_rng(seed)
    phi = random_standard_map(rng, pad=int(rng.integers(0, 2)),
                              exact=bool(rng.integers(0, 2)))
    if rng.random() < 0.5:
        phi = la.compose(random_standard_map(rng, source=phi.target), phi)
    got = la.decompose_maximal(phi)
    assert _table((None, None, [(p.iota, {i: p.weight(i) for i in p.iota})
                                for p in got])) == _table(
        (None, None, ref.canonical(ref.of(phi))))
    assert phi.class_multiset() == ref.class_multiset(ref.of(phi))
    assert [p.index_map().pairs for p in got] == list(phi.class_multiset())


def _result(build):
    """What build returns, made comparable bit by bit, or its error."""
    try:
        out = build()
    except (ValueError, la.errors.LimitalgError) as e:
        return type(e).__name__, str(e), getattr(e, "data", None)
    if isinstance(out, la.StandardPartialIsometry):
        return _monomial_bits(out)
    if isinstance(out, tuple) and isinstance(out[1], la.StandardPartialIsometry):
        return _table(out[0]), _monomial_bits(out[1])
    return _table(out)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_table_matches_the_dict_implementation(seed, exact):
    rng = np.random.default_rng(seed)
    phi = random_standard_map(rng, pad=int(rng.integers(0, 2)), exact=exact)
    psi = random_standard_map(rng, source=phi.target, copies=2, exact=exact)
    v = random_monomial_unitary(rng, phi.target, exact=exact)
    u = random_monomial_unitary(rng, phi.source, exact=exact)
    twin = random_standard_map(rng, source=phi.source, exact=exact)
    moved = la.conjugate_standard(phi, v)
    rp, rq, rm = ref.of(phi), ref.of(psi), ref.of(moved)
    partial = la.StandardPartialIsometry(phi.target, {1: 1})
    swap = la.StandardPartialIsometry(
        phi.source, {i: phi.source.n + 1 - i for i in range(1, phi.source.n + 1)})
    cases = [
        (lambda: la.compose(psi, phi), lambda: ref.compose(rq, rp)),
        (lambda: la.compose(phi, phi), lambda: ref.compose(rp, rp)),
        (lambda: la.conjugate_standard(phi, v), lambda: ref.conjugate(rp, v)),
        (lambda: la.conjugate_standard(phi, partial),
         lambda: ref.conjugate(rp, partial)),
        (lambda: la.direct_sum(phi, twin),
         lambda: ref.direct_sum(rp, ref.of(twin))),
        (lambda: la.direct_sum(phi, psi), lambda: ref.direct_sum(rp, rq)),
        (lambda: la.strictify(moved), lambda: ref.strictify(rm)),
        (lambda: la.apply_to_unitary(phi, u),
         lambda: ref.apply_to_unitary(rp, u)),
        (lambda: la.apply_to_unitary(phi, swap),
         lambda: ref.apply_to_unitary(rp, swap)),
        (lambda: la.standard_witness(phi, moved),
         lambda: ref.standard_witness(rp, rm)),
        (lambda: la.standard_witness(phi, twin),
         lambda: ref.standard_witness(rp, ref.of(twin))),
        (lambda: la.assemble_regular(phi.summands + moved.summands),
         lambda: ref.assemble(rp[2] + rm[2], phi.source, phi.target)),
    ]
    for new, old in cases:
        assert _result(new) == _result(old)
    for a, b in ((phi, moved), (moved, phi), (phi, twin),
                 (la.compose(psi, phi), la.compose(la.identity_map(psi.target),
                                                   la.compose(psi, phi)))):
        assert la.same_action(a, b) == ref.same_action(ref.of(a), ref.of(b))
    for m in (phi, moved, psi, la.compose(psi, phi)):
        num = la.to_numeric(m)
        assert num.stack.tobytes() == ref.to_numeric(ref.of(m)).tobytes()
        assert num.tolerance == (0.0 if m.is_strict else 1e-12)
        assert m.rank_matrix().entries == ref.rank_matrix(ref.of(m))
        assert m.class_multiset() == ref.class_multiset(ref.of(m))


# phases on the unit circle, signed zeros included
_SIGNED_PHASES = (complex(0.0, -1.0), complex(-0.0, 1.0), complex(-1.0, -0.0),
                  complex(1.0, -0.0), complex(-0.0, -1.0))


def _random_pairs(rng, a, kind):
    """(pairs, phases) of a random monomial over a: a block-preserving
    permutation, any permutation, or any injection of a random domain, by
    kind; pairs in shuffled order, arbitrary unimodular phases, keyed or as
    a sequence indexed by i."""
    n = a.n
    dom = (np.arange(1, n + 1) if kind != "partial"
           else np.flatnonzero(rng.random(n) < 0.6) + 1)
    img = (random_block_permutation(rng, a) if kind == "block"
           else rng.permutation(n)[:len(dom)] + 1)
    pairs = dict(zip(map(int, dom), map(int, img)))
    pairs = {i: pairs[i] for i in map(int, rng.permutation(dom))}
    pool = EXACT_PHASES + _SIGNED_PHASES
    ph = [pool[rng.integers(len(pool))] if rng.random() < 0.5
          else complex(np.exp(2j * np.pi * rng.random()))
          for _ in range(n + 1)]
    if rng.random() < 0.3:
        return pairs, ph
    return pairs, {i: ph[i] for i in pairs if rng.random() < 0.8}


def _outcome_of(build):
    """What build returns, as pair and phase bits or a table, or its error."""
    try:
        out = build()
    except (ValueError, LimitalgError) as e:
        return type(e).__name__, str(e), getattr(e, "data", None)
    if isinstance(out, la.StandardRegularMap):
        return _table(out)
    assert all(type(x) is complex for x in out.phases.values())
    return _monomial_bits(out), [_bits(x) for x in out.phases.values()]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_tuple_monomials_match_the_dict_implementation(seed):
    from limitalg import io as iolib
    rng = np.random.default_rng(seed)
    phi = random_standard_map(rng, pad=int(rng.integers(0, 2)),
                              exact=bool(rng.integers(0, 2)))
    a = phi.target
    psi = random_standard_map(rng, source=a, copies=2)
    made = [_random_pairs(rng, a, kind)
            for kind in ("block", "block", "partial", "any")]
    new = [la.StandardPartialIsometry(a, p, ph) for p, ph in made]
    old = [ref.PartialIsometry(a, p, ph) for p, ph in made]
    new += [new[0].adjoint(), new[0] @ new[1], new[2] @ new[0],
            new[0] @ new[2].adjoint(), la.identity_unitary(a)]
    old += [old[0].adjoint(), old[0] @ old[1], old[2] @ old[0],
            old[0] @ old[2].adjoint(), ref.PartialIsometry(a, {
                i: i for i in range(1, a.n + 1)})]
    for v, w in zip(new, old):
        assert _outcome_of(lambda: v) == _outcome_of(lambda: w)
        assert _outcome_of(v.adjoint) == _outcome_of(w.adjoint)
        assert _outcome_of(lambda: la.conjugate_standard(phi, v)) == (
            _outcome_of(lambda: ref.conjugate_monomial(phi, w)))
        assert _outcome_of(lambda: la.apply_to_unitary(psi, v)) == (
            _outcome_of(lambda: ref.apply_monomial(psi, w)))
        assert [v == x for x in new] == [w == x for x in old]
    assert iolib.canonical_dumps(iolib.encode_unitary(la.Unitary(a.n, new))) == (
        iolib.canonical_dumps({"n": a.n, "factors": [
            ref.encode_monomial(w) for w in old]}))
    # the errors, on pairs in ascending order
    pairs = dict(sorted(made[0][0].items()))
    i = int(rng.integers(1, a.n + 1))
    bad = [({**pairs, i: a.n + 1}, None), ({**pairs, i: 0}, None),
           ({**pairs, a.n + 1: 1}, None), ({0: 1, **pairs}, None),
           ({**pairs, i: a.n + 1, a.n + 1: 1}, None),
           (pairs, {i: 1.0 + 1e-9}), (pairs, {i: complex("nan")})]
    if i < a.n:
        bad += [({**pairs, a.n: pairs[i]}, None),
                ({**pairs, a.n: pairs[i], a.n + 1: 0}, None)]
    for p, ph in bad:
        assert _outcome_of(lambda: la.StandardPartialIsometry(a, p, ph)) == (
            _outcome_of(lambda: ref.PartialIsometry(a, p, ph)))


def _tuple_columns(phi) -> bool:
    ints = all(type(c) is tuple and all(type(x) is int for x in c)
               for c in (phi.src, phi.tgt, phi.piece))
    return ints and (phi.weight is None or (
        type(phi.weight) is tuple
        and all(type(x) is complex for x in phi.weight)))


def test_table_columns_are_tuples():
    from limitalg import io as iolib
    rng = np.random.default_rng(17)
    a, t4 = la.full_matrix_algebra(2), la.full_matrix_algebra(4)
    given = la.StandardRegularMap(
        a, t4, np.array([2, 1, 2, 1]), np.array([4, 3, 2, 1]),
        np.array([1, 1, 0, 0]), np.array([1, 1j, -1, 1]))
    phi = random_standard_map(rng)
    psi = random_standard_map(rng, source=phi.target)
    v = random_monomial_unitary(rng, phi.target)
    strict = la.strictify(phi)[0]
    maps = [given, given.canonical(), phi, phi.canonical(),
            la.compose(psi, phi), la.conjugate_standard(phi, v),
            strict, la.direct_sum(phi, strict),
            la.assemble_regular(phi.summands),
            iolib.parse_map(iolib.encode_map(phi), ""),
            iolib.parse_map(iolib.encode_map(given), "")]
    assert given.weight is not None and phi.weight is not None
    for m in maps:
        assert _tuple_columns(m), m
    s = given.summands[0]
    assert type(s(1)) is int and type(s.weight(1)) is complex


def test_only_homs_reads_the_table_layout():
    private = {name for cls in (la.StandardRegularMap, la.MultiplicityOneMap)
               for name in cls.__slots__ if name.startswith("_")}
    root = pathlib.Path(la.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "homs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert private and found == []


def test_table_rows_are_checked_as_given():
    a = la.full_matrix_algebra(2)
    t4 = la.full_matrix_algebra(4)
    with pytest.raises(ValueError, match="source index 1 listed twice"):
        la.StandardRegularMap(a, t4, np.array([1, 1]), np.array([1, 2]),
                              np.array([0, 0]))
    # the summand order of the given rows decides which error comes first
    with pytest.raises(BlockPartial):
        la.StandardRegularMap(a, t4, np.array([1, 1, 2]),
                              np.array([1, 3, 3]), np.array([0, 1, 1]))
    phi = la.StandardRegularMap(a, t4, np.array([2, 1, 2, 1]),
                                np.array([4, 3, 2, 1]), np.array([1, 1, 0, 0]))
    assert [s.iota for s in phi.summands] == [{1: 1, 2: 2}, {1: 3, 2: 4}]
    # every row belongs to a summand, and the columns have one length
    for piece, pieces in (([-1, -1], None), ([0, 1], 1), ([0, 0], 0)):
        with pytest.raises(ValueError, match="outside"):
            la.StandardRegularMap(a, a, [1, 2], [1, 2], piece, None, pieces)
    for cols in (([1, 2], [1], [0, 0], None), ([1, 2], [1, 2], [0], None),
                 ([1, 2], [1, 2], [0, 0], [1.0])):
        with pytest.raises(ValueError, match="differ in length"):
            la.StandardRegularMap(a, a, *cols)


def test_the_canonical_form_is_checked_like_any_table():
    # weights each within EXACT_SLACK of modulus 1 whose ratio is not:
    # the normalized piece breaks the table invariant, and building it
    # through the constructor says so
    a = la.full_matrix_algebra(2)
    phi = la.assemble_regular([la.validate_multiplicity_one(
        {1: 1, 2: 2}, a, a, phases={1: 1 + 0.9e-12, 2: 1 - 0.9e-12})])
    with pytest.raises(ValueError, match="phase at 2 is not unimodular"):
        phi.canonical()


def _table_outcome(build):
    try:
        phi = build()
    except (ValueError, LimitalgError) as e:
        return type(e).__name__, getattr(e, "data", str(e))
    return "ok", (phi.src, phi.tgt, phi.piece, phi.weight, phi.pieces)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9),
       st.sampled_from(["valid", "edge", "partial", "injective", "range"]),
       st.booleans())
def test_derived_entry_checks_like_the_constructor(seed, kind, twice):
    # the entry of compose, conjugate_standard, canonical, strictify and
    # direct_sum runs the same row pass on its tuples: the same table, or
    # the same error at the same witness; a summand listed twice overlaps
    rng = np.random.default_rng(seed)
    iota, source, target, phases = _random_index_map(rng, kind)
    copies = 1 + twice
    cols = [list(iota) * copies, list(iota.values()) * copies,
            [k for k in range(copies) for _ in iota],
            None if phases is None else
            [complex(phases.get(i, 1.0)) for i in iota] * copies]
    order = rng.permutation(len(cols[0]))
    cols = [None if c is None else tuple(c[k] for k in order) for c in cols]
    assert (_table_outcome(lambda: homs.StandardRegularMap._derived(
        source, target, *cols))
        == _table_outcome(lambda: la.StandardRegularMap(source, target,
                                                        *cols)))


def test_derived_callers_fail_as_their_columns_do():
    # a block-mixing monomial breaks the edge (1, 2) of T3
    a = la.tr_algebra(3)
    v = la.StandardPartialIsometry(a, {1: 3, 2: 2, 3: 1})
    got = _table_outcome(lambda: la.conjugate_standard(la.identity_map(a), v))
    assert got == _table_outcome(lambda: la.StandardRegularMap(
        a, a, [1, 2, 3], [3, 2, 1], [0, 0, 0], [1, 1, 1]))
    assert got == ("EdgeIncompatible", {"i": 1, "j": 2})
    # weights within EXACT_SLACK of modulus 1 whose product is not
    f = la.full_matrix_algebra(2)
    phi = la.assemble_regular([la.validate_multiplicity_one(
        {1: 2, 2: 1}, f, f, phases={1: 1 + 0.9e-12, 2: 1 + 0.9e-12})])
    w = (1 + 0.9e-12) * (1 + 0.9e-12)
    got = _table_outcome(lambda: la.compose(phi, phi))
    assert got == _table_outcome(lambda: la.StandardRegularMap(
        f, f, [1, 2], [1, 2], [0, 0], [w, w]))
    assert got == ("ValueError", "phase at 1 is not unimodular")


def test_indices_beyond_int64_fail_the_range_check_as_given():
    a = la.full_matrix_algebra(2)
    big = 2 ** 63
    for iota, bad in (({-1: 1, big: 2}, -1), ({big: 1, -1: 2}, big),
                      ({1: big, 2: -1}, big)):
        kind = "source" if bad in iota else "target"
        with pytest.raises(ValueError) as err:
            la.validate_multiplicity_one(iota, a, a)
        assert str(err.value) == f"{kind} index {bad} out of range"


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


def test_validate_numeric_rejects_non_edges_and_unbounded_tolerance():
    phi = la.to_numeric(la.refinement_map(2, 1, 2))
    zero = np.zeros((4, 4), dtype=complex)
    # (2, 1) is the adjoint of an edge, (5, 7) is out of range
    for key in ((2, 1), (5, 7)):
        with pytest.raises(ShapeMismatch, match="not a source edge"):
            la.validate_numeric({**phi.images, key: zero},
                                phi.source, phi.target)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            la.validate_numeric(dict(phi.images), phi.source, phi.target,
                                tol=tol)


def test_weighted_summand_unit_coeffs():
    a = la.tr_algebra(2)
    s = la.validate_multiplicity_one({1: 1, 2: 2}, a, a,
                                     phases={1: 1j, 2: -1})
    image = la.to_numeric(la.assemble_regular([s])).images[(1, 2)]
    assert image[0, 1] == 1j * np.conj(-1)
    assert np.count_nonzero(image) == 1


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
    # phi(v) + (1 - phi(1)) as matrices, from the unit images
    images, m = la.to_numeric(phi).images, v.matrix()
    one = sum(images[(i, i)] for i in range(1, src.n + 1))
    expect = (sum(m[i - 1, j - 1] * img for (i, j), img in images.items())
              + np.eye(phi.target.n) - one)
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


def test_envelope_image_reads_the_envelope_and_nothing_else():
    a = la.direct_sum_algebra(la.tr_algebra(2), la.diagonal_algebra(1))
    phi = la.to_numeric(la.refinement_map(2, 1, 2))
    psi = la.to_numeric(la.direct_sum(la.identity_map(a), la.identity_map(a)))
    assert np.array_equal(phi.envelope_image(2, 1),
                          phi.images[(1, 2)].conj().T)
    for key in ((1, 3), (3, 1), (0, 1), (1, 0), (4, 4), (-1, 1)):
        with pytest.raises(KeyError):
            psi.envelope_image(*key)
    assert np.array_equal(psi.envelope_image(3, 3), psi.images[(3, 3)])


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


def test_validate_numeric_rejects_non_finite_entries():
    phi = la.to_numeric(la.refinement_map(2, 1, 2))
    for bad in (np.nan, np.inf, -np.inf):
        images = {k: np.array(m) for k, m in phi.images.items()}
        images[(1, 2)][0, 1] = bad
        with pytest.raises(ValueError,
                           match=r"image of \(1,2\) has a non-finite"):
            la.validate_numeric(images, phi.source, phi.target)


# per-item validation loop, kept as the oracle for the batched checks


def dict_envelope(images, source, target):
    """Images of all within-class matrix units, given-algebra ones verbatim,
    as a dict built along the class trees.

    When the images are exactly zero off the diagonal blocks of two or more
    target C*-classes, every product is formed block by block, each block
    cut out with np.ix_ and zero-padded to the widest class, as
    validate_numeric forms it; otherwise as one dense n x n product.
    """
    n = target.n
    idx = [np.array(c) - 1 for c in target.cstar_classes]
    inside = np.zeros((n, n), dtype=bool)
    for c in idx:
        inside[np.ix_(c, c)] = True
    if len(idx) > 1 and not any((m[~inside] != 0).any()
                                for m in images.values()):
        w = max(map(len, idx))

        def cut(m):
            out = []
            for c in idx:
                blk = np.zeros((w, w), dtype=complex)
                blk[:len(c), :len(c)] = m[np.ix_(c, c)]
                out.append(blk)
            return out

        def join(blocks):
            m = np.zeros((n, n), dtype=complex)
            for c, blk in zip(idx, blocks):
                m[np.ix_(c, c)] = blk[:len(c), :len(c)]
            return m
    else:
        def cut(m):
            return [m]

        def join(blocks):
            return blocks[0]

    parts = {k: cut(m) for k, m in images.items()}
    env = {}
    for cls, tree in zip(source.cstar_classes, source.class_trees):
        root = cls[0]
        reach = {root: parts[(root, root)]}
        for p, c in tree:
            step = (parts[(p, c)] if (p, c) in parts
                    else [b.conj().T for b in parts[(c, p)]])
            reach[c] = [a @ b for a, b in zip(reach[p], step)]
        for i in cls:
            for j in cls:
                env[(i, j)] = (images[(i, j)] if (i, j) in images
                               else join([a.conj().T @ b for a, b
                                          in zip(reach[i], reach[j])]))
    return env


def reference_validate(images, source, target, tol):
    """validate_numeric as one residual per star pair, image and unit pair.

    Returns the envelope; raises what validate_numeric raises.
    """
    work = {k: np.asarray(m, dtype=complex) for k, m in images.items()}
    for (i, j) in sorted(source.edges):
        if (j, i) in work and i <= j:
            res = homs._residual_over(work[(j, i)] - work[(i, j)].conj().T,
                                      tol)
            if res is not None:
                raise NotStarConsistent(i, j, res)
    mask = target.support_mask()
    for (i, j) in sorted(work):
        off = work[(i, j)].copy()
        off[mask] = 0.0
        res = homs._residual_over(off, tol)
        if res is not None:
            raise NotInRange(i, j, res)
    env = dict_envelope(work, source, target)
    units = sorted(env)
    ci = source.class_index
    for (i, j), (k, l) in itertools.product(units, units):
        prod = env[(i, j)] @ env[(k, l)]
        if j == k and ci(i) == ci(l):
            expected = env[(i, l)]
        else:
            expected = 0.0
        res = homs._residual_over(prod - expected, tol)
        if res is not None:
            raise NotMultiplicative((i, j), (k, l), res)
    return env


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except LimitalgError as err:
        data = dict(err.data)
        return type(err), data, data["residual"].hex()
    if isinstance(out, dict):
        return "accepted", {k: out[k].tobytes() for k in sorted(out)}
    units = sorted(out.source.envelope_units()[0])
    return "accepted", {k: out.envelope_image(*k).tobytes() for k in units}


def _block_unitary(rng, a):
    """Haar-random unitary in the block diagonal of a."""
    u = np.zeros((a.n, a.n), dtype=complex)
    for blk in a.blocks:
        k = len(blk)
        q, r = np.linalg.qr(rng.normal(size=(k, k))
                            + 1j * rng.normal(size=(k, k)))
        idx = np.array(blk) - 1
        u[np.ix_(idx, idx)] = q * (np.diag(r) / np.abs(np.diag(r)))
    return u


def _conjugated(u, images):
    return {k: u @ np.asarray(m) @ u.conj().T for k, m in images.items()}


def _perturbed(rng, images, target, key, size, kind):
    """Move the image of key by a matrix of operator norm size.

    "scale" multiplies the image by (1 + size); "support" adds a random
    matrix inside the target's support (Hermitian and inside its diagonal
    blocks for a diagonal unit, so star consistency is kept there).
    """
    out = {k: np.array(m) for k, m in images.items()}
    if kind == "scale":
        out[key] = out[key] * (1 + size)
        return out
    mask = target.support_mask()
    if key[0] == key[1]:
        mask = mask & mask.T
    y = (rng.normal(size=mask.shape) + 1j * rng.normal(size=mask.shape)) * mask
    if key[0] == key[1]:
        y = y + y.conj().T
    out[key] = out[key] + size * y / la.operator_norm(y)
    return out


def _multi_block_images(rng):
    """Images of a standard map into a sum of two or three targets."""
    src = random_algebra(rng, n_max=4)
    parts = [random_standard_map(rng, source=src, n_max=4)
             for _ in range(int(rng.integers(2, 4)))]
    phi = parts[0]
    for psi in parts[1:]:
        phi = la.direct_sum(phi, psi)
    return phi, dict(la.to_numeric(phi).images)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.5, 0.999, 1.001, 2.0]),
       st.sampled_from(["scale", "support"]),
       st.sampled_from(["blocks", "off-block", "zero-tol", "rounding"]))
def test_batched_validation_matches_per_item_loop(seed, factor, kind, case):
    """Same acceptance, error, pair and residual bits as the per-item loop.

    blocks: a unit perturbed by factor x tol, target exactly zero off its
    C*-classes; off-block: plus one entry of factor x tol between two
    classes (the one-block sweep); zero-tol: tol = 0, conjugated or not;
    rounding: tol = factor x the first product residual of a conjugated
    exact map, made of rounding, where the batched and per-pair products
    round differently.
    """
    rng = np.random.default_rng(seed)
    phi, images = _multi_block_images(rng)
    src, tgt = phi.source, phi.target
    tol = 0.0 if case == "zero-tol" else float(rng.choice([1e-9, 1e-4]))
    if case != "zero-tol" or rng.random() < 0.5:
        images = _conjugated(_block_unitary(rng, tgt), images)
    keys = sorted(images)
    key = keys[int(rng.integers(len(keys)))]
    if case in ("blocks", "off-block"):
        images = _perturbed(rng, images, tgt, key, factor * tol, kind)
    if case == "off-block":
        # one entry between two target C*-classes, so off the range too
        first, second = tgt.cstar_classes[0], tgt.cstar_classes[1]
        images[key][first[0] - 1, second[-1] - 1] += factor * tol
    if case == "rounding":
        # star-consistent to the last bit, so the first residual at tol = 0
        # is a product's
        for (i, j) in keys:
            if i == j:
                images[(i, i)] = (images[(i, i)] + images[(i, i)].conj().T) / 2
            elif i < j and (j, i) in images:
                images[(j, i)] = images[(i, j)].conj().T
        exact = _outcome(reference_validate, images, src, tgt, 0.0)
        tol = 0.0 if exact[0] == "accepted" else factor * exact[1]["residual"]
    got = _outcome(la.validate_numeric, images, src, tgt, tol)
    want = _outcome(reference_validate, images, src, tgt, tol)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([1e-12, 1e-8, 1e-4, 1e-1]),
       st.booleans())
def test_generator_bound_covers_every_pair_residual(seed, size, off_block):
    """The bound is at least every pair residual of the envelope, on maps
    moved anywhere, star, range and block structure included."""
    rng = np.random.default_rng(seed)
    phi, images = _multi_block_images(rng)
    src, tgt = phi.source, phi.target
    images = _conjugated(_block_unitary(rng, tgt), images)
    classes = tgt.block_layout().classes
    within = classes.of[:, None] == classes.of
    for key in sorted(images):
        if rng.random() < 0.5:
            y = rng.normal(size=(tgt.n, tgt.n)) * (within | off_block)
            images[key] = images[key] + size * rng.random() * y
    units, row = src.envelope_units()
    stack = _edge_rows(images, src, tgt)
    _, blocks, reach = homs._envelope_extension(stack, src, classes)
    bound = homs._generator_bound(src, blocks, reach, tgt.n)
    worst = max(
        la.operator_norm(stack[row[i, j]] @ stack[row[k, l]]
                         - (stack[row[i, l]] if j == k else 0))
        for (i, j), (k, l) in itertools.product(units, units))
    assert worst <= bound


def test_sweep_splits_exactly_block_diagonal_targets_only(monkeypatch):
    # the generator check runs on every map below the cap and takes the
    # block split the sweep takes
    seen = []
    bound = homs._generator_bound

    def spy(source, blocks, reach, n):
        seen.append(reach.shape[1])
        return bound(source, blocks, reach, n)

    monkeypatch.setattr(homs, "_generator_bound", spy)
    rng = np.random.default_rng(5)
    phi, images = _multi_block_images(rng)
    images = _conjugated(_block_unitary(rng, phi.target), images)
    la.validate_numeric(images, phi.source, phi.target)
    assert seen == [len(phi.target.cstar_classes)] and seen[0] > 1
    # an off-block entry far inside tol sends the check to one block
    first, second = phi.target.cstar_classes[:2]
    images[(1, 1)][first[0] - 1, second[0] - 1] = 1e-12
    la.validate_numeric(images, phi.source, phi.target)
    assert seen[1:] == [1]


def dense_envelope_extension(env, source):
    """The envelope with every product a dense n x n one, filled in place,
    and the tree products; the reference for the class-block path."""
    units, row = source.envelope_units()
    reach = np.empty((source.n,) + env.shape[1:], dtype=complex)
    for cls, tree in zip(source.cstar_classes, source.class_trees):
        reach[cls[0] - 1] = env[row[cls[0], cls[0]]]
        for p, c in tree:
            step = (env[row[p, c]] if source.has_edge(p, c)
                    else env[row[c, p]].conj().T)
            reach[c - 1] = reach[p - 1] @ step
    for k in range(len(source.edges), len(units)):
        i, j = units[k]
        env[k] = reach[i - 1].conj().T @ reach[j - 1]
    return reach


def _edge_rows(images, source, target):
    units = source.envelope_units()[0]
    env = np.zeros((len(units), target.n, target.n), dtype=complex)
    for k, e in enumerate(units[:len(source.edges)]):
        env[k] = images[e]
    return env


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9),
       st.sampled_from(["one-class", "off-block", "monomial", "blocks"]))
def test_block_envelope_matches_the_dense_products(seed, case):
    """one-class: a target of one C*-class; off-block: one entry between
    two classes; monomial: to_numeric images, one term per product entry.
    These keep the dense bits. blocks: a block-diagonal conjugate, whose
    derived units round within one product's bound of the dense ones."""
    rng = np.random.default_rng(seed)
    if case == "one-class":
        src = la.tr_algebra(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        phi = random_standard_map(rng, source=src)
        images = dict(la.to_numeric(phi).images)
    else:
        phi, images = _multi_block_images(rng)
    src, tgt = phi.source, phi.target
    if case != "monomial":
        images = _conjugated(_block_unitary(rng, tgt), images)
    if case == "off-block":
        first, second = tgt.cstar_classes[:2]
        key = sorted(images)[int(rng.integers(len(images)))]
        images[key][second[-1] - 1, first[0] - 1] += 1e-3
    env = _edge_rows(images, src, tgt)
    want = env.copy()
    dense_reach = dense_envelope_extension(want, src)
    part, blocks, reach = homs._envelope_extension(
        env, src, tgt.block_layout().classes)
    assert (part is None) == (case in ("one-class", "off-block"))
    assert reach.shape[1] == (1 if part is None else len(tgt.cstar_classes))
    if case != "blocks":
        assert env.tobytes() == want.tobytes()
        return
    units, ne = src.envelope_units()[0], len(src.edges)
    assert env[:ne].tobytes() == want[:ne].tobytes()
    c = homs.PRODUCT_ROUNDING * tgt.n * np.finfo(float).eps
    for k in range(ne, len(units)):
        i, j = units[k]
        gap = np.linalg.norm(env[k] - want[k])
        assert gap <= c * (np.linalg.norm(dense_reach[i - 1])
                           * np.linalg.norm(dense_reach[j - 1]))


def test_block_path_runs_exactly_on_block_diagonal_edge_rows(monkeypatch):
    # validate_numeric and the lazy envelope of a map decide alike; one
    # subnormal between two classes, which a squared norm would lose,
    # sends both to one block and the dense bits
    seen = []
    extension = homs._envelope_extension

    def spy(env, source, classes):
        out = extension(env, source, classes)
        seen.append(out[0] is not None)
        return out

    monkeypatch.setattr(homs, "_envelope_extension", spy)
    rng = np.random.default_rng(7)
    phi, images = _multi_block_images(rng)
    src, tgt = phi.source, phi.target
    images = _conjugated(_block_unitary(rng, tgt), images)
    la.validate_numeric(images, src, tgt)
    la.NumericStarMap(src, tgt, _edge_rows(images, src, tgt)[:len(src.edges)],
                      1e-9).envelope_image(1, 1)
    assert seen == [True, True]
    first, second = tgt.cstar_classes[:2]
    images[(1, 1)][first[0] - 1, second[0] - 1] = 5e-324
    env = _edge_rows(images, src, tgt)
    dense_envelope_extension(env, src)
    units = sorted(src.envelope_units()[0])
    for got in (la.validate_numeric(images, src, tgt),
                la.NumericStarMap(src, tgt, env[:len(src.edges)], 1e-9)):
        assert ([got.envelope_image(*k).tobytes() for k in units]
                == [env[src.envelope_units()[1][k]].tobytes() for k in units])
    assert seen[2:] == [False, False]


def test_dense_stacks_above_the_budget_raise_capacity_exceeded(monkeypatch):
    # T2 into T2 x M2: 3 edge images and 4 envelope units of size 4, so
    # stacks of 768 and 1024 bytes
    phi = la.refinement_map(2, 1, 2)
    images = dict(la.to_numeric(phi).images)
    lazy = la.to_numeric(phi)
    monkeypatch.setattr(homs, "DENSE_BUDGET", 1023)
    la.to_numeric(phi)
    for build in (lambda: la.validate_numeric(images, phi.source, phi.target),
                  lambda: lazy.envelope_image(2, 1)):
        with pytest.raises(CapacityExceeded) as err:
            build()
        assert err.value.data == {"rows": 4, "n": 4, "bytes": 1024,
                                  "budget": 1023}
    monkeypatch.setattr(homs, "DENSE_BUDGET", 767)
    with pytest.raises(CapacityExceeded) as err:
        la.to_numeric(phi)
    assert err.value.data == {"rows": 3, "n": 4, "bytes": 768, "budget": 767}
    monkeypatch.setattr(homs, "DENSE_BUDGET", 1024)
    la.validate_numeric(images, phi.source, phi.target)
    assert np.array_equal(lazy.envelope_image(2, 1),
                          images[(1, 2)].conj().T)


def _count_sweeps(monkeypatch):
    calls = []
    sweep = homs._sweep_products

    def spy(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(homs, "_sweep_products", spy)
    return calls


def test_overlapping_diagonals_of_two_classes_reach_the_sweep(monkeypatch):
    # each class alone is a valid map; only the Gram across the two
    # classes sees that both diagonal images are e_11
    src, tgt = la.diagonal_algebra(2), la.full_matrix_algebra(2)
    e11 = np.diag([1.0, 0.0]).astype(complex)
    images = {(1, 1): e11, (2, 2): e11}
    calls = _count_sweeps(monkeypatch)
    got = _outcome(la.validate_numeric, images, src, tgt, 1e-9)
    assert got == _outcome(reference_validate, images, src, tgt, 1e-9)
    assert got[0] is NotMultiplicative
    assert got[1]["left"] == [1, 1] and got[1]["right"] == [2, 2]
    assert calls == [1]


def test_generator_check_accepts_valid_maps_and_sends_the_rest_on(
        monkeypatch):
    rng = np.random.default_rng(17)
    src = la.direct_sum_algebra(la.tr_algebra(2), la.full_matrix_algebra(2))
    phi = la.direct_sum(random_standard_map(rng, source=src, copies=2),
                        random_standard_map(rng, source=src, copies=1))
    tol = 1e-6
    images = _conjugated(_block_unitary(rng, phi.target),
                         dict(la.to_numeric(phi).images))
    calls = _count_sweeps(monkeypatch)
    got = la.validate_numeric(images, src, phi.target, tol=tol)
    assert calls == []
    assert (_outcome(lambda *a: got, images, src, phi.target, tol)
            == _outcome(reference_validate, images, src, phi.target, tol))
    # scaling a unit whose adjoint is no edge keeps star consistency
    for key in sorted(k for k in images
                      if k[0] == k[1] or k[::-1] not in images):
        moved = _perturbed(rng, images, phi.target, key, 2 * tol, "scale")
        calls.clear()
        want = _outcome(reference_validate, moved, src, phi.target, tol)
        assert _outcome(la.validate_numeric, moved, src, phi.target,
                        tol) == want
        assert want[0] is NotMultiplicative and calls == [1]


def test_swept_map_after_star_and_range_names_the_reference_pair():
    # the V algebra (1 -> 3 <- 2) has 9 envelope units, so 81 pairs; a
    # doubled e_13 is not multiplicative, so the generator check sends the
    # map to the sweep, which names the pair a per-pair loop names
    v = la.build_digraph_algebra(3, [(1, 1), (2, 2), (3, 3), (1, 3), (2, 3)])
    phi = la.direct_sum(la.identity_map(v), la.identity_map(v))
    images = dict(la.to_numeric(phi).images)
    doubled = {**images, (1, 3): 2 * images[(1, 3)]}
    got = _outcome(la.validate_numeric, doubled, phi.source, phi.target, 1e-9)
    assert got == _outcome(reference_validate, doubled, phi.source,
                           phi.target, 1e-9)
    assert got[0] is NotMultiplicative
    # the star and range checks still run first
    bad = {**doubled, (3, 3): images[(3, 3)] + 1j * images[(1, 3)]}
    with pytest.raises(NotStarConsistent):
        la.validate_numeric(bad, phi.source, phi.target)


def test_valid_map_of_900_units_is_accepted_without_the_sweep(monkeypatch):
    # the identity of T30 conjugated by diagonal phases: 900 envelope units,
    # 810000 pairs, accepted by the generator check alone
    a = la.tr_algebra(30)
    d = np.diag(np.exp(2j * np.pi * np.random.default_rng(3).random(a.n)))
    images = _conjugated(d, la.to_numeric(la.identity_map(a)).images)
    assert len(a.envelope_units()[0]) == 900
    calls = _count_sweeps(monkeypatch)
    got = la.validate_numeric(images, a, a)
    assert calls == []
    assert np.array_equal(got.stack, np.stack([images[e]
                                               for e in sorted(a.edges)]))


@pytest.mark.parametrize("key, left, right, residual", [
    ((1, 1), [1, 1], [1, 1], 2.0), ((23, 23), [1, 23], [23, 23], 1.0)])
def test_sweep_of_529_units_stops_at_the_first_failing_pair(
        monkeypatch, key, left, right, residual):
    # the identity of T23 with one diagonal unit doubled goes to the sweep
    # at 529 envelope units, 279841 pairs; the first failing pair in
    # row-major order over the sorted units is the first that meets the
    # doubled unit: 2e_11 2e_11 - 2e_11, or e_1,23 2e_23,23 - e_1,23
    a = la.tr_algebra(23)
    images = dict(la.to_numeric(la.identity_map(a)).images)
    images[key] = 2 * images[key]
    calls = _count_sweeps(monkeypatch)
    with pytest.raises(NotMultiplicative) as err:
        la.validate_numeric(images, a, a)
    assert calls == [1] and len(a.envelope_units()[0]) == 529
    assert err.value.data == {"left": left, "right": right,
                              "residual": residual}
    # and a per-pair loop over the lazy envelope fails there first
    lazy = la.NumericStarMap(a, a, np.stack([images[e]
                                             for e in sorted(a.edges)]), 1e-9)
    env = {e: lazy.envelope_image(*e) for e in a.envelope_units()[0]}
    first = next(
        ([i, j], [k, l], res)
        for (i, j), (k, l) in itertools.product(sorted(env), repeat=2)
        if (res := homs._residual_over(
            env[(i, j)] @ env[(k, l)] - (env[(i, l)] if j == k else 0.0),
            1e-9)) is not None)
    assert first == (left, right, residual)


# per-edge loops of the dict-based numeric layer, kept as oracles for the
# stacked one


def _loop_distance(f, g):
    worst = 0.0
    for key in f.images:
        worst = max(worst, la.operator_norm(f.images[key] - g.images[key]))
    return worst


def _loop_conjugate(u, phi):
    uh = u.conj().T
    return {k: u @ m @ uh for k, m in phi.images.items()}


def _loop_rank_matrix(phi):
    return tuple(
        tuple(int(round(sum(phi.images[(j, j)][b - 1, b - 1].real
                            for b in blk)))
              for j in range(1, phi.source.n + 1))
        for blk in phi.target.blocks)


def _loop_compose(phi, psi):
    out = {}
    for key, m in psi.images.items():
        img = np.zeros((phi.target.n, phi.target.n), dtype=complex)
        for (i, j), e in phi.images.items():
            if m[i - 1, j - 1] != 0:
                img = img + m[i - 1, j - 1] * e
        out[key] = img
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_stacked_numeric_layer_matches_per_edge_loops(seed, exact):
    rng = np.random.default_rng(seed)
    psi_std = random_standard_map(rng, n_max=3, exact=exact)
    phi_std = random_standard_map(rng, source=psi_std.target, exact=exact,
                                  copies=int(rng.integers(1, 3)))
    psi = la.conjugate_numeric(_block_unitary(rng, psi_std.target),
                               la.to_numeric(psi_std))
    phi = la.to_numeric(phi_std)
    u = _block_unitary(rng, phi.target)
    moved = la.conjugate_numeric(u, phi)
    assert ({k: m.tobytes() for k, m in moved.images.items()}
            == {k: m.tobytes() for k, m in _loop_conjugate(u, phi).items()})
    assert (la.map_distance(moved, phi).hex()
            == _loop_distance(moved, phi).hex())
    assert moved.rank_matrix().entries == _loop_rank_matrix(moved)
    assert phi_std.rank_matrix() == moved.rank_matrix()
    # one gemm sums in BLAS order where the loop added term by term; the
    # largest entry gap over 6000 draws of this test was 1.0e-15
    got = la.numeric_compose(moved, psi)
    want = _loop_compose(moved, psi)
    gap = max(np.abs(m - want[k]).max() for k, m in got.images.items())
    assert gap <= 4e-15


def _census_t5_images():
    # two copies of T5 into the first two of three T5 x M2 summands
    src = la.tr_algebra(5)
    tgt = la.direct_sum_algebra(*[la.tr_algebra(5, 2)] * 3)
    pieces = [la.validate_multiplicity_one(
        {t: 10 * c + 2 * (t - 1) + 1 + c for t in range(1, 6)}, src, tgt)
        for c in range(2)]
    phi = la.assemble_regular(pieces)
    rng = np.random.default_rng(201)
    return _conjugated(_block_unitary(rng, tgt),
                       la.to_numeric(phi).images), src, tgt


def _eight_images():
    a = la.tr_algebra(2, 4)
    rng = np.random.default_rng(8)
    images = la.to_numeric(la.identity_map(a)).images
    return _conjugated(_block_unitary(rng, a), images), a, a


def test_valid_map_recomputes_no_residual(monkeypatch):
    # every batched residual of a valid map clears its margin, so no star,
    # range or product residual is recomputed one by one
    images, src, tgt = _census_t5_images()
    calls = []
    monkeypatch.setattr(homs, "_residual_over",
                        lambda x, tol: calls.append(tol))
    la.validate_numeric(images, src, tgt)
    assert calls == []


@pytest.mark.parametrize("build", [_census_t5_images, _eight_images],
                         ids=["T5-into-3xT5xM2", "tr2x4-identity"])
def test_validate_numeric_working_set_is_bounded(build):
    images, src, tgt = build()
    tracemalloc.start()
    try:
        la.validate_numeric(images, src, tgt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20
