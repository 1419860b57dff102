"""The per-summand dict implementations of the standard-map layer, kept as
the reference the index table is tested against.

A reference map is (source, target, summands) with each summand a pair
(iota, weights): iota a dict sorted by source index, weights a dict over
its domain or None. Every operation follows the dict code the table
replaced, step by step and with the same Python complex arithmetic, so
results, weights and witness phases must agree to the last bit.
"""

import numpy as np

import limitalg as la
from limitalg.errors import (BlockPartial, EdgeIncompatible, ImageOverlap,
                             NotInjective, NotInnerEquivalent,
                             SourceTargetMismatch)


def reference_multiplicity_one(iota, source, target, phases=None):
    """validate_multiplicity_one as a scan of every source edge, in sorted
    order, and of every class as a set; returns (iota, weights)."""
    imap, seen = {}, {}
    for i, j in iota.items():
        if not 1 <= i <= source.n:
            raise ValueError(f"source index {i} out of range")
        if not 1 <= j <= target.n:
            raise ValueError(f"target index {j} out of range")
        if j in seen:
            raise NotInjective(seen[j], i, j)
        seen[j] = i
        imap[i] = j
    for i, j in sorted(source.edges):
        if i in imap and j in imap and (imap[i], imap[j]) not in target.edges:
            raise EdgeIncompatible(i, j)
    for cls in source.cstar_classes:
        hit = set(imap) & set(cls)
        if hit and hit != set(cls):
            raise BlockPartial(cls)
    if phases is None:
        return dict(sorted(imap.items())), None
    w = {i: complex(phases.get(i, 1.0)) for i in imap}
    for i, lam in w.items():
        if not abs(abs(lam) - 1.0) <= 1e-12:
            raise ValueError(f"phase at {i} is not unimodular")
    return dict(sorted(imap.items())), w


def of(phi):
    """The reference form of a StandardRegularMap, read off its views."""
    return (phi.source, phi.target, [
        (s.iota, None if phi.weight is None
         else {i: s.weight(i) for i in s.iota}) for s in phi.summands])


def _weight(s, i):
    return 1.0 + 0.0j if s[1] is None else s[1][i]


def assemble(summands, source, target):
    """assemble_regular; an overlap names the least shared index of the
    first summand meeting an earlier one."""
    used = {}
    for k, (iota, _) in enumerate(summands):
        for j in sorted(iota.values()):
            if j in used:
                raise ImageOverlap(
                    f"summands {used[j]} and {k} both use target index {j}",
                    s=used[j], s2=k, index=j)
        for j in iota.values():
            used[j] = k
    return source, target, list(summands)


def _piece(iota, source, target, phases=None):
    return reference_multiplicity_one(iota, source, target, phases)


def compose(phi, psi):
    if phi[0] is not psi[1]:
        raise SourceTargetMismatch(
            "compose needs target(psi) equal to source(phi)")
    pieces = []
    for s in phi[2]:
        for t in psi[2]:
            dom = {i: s[0][x] for i, x in t[0].items() if x in s[0]}
            if not dom:
                continue
            w = None
            if s[1] is not None or t[1] is not None:
                w = {i: _weight(t, i) * _weight(s, t[0][i]) for i in dom}
            pieces.append(_piece(dom, psi[0], phi[1], w))
    return assemble(pieces, psi[0], phi[1])


def direct_sum(phi, psi):
    if phi[0] is not psi[0]:
        raise SourceTargetMismatch("direct sum needs a common source")
    ambient = la.direct_sum_algebra(phi[1], psi[1])
    pieces = []
    for o, m in ((0, phi), (phi[1].n, psi)):
        for iota, w in m[2]:
            pieces.append(_piece({i: j + o for i, j in iota.items()},
                                 m[0], ambient,
                                 None if w is None else dict(w)))
    return assemble(pieces, phi[0], ambient)


def conjugate(phi, v):
    if not v.is_unitary:
        raise ValueError("conjugation needs a total monomial")
    if v.algebra.n != phi[1].n:
        raise ValueError("unitary is over the wrong algebra")
    pieces = []
    for s in phi[2]:
        iota = {i: v(j) for i, j in s[0].items()}
        w = {i: _weight(s, i) * v.phase(j) for i, j in s[0].items()}
        pieces.append(_piece(iota, phi[0], phi[1], w))
    return assemble(pieces, phi[0], phi[1])


def apply_to_unitary(phi, v):
    if not v.is_unitary:
        raise ValueError("apply_to_unitary needs a total monomial")
    if v.algebra.n != phi[0].n:
        raise ValueError("unitary is over the wrong algebra")
    ci = phi[0].class_index
    pairs, phases = {}, {}
    for s in phi[2]:
        for i in s[0]:
            j = v(i)
            if ci(j) != ci(i):
                raise ValueError("unitary does not preserve cstar classes")
            pairs[s[0][i]] = s[0][j]
            phases[s[0][i]] = (v.phase(i) * _weight(s, j)
                               * np.conj(_weight(s, i)))
    for t in range(1, phi[1].n + 1):
        if t not in pairs:
            pairs[t] = t
            phases[t] = 1.0 + 0.0j
    return la.StandardPartialIsometry(phi[1], pairs, phases)


def strictify(phi):
    pairs = {t: t for t in range(1, phi[1].n + 1)}
    phases = {t: 1.0 + 0.0j for t in pairs}
    pieces = []
    for s in phi[2]:
        pieces.append(_piece(s[0], phi[0], phi[1]))
        for i, j in s[0].items():
            phases[j] = np.conj(_weight(s, i))
    d = la.StandardPartialIsometry(phi[1], pairs, phases)
    return assemble(pieces, phi[0], phi[1]), d


def index_map(source, target, iota):
    pairs = {}
    for i, j in iota.items():
        pairs[source.block_index(i)] = target.block_index(j)
    return tuple(sorted(pairs.items()))


def canonical(phi):
    """The maximal pieces, each normalized, sorted by (least index, index
    map, least image): decompose_maximal and normalized() of the dict
    code."""
    source, target = phi[0], phi[1]
    parts = []
    for iota, w in phi[2]:
        for c in sorted({source.class_index(i) for i in iota}):
            keep = {i: j for i, j in iota.items()
                    if source.class_index(i) == c}
            parts.append((keep, None if w is None
                          else {i: w[i] for i in keep}))
    parts.sort(key=lambda p: (min(p[0]), index_map(source, target, p[0]),
                              min(p[0].values())))
    out = []
    for iota, w in parts:
        if w is not None:
            w0 = w[min(iota)]
            w = {i: w[i] / w0 for i in iota}
            if all(abs(v - 1.0) <= 1e-12 for v in w.values()):
                w = None
        out.append((iota, w))
    return out


def class_multiset(phi):
    return tuple(sorted(index_map(phi[0], phi[1], iota)
                        for iota, _ in canonical(phi)))


def rank_matrix(phi):
    rows = [[0] * phi[0].n for _ in phi[1].blocks]
    for iota, _ in phi[2]:
        for i, j in iota.items():
            rows[phi[1].block_index(j)][i - 1] += 1
    return tuple(map(tuple, rows))


def to_numeric(phi):
    n2 = phi[1].n
    edges = sorted(phi[0].edges)
    stack = np.zeros((len(edges), n2, n2), dtype=complex)
    for s in phi[2]:
        for p, (i, j) in enumerate(edges):
            if i in s[0] and j in s[0]:
                stack[p, s[0][i] - 1, s[0][j] - 1] += (
                    _weight(s, i) * np.conj(_weight(s, j)))
    return stack


def same_action(phi, psi):
    if phi[0] is not psi[0] or phi[1] is not psi[1]:
        return False
    a, b = canonical(phi), canonical(psi)
    if len(a) != len(b):
        return False
    for p, q in zip(a, b):
        if p[0] != q[0]:
            return False
        for i in p[0]:
            if abs(_weight(p, i) - _weight(q, i)) > 1e-12:
                return False
    return True


def standard_witness(phi1, phi2):
    """conjugacy.standard_witness without permutation evidence."""
    if phi1[0] is not phi2[0] or phi1[1] is not phi2[1]:
        raise SourceTargetMismatch("witness needs matching source and target")
    a2 = phi1[1]
    parts1, parts2 = canonical(phi1), canonical(phi2)
    key1 = [index_map(phi1[0], a2, p[0]) for p in parts1]
    key2 = [index_map(phi2[0], a2, p[0]) for p in parts2]
    if sorted(key1) != sorted(key2):
        raise NotInnerEquivalent(
            reason="class multisets differ",
            lhs=[list(map(list, k)) for k in sorted(key1)],
            rhs=[list(map(list, k)) for k in sorted(key2)])
    by_key1, by_key2 = {}, {}
    for k, p in zip(key1, parts1):
        by_key1.setdefault(k, []).append(p)
    for k, q in zip(key2, parts2):
        by_key2.setdefault(k, []).append(q)
    pairs, phases = {}, {}
    for key, group1 in sorted(by_key1.items()):
        for p, q in zip(group1, by_key2[key]):
            for x in sorted(p[0]):
                pairs[p[0][x]] = q[0][x]
                phases[p[0][x]] = _weight(q, x) / _weight(p, x)
    for blk in a2.blocks:
        left_src = sorted(i for i in blk if i not in pairs)
        left_dst = sorted(set(blk) - {pairs[i] for i in blk if i in pairs})
        for x, y in zip(left_src, left_dst):
            pairs[x] = y
            phases[x] = 1.0 + 0.0j
    return la.StandardPartialIsometry(a2, pairs, phases)
