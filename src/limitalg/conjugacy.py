"""Inner-conjugacy witnesses for standard regular maps.

Everything here is exact: witnesses are monomial unitaries (permutation
times diagonal phases) and the verifications are combinatorial identities,
not numeric residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (DigraphAlgebra, PermutationUnitary,
                   StandardPartialIsometry, StandardProjection, projection,
                   rank_profile)
from .detect import is_regular
from .errors import (InternalError, NotInnerEquivalent, NotRegular,
                     ProfileMismatch, SourceTargetMismatch,
                     TriangleNotCommuting)
from .homs import (NumericStarMap, StandardRegularMap, Unitary,
                   canonical_pairing, compose, conjugate_standard,
                   map_distance, monomial, numeric_compose, same_action,
                   strictify, to_numeric)
from .tolerance import map_tolerance


def _coerce_projections(family: Sequence, a: DigraphAlgebra) -> list:
    out = []
    for p in family:
        if isinstance(p, StandardProjection):
            if p.algebra != a:
                raise SourceTargetMismatch("projection over the wrong algebra")
            out.append(p)
        else:
            out.append(projection(a, p))
    return out


def permutation_intertwiner(p_family: Sequence, q_family: Sequence,
                            a: DigraphAlgebra) -> PermutationUnitary:
    """Block-preserving permutation U with U* P_j U = Q_j for all j.

    Families are pairwise-orthogonal standard projections with equal rank
    profiles; otherwise ProfileMismatch(r, j) reports the first differing
    profile entry (block row r, projection column j, both 0-based).

    Within each block the smallest unmatched index of support(Q_j) goes to
    the smallest of support(P_j), and per-block leftovers pair off
    smallest-to-smallest, so the output is deterministic.
    """
    ps = _coerce_projections(p_family, a)
    qs = _coerce_projections(q_family, a)
    if len(ps) != len(qs):
        raise ProfileMismatch(-1, -1)
    dp = rank_profile(ps, a)
    dq = rank_profile(qs, a)
    for r in range(len(a.blocks)):
        for j in range(len(ps)):
            if dp.entries[r][j] != dq.entries[r][j]:
                raise ProfileMismatch(r, j)
    sigma = {}
    for r, blk in enumerate(a.blocks):
        bset = set(blk)
        for j in range(len(ps)):
            src = sorted(bset & qs[j].support)
            dst = sorted(bset & ps[j].support)
            for x, y in zip(src, dst):
                sigma[x] = y
        left_src = sorted(i for i in blk if i not in sigma)
        left_dst = sorted(set(blk) - set(sigma.values()))
        for x, y in zip(left_src, left_dst):
            sigma[x] = y
    return PermutationUnitary(a, tuple(sigma[i] for i in range(1, a.n + 1)))


@dataclass(frozen=True)
class ClassKey:
    """Canonical inner-conjugacy invariant of a standard regular map.

    index_maps is the sorted multiset of maximal-summand index maps (as
    block-pair tuples); ranks is the diagonal rank profile. Keys are equal
    exactly when the maps are inner equivalent by a standard unitary.
    """

    index_maps: tuple
    ranks: tuple

    def as_payload(self) -> dict:
        return {"index_maps": [[list(p) for p in im] for im in self.index_maps],
                "rank_profile": [list(r) for r in self.ranks]}


def conjugacy_class(phi: StandardRegularMap) -> ClassKey:
    return ClassKey(phi.class_multiset(), phi.rank_matrix().entries)


def standard_witness(phi1: StandardRegularMap, phi2: StandardRegularMap,
                     u: Optional[StandardPartialIsometry] = None
                     ) -> StandardPartialIsometry:
    """Monomial unitary V with Ad(V) phi1 = phi2, exactly.

    phi1 and phi2 must have equal maximal class multisets (the computable
    criterion); otherwise NotInnerEquivalent. When permutation evidence u is
    supplied, its index action is used as the transport and only the
    diagonal phase correction is computed on top of it. Without it, V is
    checked here (InternalError); restandardization builds it unchecked
    and checks its own result.
    """
    if phi1.source != phi2.source or phi1.target != phi2.target:
        raise SourceTargetMismatch("witness needs matching source and target")
    v = _witness(phi1, phi2, u)
    if u is None and not same_action(conjugate_standard(phi1, v), phi2):
        raise InternalError("witness construction failed to verify")
    return v


def _witness(phi1, phi2, u=None) -> StandardPartialIsometry:
    """standard_witness over matching algebras, without its final check."""
    a2 = phi1.target
    key1, key2 = phi1.class_multiset(), phi2.class_multiset()
    if key1 != key2:
        raise NotInnerEquivalent(
            reason="class multisets differ",
            lhs=[list(map(list, k)) for k in key1],
            rhs=[list(map(list, k)) for k in key2])

    if u is not None:
        return _diagonal_correction(conjugate_standard(phi1, u), phi2, a2) @ u

    # equal multisets give the pieces of one index map the same canonical
    # places in both maps, so the canonical rows pair up in order; the
    # indices left over go blockwise, smallest to smallest, phase one
    at, to, phase = canonical_pairing(phi1, phi2)
    idx = [i for blk in a2.blocks for i in blk]
    used_at, used_to = set(at), set(to)
    return monomial(a2, at + tuple(i for i in idx if i not in used_at),
                    to + tuple(i for i in idx if i not in used_to),
                    phase + [1.0 + 0.0j] * (a2.n - len(at)))


def _diagonal_correction(moved: StandardRegularMap, target_map: StandardRegularMap,
                         a2: DigraphAlgebra) -> StandardPartialIsometry:
    """Diagonal d with Ad(d) moved = target_map, when the index data agree."""
    pairing = canonical_pairing(moved, target_map)
    if pairing is None or pairing[0] != pairing[1]:
        raise NotInnerEquivalent(reason="evidence does not align the summands")
    d = monomial(a2, pairing[0], pairing[0], pairing[2])
    if not same_action(conjugate_standard(moved, d), target_map):
        raise NotInnerEquivalent(reason="evidence admits no phase correction")
    return d


def restandardize_triangle(theta: StandardRegularMap,
                           phi1: StandardRegularMap,
                           phi2) -> tuple:
    """Unitary U over the top algebra with Ad(U) phi2 standard and the
    triangle Ad(U) phi2 after phi1 = theta preserved exactly.

    phi2 may be a StandardRegularMap (weights allowed) or a NumericStarMap;
    a numeric phi2 is first standardized through the regularity decision.
    Returns (U, phi2_std). When theta and phi1 are strict, so is phi2_std.
    It checks phi2 after phi1 = theta as given (TriangleNotCommuting) and
    Ad(U) phi2 after phi1 = theta (InternalError); the witness is not
    checked on its own, as that last check certifies (U, phi2_std).
    """
    if phi2.source != phi1.target or phi2.target != theta.target:
        raise SourceTargetMismatch("triangle algebras do not line up")
    # first standard form b0 of phi2, with the factors of Ad(lead) phi2 = b0
    if isinstance(phi2, NumericStarMap):
        resid = map_distance(numeric_compose(phi2, to_numeric(phi1)),
                             to_numeric(theta))
        if resid > map_tolerance(phi2):
            raise TriangleNotCommuting(resid)
        cert = is_regular(phi2)
        if not cert.regular:
            raise NotRegular(reason="numeric map is not regular",
                             residual_rank=cert.residual_rank)
        b0, lead = cert.standard_form, list(cert.unitary.factors)
    else:
        if not same_action(compose(phi2, phi1), theta):
            raise TriangleNotCommuting(
                map_distance(compose(phi2, phi1), theta))
        b0, d = strictify(phi2)
        lead = [d]
    return _restandardize(theta, phi1, b0, lead)


def _restandardize(theta: StandardRegularMap, phi1: StandardRegularMap,
                   b0: StandardRegularMap, lead: list) -> tuple:
    """(U, b) from a standard form b0 = Ad(lead) phi2 whose triangle
    commutes. The witness is not checked; the result is, as b after
    phi1 = theta (InternalError), and as b is Ad(U) phi2 by construction,
    that check certifies (U, b)."""
    v0 = _witness(compose(b0, phi1), theta)
    b = conjugate_standard(b0, v0)
    factors = [v0] + lead
    if not b.is_strict and theta.is_strict and phi1.is_strict:
        b, strip = strictify(b)
        factors.insert(0, strip)
    if not same_action(compose(b, phi1), theta):
        raise InternalError("restandardization failed to verify")
    return Unitary(theta.target.n, factors), b
