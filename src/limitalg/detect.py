"""Summand detection and the regularity decision.

The workhorse is the test product: a closed-walk word in matrix units,
interleaved with target block projections chosen by a candidate block map.
For a regular map the product is a diagonal projection whose rank counts the
summands matching the candidate, so presence and multiplicity drop out of
singular values, which sit near {0, 1} with a gap controlled by the word
length.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DigraphAlgebra
from .errors import (CapacityExceeded, CensusMismatch, InconsistentRanks,
                     InternalError, NotRegular, SourceTargetMismatch,
                     TooFarApart)
from .homs import (IndexMap, MultiplicityOneMap, NumericStarMap,
                   StandardRegularMap, Unitary, conjugate_numeric,
                   map_distance, to_numeric)
from .tolerance import ROUNDING_MARGIN, SV_CUT, map_tolerance

_CENSUS_CAP = 10 ** 6

# the singular-value cut of _norm_and_rank, less the rounding margin, so
# pruning never drops a block map whose computed singular values would pass
_PRUNE_CUT = SV_CUT * ROUNDING_MARGIN


@dataclass(frozen=True)
class TestWord:
    """Closed-walk word over one connected component.

    tokens are (a, b, star): the operator is e_ab for star False and e_ab*
    for star True, with (a, b) always an algebra edge. Reading the word left
    to right traces the walk; the product of the token operators is the
    diagonal unit at product_projection.
    """

    tokens: tuple
    product_projection: int
    length: int
    threshold: float
    component: tuple

    def as_payload(self) -> dict:
        return {
            "tokens": [{"unit": [a, b], "star": star}
                       for (a, b, star) in self.tokens],
            "product_projection": self.product_projection,
            "length": self.length,
            "threshold": self.threshold,
            "component": list(self.component),
        }


def test_word(a: DigraphAlgebra, c: int) -> TestWord:
    """Deterministic test word for the cstar class with index c.

    The walk is depth-first from the least index with ascending children on
    a spanning tree of the undirected edge support; each tree edge
    contributes a token and its adjoint, so n = 2(size - 1), and a singleton
    contributes its diagonal unit with n = 1. The walk keeps its own stack,
    so its depth is not bounded by the interpreter's recursion limit, and
    reads the algebra's neighbour lists, so its cost is linear in the class
    and its edges.
    """
    verts = a.cstar_classes[c]
    root = verts[0]
    seen = {root}
    steps = []
    # (vertex, iterator over its children still to try) along the path
    path = [(root, iter(a.neighbours(root)))]
    while path:
        u, children = path[-1]
        for v in children:
            if v not in seen:
                seen.add(v)
                steps.append((u, v))
                path.append((v, iter(a.neighbours(v))))
                break
        else:
            path.pop()
            if path:
                steps.append((u, path[-1][0]))
    if not steps:
        tokens = ((root, root, False),)
    else:
        tokens = tuple(
            (u, v, False) if a.has_edge(u, v) else (v, u, True)
            for (u, v) in steps)
    n = len(tokens)
    return TestWord(tokens, root, n, 1.0 / (n + 1), verts)


def threshold_constant(a: DigraphAlgebra) -> float:
    """min over components of 1/(n+1) for the deterministic words."""
    return min(test_word(a, c).threshold
               for c in range(len(a.cstar_classes)))


def _token_matrix(phi: NumericStarMap, token) -> np.ndarray:
    a, b, star = token
    m = phi.unit_image(a, b)
    return m.conj().T if star else m


def _right_index(token) -> int:
    a, b, star = token
    return a if star else b


def _product_for_blocks(phi: NumericStarMap, word: TestWord,
                        block_map: dict) -> np.ndarray:
    """The interleaved product for a candidate block map of one class.

    With T_k the target block block_map assigns to the right index of token
    k, the dense product m_1 E_1 m_2 E_2 ... m_L E_L is zero outside the
    columns T_L and equals m_1[:, T_1] @ m_2[T_1, T_2] @ ... @
    m_L[T_{L-1}, T_L] on them, so this block-slice product has the same
    nonzero singular values. The slices gather by the target's block index
    arrays.
    """
    parts = phi.target.block_layout().blocks.parts
    bi = phi.source.block_index
    out = rows = None
    for tok in word.tokens:
        m = _token_matrix(phi, tok)
        cols = parts[block_map[bi(_right_index(tok))]]
        out = m[:, cols] if out is None else out @ m[rows[:, None], cols]
        rows = cols
    return out


def _allowed_targets(phi: NumericStarMap, word: TestWord) -> dict:
    """Source block -> ascending target blocks its test products may use.

    Target t stays for source block r when, for every token k whose right
    index lies in r, ||m_k[:, T_t]||_F prod_{i != k} ||m_i||_F exceeds
    _PRUNE_CUT. Dropping t is sound: for such a k the interleaved product
    has ||.||_2 <= ||m_k E_t||_2 prod_{i != k} ||m_i||_2 <= that bound, so
    no singular value passes SV_CUT and the block map would score rank 0.
    The rank matrix is not used to prune: it rounds block traces to
    integers, which bounds the test products only for maps validated at
    small tolerances.

    The column sums of squares of all tokens go to all target blocks in
    one product with the blocks' indicator matrix, which may add in
    another order than a loop over blocks, so a bound can differ from the
    loop's in its last bits. That cannot change the census: a bound within
    rounding of _PRUNE_CUT = SV_CUT (1 - 1e-9) bounds singular values
    below SV_CUT in either order, so a target kept in one order and
    dropped in the other scores rank 0, and only block maps of rank >= 1
    enter found, residual_rank and total_rank. Only the count of
    candidates that CapacityExceeded caps can move by such a target.
    """
    bi = phi.source.block_index
    at = phi.source.envelope_units()[1]
    tokens = word.tokens
    sq = np.abs(phi.stack[[at[a, b] for a, b, _ in tokens]]) ** 2
    # a starred token's columns are the conjugated rows of its image
    star = np.array([st for _, _, st in tokens])[:, None]
    colsq = np.where(star, sq.sum(axis=2), sq.sum(axis=1))
    fro = np.sqrt(colsq.sum(axis=1)).tolist()
    others = [math.prod(fro[:k]) * math.prod(fro[k + 1:])
              for k in range(len(tokens))]
    keep = (np.sqrt(colsq @ phi.target.block_layout().blocks.indicator)
            * np.array(others)[:, None] > _PRUNE_CUT)
    allowed = {}
    for tok, row in zip(tokens, keep):
        r = bi(_right_index(tok))
        allowed[r] = allowed[r] & row if r in allowed else row
    return {r: np.flatnonzero(row).tolist() for r, row in allowed.items()}


def _norm_and_rank(m: np.ndarray) -> tuple:
    if m.size == 0:
        return 0.0, 0
    sv = np.linalg.svd(m, compute_uv=False)
    norm = float(sv[0]) if len(sv) else 0.0
    return norm, int(np.count_nonzero(sv > SV_CUT))


@dataclass(frozen=True)
class TestProductResult:
    norm: float
    present: bool
    per_class: tuple  # (class index, norm, rank) per covered class

    def as_payload(self) -> dict:
        return {"norm": self.norm, "present": self.present,
                "per_class": [{"component": c, "norm": v, "rank": r}
                              for (c, v, r) in self.per_class]}


def test_product(phi: NumericStarMap, alpha: MultiplicityOneMap
                 ) -> TestProductResult:
    """Detect copies of alpha inside phi, component by component.

    Runs the word of every class alpha covers against alpha's block map.
    The rank column counts singular values above SV_CUT, the matching
    summands (exact for regular phi); present means rank >= 1 on every
    covered class, so it agrees with the census.
    """
    if alpha.source != phi.source or alpha.target != phi.target:
        raise SourceTargetMismatch(
            "test product needs alpha over the same algebras")
    pi = alpha.index_map()
    bmap = dict(pi.pairs)
    rows = []
    for c in alpha.covered_classes():
        word = test_word(phi.source, c)
        m = _product_for_blocks(phi, word, bmap)
        norm, rank = _norm_and_rank(m)
        rows.append((c, norm, rank))
    if not rows:
        raise ValueError("alpha covers no class")
    return TestProductResult(min(r[1] for r in rows),
                             all(r[2] > 0 for r in rows), tuple(rows))


@dataclass
class SummandCensus:
    """Multiplicities of detected multiplicity-one classes plus leftovers.

    classes maps IndexMap -> multiplicity (> 0 only). residual_rank is the
    part of the image rank the detected classes do not explain; it is 0
    exactly when the map is regular.
    """

    classes: dict
    residual_rank: int
    total_rank: int

    def multiset(self) -> tuple:
        out = []
        for im in sorted(self.classes, key=lambda m: m.sort_key()):
            out.extend([im.sort_key()] * self.classes[im])
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SummandCensus):
            return NotImplemented
        return (self.classes == other.classes
                and self.residual_rank == other.residual_rank)

    def as_payload(self) -> dict:
        rows = [{"index_map": im.as_lists(), "multiplicity": mult}
                for im, mult in sorted(self.classes.items(),
                                       key=lambda kv: kv[0].sort_key())]
        return {"classes": rows, "residual_rank": self.residual_rank,
                "total_rank": self.total_rank}


def _class_candidates(src: DigraphAlgebra, tgt: DigraphAlgebra, c: int,
                      allowed: dict):
    """Edge-preserving, size-feasible block maps of class c, backtracking.

    Source block r is only tried on the targets allowed[r] (see
    _allowed_targets), so a pruned block map is never enumerated, and
    CapacityExceeded counts only block maps that survive the bound.
    """
    rs = src.class_blocks(c)
    src_sizes = src.block_sizes()
    tgt_sizes = tgt.block_sizes()
    red1, red2 = src.reduced.edges, tgt.reduced.edges
    out = []

    def extend(k, partial):
        if len(out) > _CENSUS_CAP:
            raise CapacityExceeded(
                f"more than {_CENSUS_CAP} block-map candidates for class {c}")
        if k == len(rs):
            out.append(dict(partial))
            return
        r = rs[k]
        for t in allowed[r]:
            if src_sizes[r] > tgt_sizes[t]:
                continue
            ok = True
            for rr, tt in partial.items():
                if (rr, r) in red1 and (tt, t) not in red2:
                    ok = False
                    break
                if (r, rr) in red1 and (t, tt) not in red2:
                    ok = False
                    break
            if ok:
                partial[r] = t
                extend(k + 1, partial)
                del partial[r]

    extend(0, {})
    return out


def summand_census(phi: NumericStarMap) -> SummandCensus:
    """Detect all multiplicity-one classes and check the rank accounting.

    For each source class, every feasible block map is scored by its test
    product; detected multiplicities must then satisfy the integer equations
    rank(E_r phi(e_jj) E_r) >= explained part, blockwise. A negative
    leftover anywhere raises InconsistentRanks.

    Cost scales with the block maps that survive the norm bound of
    _allowed_targets, not with all edge-preserving ones. A pruned block
    map would have scored rank 0, so found, residual_rank, total_rank and
    InconsistentRanks are unchanged on every input, at every tolerance.
    """
    src, tgt = phi.source, phi.target
    ranks = phi.rank_matrix().entries
    found = {}
    for c in range(len(src.cstar_classes)):
        word = test_word(src, c)
        allowed = _allowed_targets(phi, word)
        for bmap in _class_candidates(src, tgt, c, allowed):
            m = _product_for_blocks(phi, word, bmap)
            _, rank = _norm_and_rank(m)
            if rank > 0:
                found[IndexMap(tuple(bmap.items()))] = rank
    explained = [[0] * src.n for _ in tgt.blocks]
    for im, mult in found.items():
        bmap = dict(im.pairs)
        for j in range(1, src.n + 1):
            r = src.block_index(j)
            if r in bmap:
                explained[bmap[r]][j - 1] += mult
    residual = 0
    for r in range(len(tgt.blocks)):
        for j in range(1, src.n + 1):
            left = ranks[r][j - 1] - explained[r][j - 1]
            if left < 0:
                raise InconsistentRanks(r, j, left)
            residual += left
    total = sum(sum(row) for row in ranks)
    return SummandCensus(found, residual, total)


def standard_census(phi: StandardRegularMap) -> SummandCensus:
    """The census of a standard map, read off exactly.

    A standard map is regular, so its classes are the index maps of its
    maximal summands and nothing is left over; this equals
    summand_census(to_numeric(phi)) without a single test product.
    """
    classes = Counter(map(IndexMap, phi.class_multiset()))
    total = sum(sum(row) for row in phi.rank_matrix().entries)
    return SummandCensus(dict(classes), 0, total)


def _canonical_from_census(census: SummandCensus, src: DigraphAlgebra,
                           tgt: DigraphAlgebra) -> StandardRegularMap:
    """Standard regular map realizing the census, smallest free slots first."""
    taken = [0] * len(tgt.blocks)
    entries = sorted(census.classes.items(),
                     key=lambda kv: (src.class_of_block(kv[0].pairs[0][0]),
                                     kv[0].sort_key()))
    rows, slots, piece = [], [], []
    copies = (im for im, mult in entries for _ in range(mult))
    for k, im in enumerate(copies):
        for r, t in im.pairs:
            blk = src.blocks[r]
            got = tgt.blocks[t][taken[t]:taken[t] + len(blk)]
            if len(got) < len(blk):
                raise InternalError(
                    "rank accounting admitted an infeasible census")
            taken[t] += len(blk)
            rows += blk
            slots += got
            piece += [k] * len(blk)
    return StandardRegularMap(src, tgt, rows, slots, piece)


def _census_intertwiner(phi: NumericStarMap, census: SummandCensus,
                        psi: StandardRegularMap,
                        psi_n: NumericStarMap) -> np.ndarray:
    """Block-diagonal unitary U, built from matrix units, meant to carry phi
    onto its canonical standard form psi: U phi(a) U* = psi(a).

    Each C*-class C has root r, its least index (the root of its test word).
    - Root map Z. The top mu left singular vectors F_k of the test product
      of census class k (multiplicity mu) span phi's copy of k at r; G_k is
      the standard basis of the root slots s(r) of psi's k summands, and
      Z = sum_k G_k F_k*.
    - Assembly. X = sum_C sum_{x in C} psi(e_xr) Z phi(e_rx).
    - U is the polar factor W V* of each diagonal block W S V* of X
      (Higham 1986).

    Why this certifies:
    1. X intertwines on each class's envelope, for any Z: for x, y in C,
       phi(e_rx') phi(e_xy) = [x' = x] phi(e_ry) and psi(e_xy) psi(e_x'r) =
       [x' = y] psi(e_xr), so X phi(e_xy) = psi(e_xr) Z phi(e_ry) =
       psi(e_xy) X; the terms of other classes vanish.
    2. Let phi = Ad(V*) psi' with psi' standard and V a unitary in B ∩ B*.
       psi' has phi's census, so it is psi conjugated by a block-preserving
       monomial unitary, which V absorbs: take psi' = psi. V commutes with
       each target block projection Q_t, so the test product of k is
       V* P_k V on its columns, P_k = G_k G_k*, and F_k = V* G_k R_k for a
       unitary R_k. Then X = Y V with Y = sum_C sum_x psi(e_xr)
       (sum_k G_k R_k* G_k*) psi(e_rx), which moves the slots s(x) of the
       k summands among themselves, all inside one target block. So X maps
       each Q_t into itself and is a partial isometry from the range of
       phi(1) onto that of psi(1). The polar factor of each block agrees
       with X on the range of phi(1) and extends it to a unitary; since
       Ad U phi(a) = (U phi(1)) phi(a) (U phi(1))*, the extension, like
       the rounding the polar step removes, never shows in the residual.
    3. Block-diagonal means lying in B ∩ B*, the self-adjoint part of the
       target; no step uses an off-diagonal edge of the target, so nothing
       assumes a self-adjoint target.
    4. is_regular accepts U only when map_distance(Ad U phi, psi) <= tol, so
       a residual within tol certifies however U was found; for a map that
       is not regular, U is still a block-diagonal unitary, and the
       residual rejects it.
    """
    src, n = phi.source, phi.target.n
    # psi's summands are its canonical pieces, copies of one class in
    # the order of their slots; each one's root slot is its first row's
    slots = {}
    can = psi.canonical()
    for key, k in zip(psi.class_multiset(), can.bounds()):
        slots.setdefault(key, []).append(can.tgt[k] - 1)
    z = np.zeros((n, n), dtype=complex)
    for im, mult in census.classes.items():
        word = test_word(src, src.class_of_block(im.pairs[0][0]))
        f = np.linalg.svd(_product_for_blocks(phi, word, dict(im.pairs)),
                          full_matrices=False)[0]
        z[slots[im.pairs]] = f[:, :mult].conj().T
    x = np.zeros((n, n), dtype=complex)
    for cls in src.cstar_classes:
        r = cls[0]
        for v in cls:
            x += psi_n.envelope_image(v, r) @ z @ phi.envelope_image(r, v)
    u = np.zeros_like(x)
    for blk in phi.target.blocks:
        idx = [b - 1 for b in blk]
        w, _, vh = np.linalg.svd(x[np.ix_(idx, idx)])
        u[np.ix_(idx, idx)] = w @ vh
    return u


@dataclass
class RegularityCertificate:
    regular: bool
    census: Optional[SummandCensus]
    residual_rank: Optional[int]
    standard_form: Optional[StandardRegularMap]
    unitary: Optional[Unitary]
    residual: Optional[float]
    tolerance: float
    reason: str = ""

    def as_payload(self) -> dict:
        out = {"regular": self.regular, "tolerance": self.tolerance}
        if self.census is not None:
            out["census"] = self.census.as_payload()
        if self.residual_rank is not None:
            out["residual_rank"] = self.residual_rank
        if self.residual is not None:
            out["residual"] = self.residual
        if self.reason:
            out["reason"] = self.reason
        return out


def is_regular(phi: NumericStarMap,
               tol: Optional[float] = None) -> RegularityCertificate:
    """Decide regularity and produce a unitary onto a standard form.

    The census fixes the only possible class multiset; when its residual is
    zero, a block-diagonal unitary onto the canonical standard form is
    written down from matrix units (_census_intertwiner), and the verdict
    is map_distance(Ad U phi, psi) <= tol, the only threshold. The verdict
    always carries evidence.

    Beyond the census, the cost is one SVD per census class (of its test
    product), sum_C |C| pairs of n x n products, and one SVD per target
    block.
    """
    tol = map_tolerance(phi) if tol is None else float(tol)
    try:
        census = summand_census(phi)
    except InconsistentRanks as exc:
        return RegularityCertificate(False, None, None, None, None, None,
                                     tol, reason=str(exc))
    if census.residual_rank != 0:
        return RegularityCertificate(False, census, census.residual_rank,
                                     None, None, None, tol,
                                     reason="unexplained image rank")
    psi = _canonical_from_census(census, phi.source, phi.target)
    psi_n = to_numeric(psi)
    u = _census_intertwiner(phi, census, psi, psi_n)
    residual = map_distance(conjugate_numeric(u, phi), psi_n)
    ok = residual <= tol
    return RegularityCertificate(
        ok, census, 0, psi if ok else None,
        Unitary(phi.target.n, [u]) if ok else None, residual, tol,
        reason="" if ok else "conjugation residual exceeds tolerance")


def close_conjugacy(phi1: NumericStarMap, phi2: NumericStarMap) -> Unitary:
    """Unitary U with Ad(U) phi1 = phi2 within tolerance, for close maps.

    The distance gate is the word-length constant of the source: below it,
    equal censuses are guaranteed and the witness is assembled blockwise by
    standardizing both maps against the same canonical form.
    """
    if phi1.source != phi2.source or phi1.target != phi2.target:
        raise SourceTargetMismatch("close_conjugacy needs matching algebras")
    c = threshold_constant(phi1.source)
    d = map_distance(phi1, phi2)
    if d >= c:
        raise TooFarApart(d, c)
    cert1 = is_regular(phi1)
    if not cert1.regular:
        raise NotRegular(reason="first map is not regular")
    cert2 = is_regular(phi2)
    if not cert2.regular:
        raise NotRegular(reason="second map is not regular")
    if cert1.census != cert2.census:
        raise CensusMismatch(
            lhs=cert1.census.as_payload(), rhs=cert2.census.as_payload())
    u1 = cert1.unitary
    u2 = cert2.unitary
    return Unitary(phi1.target.n, [u2.adjoint(), u1]).compact()
