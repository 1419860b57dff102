"""Summand detection and the regularity decision.

The workhorse is the test product: a closed-walk word in matrix units,
interleaved with target block projections chosen by a candidate block map.
For a regular map the product is a diagonal projection whose rank counts the
summands matching the candidate, so presence and multiplicity drop out of
singular values, which sit near {0, 1} with a gap controlled by the word
length.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DigraphAlgebra
from .errors import (CapacityExceeded, CensusMismatch, Disconnected,
                     InconsistentRanks, InternalError, NotRegular,
                     SourceTargetMismatch, TooFarApart)
from .homs import (DEFAULT_TOL, IndexMap, MultiplicityOneMap, NumericStarMap,
                   StandardRegularMap, Unitary, assemble_regular,
                   conjugate_numeric, map_distance, operator_norm, to_numeric,
                   validate_multiplicity_one)

_CENSUS_CAP = 10 ** 6

# the 1/2 singular-value cut of _norm_and_rank, less a relative margin far
# above the rounding of the computed norms, so pruning never drops a block
# map whose computed singular values would pass the cut
_PRUNE_CUT = 0.5 * (1 - 1e-9)


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


def test_word(a: DigraphAlgebra, component) -> TestWord:
    """Deterministic test word for a connected index set.

    component is a cstar class index or an iterable of diagonal indices.
    The walk is depth-first from the least index with ascending children on
    a spanning tree of the undirected edge support; each tree edge
    contributes a token and its adjoint, so n = 2(size - 1), and a singleton
    contributes its diagonal unit with n = 1.
    """
    if isinstance(component, (int, np.integer)):
        verts = sorted(a.cstar_classes[int(component)])
    else:
        verts = sorted(int(i) for i in component)
    if not verts:
        raise ValueError("empty component")
    vset = set(verts)
    und = {i: set() for i in verts}
    for (i, j) in a.edges:
        if i != j and i in vset and j in vset:
            und[i].add(j)
            und[j].add(i)
    root = verts[0]
    seen = {root}
    steps = []

    def visit(u):
        for c in sorted(und[u]):
            if c not in seen:
                seen.add(c)
                steps.append((u, c))
                visit(c)
                steps.append((c, u))

    visit(root)
    if seen != vset:
        raise Disconnected(
            f"indices {sorted(vset - seen)} are not reachable from {root}",
            component=verts)
    if not steps:
        tokens = ((root, root, False),)
    else:
        tokens = tuple(
            (u, v, False) if a.has_edge(u, v) else (v, u, True)
            for (u, v) in steps)
    n = len(tokens)
    return TestWord(tokens, root, n, 1.0 / (n + 1), tuple(verts))


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
    nonzero singular values.
    """
    blocks = phi.target.blocks
    bi = phi.source.block_index
    out = rows = None
    for tok in word.tokens:
        m = _token_matrix(phi, tok)
        cols = [i - 1 for i in blocks[block_map[bi(_right_index(tok))]]]
        out = m[:, cols] if out is None else out @ m[np.ix_(rows, cols)]
        rows = cols
    return out


def _allowed_targets(phi: NumericStarMap, word: TestWord) -> dict:
    """Source block -> ascending target blocks its test products may use.

    Target t stays for source block r when, for every token k whose right
    index lies in r, ||m_k[:, T_t]||_F prod_{i != k} ||m_i||_F exceeds
    _PRUNE_CUT.
    """
    bi = phi.source.block_index
    mats = [_token_matrix(phi, tok) for tok in word.tokens]
    colsq = [np.sum(np.abs(m) ** 2, axis=0) for m in mats]
    fro = [math.sqrt(float(c.sum())) for c in colsq]
    blocks = [[i - 1 for i in blk] for blk in phi.target.blocks]
    allowed = {}
    for k, tok in enumerate(word.tokens):
        others = math.prod(fro[:k]) * math.prod(fro[k + 1:])
        keep = {t for t, cols in enumerate(blocks)
                if math.sqrt(float(colsq[k][cols].sum())) * others
                > _PRUNE_CUT}
        r = bi(_right_index(tok))
        allowed[r] = allowed[r] & keep if r in allowed else keep
    return {r: sorted(ts) for r, ts in allowed.items()}


def _norm_and_rank(m: np.ndarray) -> tuple:
    if m.size == 0:
        return 0.0, 0
    sv = np.linalg.svd(m, compute_uv=False)
    norm = float(sv[0]) if len(sv) else 0.0
    return norm, int(np.count_nonzero(sv > 0.5))


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
    present means every covered class shows norm at least 1/2; the rank
    column counts matching summands (exact for regular phi).
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
    worst = min(r[1] for r in rows)
    return TestProductResult(worst, worst >= 0.5, tuple(rows))


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
    CapacityExceeded counts only block maps that survive the bound. The
    bound is sound: for each token k the interleaved product has
    ||.||_2 <= ||m_k E_t||_2 prod_{i != k} ||m_i||_2
    <= ||m_k[:, T_t]||_F prod_{i != k} ||m_i||_F, and _norm_and_rank counts
    singular values > 1/2, so every pruned block map would score rank 0.
    The rank matrix is not used to prune: its rounding is only sound at
    small tolerances.
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

    Cost scales with the block maps that survive a norm bound, not with all
    edge-preserving ones: target t is dropped for source block r when
    ||m_k[:, T_t]||_F prod_{i != k} ||m_i||_F <= 1/2 for a token k of the
    word with right index in r. For each such k the interleaved product has
    ||.||_2 <= ||m_k E_t||_2 prod_{i != k} ||m_i||_2 <= that bound, so no
    singular value passes the 1/2 cut of _norm_and_rank and the dropped
    block map would have scored rank 0: found, residual_rank, total_rank
    and InconsistentRanks are unchanged on every input, at every tolerance.
    The rank matrix is not used to prune: it rounds block traces to
    integers, which bounds the test products only for maps validated at
    small tolerances.
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
    free = {t: sorted(tgt.blocks[t]) for t in range(len(tgt.blocks))}
    entries = sorted(census.classes.items(),
                     key=lambda kv: (src.class_of_block(kv[0].pairs[0][0]),
                                     kv[0].sort_key()))
    pieces = []
    for im, mult in entries:
        bmap = dict(im.pairs)
        for _ in range(mult):
            iota = {}
            for r in sorted(bmap):
                blk = src.blocks[r]
                slots = free[bmap[r]][:len(blk)]
                if len(slots) < len(blk):
                    raise InternalError(
                        "rank accounting admitted an infeasible census")
                del free[bmap[r]][:len(blk)]
                for i, s in zip(blk, slots):
                    iota[i] = s
            pieces.append(validate_multiplicity_one(iota, src, tgt))
    return assemble_regular(pieces, source=src, target=tgt)


def _block_diag_intertwiner(phi: NumericStarMap, psi_n: NumericStarMap
                            ) -> Optional[np.ndarray]:
    """Block-diagonal unitary U with U phi(u) = psi(u) U, or None.

    Column p of the kernel K is vec(e_ab m1 - m2 e_ab), row-major, for the
    p-th block-diagonal parameter (a, b) and each generator's images m1, m2;
    the generators are the diagonal units and both directions of every
    class tree edge. K has at least as many rows as columns, so its null
    space is the trailing rows of the economy SVD's vh. An invertible
    element is sought among the null vectors, then among 24 seeded random
    combinations (the invertible solutions are Zariski-open, so a handful of
    draws suffices whenever one exists). One SVD per target block both tests
    invertibility and gives the polar factor W V* that becomes U's block.
    """
    n = phi.target.n
    blocks = [np.array(blk) - 1 for blk in phi.target.blocks]
    a = np.concatenate([np.repeat(idx, len(idx)) for idx in blocks])
    b = np.concatenate([np.tile(idx, len(idx)) for idx in blocks])
    p = np.arange(len(a))
    gens = [(i, i) for i in range(1, phi.source.n + 1)]
    gens += [e for tree in phi.source.class_trees for (q, c) in tree
             for e in ((q, c), (c, q))]
    parts = []
    for i, j in gens:
        kg = np.zeros((n, n, len(p)), dtype=complex)
        kg[a, :, p] = phi.envelope_image(i, j)[b, :]
        kg[:, b, p] -= psi_n.envelope_image(i, j)[:, a]
        parts.append(kg.reshape(n * n, len(p)))
    _, sv, vh = np.linalg.svd(np.vstack(parts), full_matrices=False)
    # rounding cut-offs, not tol: the kernel's rank cut (1e-9 relative,
    # 1e-12 absolute) and the least singular value, relative to the largest
    # or 1, that keeps a block of X invertible (1e-8)
    null = vh.conj()[int(np.count_nonzero(sv > max(1e-9 * sv[0], 1e-12))):]
    rng = np.random.default_rng(20260818)
    draws = ((rng.normal(size=len(null)) + 1j * rng.normal(size=len(null)))
             @ null for _ in range(24))
    for vec in itertools.chain(null, draws):
        x = np.zeros((n, n), dtype=complex)
        x[a, b] = vec
        u = np.zeros_like(x)
        for idx in blocks:
            w, s, v = np.linalg.svd(x[np.ix_(idx, idx)])
            if s[-1] < 1e-8 * max(1.0, s[0]):
                break
            u[np.ix_(idx, idx)] = w @ v
        else:
            return u
    return None


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
    zero, a block-diagonal intertwiner against the canonical standard form
    is solved for, polar-corrected to a unitary, and the conjugated map is
    compared with the standard form. The verdict always carries evidence.

    Beyond the census, the cost is one economy SVD of the rows x params
    kernel, rows = |generators| n^2 and params the sum of the squared
    target block sizes: O(rows params^2) time and rows params 16 B of
    memory, plus one SVD per target block for each candidate intertwiner.
    """
    tol = max(phi.tolerance, DEFAULT_TOL) if tol is None else float(tol)
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
    u = _block_diag_intertwiner(phi, psi_n)
    if u is None:
        return RegularityCertificate(
            False, census, 0, None, None, None, tol,
            reason="no invertible block-diagonal intertwiner")
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
