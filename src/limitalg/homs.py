"""Star-extendible homomorphisms between digraph algebras.

Two representations are used. The combinatorial one (StandardRegularMap)
is one index table of tuples: row k sends source index src[k] to target
index tgt[k] inside summand piece[k], with an optional unimodular weight;
its arithmetic is exact Python int and complex arithmetic, and
MultiplicityOneMap is a view of one summand.
The numeric one (NumericStarMap) stores dense matrix-unit images and is
validated against the star-extendibility identities within a tolerance.

A weighted summand with weights w acts on e_ij as w(i) * conj(w(j)) times the
image unit, so conjugating a standard map by a monomial unitary lands back in
this class with nothing lost. Weight data is normalized away in canonical
forms; a map is "strict" standard when all weights are trivial.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional

import numpy as np

from .core import (DigraphAlgebra, RankMatrix, StandardPartialIsometry,
                   identity_unitary, tensor_model, direct_sum_algebra,
                   tr_algebra)
from .errors import (BlockPartial, CapacityExceeded, EdgeIncompatible,
                     ImageOverlap, NotInjective, NotInRange, NotMultiplicative,
                     NotStarConsistent, ShapeMismatch, SourceTargetMismatch)
from .tolerance import (DEFAULT_TOL, DENSE_FLOOR, EXACT_SLACK,
                        PRODUCT_ROUNDING, ROUNDING_MARGIN)

# bytes of the largest dense (rows, n, n) complex stack of images that
# to_numeric, validate_numeric or an envelope allocates, and of the P x P
# work of spectrum.cylinder_relation; a larger one raises CapacityExceeded
# before any memory is asked for
DENSE_BUDGET = 1 << 30


def _check_budget(rows: int, n: int) -> None:
    """CapacityExceeded when a (rows, n, n) complex stack would take more
    than DENSE_BUDGET bytes."""
    size = 16 * rows * n * n
    if size > DENSE_BUDGET:
        raise CapacityExceeded(
            f"a dense stack of {rows} images of size {n} needs {size} bytes, "
            f"above the budget of {DENSE_BUDGET}", rows=rows, n=n,
            bytes=size, budget=DENSE_BUDGET)


def operator_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class IndexMap:
    """Partial map on block indices induced by a multiplicity-one map.

    pairs is a sorted tuple of (source block, target block), both 0-based.
    This is the complete inner-conjugacy invariant of a multiplicity-one map,
    so multisets of these are what the conjugacy layer compares.
    """

    pairs: tuple

    def __post_init__(self):
        clean = sorted((int(a), int(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", tuple(clean))

    def sort_key(self) -> tuple:
        return self.pairs

    def as_lists(self) -> list:
        return [[a, b] for a, b in self.pairs]


def _nontrivial(weight) -> bool:
    """Whether some weight is more than EXACT_SLACK away from 1."""
    return any(abs(x - 1.0) > EXACT_SLACK for x in weight)


class MultiplicityOneMap:
    """One summand of a standard map as a view of its rows, sorted by
    source index: an injective partial index embedding iota with optional
    unimodular weights."""

    __slots__ = ("source", "target", "_src", "_tgt", "_w", "_row",
                 "_index_map")

    def __init__(self, source: DigraphAlgebra, target: DigraphAlgebra,
                 src: tuple, tgt: tuple, w: Optional[tuple]):
        self.source, self.target = source, target
        self._src, self._tgt, self._w = src, tgt, w
        self._row = self._index_map = None

    @property
    def iota(self) -> dict:
        return dict(zip(self._src, self._tgt))

    def domain(self) -> frozenset:
        return frozenset(self._src)

    def _at(self, i: int) -> int:
        """The row of source index i, by a table built on first use."""
        if self._row is None:
            self._row = {j: k for k, j in enumerate(self._src)}
        return self._row[i]

    def __call__(self, i: int) -> int:
        return self._tgt[self._at(i)]

    def weight(self, i: int) -> complex:
        if self._w is None:
            return 1.0 + 0.0j
        return self._w[self._at(i)]

    @property
    def weighted(self) -> bool:
        return self._w is not None and _nontrivial(self._w)

    def covered_classes(self) -> tuple:
        return tuple(sorted({self.source.class_index(i) for i in self._src}))

    def index_map(self) -> IndexMap:
        if self._index_map is None:
            sb, tb = self.source.block_index, self.target.block_index
            self._index_map = IndexMap(tuple({
                sb(i): tb(j) for i, j in zip(self._src, self._tgt)}.items()))
        return self._index_map

    def __repr__(self) -> str:
        tag = ", weighted" if self.weighted else ""
        return f"MultiplicityOneMap({len(self._src)} indices{tag})"


def validate_multiplicity_one(iota, source: DigraphAlgebra,
                              target: DigraphAlgebra,
                              phases: Optional[Mapping] = None
                              ) -> MultiplicityOneMap:
    """Check the multiplicity-one invariants and build the map: the one
    summand of a table whose rows are the pairs in order.

    iota may be a mapping or an iterable of (i, j) pairs. phases, when given,
    assigns a unimodular weight to each domain index (1 where it has none).
    """
    if not isinstance(iota, Mapping):
        iota = dict(iota)
    src = [int(i) for i in iota]
    w = None if phases is None else [phases.get(i, 1.0) for i in src]
    phi = StandardRegularMap(source, target, src, list(iota.values()),
                             [0] * len(src), w, 1)
    return MultiplicityOneMap(source, target, phi.src, phi.tgt, phi.weight)


class StandardRegularMap:
    """Finite direct sum of multiplicity-one maps with disjoint images, as
    one immutable index table: row k sends src[k] to tgt[k] in summand
    piece[k] with weight weight[k] (weight is None when no summand has
    weights), sorted by (piece, src). The columns are tuples of Python
    ints, and of Python complex numbers for weight, so products and ratios
    of weights have the bits of a loop over them. pieces counts the
    summands, empty ones included; by default it is one more than the
    largest piece.

    One row pass checks every map, given or derived, once (strictify's
    table keeps its input's checked columns). The constructor converts the
    columns from any int (and complex) sequences; _derived takes the tuples
    that library functions built as they are. The columns must have one
    length and each piece lie in 0..pieces-1. Then the pass raises the
    first broken invariant, summand by summand in order, each at its first
    witness: range, injectivity and one row per source index, row by row as
    given; edges; the least class met and not covered; the first weight
    that is not unimodular, NaN included. Last it names the first summand
    whose image meets an earlier one, at the least such index. Edges are
    decided on blocks, as the edge set is the blow-up of the reduced one:
    a summand preserves edges exactly when it sends each source block r
    into one target block tau(r), and each reduced edge (r, q) it meets to
    a reduced edge (tau(r), tau(q)). Only on failure are the sorted source
    edges scanned, so that EdgeIncompatible names the least failing pair.
    """

    __slots__ = ("source", "target", "src", "tgt", "piece", "weight",
                 "pieces", "_summands", "_canonical", "_keys")

    def __init__(self, source: DigraphAlgebra, target: DigraphAlgebra,
                 src, tgt, piece, weight=None, pieces: Optional[int] = None):
        s, t, pc = (tuple(map(int, c)) for c in (src, tgt, piece))
        w = None if weight is None else tuple(map(complex, weight))
        self._row_pass(source, target, s, t, pc, w, pieces)

    @classmethod
    def _derived(cls, source, target, s, t, pc, w=None, pieces=None):
        """The checked map on tuples a library function built."""
        phi = cls.__new__(cls)
        phi._row_pass(source, target, s, t, pc, w, pieces)
        return phi

    def _row_pass(self, source, target, s, t, pc, w, pieces) -> None:
        if not len(s) == len(t) == len(pc) == len(s if w is None else w):
            raise ValueError("src, tgt, piece and weight differ in length")
        pieces = max(pc, default=-1) + 1 if pieces is None else pieces
        if pc and not (min(pc) >= 0 and max(pc) < pieces):
            raise ValueError(f"a piece is outside 0..{pieces - 1}")
        rows = {}
        for k, p in enumerate(pc):
            rows.setdefault(p, []).append(k)
        sn, tn, reduced = source.n, target.n, target.reduced.edges
        sb, tb = source._block_of, target._block_of
        for p in sorted(rows):
            imap, seen, tau, count, ok = {}, {}, {}, {}, True
            for k in rows[p]:
                i, j = s[k], t[k]
                if not 1 <= i <= sn:
                    raise ValueError(f"source index {i} out of range")
                if not 1 <= j <= tn:
                    raise ValueError(f"target index {j} out of range")
                if j in seen:
                    raise NotInjective(seen[j], i, j)
                if i in imap:
                    raise ValueError(f"source index {i} listed twice")
                seen[j], imap[i] = i, j
                r, x = sb[i], tb[j]
                ok = tau.setdefault(r, x) == x and ok
                count[r] = count.get(r, 0) + 1
            if not (ok and all((tau[r], tau[q]) in reduced
                               for r, q in source.reduced.edges
                               if r in tau and q in tau)):
                raise EdgeIncompatible(*next(
                    (i, j) for i, j in sorted(source.edges)
                    if i in imap and j in imap
                    and (imap[i], imap[j]) not in target.edges))
            hits = {}
            for r, m in count.items():
                c = source.class_of_block(r)
                hits[c] = hits.get(c, 0) + m
            for c in sorted(hits):
                if hits[c] != len(source.cstar_classes[c]):
                    raise BlockPartial(source.cstar_classes[c])
            for k in rows[p] if w is not None else ():
                if not abs(abs(w[k]) - 1.0) <= EXACT_SLACK:
                    raise ValueError(f"phase at {s[k]} is not unimodular")
        if len(set(t)) < len(t):
            owner = {}
            for p, j in sorted(zip(pc, t)):
                if owner.setdefault(j, p) != p:
                    raise ImageOverlap(
                        f"summands {owner[j]} and {p} both use target index {j}",
                        s=owner[j], s2=p, index=j)
        key = [p * (sn + 1) + i for p, i in zip(pc, s)]
        if key != sorted(key):
            o = sorted(range(len(key)), key=key.__getitem__)
            s, t, pc = (tuple(c[k] for k in o) for c in (s, t, pc))
            w = None if w is None else tuple(w[k] for k in o)
        self._fill(source, target, s, t, pc, w, pieces)

    def _fill(self, source, target, s, t, pc, w, pieces):
        self.source, self.target = source, target
        self.src, self.tgt, self.piece, self.weight = s, t, pc, w
        self.pieces = pieces
        self._summands = self._canonical = self._keys = None
        return self

    @property
    def is_strict(self) -> bool:
        return self.weight is None or not _nontrivial(self.weight)

    def bounds(self) -> list:
        """Summand k is rows bounds()[k] to bounds()[k + 1]."""
        return [bisect_left(self.piece, p) for p in range(self.pieces + 1)]

    @property
    def summands(self) -> tuple:
        if self._summands is None:
            cut, w = self.bounds(), self.weight
            self._summands = tuple(
                MultiplicityOneMap(self.source, self.target, self.src[a:b],
                                   self.tgt[a:b], None if w is None else w[a:b])
                for a, b in zip(cut, cut[1:]))
        return self._summands

    def rank_matrix(self) -> RankMatrix:
        """Entry (r, j): the summands that carry index j into block r."""
        tb = self.target.block_index
        count = Counter((tb(j), i) for i, j in zip(self.src, self.tgt))
        return RankMatrix(tuple(
            tuple(count[r, i] for i in range(1, self.source.n + 1))
            for r in range(len(self.target.blocks))))

    def canonical(self) -> "StandardRegularMap":
        """The same map as its maximal pieces, normalized, in canonical order.

        Summands split exactly along the cstar classes they cover (each is
        connected, and edges never leave one), so the pieces are the
        (summand, class) restrictions, sorted by (class, index map, least
        image); an index map sorts as the target blocks of the least
        indices of its class's blocks, in order. Weights are divided by the
        piece's weight at its least index; a piece whose ratios are all
        within EXACT_SLACK of 1 gets weight 1, and weight is None if all do.
        """
        if self._canonical is None:
            src, tgt = self.src, self.tgt
            sb, tb = self.source.block_index, self.target.block_index
            lead = self.source.blocks
            groups = {}
            for k, (p, i) in enumerate(zip(self.piece, src)):
                groups.setdefault((p, self.source.class_index(i)), []).append(k)
            # each piece's index map pairs the blocks met, at their least
            # indices, with their target blocks
            keys = sorted((c, tuple((sb(src[k]), tb(tgt[k])) for k in ks
                                    if lead[sb(src[k])][0] == src[k]),
                           min(tgt[k] for k in ks), ks)
                          for (_, c), ks in groups.items())
            self._keys = tuple(key[1] for key in keys)
            rows = [k for *_, ks in keys for k in ks]
            w = None
            if self.weight is not None:
                ws, w = self.weight, []
                for *_, ks in keys:
                    ratio = [ws[k] / ws[ks[0]] for k in ks]
                    trivial = all(abs(x - 1.0) <= EXACT_SLACK for x in ratio)
                    w += [1.0 + 0.0j] * len(ks) if trivial else ratio
                w = None if all(x == 1 for x in w) else tuple(w)
            self._canonical = StandardRegularMap._derived(
                self.source, self.target, tuple(src[k] for k in rows),
                tuple(tgt[k] for k in rows),
                tuple(p for p, (*_, ks) in enumerate(keys) for _ in ks), w,
                len(keys))
        return self._canonical

    def class_multiset(self) -> tuple:
        """Index maps of the maximal pieces as block-pair tuples, sorted
        (the canonical order sorts by them)."""
        self.canonical()
        return self._keys

    def __repr__(self) -> str:
        return (f"StandardRegularMap({self.source.n} -> {self.target.n}, "
                f"{self.pieces} summands)")


def _weights(phi: StandardRegularMap) -> tuple:
    """phi's weights, 1 on every row when it has none."""
    return ((1.0 + 0.0j,) * len(phi.src) if phi.weight is None
            else phi.weight)


def assemble_regular(summands: Sequence[MultiplicityOneMap],
                     source: Optional[DigraphAlgebra] = None,
                     target: Optional[DigraphAlgebra] = None
                     ) -> StandardRegularMap:
    summands = tuple(summands)
    if summands:
        source = summands[0].source if source is None else source
        target = summands[0].target if target is None else target
    if source is None or target is None:
        raise SourceTargetMismatch(
            "empty assembly requires explicit source and target")
    # an overlap before the first summand over other algebras comes first
    bad = next((k for k, s in enumerate(summands)
                if s.source != source or s.target != target), len(summands))
    parts = summands[:bad]
    w = None if all(s._w is None for s in parts) else [
        x for s in parts
        for x in ((1.0 + 0.0j,) * len(s._src) if s._w is None else s._w)]
    phi = StandardRegularMap(
        source, target, [i for s in parts for i in s._src],
        [j for s in parts for j in s._tgt],
        [k for k, s in enumerate(parts) for _ in s._src], w, bad)
    if bad < len(summands):
        raise SourceTargetMismatch(f"summand {bad} is over other algebras")
    return phi


def identity_map(a: DigraphAlgebra) -> StandardRegularMap:
    idx = range(1, a.n + 1)
    return StandardRegularMap(a, a, idx, idx, [0] * a.n)


def decompose_maximal(phi: StandardRegularMap) -> tuple:
    """The maximal summands of phi, normalized, in canonical order."""
    return phi.canonical().summands


def _rows_by_src(phi: StandardRegularMap) -> dict:
    """The rows of each source index, in row order (by summand)."""
    at = {}
    for k, i in enumerate(phi.src):
        at.setdefault(i, []).append(k)
    return at


def compose(phi: StandardRegularMap, psi: StandardRegularMap
            ) -> StandardRegularMap:
    """phi after psi, a checked table: each row i -> x of psi meets the
    rows x -> y of phi; the summands are the summand pairs that meet."""
    return StandardRegularMap._derived(*_compose_columns(phi, psi))


def _compose_columns(phi, psi) -> tuple:
    """compose's columns in row order, for _derived or same_action."""
    if phi.source != psi.target:
        raise SourceTargetMismatch(
            "compose needs target(psi) equal to source(phi)")
    at = _rows_by_src(phi)
    # by summand pair, then by psi's row, which puts each pair's src in order
    rows = sorted((phi.piece[r] * psi.pieces + psi.piece[l], l, r)
                  for l, x in enumerate(psi.tgt) for r in at.get(x, ()))
    w = None
    if phi.weight is not None or psi.weight is not None:
        wl, wr = _weights(psi), _weights(phi)
        w = tuple(wl[l] * wr[r] for _, l, r in rows)
    # the pairs met, numbered in order, are the summands
    ids = {}
    return (psi.source, phi.target, tuple(psi.src[l] for _, l, _ in rows),
            tuple(phi.tgt[r] for _, _, r in rows),
            tuple(ids.setdefault(p, len(ids)) for p, _, _ in rows), w, None)


def direct_sum(phi: StandardRegularMap, psi: StandardRegularMap
               ) -> StandardRegularMap:
    """Direct sum into the block direct sum of the two targets, phi's
    target first."""
    if phi.source != psi.source:
        raise SourceTargetMismatch("direct sum needs a common source")
    w = None
    if phi.weight is not None or psi.weight is not None:
        w = _weights(phi) + _weights(psi)
    return StandardRegularMap._derived(
        phi.source, direct_sum_algebra(phi.target, psi.target),
        phi.src + psi.src,
        phi.tgt + tuple(j + phi.target.n for j in psi.tgt),
        phi.piece + tuple(p + phi.pieces for p in psi.piece), w,
        phi.pieces + psi.pieces)


def same_action(phi, psi: StandardRegularMap) -> bool:
    """Exact equality as maps: equal canonical rows (the source column
    fixes where pieces end), weights within EXACT_SLACK; equal tables need
    no canonical form. phi may be the columns _derived takes: equal to
    psi's, they are a checked table's, else they are built into one."""
    cols = phi if isinstance(phi, tuple) else (
        phi.source, phi.target, phi.src, phi.tgt, phi.piece, phi.weight)
    if (cols[:5] == (psi.source, psi.target, psi.src, psi.tgt, psi.piece)
            and (cols[5] or (1.0 + 0.0j,) * len(cols[2])) == _weights(psi)):
        return True
    if isinstance(phi, tuple):
        phi = StandardRegularMap._derived(*phi)
    if phi.source != psi.source or phi.target != psi.target:
        return False
    a, b = phi.canonical(), psi.canonical()
    return (a.src == b.src and a.tgt == b.tgt and not any(
        abs(x - y) > EXACT_SLACK for x, y in zip(_weights(a), _weights(b))))


def canonical_pairing(phi: StandardRegularMap,
                      psi: StandardRegularMap) -> Optional[tuple]:
    """The canonical rows of phi and psi paired in order, as (phi's target
    indices, psi's, psi's weights over phi's); None unless both have the
    same canonical source column."""
    a, b = phi.canonical(), psi.canonical()
    if a.src != b.src:
        return None
    return a.tgt, b.tgt, [y / x for x, y in zip(_weights(a), _weights(b))]


def monomial(a: DigraphAlgebra, at: Sequence, to: Sequence,
             phase: Sequence) -> StandardPartialIsometry:
    """The monomial over a sending at[k] to to[k] with phase[k], a Python
    complex number, and every other index to itself with phase 1."""
    pairs, phases = list(range(a.n + 1)), [1.0 + 0.0j] * (a.n + 1)
    for i, j, x in zip(at, to, phase):
        pairs[i], phases[i] = j, x
    return StandardPartialIsometry._derived(a, tuple(pairs), tuple(phases))


def conjugate_standard(phi: StandardRegularMap,
                       v: StandardPartialIsometry) -> StandardRegularMap:
    """Ad(v) after phi for a total monomial v over the target algebra."""
    return StandardRegularMap._derived(*_conjugate_columns(phi, v))


def _conjugate_columns(phi, v) -> tuple:
    """conjugate_standard's columns, for _derived or same_action."""
    if not v.is_unitary:
        raise ValueError("conjugation needs a total monomial")
    if v.algebra.n != phi.target.n:
        raise ValueError("unitary is over the wrong algebra")
    return (phi.source, phi.target, phi.src,
            tuple(v._to[j] for j in phi.tgt), phi.piece,
            tuple(x * v._ph[j] for x, j in zip(_weights(phi), phi.tgt)),
            phi.pieces)


def apply_to_unitary(phi: StandardRegularMap,
                     v: StandardPartialIsometry) -> StandardPartialIsometry:
    """phi(v), extended by the identity off the image projection.

    v must be a total monomial over the source that preserves cstar classes
    (otherwise phi(v) is not defined through the envelope). The result is a
    total monomial over the target, which is what the intertwining induction
    conjugates by at the next stage.
    """
    if not v.is_unitary:
        raise ValueError("apply_to_unitary needs a total monomial")
    if v.algebra.n != phi.source.n:
        raise ValueError("unitary is over the wrong algebra")
    perm, cls = v._to, phi.source.class_index
    if any(cls(i) != cls(perm[i]) for i in phi.src):
        raise ValueError("unitary does not preserve cstar classes")
    # v = sum phase_i e_{v(i), i}: the row of i gives the unit
    # e_{iota(v(i)), iota(i)}, iota(v(i)) read in the summand of i
    row = {pi: k for k, pi in enumerate(zip(phi.piece, phi.src))}
    at = [row[p, perm[i]] for p, i in zip(phi.piece, phi.src)]
    w = _weights(phi)
    return monomial(phi.target, phi.tgt, [phi.tgt[k] for k in at], [
        v._ph[i] * w[k] * x.conjugate() for i, k, x in zip(phi.src, at, w)])


def strictify(phi: StandardRegularMap) -> tuple:
    """Strip weights: returns (strict map, diagonal witness d).

    d is a diagonal monomial over the target with Ad(d) phi = strict map,
    exactly. Identity off the image. The strict map keeps phi's checked
    columns.
    """
    strict = StandardRegularMap.__new__(StandardRegularMap)._fill(
        phi.source, phi.target, phi.src, phi.tgt, phi.piece, None, phi.pieces)
    return strict, monomial(phi.target, phi.tgt, phi.tgt,
                            [x.conjugate() for x in _weights(phi)])


# ---------------------------------------------------------------------------
# numeric layer


class NumericStarMap:
    """Matrix-unit images as one dense stack, tolerance-validated.

    stack is a read-only (|E|, n, n) complex array holding the images of
    the source edges in sorted order; the map freezes the array it is
    given rather than copying it. images maps each edge to its row, and
    is built once. Build through validate_numeric or to_numeric. The
    envelope (images of the matrix units of the generated C*-algebra, not
    just of the algebra) is one dense read-only stack in the order of
    source.envelope_units(), whose leading rows are the edge images; it is
    derived lazily from a spanning tree of each class by
    _envelope_extension, on the target's C*-class blocks when the edge
    images are exactly zero off them. A stack above DENSE_BUDGET bytes
    raises CapacityExceeded before it is allocated.
    """

    __slots__ = ("source", "target", "stack", "images", "tolerance", "_env")

    def __init__(self, source, target, stack: np.ndarray, tolerance: float):
        stack = np.asarray(stack, dtype=complex)
        if stack.shape != (len(source.edges), target.n, target.n):
            raise ShapeMismatch(
                f"image stack has shape {stack.shape}, expected "
                f"({len(source.edges)},{target.n},{target.n})")
        stack.setflags(write=False)
        self.source = source
        self.target = target
        self.stack = stack
        # units open with the sorted edges, so zip pairs each edge with its row
        self.images = MappingProxyType(
            dict(zip(source.envelope_units()[0], stack)))
        self.tolerance = float(tolerance)
        self._env = None

    def unit_image(self, i: int, j: int) -> np.ndarray:
        return self.images[(i, j)]

    def envelope_image(self, i: int, j: int) -> np.ndarray:
        """Image of the envelope unit e_ij; KeyError off the envelope."""
        n, row = self.source.n, self.source.envelope_units()[1]
        k = row[i, j] if 1 <= i <= n and 1 <= j <= n else -1
        if k < 0:
            raise KeyError((i, j))
        return self._envelope()[k]

    def _envelope(self) -> np.ndarray:
        if self._env is None:
            rows, n = len(self.source.envelope_units()[0]), self.target.n
            _check_budget(rows, n)
            env = np.empty((rows, n, n), dtype=complex)
            env[:len(self.stack)] = self.stack
            _envelope_extension(env, self.source,
                                self.target.block_layout().classes)
            env.setflags(write=False)
            self._env = env
        return self._env

    def rank_matrix(self) -> RankMatrix:
        """Entry (r, j): the rounded trace of phi(e_jj) on target block r."""
        return RankMatrix(tuple(map(tuple, self._ranks().tolist())))

    def _ranks(self) -> np.ndarray:
        """rank_matrix as a (blocks, source n) int array. Each block trace
        is summed index by index, as a per-image loop would: the padded
        gather adds exact zeros after a block's indices, and cumsum adds
        left to right."""
        s, row = self.source.n, self.source.envelope_units()[1]
        blocks = self.target.block_layout().blocks
        j = np.arange(1, s + 1)
        diag = self.stack[row[j, j]].diagonal(axis1=1, axis2=2).real
        terms = np.where(blocks.real, diag[:, blocks.padded], 0.0)
        return np.rint(np.cumsum(terms, axis=2)[:, :, -1]).astype(np.int64).T

    def __repr__(self) -> str:
        return (f"NumericStarMap({self.source.n} -> {self.target.n}, "
                f"tol={self.tolerance:g})")


def _envelope_extension(env: np.ndarray, source: DigraphAlgebra,
                        classes) -> tuple:
    """Fill the non-edge rows of an envelope stack in place; return the
    blocks its units were formed on, with those units and tree products.

    env is a C-contiguous (u, n, n) stack in the order of
    source.envelope_units() whose edge rows hold the edge images, and
    classes the target's C*-classes as a Partition. Products along the
    class tree from its root define R_x = e_{root,x}; then
    e_xy = R_x* R_y. Finite images that are exactly zero off the diagonal
    blocks of two or more classes have products that are exactly zero
    there too. Then part is classes, and every product is formed on those
    blocks, each padded with zeros to the widest class (width w), and
    scattered back into env. Otherwise part is None, one block of all n
    indices (P = 1, w = n), and the products are dense ones. Returns
    (part, blocks, reach): the envelope as a (u, P, w, w) stack of blocks,
    and R_x as an (s, P, w, w) stack in source index order. A block
    product can round otherwise than the dense one, in the last bits,
    within PRODUCT_ROUNDING n eps ||A||_F ||B||_F.
    """
    units, row = source.envelope_units()
    u, ne, n = len(units), len(source.edges), env.shape[1]
    flat = env.reshape(u, n * n)
    # != 0 sees a subnormal that a squared norm would lose
    part = (classes if len(classes.parts) > 1 and not (
        (env[:ne].view(float) != 0) & classes.apart).any() else None)
    if part is None:
        blocks = env[:, None]
    else:
        block, dense = part.cells
        nb, w = part.padded.shape
        blocks = np.zeros((u, nb, w, w), dtype=complex)
        blocks.reshape(u, -1)[:ne, block] = np.take(flat[:ne], dense, axis=1)
    reach = np.empty((source.n,) + blocks.shape[1:], dtype=complex)
    for cls, tree in zip(source.cstar_classes, source.class_trees):
        reach[cls[0] - 1] = blocks[row[cls[0], cls[0]]]
        for p, c in tree:
            step = (blocks[row[p, c]] if source.has_edge(p, c)
                    else blocks[row[c, p]].conj().swapaxes(1, 2))
            reach[c - 1] = reach[p - 1] @ step
    i, j = np.array(units[ne:], dtype=int).reshape(-1, 2).T - 1
    np.matmul(reach[i].conj().swapaxes(2, 3), reach[j], out=blocks[ne:])
    if part is not None:
        flat[ne:] = 0
        flat[ne:, dense] = np.take(blocks.reshape(u, -1)[ne:], block, axis=1)
    return part, blocks, reach


def _residual_over(x: np.ndarray, tol: float) -> Optional[float]:
    """operator_norm(x) when it exceeds tol, else None.

    ||x||_2 <= ||x||_F, so a Frobenius norm within tol passes without an
    SVD; ROUNDING_MARGIN keeps the prefilter from passing what the SVD
    would reject.
    """
    if np.linalg.norm(x) <= tol * ROUNDING_MARGIN:
        return None
    res = operator_norm(x)
    return res if res > tol else None


def validate_numeric(images: Mapping, source: DigraphAlgebra,
                     target: DigraphAlgebra,
                     tol: float = DEFAULT_TOL) -> NumericStarMap:
    """Check star consistency, range containment, and multiplicativity.

    images are keyed by exactly the source edges, with finite entries, and
    tol is finite and nonnegative. Raises the first violated identity with
    its residual. Multiplicativity is ||E_a E_b - [j = k] E_il||_2 <= tol
    for every pair a = e_ij, b = e_kl of the u envelope matrix units; a map
    the generator check below cannot accept is swept, at any u. Each
    residual X is gated on ||X||_2 > tol; as ||X||_2 <= ||X||_F, one of
    Frobenius norm within tol passes without an SVD, and an error carries
    the spectral residual.

    Generator check. The units come from the class trees: R_x is the tree
    product from the root r of x's class (R_r = P_r, the image of e_rr),
    and a non-edge unit is E_xy = R_x* R_y. Three residual families are
    formed, in Frobenius norm, from |E| + s + s^2 block products (s the
    source size):
    - Z_jk = R_j R_k* - [j = k] P_r(j), all j, k, across classes too;
    - rho_l = P_r(l) R_l - R_l;
    - Delta_a = E_a - R_i* R_j for each given edge a = e_ij: the given
      unit equals its tree value.
    With Delta_a = E_a - R_i* R_j for every unit, exactly
      E_ij E_kl - [j = k] E_il = R_i* Z_jk R_l + [j = k] R_i* rho_l
          + Delta_ij E_kl + R_i* R_j Delta_kl - [j = k] Delta_il.
    Let c = PRODUCT_ROUNDING n eps; a computed product AB is within
    c ||A||_F ||B||_F of the exact one. With nu and mu the largest
    Frobenius norms of the R_x and of the units, and zeta, rho, delta the
    largest computed residuals, each raised by c times the norms of the
    product that formed it (a derived unit's delta is c nu^2, the rounding
    that formed it), every pair residual is at most
      B = nu^2 zeta + nu rho + delta (2 mu + delta + 1) + c mu^2,
    the last term the rounding of the product a per-pair check forms. The
    map is accepted when B <= tol (1 - 1e-9); the margin covers the
    relative roundings of the norms, the subtractions and the SVD. So a
    map accepted here is one the sweep accepts, with the same envelope;
    every other map goes to the sweep, which decides the verdict, the pair
    named and the residual bits. The bound has no depth factor and no
    square root, as it measures the tree products themselves: the
    residuals d of v*v - p_c and vv* - p_p of one tree edge would bound
    the pair residuals only by sqrt(d) (v = e_12 + sqrt(d) e_33 on T_2
    into M_3 has e_11 v - v = -sqrt(d) e_33), which at rounding level,
    d ~ 1e-16, is above the default tol.

    Sweep. Each check takes the Frobenius norms of its residuals in one
    batch, flags those above tol (1 - 1e-9) - delta, and recomputes only
    the flagged ones with the per-item expression, in the per-item order;
    so the verdict, the item named and the residual bits are those of a
    per-item loop. The star and range checks batch all their residuals;
    the product sweep batches one left unit at a time, its products with
    every unit, in sorted order, so a failing map stops at its first
    failing row. Star and range residuals are formed entry for entry
    as in that loop, so delta = 0. For a product E_a E_b the batch may sum
    in another order, and two such products differ by at most
    delta_ab = 2 c ||E_a||_F ||E_b||_F. The other roundings (subtraction,
    norms, SVD) are relative and far below the 1e-9 margin, so a pair the
    per-pair loop rejects is always flagged. At tol = 0 every pair with
    nonzero norms is recomputed.

    Cost. When the given images are exactly zero off the diagonal blocks
    of two or more target C*-classes (tested entry by entry, so one
    subnormal entry counts), so is every product and residual, and every
    product is formed on those P blocks, padded to the widest class, w:
    the s - |classes| tree products and the u - |E| derived units of
    _envelope_extension, P w^3 flops each against n^3 for a dense one,
    and the generator check, (|E| + s + s^2) P w^3 flops in all. The
    sweep, at most u^2 sum_B m_B^3 flops for classes of sizes m_B, runs
    one gemm per class and left unit, of its m_B x m_B image by all u
    images side by side; it holds each class's images once more, u m_B^2
    entries, and one row of products, u m_B^2 at a time. Otherwise
    all of them multiply one block of all n indices. The images are copied
    once into the leading rows of the envelope stack, u n^2 complex
    entries (CapacityExceeded above DENSE_BUDGET bytes, before it is
    allocated), and gathered once onto the blocks; the derived units are
    scattered back, so the stack becomes the envelope of the map
    returned, and its leading rows the map's stack.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")
    work = {}
    for key, m in images.items():
        i, j = (int(key[0]), int(key[1]))
        arr = np.asarray(m, dtype=complex)
        if arr.shape != (target.n, target.n):
            raise ShapeMismatch(
                f"image of ({i},{j}) has shape {arr.shape}, "
                f"expected ({target.n},{target.n})")
        if not np.isfinite(arr).all():
            raise ValueError(f"image of ({i},{j}) has a non-finite entry")
        work[(i, j)] = arr
    units, row = source.envelope_units()
    edges = units[:len(source.edges)]
    for (i, j) in edges:
        if (i, j) not in work:
            raise ShapeMismatch(f"missing image for matrix unit ({i},{j})")
    for (i, j) in sorted(work):
        if (i, j) not in source.edges:
            raise ShapeMismatch(
                f"image given for ({i},{j}), which is not a source edge")

    # envelope stack: the given images in edge order, then derived units
    _check_budget(len(units), target.n)
    stack = np.empty((len(units), target.n, target.n), dtype=complex)
    for p, e in enumerate(edges):
        stack[p] = work[e]
    given = stack[:len(edges)]
    cut = tol * ROUNDING_MARGIN

    star = [(i, j) for (i, j) in edges if (j, i) in work and i <= j]
    a = [row[j, i] for i, j in star]
    b = [row[i, j] for i, j in star]
    for (p,) in _flagged(_frob2(stack[a] - stack[b].conj().transpose(0, 2, 1)),
                         cut):
        i, j = star[p]
        res = _residual_over(work[(j, i)] - work[(i, j)].conj().T, tol)
        if res is not None:
            raise NotStarConsistent(i, j, res)

    mask = target.support_mask()
    # the float view interleaves real and imaginary parts along a row
    v = given.view(float)
    offsq = np.einsum("pij,pij,ij->p", v, v, np.repeat(~mask, 2, axis=1) * 1.0)
    for (p,) in _flagged(offsq, cut):
        i, j = edges[p]
        off = work[(i, j)].copy()
        off[mask] = 0.0
        res = _residual_over(off, tol)
        if res is not None:
            raise NotInRange(i, j, res)

    part, blocks, reach = _envelope_extension(
        stack, source, target.block_layout().classes)
    stack.setflags(write=False)
    if not _generator_bound(source, blocks, reach, target.n) <= cut:
        _sweep_products(source, stack, [np.arange(target.n)]
                        if part is None else list(part.parts), tol)

    out = NumericStarMap(source, target, given, tol)
    out._env = stack
    return out


# bytes of one chunk of the generator check's batched products; with its
# temporaries the working set stays near 1 MiB
_CHUNK_BYTES = 1 << 19


def _frob2(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each x[p], for complex x."""
    v = np.ascontiguousarray(x).reshape(len(x), -1).view(float)
    return np.einsum("ij,ij->i", v, v)


def _flagged(sq: np.ndarray, cut) -> Iterable:
    """Index tuples, row-major, where sqrt(sq) is not <= cut (NaN is)."""
    return zip(*np.nonzero(~(np.sqrt(sq) <= cut)))


def _chunked_frob2(residual, count: int, item_bytes: int) -> np.ndarray:
    """_frob2 of residual(a, b) over chunks [a, b) of range(count), each
    about _CHUNK_BYTES, concatenated."""
    step = max(1, _CHUNK_BYTES // max(1, item_bytes))
    return np.concatenate([_frob2(residual(a, min(a + step, count)))
                           for a in range(0, count, step)])


def _generator_bound(source: DigraphAlgebra, blocks: np.ndarray,
                     r: np.ndarray, n: int) -> float:
    """The bound B of validate_numeric on every pair residual of an
    envelope, from the envelope and its tree products on the target's
    blocks, as _envelope_extension returns them; n is the target size."""
    ne, s = len(source.edges), source.n
    cls = source.block_layout().classes
    root = cls.padded[cls.of, 0]
    g = blocks[:ne]
    nb, w = r.shape[1], r.shape[2]
    rn = np.sqrt(_frob2(r))
    # the row Gram R_j R_k*, block by block, a chunk of rows j at a time
    rows = r.transpose(1, 0, 2, 3).reshape(nb, s * w, w)
    cols = rows.conj().transpose(0, 2, 1)

    def gram(a, b):
        z = (rows[:, a * w:b * w] @ cols).reshape(nb, b - a, w, s, w)
        d = np.arange(b - a)
        z[:, d, :, a + d, :] -= r[root[a:b]]
        return z.transpose(1, 3, 0, 2, 4).reshape((b - a) * s, nb, w, w)

    # item sizes in bytes count each chunk's product and its temporaries
    z = np.sqrt(_chunked_frob2(gram, s, 32 * s * nb * w * w)).reshape(s, s)
    rho = np.sqrt(_chunked_frob2(
        lambda a, b: r[root[a:b]] @ r[a:b] - r[a:b], s, 48 * nb * w * w))
    ei, ej = np.array(source.envelope_units()[0][:ne]).T - 1
    tau = np.sqrt(_chunked_frob2(
        lambda a, b: r[ei[a:b]].conj().swapaxes(2, 3) @ r[ej[a:b]] - g[a:b],
        ne, 80 * nb * w * w))
    c = PRODUCT_ROUNDING * n * np.finfo(float).eps
    nu, mu = rn.max(), np.sqrt(_frob2(blocks).max())
    zeta = (z + c * np.outer(rn, rn)).max()
    rho = (rho + c * rn[root] * rn).max()
    delta = max((tau + c * rn[ei] * rn[ej]).max(), c * nu * nu)
    return (nu * nu * zeta + nu * rho + delta * (2 * mu + delta + 1)
            + c * mu * mu)


def _sweep_products(source: DigraphAlgebra, stack: np.ndarray, blocks: list,
                    tol: float) -> None:
    """Raise NotMultiplicative at the first failing pair of units x units.

    stack is the envelope of source, in the order of its envelope_units();
    blocks are the target index arrays whose diagonal blocks carry every
    product. Pairs are taken in row-major order over the sorted units, as
    itertools.product(sorted(units), repeat=2), one left unit at a time:
    its products with every unit, one gemm per block, are flagged and the
    flagged ones recomputed in order, so a failing map stops at its first
    failing row. validate_numeric documents the flag test and its margin.
    """
    units, at = source.envelope_units()
    srt = sorted(units)
    us = np.array(srt)
    # stack row of each sorted unit
    li = at[us[:, 0], us[:, 1]]
    u = len(srt)
    # the right units e_jl of a left unit e_ij are srt[lo[j]:lo[j + 1]]
    lo = np.searchsorted(us[:, 0], np.arange(source.n + 2))
    # each nonzero block's images side by side, m x u m, in sorted order
    sides = []
    for idx in blocks:
        side = stack[li[:, None, None], idx[:, None], idx].transpose(1, 0, 2)
        if side.any():
            sides.append((idx, side.reshape(len(idx), -1)))
    eps = np.finfo(float).eps
    norms = np.sqrt(_frob2(stack))[li]
    c = 2 * PRODUCT_ROUNDING * stack.shape[1] * eps
    for p, (i, j) in enumerate(srt):
        right = slice(lo[j], lo[j + 1])
        expected = at[i, us[right, 1]]
        sq = np.zeros(u)
        for idx, side in sides:
            m = len(idx)
            prod = (side[:, p * m:(p + 1) * m] @ side).reshape(m, u, m)
            prod[:, right] -= stack[expected[:, None, None], idx[:, None],
                                    idx].transpose(1, 0, 2)
            v = prod.view(float)
            sq += np.einsum("aqb,aqb->q", v, v)
        for (q,) in _flagged(sq, tol * ROUNDING_MARGIN
                             - c * (norms[p] * norms)):
            k, l = srt[q]
            prod = stack[li[p]] @ stack[li[q]]
            # units never leave a class, so j == k puts e_il in the envelope
            res = _residual_over(prod - (stack[at[i, l]] if j == k else 0.0),
                                 tol)
            if res is not None:
                raise NotMultiplicative((i, j), (k, l), res)


def to_numeric(phi) -> NumericStarMap:
    """Dense image stack of a standard regular map.

    A numeric map is returned unchanged. The images come straight off a
    validated standard map, so no multiplicativity sweep runs; a strict
    map gets tolerance 0, a weighted one DENSE_FLOOR. An edge (i, j) lies
    in one class, which the same summands cover, so the k-th row at i and
    the k-th row at j belong to one summand; one assignment writes them all.
    """
    if isinstance(phi, NumericStarMap):
        return phi
    _check_budget(len(phi.source.edges), phi.target.n)
    # the sorted edges are the stack's rows in order
    edges = phi.source.envelope_units()[0][:len(phi.source.edges)]
    at, tgt, w = _rows_by_src(phi), phi.tgt, phi.weight
    rows = [(p, a, b) for p, (i, j) in enumerate(edges)
            for a, b in zip(at.get(i, ()), at.get(j, ()))]
    stack = np.zeros((len(edges), phi.target.n, phi.target.n), dtype=complex)
    # a strict map's coefficient is 1, as 1 times conj(1) is; adding 0j,
    # as to the zero entry a loop adds to, turns -0.0 parts into 0.0
    stack[[p for p, _, _ in rows], [tgt[a] - 1 for _, a, _ in rows],
          [tgt[b] - 1 for _, _, b in rows]] = (
        1 if w is None else [w[a] * w[b].conjugate() + 0j for _, a, b in rows])
    return NumericStarMap(phi.source, phi.target, stack,
                          0.0 if phi.is_strict else DENSE_FLOOR)


def numeric_compose(phi: NumericStarMap, psi: NumericStarMap) -> NumericStarMap:
    """phi after psi, linearly through phi's source units.

    With c_ab the (a, b) entry of psi(e_ij) at each source edge (a, b) of
    phi, e_ij goes to sum_ab c_ab phi(e_ab); one tensordot forms them all.
    """
    if phi.source != psi.target:
        raise SourceTargetMismatch(
            "compose needs target(psi) equal to source(phi)")
    ab = np.array(list(phi.images)) - 1
    stack = np.tensordot(psi.stack[:, ab[:, 0], ab[:, 1]], phi.stack, axes=1)
    tol = phi.tolerance + psi.tolerance
    return NumericStarMap(psi.source, phi.target, stack, max(tol, DENSE_FLOOR))


def conjugate_numeric(u: np.ndarray, phi: NumericStarMap) -> NumericStarMap:
    """Ad(u) after phi for a unitary matrix over the target space.

    The dense products round, so the tolerance is floored at DENSE_FLOOR
    even for an exact source, as in numeric_compose.
    """
    return NumericStarMap(phi.source, phi.target, u @ phi.stack @ u.conj().T,
                          max(phi.tolerance, DENSE_FLOOR))


def map_distance(f, g) -> float:
    """Max operator-norm discrepancy over source matrix units.

    Accepts numeric or standard maps (standard ones are expanded on the
    fly). A lower bound for the unit-ball sup norm; all threshold arguments
    here only ever need the per-unit values.
    """
    fn, gn = to_numeric(f), to_numeric(g)
    if fn.source != gn.source or fn.target != gn.target:
        raise SourceTargetMismatch("distance needs a common source and target")
    diff = fn.stack - gn.stack
    if diff.size == 0:
        return 0.0
    return float(np.linalg.svd(diff, compute_uv=False).max())


class Unitary:
    """Unitary kept as an ordered product of monomial and dense factors.

    factors multiply left to right: matrix() is factors[0] @ ... @ factors[-1].
    Ad of the product is the composition of the factor Ads in the same order,
    so witnesses can be audited factor by factor.
    """

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: Sequence = ()):
        self.n = int(n)
        flat = []
        for f in factors:
            if isinstance(f, Unitary):
                flat.extend(f.factors)
            else:
                flat.append(f)
        self.factors = tuple(flat)

    @property
    def is_monomial(self) -> bool:
        return all(isinstance(f, StandardPartialIsometry) for f in self.factors)

    def matrix(self) -> np.ndarray:
        out = np.eye(self.n, dtype=complex)
        for f in self.factors:
            m = f.matrix() if isinstance(f, StandardPartialIsometry) else np.asarray(f)
            out = out @ m
        return out

    def then_ad(self, phi):
        """Ad(self) applied to a map (combinatorial when purely monomial)."""
        if isinstance(phi, StandardRegularMap):
            if not self.is_monomial:
                raise ValueError("dense factors cannot act combinatorially")
            out = phi
            for f in reversed(self.factors):
                out = conjugate_standard(out, f)
            return out
        u = self.matrix()
        return conjugate_numeric(u, phi)

    def adjoint(self) -> "Unitary":
        adj = []
        for f in reversed(self.factors):
            if isinstance(f, StandardPartialIsometry):
                adj.append(f.adjoint())
            else:
                adj.append(np.asarray(f).conj().T)
        return Unitary(self.n, adj)

    def compact(self) -> "Unitary":
        """Merge adjacent monomial factors; dense factors are kept as is."""
        out = []
        for f in self.factors:
            if (out and isinstance(f, StandardPartialIsometry)
                    and isinstance(out[-1], StandardPartialIsometry)):
                out[-1] = out[-1] @ f
            else:
                out.append(f)
        return Unitary(self.n, out)

    def as_monomial(self, algebra=None) -> StandardPartialIsometry:
        """Collapse to a single monomial; identity needs an explicit algebra."""
        done = self.compact()
        if len(done.factors) == 1 and isinstance(done.factors[0],
                                                 StandardPartialIsometry):
            return done.factors[0]
        if not done.factors:
            if algebra is None:
                raise ValueError("identity collapse needs the algebra")
            return identity_unitary(algebra)
        raise ValueError("unitary has dense factors")

    def __repr__(self) -> str:
        kinds = ",".join(
            "monomial" if isinstance(f, StandardPartialIsometry) else "dense"
            for f in self.factors)
        return f"Unitary({self.n}; {kinds or 'identity'})"


# convenient model maps

def ampliation(a: DigraphAlgebra, m: int, c: int) -> MultiplicityOneMap:
    """The c-th coordinate embedding of a into a tensor M_m."""
    if not (1 <= c <= m):
        raise ValueError("coordinate out of range")
    big = tensor_model(a, m)
    return validate_multiplicity_one(
        {i: (i - 1) * m + c for i in range(1, a.n + 1)}, a, big)


def refinement_summand(r: int, size: int, k: int, c: int) -> MultiplicityOneMap:
    """Coordinate c of the k-fold refinement T_r x M_size -> T_r x M_{size k}."""
    if not (1 <= c <= k):
        raise ValueError("coordinate out of range")
    src = tr_algebra(r, size)
    tgt = tr_algebra(r, size * k)
    iota = {}
    for t in range(r):
        for p in range(1, size + 1):
            iota[t * size + p] = t * size * k + (p - 1) * k + c
    return validate_multiplicity_one(iota, src, tgt)


def refinement_map(r: int, size: int, k: int) -> StandardRegularMap:
    return assemble_regular([refinement_summand(r, size, k, c)
                             for c in range(1, k + 1)])
