"""Star-extendible homomorphisms between digraph algebras.

Two representations are used. The combinatorial one (MultiplicityOneMap,
StandardRegularMap) stores index embeddings plus optional unimodular weights
per summand; its arithmetic is exact. The numeric one (NumericStarMap) stores
dense matrix-unit images and is validated against the star-extendibility
identities within a tolerance.

A weighted summand with weights w acts on e_ij as w(i) * conj(w(j)) times the
image unit, so conjugating a standard map by a monomial unitary lands back in
this class with nothing lost. Weight data is normalized away in canonical
forms; a map is "strict" standard when all weights are trivial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import (DigraphAlgebra, RankMatrix, StandardPartialIsometry,
                   identity_unitary, tensor_model, direct_sum_algebra,
                   tr_algebra)
from .errors import (AmbientTooSmall, BlockPartial, CapacityExceeded,
                     EdgeIncompatible, ImageOverlap, NotInjective, NotInRange,
                     NotMultiplicative, NotStarConsistent, ShapeMismatch,
                     SourceTargetMismatch)

DEFAULT_TOL = 1e-9

# full multiplicativity sweeps are quadratic in envelope units; above this
# many pairs validation raises CapacityExceeded
_SWEEP_CAP = 250_000

_EXACT_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)


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

    def domain(self) -> tuple:
        return tuple(r for r, _ in self.pairs)

    def __call__(self, r: int) -> int:
        for a, b in self.pairs:
            if a == r:
                return b
        raise KeyError(r)

    def sort_key(self) -> tuple:
        return self.pairs

    def as_lists(self) -> list:
        return [[a, b] for a, b in self.pairs]


class MultiplicityOneMap:
    """An injective partial index embedding iota with optional weights.

    Construct through validate_multiplicity_one, which checks injectivity,
    edge compatibility, and per-class totality (the star-extendibility
    condition at multiplicity one).
    """

    __slots__ = ("source", "target", "_iota", "_weight")

    def __init__(self, source: DigraphAlgebra, target: DigraphAlgebra,
                 iota: dict, weight: Optional[dict]):
        self.source = source
        self.target = target
        self._iota = dict(sorted(iota.items()))
        self._weight = None if weight is None else {
            i: complex(weight[i]) for i in self._iota}

    @property
    def iota(self) -> dict:
        return dict(self._iota)

    def domain(self) -> frozenset:
        return frozenset(self._iota)

    def image(self) -> frozenset:
        return frozenset(self._iota.values())

    def __call__(self, i: int) -> int:
        return self._iota[i]

    def weight(self, i: int) -> complex:
        if self._weight is None:
            return 1.0 + 0.0j
        return self._weight[i]

    @property
    def weighted(self) -> bool:
        return self._weight is not None and any(
            abs(v - 1.0) > 1e-12 for v in self._weight.values())

    def covered_classes(self) -> tuple:
        cls = {self.source.class_index(i) for i in self._iota}
        return tuple(sorted(cls))

    def index_map(self) -> IndexMap:
        pairs = {}
        for i, j in self._iota.items():
            pairs[self.source.block_index(i)] = self.target.block_index(j)
        return IndexMap(tuple(pairs.items()))

    def restrict_to_class(self, c: int) -> "MultiplicityOneMap":
        keep = {i: j for i, j in self._iota.items()
                if self.source.class_index(i) == c}
        w = None if self._weight is None else {i: self._weight[i] for i in keep}
        return MultiplicityOneMap(self.source, self.target, keep, w)

    def normalized(self) -> "MultiplicityOneMap":
        """Divide weights by the weight at the least covered index.

        The action on matrix units only sees weight ratios, so this is the
        canonical representative used for comparisons.
        """
        if self._weight is None or not self._iota:
            return self
        root = min(self._iota)
        w0 = self._weight[root]
        w = {i: self._weight[i] / w0 for i in self._iota}
        if all(abs(v - 1.0) <= 1e-12 for v in w.values()):
            w = None
        return MultiplicityOneMap(self.source, self.target, self._iota, w)

    def unit_coeff(self, i: int, j: int) -> complex:
        return self.weight(i) * np.conj(self.weight(j))

    def __repr__(self) -> str:
        tag = ", weighted" if self.weighted else ""
        return f"MultiplicityOneMap({len(self._iota)} indices{tag})"


def validate_multiplicity_one(iota, source: DigraphAlgebra,
                              target: DigraphAlgebra,
                              phases: Optional[Mapping] = None
                              ) -> MultiplicityOneMap:
    """Check the three multiplicity-one invariants and build the map.

    iota may be a mapping or an iterable of (i, j) pairs. phases, when given,
    assigns a unimodular weight to each domain index.
    """
    if not isinstance(iota, Mapping):
        iota = dict(iota)
    imap = {}
    seen_targets = {}
    for i, j in iota.items():
        i, j = int(i), int(j)
        if not (1 <= i <= source.n):
            raise ValueError(f"source index {i} out of range")
        if not (1 <= j <= target.n):
            raise ValueError(f"target index {j} out of range")
        if j in seen_targets:
            raise NotInjective(seen_targets[j], i, j)
        seen_targets[j] = i
        imap[i] = j
    dom = set(imap)
    for (i, j) in source.edges:
        if i in dom and j in dom and (imap[i], imap[j]) not in target.edges:
            raise EdgeIncompatible(i, j)
    for cls in source.cstar_classes:
        hit = dom & set(cls)
        if hit and hit != set(cls):
            raise BlockPartial(cls)
    w = None
    if phases is not None:
        w = {}
        for i in imap:
            lam = complex(phases.get(i, 1.0))
            if abs(abs(lam) - 1.0) > 1e-12:
                raise ValueError(f"phase at {i} is not unimodular")
            w[i] = lam
    return MultiplicityOneMap(source, target, imap, w)


class StandardRegularMap:
    """Finite direct sum of multiplicity-one maps with disjoint images."""

    __slots__ = ("source", "target", "summands", "_canonical")

    def __init__(self, source, target, summands: tuple):
        self.source = source
        self.target = target
        self.summands = tuple(summands)
        self._canonical = None

    @property
    def is_strict(self) -> bool:
        return not any(s.weighted for s in self.summands)

    def unit_image(self, i: int, j: int) -> tuple:
        """Image of e_ij as ((a, b, coeff), ...) over contributing summands."""
        out = []
        for s in self.summands:
            if i in s.domain() and j in s.domain():
                out.append((s(i), s(j), s.unit_coeff(i, j)))
        return tuple(out)

    def rank_matrix(self) -> RankMatrix:
        rows = []
        for blk in self.target.blocks:
            bset = set(blk)
            row = []
            for j in range(1, self.source.n + 1):
                row.append(sum(1 for s in self.summands
                               if j in s.domain() and s(j) in bset))
            rows.append(tuple(row))
        return RankMatrix(tuple(rows))

    def canonical_summands(self) -> tuple:
        """Maximal decomposition, normalized and deterministically ordered."""
        if self._canonical is None:
            parts = decompose_maximal(self)
            self._canonical = tuple(sorted(
                (p.normalized() for p in parts),
                key=lambda p: (min(p.domain()) if p.domain() else 0,
                               p.index_map().sort_key(),
                               min(p.image()) if p.image() else 0)))
        return self._canonical

    def class_multiset(self) -> tuple:
        return tuple(sorted(p.index_map().sort_key()
                            for p in self.canonical_summands()))

    def __repr__(self) -> str:
        return (f"StandardRegularMap({self.source.n} -> {self.target.n}, "
                f"{len(self.summands)} summands)")


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
    used = {}
    for k, s in enumerate(summands):
        if s.source != source or s.target != target:
            raise SourceTargetMismatch(f"summand {k} is over other algebras")
        for j in s.image():
            if j in used:
                raise ImageOverlap(
                    f"summands {used[j]} and {k} both use target index {j}",
                    s=used[j], s2=k, index=j)
            used[j] = k
    return StandardRegularMap(source, target, summands)


def identity_map(a: DigraphAlgebra) -> StandardRegularMap:
    return assemble_regular(
        [validate_multiplicity_one({i: i for i in range(1, a.n + 1)}, a, a)])


def zero_map(source: DigraphAlgebra, target: DigraphAlgebra) -> StandardRegularMap:
    return assemble_regular([], source=source, target=target)


def decompose_maximal(phi: StandardRegularMap) -> tuple:
    """Finest decomposition into multiplicity-one summands.

    Target indices iota(i), iota(j) are linked whenever (i, j) is a source
    edge inside one summand, so a summand splits exactly along the cstar
    classes it covers: each class is connected, and links never leave a
    class. The per-(summand, class) restrictions are therefore the maximal
    pieces.
    """
    parts = []
    for s in phi.summands:
        for c in s.covered_classes():
            parts.append(s.restrict_to_class(c))
    parts.sort(key=lambda p: (min(p.domain()), p.index_map().sort_key(),
                              min(p.image())))
    return tuple(parts)


def compose(phi: StandardRegularMap, psi: StandardRegularMap
            ) -> StandardRegularMap:
    """phi after psi. Requires target(psi) = source(phi)."""
    if phi.source != psi.target:
        raise SourceTargetMismatch(
            "compose needs target(psi) equal to source(phi)")
    pieces = []
    for s in phi.summands:
        sdom = s.domain()
        for t in psi.summands:
            dom = {i: s(t(i)) for i in t.domain() if t(i) in sdom}
            if not dom:
                continue
            w = None
            if s._weight is not None or t._weight is not None:
                w = {i: t.weight(i) * s.weight(t(i)) for i in dom}
            pieces.append(validate_multiplicity_one(
                dom, psi.source, phi.target, phases=w))
    return assemble_regular(pieces, source=psi.source, target=phi.target)


def direct_sum(phi: StandardRegularMap, psi: StandardRegularMap,
               ambient: Optional[DigraphAlgebra] = None,
               offsets: Optional[tuple] = None) -> StandardRegularMap:
    """Direct sum into an ambient algebra holding both targets.

    Default ambient is the block direct sum of the two targets with the
    obvious offsets. Reserved ranges must be disjoint and the shifted copies
    of the target edge sets must embed in the ambient edges.
    """
    if phi.source != psi.source:
        raise SourceTargetMismatch("direct sum needs a common source")
    if ambient is None:
        ambient = direct_sum_algebra(phi.target, psi.target)
        offsets = (0, phi.target.n)
    if offsets is None:
        offsets = (0, phi.target.n)
    (o1, o2) = offsets
    spans = sorted([(o1, o1 + phi.target.n), (o2, o2 + psi.target.n)])
    if spans[0][1] > spans[1][0]:
        raise AmbientTooSmall("reserved index ranges overlap",
                              offsets=list(offsets))
    for (o, tgt) in ((o1, phi.target), (o2, psi.target)):
        if o < 0 or o + tgt.n > ambient.n:
            raise AmbientTooSmall(
                f"range {o + 1}..{o + tgt.n} exceeds ambient size {ambient.n}")
        for (i, j) in tgt.edges:
            if (i + o, j + o) not in ambient.edges:
                raise AmbientTooSmall(
                    f"ambient lacks edge ({i + o},{j + o}) for an embedded target")
    pieces = []
    for (o, m) in ((o1, phi), (o2, psi)):
        for s in m.summands:
            w = None if s._weight is None else dict(s._weight)
            pieces.append(validate_multiplicity_one(
                {i: s(i) + o for i in s.domain()}, m.source, ambient, phases=w))
    return assemble_regular(pieces, source=phi.source, target=ambient)


def same_action(phi: StandardRegularMap, psi: StandardRegularMap) -> bool:
    """Exact equality as maps, insensitive to summand bookkeeping."""
    if phi.source != psi.source or phi.target != psi.target:
        return False
    a, b = phi.canonical_summands(), psi.canonical_summands()
    if len(a) != len(b):
        return False
    for p, q in zip(a, b):
        if p._iota != q._iota:
            return False
        for i in p.domain():
            if abs(p.weight(i) - q.weight(i)) > 1e-12:
                return False
    return True


def conjugate_standard(phi: StandardRegularMap,
                       v: StandardPartialIsometry) -> StandardRegularMap:
    """Ad(v) after phi for a total monomial v over the target algebra."""
    if not v.is_unitary:
        raise ValueError("conjugation needs a total monomial")
    if v.algebra.n != phi.target.n:
        raise ValueError("unitary is over the wrong algebra")
    pieces = []
    for s in phi.summands:
        iota = {i: v(s(i)) for i in s.domain()}
        w = {i: s.weight(i) * v.phase(s(i)) for i in s.domain()}
        pieces.append(validate_multiplicity_one(
            iota, phi.source, phi.target, phases=w))
    return assemble_regular(pieces, source=phi.source, target=phi.target)


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
    ci = phi.source.class_index
    pairs = {}
    phases = {}
    for s in phi.summands:
        for i in s.domain():
            j = v(i)
            if ci(j) != ci(i):
                raise ValueError("unitary does not preserve cstar classes")
            # v carries e_j -> e_i directions: v = sum phase_i e_{v(i), i},
            # so the (i -> v(i)) pair contributes unit e_{iota(v(i)), iota(i)}
            pairs[s(i)] = s(j)
            phases[s(i)] = v.phase(i) * s.weight(j) * np.conj(s.weight(i))
    for t in range(1, phi.target.n + 1):
        if t not in pairs:
            pairs[t] = t
            phases[t] = 1.0 + 0.0j
    return StandardPartialIsometry(phi.target, pairs, phases)


def strictify(phi: StandardRegularMap) -> tuple:
    """Strip weights: returns (strict map, diagonal witness d).

    d is a diagonal monomial over the target with Ad(d) phi = strict map,
    exactly. Identity off the image.
    """
    pairs = {t: t for t in range(1, phi.target.n + 1)}
    phases = {t: 1.0 + 0.0j for t in pairs}
    pieces = []
    for s in phi.summands:
        pieces.append(validate_multiplicity_one(
            s.iota, phi.source, phi.target))
        for i in s.domain():
            phases[s(i)] = np.conj(s.weight(i))
    d = StandardPartialIsometry(phi.target, pairs, phases)
    strict = assemble_regular(pieces, source=phi.source, target=phi.target)
    return strict, d


# ---------------------------------------------------------------------------
# numeric layer


class NumericStarMap:
    """Matrix-unit images as one dense stack, tolerance-validated.

    stack is a read-only (|E|, n, n) complex array holding the images of
    the source edges in sorted order; the map freezes the array it is
    given rather than copying it. images maps each edge to its row, and
    is built once. Build through validate_numeric or to_numeric. Envelope
    images (matrix units of the generated C*-algebra, not just of the
    algebra) are derived lazily from a spanning tree of each class.
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
        self.images = MappingProxyType(dict(zip(sorted(source.edges), stack)))
        self.tolerance = float(tolerance)
        self._env = None

    def unit_image(self, i: int, j: int) -> np.ndarray:
        return self.images[(i, j)]

    def envelope_image(self, i: int, j: int) -> np.ndarray:
        if (i, j) in self.images:
            return self.images[(i, j)]
        return self._envelope()[(i, j)]

    def _envelope(self) -> dict:
        if self._env is None:
            self._env = _envelope_extension(self.images, self.source)
        return self._env

    def rank_matrix(self) -> RankMatrix:
        # diagonals of the images of e_11, ..., e_nn; each block trace is
        # summed index by index, as a per-image loop would
        diag = self.stack.diagonal(axis1=1, axis2=2).real[
            [i == j for i, j in self.images]]
        return RankMatrix(tuple(
            tuple(int(round(t)) for t in sum(diag[:, b - 1] for b in blk))
            for blk in self.target.blocks))

    def __repr__(self) -> str:
        return (f"NumericStarMap({self.source.n} -> {self.target.n}, "
                f"tol={self.tolerance:g})")


def _envelope_extension(images: Mapping, source: DigraphAlgebra) -> dict:
    """Images of all within-class matrix units, given-algebra ones verbatim.

    Products along the class tree from its root define e_{root, x};
    then e_xy = e_{root,x}* e_{root,y}.
    """
    env = {}
    for cls, tree in zip(source.cstar_classes, source.class_trees):
        root = cls[0]
        reach = {root: images[(root, root)]}
        for p, c in tree:
            step = (images[(p, c)] if (p, c) in images
                    else images[(c, p)].conj().T)
            reach[c] = reach[p] @ step
        for i in cls:
            for j in cls:
                env[(i, j)] = (images[(i, j)] if (i, j) in images
                               else reach[i].conj().T @ reach[j])
    return env


def _residual_over(x: np.ndarray, tol: float) -> Optional[float]:
    """operator_norm(x) when it exceeds tol, else None.

    ||x||_2 <= ||x||_F, so a Frobenius norm within tol passes without an
    SVD. The relative margin of 1e-9 is far above the rounding of either
    computed norm, so the prefilter never passes what the SVD would reject.
    """
    if np.linalg.norm(x) <= tol * (1 - 1e-9):
        return None
    res = operator_norm(x)
    return res if res > tol else None


def validate_numeric(images: Mapping, source: DigraphAlgebra,
                     target: DigraphAlgebra,
                     tol: float = DEFAULT_TOL) -> NumericStarMap:
    """Check star consistency, range containment, and multiplicativity.

    images are keyed by exactly the source edges, with finite entries, and
    tol is finite and nonnegative. Raises the first violated identity with
    its residual. The multiplicativity sweep runs over all u^2 pairs of
    the u envelope matrix units; when u^2 exceeds _SWEEP_CAP, the star and
    range checks still run and then CapacityExceeded is raised. Every
    residual X is gated on ||X||_2 > tol; since ||X||_2 <= ||X||_F, one
    whose Frobenius norm is within tol passes without an SVD, and a raised
    error carries the spectral residual.

    Exactness. Each check takes the Frobenius norms of all its residuals
    in one batch, flags those above tol (1 - 1e-9) - delta, and recomputes
    only the flagged ones with the per-item expression, in the per-item
    order; so the verdict, the item named and the residual bits are those
    of a per-item loop. Star and range residuals are formed entry for entry
    as in that loop, so delta = 0. For a product E_a E_b the batch may sum
    in another order, and two such products of inner dimension <= n differ
    entrywise by at most 2 sqrt(2) gamma_2n |E_a||E_b| (Higham, Accuracy
    and Stability of Numerical Algorithms, 3.5), whose Frobenius norm is
    below delta_ab = 8 n eps ||E_a||_F ||E_b||_F, eps = 2^-52. The other
    roundings (subtraction, norms, SVD) are relative and far below the 1e-9
    margin, so a pair the per-pair loop rejects is always flagged. At
    tol = 0 every pair with nonzero norms is recomputed.

    Cost. When every envelope image is exactly zero off the diagonal
    blocks of the target's C*-classes, so is every product and residual,
    and the sweep multiplies only those blocks: u^2 sum_B m_B^3 flops for
    u envelope units and blocks of sizes m_B, against u^2 n^3 pair by pair,
    as one gemm per block in chunks of bounded size (_CHUNK_BYTES).
    Otherwise it multiplies one block of all n indices. The images are
    copied once, into the leading rows of the envelope stack, and those
    rows become the stack of the map returned.
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
    edges = sorted(source.edges)
    for (i, j) in edges:
        if (i, j) not in work:
            raise ShapeMismatch(f"missing image for matrix unit ({i},{j})")
    for (i, j) in sorted(work):
        if (i, j) not in source.edges:
            raise ShapeMismatch(
                f"image given for ({i},{j}), which is not a source edge")

    # envelope stack: the given images in edge order, then derived units
    units = edges + [(i, j) for cls in source.cstar_classes
                     for i in cls for j in cls if (i, j) not in work]
    stack = np.empty((len(units), target.n, target.n), dtype=complex)
    for p, e in enumerate(edges):
        stack[p] = work[e]
    given = stack[:len(edges)]
    pos = {e: p for p, e in enumerate(edges)}
    cut = tol * (1 - 1e-9)

    star = [(i, j) for (i, j) in edges if (j, i) in work and i <= j]
    a = [pos[(j, i)] for i, j in star]
    b = [pos[(i, j)] for i, j in star]
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

    if len(units) ** 2 > _SWEEP_CAP:
        raise CapacityExceeded(
            f"the multiplicativity sweep over {len(units)} envelope units "
            f"needs {len(units) ** 2} pairs, above the cap of {_SWEEP_CAP}",
            units=len(units), pairs=len(units) ** 2, cap=_SWEEP_CAP)
    env = _envelope_extension(work, source)
    for p in range(len(edges), len(units)):
        stack[p] = env[units[p]]
    stack.setflags(write=False)
    cls = np.array([target.class_index(i) for i in range(1, target.n + 1)])
    if ((stack != 0) & (cls[:, None] != cls)).any():
        blocks = [np.arange(target.n)]
    else:
        blocks = [np.array(c) - 1 for c in target.cstar_classes]
    _sweep_products(units, stack, blocks, tol)

    out = NumericStarMap(source, target, given, tol)
    out._env = dict(zip(units, stack))
    return out


# bytes of one chunk of batched products; with its temporaries the sweep's
# working set stays near 1 MiB
_CHUNK_BYTES = 1 << 19


def _frob2(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each x[p], for complex x."""
    v = np.ascontiguousarray(x).reshape(len(x), -1).view(float)
    return np.einsum("ij,ij->i", v, v)


def _flagged(sq: np.ndarray, cut) -> Iterable:
    """Index tuples, row-major, where sqrt(sq) is not <= cut (NaN is)."""
    return zip(*np.nonzero(~(np.sqrt(sq) <= cut)))


def _sweep_products(units: list, stack: np.ndarray, blocks: list,
                    tol: float) -> None:
    """Raise NotMultiplicative at the first failing pair of units x units.

    stack[p] is the image of units[p]; blocks are the target index arrays
    whose diagonal blocks carry every product. Pairs are taken in
    row-major order over the sorted units, as
    itertools.product(sorted(units), repeat=2); validate_numeric documents
    the batched flag test and its margin.
    """
    srt = sorted(units)
    us = np.array(srt)
    at = np.zeros((us.max() + 1,) * 2, dtype=int)
    at[tuple(np.array(units).T)] = np.arange(len(units))
    # stack row of each sorted unit
    li = at[us[:, 0], us[:, 1]]
    # rows (p, q, e): srt[p] = e_ij, srt[q] = e_jl, e = stack row of e_il
    p, q = np.nonzero(us[:, 1, None] == us[:, 0])
    trip = np.stack([p, q, at[us[p, 0], us[q, 1]]], axis=1)
    u = len(srt)
    sq = np.zeros((u, u))
    for idx in blocks:
        sb = stack[:, idx[:, None], idx]
        if not sb.any():
            continue
        m = len(idx)
        lhs = sb[li].reshape(-1, m)
        rhs = sb[li].transpose(1, 0, 2).reshape(m, -1)
        cb = max(1, min(u, _CHUNK_BYTES // (16 * m * m)))
        ca = max(1, _CHUNK_BYTES // (16 * m * m * cb))
        for a0 in range(0, u, ca):
            a1 = min(a0 + ca, u)
            for b0 in range(0, u, cb):
                b1 = min(b0 + cb, u)
                t = trip[(trip[:, 0] >= a0) & (trip[:, 0] < a1)
                         & (trip[:, 1] >= b0) & (trip[:, 1] < b1)]
                sq[a0:a1, b0:b1] += _chunk_residuals(
                    lhs[a0 * m:a1 * m], rhs[:, b0 * m:b1 * m],
                    t - (a0, b0, 0), sb)
    eps = np.finfo(float).eps
    norms = np.sqrt(_frob2(stack))[li]
    cut = tol * (1 - 1e-9) - 8 * stack.shape[1] * eps * np.outer(norms, norms)
    for p, q in _flagged(sq, cut):
        (i, j), (k, l) = srt[p], srt[q]
        prod = stack[li[p]] @ stack[li[q]]
        # units never leave a class, so j == k puts e_il in the envelope
        expected = stack[at[i, l]] if j == k else 0.0
        res = _residual_over(prod - expected, tol)
        if res is not None:
            raise NotMultiplicative((i, j), (k, l), res)


def _chunk_residuals(lhs: np.ndarray, rhs: np.ndarray, trip: np.ndarray,
                     sb: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of E_a E_b - expected over one chunk.

    lhs stacks the left units' rows, rhs the right units' columns (m each);
    trip rows (p, q, e) subtract sb[e] from the product of chunk pair (p, q).
    """
    m = rhs.shape[0]
    ca, cb = len(lhs) // m, rhs.shape[1] // m
    prod = lhs @ rhs
    prod.reshape(ca, m, cb, m)[trip[:, 0], :, trip[:, 1], :] -= sb[trip[:, 2]]
    v = prod.view(float).reshape(ca, m, cb, 2 * m)
    return np.einsum("aibj,aibj->ab", v, v)


def to_numeric(phi, phases: Optional[Sequence] = None) -> NumericStarMap:
    """Dense image stack of a standard regular map.

    A numeric map is returned unchanged. phases, when given, lists one
    extra weight mapping per summand of a standard map (None entries
    allowed); these multiply the summand's own weights. Strict unphased
    maps validate at tolerance 0.
    """
    if isinstance(phi, NumericStarMap):
        if phases is not None:
            raise ValueError("phases apply to standard maps only")
        return phi
    extra = list(phases) if phases is not None else [None] * len(phi.summands)
    if len(extra) != len(phi.summands):
        raise ValueError("one phase mapping per summand expected")
    n2 = phi.target.n
    edges = sorted(phi.source.edges)
    stack = np.zeros((len(edges), n2, n2), dtype=complex)
    for s, ph in zip(phi.summands, extra):
        dom = s.domain()
        for p, (i, j) in enumerate(edges):
            if i in dom and j in dom:
                c = s.unit_coeff(i, j)
                if ph is not None:
                    c = c * complex(ph.get(i, 1.0)) * np.conj(complex(ph.get(j, 1.0)))
                stack[p, s(i) - 1, s(j) - 1] += c
    if phases is None or all(p is None for p in extra):
        # images come straight off a validated standard map; repeating the
        # multiplicativity sweep here is pure cost
        return NumericStarMap(phi.source, phi.target, stack,
                              0.0 if phi.is_strict else 1e-12)
    return validate_numeric(dict(zip(edges, stack)), phi.source, phi.target,
                            tol=1e-12)


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
    return NumericStarMap(psi.source, phi.target, stack, max(tol, 1e-12))


def conjugate_numeric(u: np.ndarray, phi: NumericStarMap) -> NumericStarMap:
    """Ad(u) after phi for a unitary matrix over the target space.

    The dense products round, so the tolerance is floored at 1e-12 even for
    an exact source, as in numeric_compose.
    """
    return NumericStarMap(phi.source, phi.target, u @ phi.stack @ u.conj().T,
                          max(phi.tolerance, 1e-12))


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
