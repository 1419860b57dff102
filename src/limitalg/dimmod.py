"""Dimension-module invariants over the band semiring.

A stage whose classes are all full upper-triangular band algebras T_r x M_m
contributes a free module with one generator per class over the semiring of
formal nonnegative combinations of monotone endofunctions of {1..r}. Regular
maps act by matrices over that semiring, composition goes to matrix product,
and the direct-limit data is the staged sequence of those matrices. For
r = 1 this collapses to ordinary K0-style multiplicity bookkeeping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import rational_rank
from .errors import (BandMismatch, CapacityExceeded, DepthUnavailable,
                     DimensionMismatch, InternalError, NotTrBand,
                     ShapeMismatch, UsageError)
from .homs import StandardRegularMap
from .intertwine import DirectSystem

MONOTONE_LIMIT = 8

EQUAL = "Equal"
DISTINCT = "Distinct"
NOT_YET_DISTINGUISHABLE = "NotYetDistinguishable"


@dataclass(frozen=True)
class MonotoneMap:
    """Monotone endofunction of {1..r}, recorded by its value tuple."""

    r: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values",
                           tuple(int(v) for v in self.values))
        if len(self.values) != self.r:
            raise ValueError("value tuple length must equal r")
        last = 1
        for v in self.values:
            if not 1 <= v <= self.r:
                raise ValueError(f"value {v} outside 1..{self.r}")
            if v < last:
                raise ValueError("values must be nondecreasing")
            last = v

    @classmethod
    def identity(cls, r: int) -> "MonotoneMap":
        return cls(r, tuple(range(1, r + 1)))

    def __call__(self, p: int) -> int:
        return self.values[p - 1]

    def compose(self, other: "MonotoneMap") -> "MonotoneMap":
        """self after other."""
        if self.r != other.r:
            raise BandMismatch(f"cannot compose maps of {self.r} and {other.r} bands")
        return MonotoneMap(self.r, tuple(self.values[v - 1] for v in other.values))

    def preimage_size(self, t: int) -> int:
        return sum(1 for v in self.values if v == t)

    @property
    def is_identity(self) -> bool:
        return self.values == tuple(range(1, self.r + 1))

    def as_payload(self) -> list:
        return list(self.values)


def enumerate_monotone(r: int) -> list:
    """All monotone endofunctions of {1..r} in lexicographic value order."""
    if r < 1:
        raise ValueError("r must be positive")
    if r > MONOTONE_LIMIT:
        raise CapacityExceeded(
            f"monotone enumeration capped at r={MONOTONE_LIMIT}, got {r}",
            limit=MONOTONE_LIMIT, requested=r)
    out = []
    for vals in itertools.combinations_with_replacement(range(1, r + 1), r):
        out.append(MonotoneMap(r, vals))
    return out


class SemiringElement:
    """Formal nonnegative-integer combination of monotone maps, fixed r."""

    __slots__ = ("r", "_terms")

    def __init__(self, r: int, terms=None):
        self.r = int(r)
        clean = {}
        for theta, coeff in dict(terms or {}).items():
            if theta.r != self.r:
                raise BandMismatch(
                    f"term has {theta.r} bands, element has {self.r}")
            c = int(coeff)
            if c < 0:
                raise ValueError("coefficients must be nonnegative")
            if c:
                clean[theta] = clean.get(theta, 0) + c
        self._terms = clean

    @classmethod
    def single(cls, theta: MonotoneMap, coeff: int = 1) -> "SemiringElement":
        return cls(theta.r, {theta: coeff})

    def terms(self) -> tuple:
        return tuple(sorted(self._terms.items(), key=lambda p: p[0].values))

    def coeff(self, theta: MonotoneMap) -> int:
        return self._terms.get(theta, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def scale(self, k: int) -> "SemiringElement":
        k = int(k)
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return SemiringElement(self.r, {t: c * k for t, c in self._terms.items()})

    def __add__(self, other: "SemiringElement") -> "SemiringElement":
        return semiring_add(self, other)

    def __mul__(self, other: "SemiringElement") -> "SemiringElement":
        return semiring_mul(self, other)

    def __rmul__(self, k: int) -> "SemiringElement":
        if isinstance(k, int):
            return self.scale(k)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (isinstance(other, SemiringElement) and self.r == other.r
                and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.r, self.terms()))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"SemiringElement(r={self.r}, 0)"
        body = " + ".join(f"{c}*{list(t.values)}" for t, c in self.terms())
        return f"SemiringElement(r={self.r}, {body})"

    def as_payload(self) -> dict:
        return {"terms": [{"map": t.as_payload(), "coeff": c}
                          for t, c in self.terms()]}


def semiring_zero(r: int) -> SemiringElement:
    return SemiringElement(r, {})


def semiring_one(r: int) -> SemiringElement:
    return SemiringElement.single(MonotoneMap.identity(r))


def _same_band(a: SemiringElement, b: SemiringElement) -> None:
    if a.r != b.r:
        raise BandMismatch(f"band counts differ: {a.r} vs {b.r}")


def semiring_add(a: SemiringElement, b: SemiringElement) -> SemiringElement:
    _same_band(a, b)
    terms = dict(a._terms)
    for t, c in b._terms.items():
        terms[t] = terms.get(t, 0) + c
    return SemiringElement(a.r, terms)


def semiring_mul(a: SemiringElement, b: SemiringElement) -> SemiringElement:
    """Convolution product: [theta] * [sigma] = [theta o sigma]."""
    _same_band(a, b)
    terms = {}
    for t1, c1 in a._terms.items():
        for t2, c2 in b._terms.items():
            t = t1.compose(t2)
            terms[t] = terms.get(t, 0) + c1 * c2
    return SemiringElement(a.r, terms)


class StageModule:
    """Element of the free module: one semiring entry per summand class."""

    __slots__ = ("r", "entries")

    def __init__(self, r: int, entries):
        self.r = int(r)
        self.entries = tuple(entries)
        for e in self.entries:
            if e.r != self.r:
                raise BandMismatch(f"entry has {e.r} bands, module has {self.r}")

    @classmethod
    def zero(cls, r: int, width: int) -> "StageModule":
        return cls(r, tuple(semiring_zero(r) for _ in range(width)))

    def __len__(self) -> int:
        return len(self.entries)

    def __add__(self, other: "StageModule") -> "StageModule":
        if not isinstance(other, StageModule):
            return NotImplemented
        if self.r != other.r:
            raise BandMismatch(f"band counts differ: {self.r} vs {other.r}")
        if len(self.entries) != len(other.entries):
            raise ShapeMismatch(
                f"widths differ: {len(self.entries)} vs {len(other.entries)}")
        return StageModule(self.r, tuple(a + b for a, b in
                                         zip(self.entries, other.entries)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, StageModule) and self.r == other.r
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.r, self.entries))

    def __repr__(self) -> str:
        return f"StageModule(r={self.r}, width={len(self.entries)})"

    def as_payload(self) -> dict:
        return {"r": self.r,
                "entries": [e.as_payload() for e in self.entries]}


class ModuleMapMatrix:
    """Semiring matrix acting on stage modules: rows target, columns source."""

    __slots__ = ("r", "entries")

    def __init__(self, r: int, entries):
        self.r = int(r)
        rows = tuple(tuple(row) for row in entries)
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise ShapeMismatch("matrix rows have unequal lengths")
                for e in row:
                    if e.r != self.r:
                        raise BandMismatch(
                            f"entry has {e.r} bands, matrix has {self.r}")
        self.entries = rows

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, ModuleMapMatrix) and self.r == other.r
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"ModuleMapMatrix(r={self.r}, {self.rows}x{self.cols})"

    def as_payload(self) -> dict:
        return {"r": self.r,
                "entries": [[e.as_payload() for e in row]
                            for row in self.entries]}


def induced_map(m: ModuleMapMatrix, x: StageModule) -> StageModule:
    """Apply the matrix: y_c = sum_b m[c][b] * x_b."""
    if m.r != x.r:
        raise BandMismatch(f"band counts differ: {m.r} vs {x.r}")
    if m.cols != len(x.entries):
        raise DimensionMismatch(
            f"matrix expects width {m.cols}, element has {len(x.entries)}")
    out = []
    for row in m.entries:
        acc = semiring_zero(m.r)
        for e, xb in zip(row, x.entries):
            acc = acc + (e * xb)
        out.append(acc)
    return StageModule(m.r, tuple(out))


def matrix_product(m1: ModuleMapMatrix, m2: ModuleMapMatrix) -> ModuleMapMatrix:
    """Composite action m1 after m2; entry (c,b) = sum_e m1[c][e] * m2[e][b]."""
    if m1.r != m2.r:
        raise BandMismatch(f"band counts differ: {m1.r} vs {m2.r}")
    if m1.cols != m2.rows:
        raise DimensionMismatch(
            f"inner dimensions differ: {m1.cols} vs {m2.rows}")
    out = []
    for c in range(m1.rows):
        row = []
        for b in range(m2.cols):
            acc = semiring_zero(m1.r)
            for e in range(m1.cols):
                acc = acc + (m1.entries[c][e] * m2.entries[e][b])
            row.append(acc)
        out.append(tuple(row))
    return ModuleMapMatrix(m1.r, tuple(out))


# stage shape recognition

@dataclass(frozen=True)
class TrSummandShape:
    blocks: tuple  # block indices in band order (ascending)
    size: int      # common block size

    @property
    def r(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class TrShape:
    r: int
    summands: tuple

    @property
    def width(self) -> int:
        return len(self.summands)


def tr_shape(a) -> TrShape:
    """Recognize each class of a as a full T_r band, common r, or NotTrBand."""
    summands = []
    r = None
    for c in range(len(a.cstar_classes)):
        blocks = a.class_blocks(c)
        sizes = {len(a.blocks[b]) for b in blocks}
        if len(sizes) != 1:
            raise NotTrBand(f"class {c} has unequal block sizes {sorted(sizes)}",
                            cls=c)
        for p in range(len(blocks)):
            for q in range(p, len(blocks)):
                if (blocks[p], blocks[q]) not in a.reduced.edges:
                    raise NotTrBand(
                        f"class {c} is missing the band edge {p + 1}->{q + 1}",
                        cls=c)
                if p < q and (blocks[q], blocks[p]) in a.reduced.edges:
                    raise NotTrBand(
                        f"class {c} has a reverse band edge {q + 1}->{p + 1}",
                        cls=c)
        if r is None:
            r = len(blocks)
        elif len(blocks) != r:
            raise NotTrBand(
                f"class {c} has {len(blocks)} bands, expected {r}", cls=c)
        summands.append(TrSummandShape(tuple(blocks), sizes.pop()))
    if r is None:
        raise NotTrBand("algebra has no classes")
    return TrShape(r, tuple(summands))


def class_of_map(phi: StandardRegularMap) -> ModuleMapMatrix:
    """Matrix of band maps induced by a standard regular map.

    Entry (c, b) collects one monotone-map term per maximal summand that
    carries source class b into target class c; weights are invisible here,
    inner-conjugate maps give the same matrix.
    """
    src_shape = tr_shape(phi.source)
    tgt_shape = tr_shape(phi.target)
    if src_shape.r != tgt_shape.r:
        raise BandMismatch(
            f"source has {src_shape.r} bands, target has {tgt_shape.r}")
    r = src_shape.r
    src, tgt = phi.source, phi.target
    tgt_pos = {}
    for c, summ in enumerate(tgt_shape.summands):
        for q, blk in enumerate(summ.blocks):
            tgt_pos[blk] = (c, q + 1)
    entries = [[semiring_zero(r) for _ in range(src_shape.width)]
               for _ in range(tgt_shape.width)]
    for key in phi.class_multiset():
        tau = dict(key)
        b = src.class_of_block(key[0][0])
        c = tgt_pos[key[0][1]][0]
        values = []
        for blk in src_shape.summands[b].blocks:
            cc, q = tgt_pos[tau[blk]]
            if cc != c:
                raise InternalError("summand image straddles target classes")
            values.append(q)
        theta = MonotoneMap(r, tuple(values))
        entries[c][b] = entries[c][b] + SemiringElement.single(theta)
    return ModuleMapMatrix(r, tuple(tuple(row) for row in entries))


# scale

@dataclass(frozen=True)
class ScaleConstraint:
    """Per-summand slot capacities (the M_m size of each class)."""

    r: int
    caps: tuple

    def __post_init__(self):
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))
        if any(c < 1 for c in self.caps):
            raise ValueError("capacities must be positive")


def in_scale(x: StageModule, scale: ScaleConstraint) -> bool:
    """Slot count per band: sum_theta x_b(theta) * |theta^-1(t)| <= cap_b."""
    if x.r != scale.r:
        raise BandMismatch(f"band counts differ: {x.r} vs {scale.r}")
    if len(x.entries) != len(scale.caps):
        raise DimensionMismatch(
            f"element width {len(x.entries)} vs {len(scale.caps)} capacities")
    for xb, cap in zip(x.entries, scale.caps):
        for t in range(1, x.r + 1):
            used = sum(c * theta.preimage_size(t) for theta, c in xb.terms())
            if used > cap:
                return False
    return True


# staged limit data

def matrix_injective(m: ModuleMapMatrix) -> bool:
    """Sound (for r > 1 incomplete) injectivity test for the induced map.

    r = 1 reduces to an integer matrix, where injectivity on nonnegative
    tuples equals full column rank. For larger r we only certify the case
    where every source summand has a pass-through row: some row whose only
    nonzero entry in that column is a multiple of the identity band map.
    """
    if m.cols == 0:
        return True
    if m.r == 1:
        one = MonotoneMap.identity(1)
        rows = [[e.coeff(one) for e in row] for row in m.entries]
        return rational_rank(rows) == m.cols
    for b in range(m.cols):
        ok = False
        for c in range(m.rows):
            e = m.entries[c][b]
            terms = e.terms()
            if len(terms) != 1 or not terms[0][0].is_identity:
                continue
            if all(m.entries[c][b2].is_zero for b2 in range(m.cols) if b2 != b):
                ok = True
                break
        if not ok:
            return False
    return True


@dataclass(frozen=True)
class LimitElement:
    """Module element remembered together with its birth stage."""

    presentation: "LimitPresentation"
    stage: int
    value: StageModule


class LimitPresentation:
    """Staged colimit data: one module per stage, one matrix per connector.

    Stage indices are 0-based and follow the underlying system, including
    the periodic overflow through the final endomorphic connector. All
    comparisons are stage-bounded; elements carry their birth stage.
    """

    __slots__ = ("system", "shapes", "matrices", "injective")

    def __init__(self, system: DirectSystem, shapes, matrices, injective):
        self.system = system
        self.shapes = tuple(shapes)
        self.matrices = tuple(matrices)
        self.injective = tuple(injective)

    @property
    def r(self) -> int:
        return self.shapes[0].r

    def stage_count(self) -> int:
        return len(self.shapes)

    def shape(self, k: int) -> TrShape:
        if k >= len(self.shapes):
            if self.system.periodic:
                return self.shapes[-1]
            raise DepthUnavailable(k, len(self.shapes) - 1)
        return self.shapes[k]

    def matrix(self, k: int) -> ModuleMapMatrix:
        if k >= len(self.matrices):
            if self.system.periodic:
                return self.matrices[-1]
            raise DepthUnavailable(k, len(self.matrices) - 1)
        return self.matrices[k]

    def element(self, stage: int, entries) -> LimitElement:
        shape = self.shape(stage)
        value = StageModule(self.r, tuple(entries))
        if len(value.entries) != shape.width:
            raise DimensionMismatch(
                f"stage {stage} has width {shape.width}, "
                f"element has {len(value.entries)}")
        return LimitElement(self, stage, value)

    def push(self, e: LimitElement, m: int) -> StageModule:
        """Image of e at stage m >= e.stage."""
        if e.presentation is not self:
            raise UsageError("element belongs to a different presentation")
        if m < e.stage:
            raise UsageError(f"cannot push from stage {e.stage} back to {m}")
        if m >= len(self.shapes) and not self.system.periodic:
            raise DepthUnavailable(m, len(self.shapes) - 1)
        value = e.value
        for k in range(e.stage, m):
            value = induced_map(self.matrix(k), value)
        return value

    def injective_from(self, m: int) -> bool:
        """All connectors at stages >= m certified injective."""
        tail = self.injective[min(m, len(self.injective)):]
        if not all(tail):
            return False
        if self.system.periodic:
            return self.injective[-1]
        return True


def limit_presentation(sys: DirectSystem) -> LimitPresentation:
    shapes = [tr_shape(sys.stage_algebra(k))
              for k in range(sys.available_stages())]
    r = shapes[0].r
    for k, s in enumerate(shapes):
        if s.r != r:
            raise BandMismatch(f"stage {k} has {s.r} bands, stage 0 has {r}")
    matrices = [class_of_map(sys.connector(k))
                for k in range(sys.available_stages() - 1)]
    flags = [matrix_injective(m) for m in matrices]
    return LimitPresentation(sys, shapes, matrices, flags)


def equal_up_to_stage(e1: LimitElement, e2: LimitElement, m: int) -> str:
    """Stage-bounded comparison of two limit elements.

    Equal when the pushes agree at stage m. When they differ, the verdict is
    Distinct only if every later connector in the presentation is certified
    injective, so the difference cannot collapse; otherwise the honest
    answer is NotYetDistinguishable.
    """
    if e1.presentation is not e2.presentation:
        raise UsageError("elements belong to different presentations")
    pres = e1.presentation
    if pres.push(e1, m) == pres.push(e2, m):
        return EQUAL
    if pres.injective_from(m):
        return DISTINCT
    return NOT_YET_DISTINGUISHABLE


# enveloping group at a stage

class GroupElement:
    """Formal difference plus - minus of stage-module elements, reduced."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: StageModule, minus: StageModule):
        if plus.r != minus.r:
            raise ShapeMismatch(f"band counts differ: {plus.r} vs {minus.r}")
        if len(plus.entries) != len(minus.entries):
            raise ShapeMismatch(
                f"widths differ: {len(plus.entries)} vs {len(minus.entries)}")
        pe, me = [], []
        for p, q in zip(plus.entries, minus.entries):
            pt, mt = {}, {}
            for theta in set(dict(p.terms())) | set(dict(q.terms())):
                d = p.coeff(theta) - q.coeff(theta)
                if d > 0:
                    pt[theta] = d
                elif d < 0:
                    mt[theta] = -d
            pe.append(SemiringElement(plus.r, pt))
            me.append(SemiringElement(plus.r, mt))
        self.plus = StageModule(plus.r, tuple(pe))
        self.minus = StageModule(plus.r, tuple(me))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        # cross-addition in the Grothendieck construction; on reduced
        # representatives this is just componentwise equality
        try:
            return (self.plus + other.minus) == (other.plus + self.minus)
        except (BandMismatch, ShapeMismatch):
            return False

    def __hash__(self) -> int:
        return hash((self.plus, self.minus))

    def __repr__(self) -> str:
        return f"GroupElement(width={len(self.plus.entries)}, r={self.plus.r})"

    def as_payload(self) -> dict:
        return {"plus": self.plus.as_payload(),
                "minus": self.minus.as_payload()}
