"""Finite-dimensional digraph algebras and their block combinatorics.

An algebra here is the span of matrix units e_ij over a reflexive transitive
relation on {1..n}. The diagonal masa is the span of the e_ii. Everything
downstream (maps, witnesses, censuses) is phrased in terms of the derived
block data computed once at construction time:

* blocks: classes of the mutual-edge relation, i.e. minimal central supports
  of A intersect A*. Ordered by least element.
* cstar_classes: connected components of the symmetrised edge relation, i.e.
  the simple summands of the generated C*-algebra.
* class_trees: one breadth-first spanning tree per cstar class, rooted at
  its least index with neighbours taken in ascending order, as the tuple of
  (parent, child) edges in visiting order. Envelope images and intertwiner
  generators are both read off these trees.
* reduced: the digraph induced on blocks. The original edge set is exactly
  the full blow-up of the reduced one, which several routines rely on.

Indices are 1-based throughout; all containers are immutable after build.
"""

from __future__ import annotations

import functools
import operator
import weakref
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, repeat
from typing import Optional

import numpy as np

from .errors import NotInjective, NotOrthogonal, NotReflexive, NotTransitive
from .tolerance import EXACT_SLACK


@dataclass(frozen=True)
class Digraph:
    """A relation on {1..n}; reflexivity/transitivity checked by the builder."""

    n: int
    edges: frozenset


def _check_relation(n: int, edges: frozenset) -> None:
    """Raise the first problem with a relation in scan order: n < 1, the
    least edge out of range, the least index without its loop, the least
    transitivity witness (i, j, k). DigraphAlgebra runs it only once one
    of its set tests has failed."""
    if n < 1:
        raise ValueError("n must be positive")
    bad = [(i, j) for (i, j) in edges if not (1 <= i <= n and 1 <= j <= n)]
    if bad:
        i, j = min(bad)
        raise ValueError(f"edge ({i},{j}) out of range 1..{n}")
    for i in range(1, n + 1):
        if (i, i) not in edges:
            raise NotReflexive(i)
    # successor lists, and successor sets as int bitmasks (bit j for j)
    succ = [[] for _ in range(n + 1)]
    bits = [0] * (n + 1)
    for (i, j) in edges:
        succ[i].append(j)
        bits[i] |= 1 << j
    # the least witness (i, j, k) in scan order: the first j of i whose
    # successors are not all successors of i, and the least such k
    for i in range(1, n + 1):
        mine = bits[i]
        reach = functools.reduce(operator.or_, map(bits.__getitem__, succ[i]))
        if reach & ~mine:
            for j in sorted(succ[i]):
                extra = bits[j] & ~mine
                if extra:
                    k = (extra & -extra).bit_length() - 1
                    raise NotTransitive(i, j, k)


class DigraphAlgebra:
    """Validated digraph algebra with its block structure precomputed.

    Do not call directly; use build_digraph_algebra or one of the model
    builders below. The builder returns the live instance for an equal
    relation, so instances compare by identity.

    The relation is validated and its structure built on its blocks. The
    edges are grouped once into successor sets S(i), and the indices by
    equal successor set; two lemmas let the groups do the rest.

    * On a reflexive relation, S(i) = S(j) joins i and j both ways (j lies
      in S(j) = S(i), i in S(i) = S(j)); on a transitive one the converse
      holds. So on a preorder the groups are the blocks, and numbered by
      first appearance they come in order of least index.
    * A reflexive relation is transitive exactly when, for every group
      with successor set T, T is the union of the groups it meets and
      each group it meets meets only groups that T meets. Then the
      successor set of any j in T lies in the groups j's group meets,
      all inside T; on a preorder T is a union of blocks and holds S(j).
      A group meeting only itself passes at once, T being the successor
      set of each of its members. For any other, the sizes of the groups
      met must add up to |T|, and the bitmasks of the groups met by the
      groups it meets must OR to its own.

    Grouping, range and reflexivity tests, the reduced edges, neighbours,
    C*-classes and class trees take O(n + reduced edges) Python steps,
    the per-edge work running in C. The transitivity test is one add and
    one OR per reduced edge, each OR over a bitmask of one bit per block,
    so on a chain of r blocks it is about r^2/2 ORs of r-bit ints, where
    _check_relation ORs one n-bit mask per edge. Only when a test fails
    does _check_relation scan the edges, so the error names the least
    witness.
    """

    __slots__ = ("graph", "blocks", "cstar_classes", "class_trees", "reduced",
                 "_block_of", "_class_of", "_block_of_block", "_neighbours",
                 "_mask", "_units", "_layout", "__weakref__")

    def __init__(self, graph: Digraph):
        self.graph = graph
        self._mask = None
        self._units = None
        self._layout = None
        n, edges = graph.n, graph.edges
        ids = range(1, n + 1)
        succ = {i: [] for i in ids}
        try:
            for i, j in edges:
                succ[i].append(j)
        except KeyError:  # a source out of range
            _check_relation(n, edges)
        # the indices grouped by successor set, in order of least index
        groups = {}
        for i in ids:
            groups.setdefault(frozenset(succ[i]), []).append(i)
        tops = list(groups)
        if not (n >= 1 and edges.issuperset(zip(ids, ids))
                and set(ids).issuperset(chain.from_iterable(tops))):
            _check_relation(n, edges)
        blocks = tuple(map(tuple, groups.values()))
        block_of = {i: r for r, blk in enumerate(blocks) for i in blk}
        # hits[r]: the blocks reached from block r, its reduced successors.
        # A group that reaches only itself needs no test, T being the
        # successor set of each of its members. Any other, with its hits
        # as a bitmask reach[r] (bit s for block s), must reach whole
        # groups (their sizes add up to |T|) and reach what they reach
        # (one OR per hit that reaches further)
        hits = [frozenset(map(block_of.__getitem__, t)) for t in tops]
        size = list(map(len, blocks))
        reach = {r: sum(map((1).__lshift__, h))
                 for r, h in enumerate(hits) if len(h) > 1}
        for r, m in reach.items():
            if (len(tops[r]) != sum(map(size.__getitem__, hits[r]))
                    or m != functools.reduce(
                        operator.or_, map(reach.get, hits[r], repeat(0)))):
                _check_relation(n, edges)
        self.blocks, self._block_of = blocks, block_of
        self.reduced = Digraph(len(blocks), frozenset(chain.from_iterable(
            map(zip, map(repeat, count()), hits))))

        # near[r]: the blocks joined to block r either way, r included; a
        # block near only itself is a whole C*-class
        near = list(map(set, hits))
        for r, h in enumerate(hits):
            if len(h) > 1:
                for s in h:
                    near[s].add(r)
        nbrs = [()] * (n + 1)
        for r, blk in enumerate(blocks):
            row = (blk if len(near[r]) == 1 else tuple(sorted(
                chain.from_iterable(map(blocks.__getitem__, near[r])))))
            for i in blk:
                k = row.index(i)
                nbrs[i] = row[:k] + row[k + 1:]
        self._neighbours = tuple(nbrs)

        # cstar classes, each with its BFS tree. An index and its neighbours
        # are whole blocks, so a block is found whole among one index's
        # sorted children; its least index is visited first and finds every
        # new block near it, and its later indices find none
        found = [False] * len(blocks)
        classes, trees = [], []
        for r0, blk in enumerate(blocks):
            if found[r0]:
                continue
            if len(near[r0]) == 1:
                classes.append(blk)
                trees.append(tuple(zip(repeat(blk[0]), blk[1:])))
                continue
            found[r0] = True
            queue, tree = [r0], []
            for r in queue:
                new = sorted(s for s in near[r] if not found[s])
                for s in new:
                    found[s] = True
                kids = sorted(chain(blk[1:] if r == r0 else (),
                                    *map(blocks.__getitem__, new)))
                tree += zip(repeat(blocks[r][0]), kids)
                queue += new
            classes.append(tuple(sorted(chain.from_iterable(
                map(blocks.__getitem__, queue)))))
            trees.append(tuple(tree))
        self.cstar_classes = tuple(classes)
        self.class_trees = tuple(trees)
        self._class_of = {i: c for c, cls in enumerate(classes) for i in cls}
        self._block_of_block = tuple(self._class_of[blk[0]] for blk in blocks)

    # passthrough conveniences
    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edges(self) -> frozenset:
        return self.graph.edges

    def block_index(self, i: int) -> int:
        return self._block_of[i]

    def class_index(self, i: int) -> int:
        return self._class_of[i]

    def class_of_block(self, r: int) -> int:
        return self._block_of_block[r]

    def block_sizes(self) -> tuple:
        return tuple(len(b) for b in self.blocks)

    def class_blocks(self, c: int) -> tuple:
        """Block indices contained in cstar class c, ascending."""
        return tuple(r for r in range(len(self.blocks))
                     if self._block_of_block[r] == c)

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.graph.edges

    def neighbours(self, i: int) -> tuple:
        """Indices other than i joined to i by an edge either way,
        ascending; they all lie in the cstar class of i."""
        return self._neighbours[i]

    def support_mask(self) -> np.ndarray:
        """Read-only boolean n x n mask, True exactly on edge positions;
        built on first use and shared by every caller."""
        if self._mask is None:
            at = np.array(list(self.graph.edges), dtype=int).reshape(-1, 2)
            at -= 1
            mask = np.zeros((self.n, self.n), dtype=bool)
            mask[at[:, 0], at[:, 1]] = True
            mask.setflags(write=False)
            self._mask = mask
        return self._mask

    def envelope_units(self) -> tuple:
        """(units, row): the matrix units of the generated C*-algebra, and
        their positions; built on first use and shared by every caller.

        units lists the sorted edges, then the other within-class units
        class by class, each class row-major. row is a read-only
        (n+1) x (n+1) int array with row[i, j] the position of e_ij in
        units, and -1 off the envelope.
        """
        if self._units is None:
            units = sorted(self.graph.edges) + [
                (i, j) for cls in self.cstar_classes for i in cls for j in cls
                if (i, j) not in self.graph.edges]
            row = np.full((self.n + 1,) * 2, -1, dtype=int)
            row[tuple(np.array(units).T)] = np.arange(len(units))
            row.setflags(write=False)
            self._units = (tuple(units), row)
        return self._units

    def block_layout(self) -> "BlockLayout":
        """0-based index arrays of the blocks and of the C*-classes, for
        gathers over all of them at once; built on first use and shared
        by every caller."""
        if self._layout is None:
            self._layout = BlockLayout(_partition(self.n, self.blocks),
                                       _partition(self.n, self.cstar_classes))
        return self._layout

    def __repr__(self) -> str:
        return (f"DigraphAlgebra(n={self.n}, blocks={len(self.blocks)}, "
                f"classes={len(self.cstar_classes)})")


@dataclass(frozen=True)
class Partition:
    """A partition of the 0-based indices 0..n-1 into parts, as read-only
    arrays.

    of[i] is the part of index i; parts[p] lists part p ascending;
    padded[p] is parts[p] left-aligned and padded with index 0 to the
    largest part's size, and real is False exactly on the padding;
    indicator[i, p] is 1.0 when index i lies in part p, else 0.0.
    """

    of: np.ndarray
    parts: tuple
    padded: np.ndarray
    real: np.ndarray
    indicator: np.ndarray

    @functools.cached_property
    def cells(self) -> tuple:
        """(block, dense): the flat positions of the cells (i, j) with i
        and j in one part, row-major by part, in a (parts, width, width)
        stack of padded diagonal blocks and in the n x n matrix; read-only,
        built on first use."""
        p, a, b = np.nonzero(self.real[:, :, None] & self.real[:, None, :])
        width = self.padded.shape[1]
        block = (p * width + a) * width + b
        dense = self.padded[p, a] * len(self.of) + self.padded[p, b]
        block.setflags(write=False)
        dense.setflags(write=False)
        return block, dense

    @functools.cached_property
    def apart(self) -> np.ndarray:
        """Read-only bool (n, 2n) mask of the cells (i, j) with i and j in
        different parts, each doubled along its row, as the float view of
        a complex n x n matrix interleaves real and imaginary parts; built
        on first use."""
        apart = np.repeat(self.of[:, None] != self.of, 2, axis=1)
        apart.setflags(write=False)
        return apart


def _partition(n: int, parts: Sequence) -> Partition:
    width = max(map(len, parts))
    of = np.empty(n, dtype=int)
    padded = np.zeros((len(parts), width), dtype=int)
    real = np.zeros((len(parts), width), dtype=bool)
    arrays = []
    for p, part in enumerate(parts):
        idx = np.array(part, dtype=int) - 1
        of[idx] = p
        padded[p, :len(idx)] = idx
        real[p, :len(idx)] = True
        idx.setflags(write=False)
        arrays.append(idx)
    indicator = (of[:, None] == np.arange(len(parts))).astype(float)
    for a in (of, padded, real, indicator):
        a.setflags(write=False)
    return Partition(of, tuple(arrays), padded, real, indicator)


@dataclass(frozen=True)
class BlockLayout:
    """The blocks and the C*-classes of an algebra as Partitions."""

    blocks: Partition
    classes: Partition


# Built algebras by (n, edges), held weakly: an algebra is immutable, only
# validated relations are stored, and an entry lives only as long as some
# caller holds the algebra. So equal live algebras are one object.
_INTERNED = weakref.WeakValueDictionary()


def build_digraph_algebra(n: int, edges: Iterable) -> DigraphAlgebra:
    """Validate a relation and return the algebra with derived structure.

    Raises ValueError for n < 1 or an edge out of range (the least one),
    else NotReflexive(i) or NotTransitive(i,j,k) with the least violating
    witness in scan order. While an algebra on the same relation is alive,
    that same instance is returned.

    The algebra is built on its blocks by two lemmas (see DigraphAlgebra):
    on a preorder the indices with equal successor sets form the blocks,
    and a reflexive relation is transitive exactly when each such group's
    successor set is the union of the groups it meets, and those groups
    meet only groups it meets.
    """
    return _interned(n, frozenset((int(i), int(j)) for (i, j) in edges))


def _interned(n: int, eset: frozenset) -> DigraphAlgebra:
    """build_digraph_algebra on edges already given as a frozenset of int
    pairs, so a caller that has checked its rows converts them only once.

    A new relation is validated and built on its blocks by the two lemmas
    of DigraphAlgebra: equal successor sets group a preorder's indices
    into its blocks, and transitivity is decided on the groups, one add
    and one bitmask OR per reduced edge. Only a relation failing a test
    is scanned edge by edge.
    """
    key = (n, eset)
    a = _INTERNED.get(key)
    if a is None:
        a = _INTERNED[key] = DigraphAlgebra(Digraph(n, eset))
    return a


# model builders

def tr_algebra(r: int, size: int = 1) -> DigraphAlgebra:
    """Upper-triangular band algebra T_r tensor M_size.

    Band t occupies indices (t-1)*size+1 .. t*size; edges run from lower
    bands to higher bands, full within each band pair.
    """
    size = operator.index(size)
    n = operator.index(r) * size
    band = lambda i: (i - 1) // size
    return _interned(n, frozenset(
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1)
        if band(i) <= band(j)))


def full_matrix_algebra(k: int) -> DigraphAlgebra:
    return tr_algebra(1, k)


def diagonal_algebra(k: int) -> DigraphAlgebra:
    k = operator.index(k)
    return _interned(k, frozenset((i, i) for i in range(1, k + 1)))


def tensor_model(a: DigraphAlgebra, m: int) -> DigraphAlgebra:
    """A tensor M_m with index (i, c) stored at (i-1)*m + c."""
    m = operator.index(m)
    return _interned(a.n * m, frozenset(
        ((i - 1) * m + c, (j - 1) * m + d)
        for (i, j) in a.edges
        for c in range(1, m + 1) for d in range(1, m + 1)))


def direct_sum_algebra(*parts: DigraphAlgebra) -> DigraphAlgebra:
    edges = []
    offset = 0
    for p in parts:
        edges.extend((i + offset, j + offset) for (i, j) in p.edges)
        offset += p.n
    return _interned(offset, frozenset(edges))


@dataclass(frozen=True)
class StandardProjection:
    """0/1 diagonal projection: the sum of e_ii over the support set."""

    algebra: DigraphAlgebra
    support: frozenset

    def __post_init__(self):
        for i in self.support:
            if not (1 <= i <= self.algebra.n):
                raise ValueError(f"support index {i} out of range")

    @property
    def rank(self) -> int:
        return len(self.support)

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.algebra.n, self.algebra.n), dtype=complex)
        for i in self.support:
            m[i - 1, i - 1] = 1.0
        return m


def projection(algebra: DigraphAlgebra, support: Iterable) -> StandardProjection:
    return StandardProjection(algebra, frozenset(int(i) for i in support))


class StandardPartialIsometry:
    """Partial injection form: sum over pairs i -> j of phase_i * e_ji.

    The masa is normalized by construction. Membership in the algebra itself
    is a separate predicate (is_normalizing). Total instances are monomial
    unitaries and support exact composition, adjoint, and Ad arithmetic,
    which the witness machinery depends on: with phases drawn from the
    fourth roots of unity every operation stays exact in floating point.

    Held as tuples over 0..n of the image _to[i] of i and its phase _ph[i],
    0 and 1 off the domain and at slot 0. One pass in ascending i checks
    every instance, given or _derived: range, injectivity, unimodularity.
    """

    __slots__ = ("algebra", "_to", "_ph")

    def __init__(self, algebra: DigraphAlgebra,
                 pairs: Mapping[int, int] | Iterable,
                 phases: Optional[Mapping[int, complex]] = None):
        if not isinstance(pairs, Mapping):
            pairs = dict(pairs)
        n = algebra.n
        to, ph = [0] * (n + 1), [1.0 + 0.0j] * (n + 1)
        for i, j in pairs.items():
            i, j = int(i), int(j)
            if not (1 <= i <= n and j):
                self._pass(algebra, to, ph)  # so earlier pairs fail first
                raise ValueError(f"pair {i}->{j} out of range")
            if to[i]:
                raise NotInjective(i, i, to[i])
            to[i] = j
        keyed = isinstance(phases, Mapping)
        for i in range(1, n + 1) if phases is not None else ():
            if to[i]:
                ph[i] = complex(phases.get(i, 1.0) if keyed else phases[i])
        self._pass(algebra, tuple(to), tuple(ph))

    @classmethod
    def _derived(cls, algebra: DigraphAlgebra, to: tuple, ph: tuple):
        """The checked monomial on tuples a library function built."""
        v = cls.__new__(cls)
        v._pass(algebra, to, ph)
        return v

    def _pass(self, algebra: DigraphAlgebra, to, ph) -> None:
        seen, n = [0] * len(to), algebra.n
        for i, j in enumerate(to):
            if j and not 1 <= j <= n:
                raise ValueError(f"pair {i}->{j} out of range")
            if j and seen[j]:
                raise NotInjective(seen[j], i, j)
            seen[j] = i
        for i, x in enumerate(ph):
            if not abs(abs(x) - 1.0) <= EXACT_SLACK:
                raise ValueError(f"phase at {i} is not unimodular")
        self.algebra, self._to, self._ph = algebra, to, ph

    # mapping access
    @property
    def pairs(self) -> tuple:
        return tuple((i, j) for i, j in enumerate(self._to) if j)

    @property
    def phases(self) -> dict:
        return {i: self._ph[i] for i, _ in self.pairs}

    def domain(self) -> frozenset:
        return frozenset(i for i, _ in self.pairs)

    def image(self) -> frozenset:
        return frozenset(self._to) - {0}

    def __call__(self, i: int) -> int:
        if 0 < i < len(self._to) and self._to[i]:
            return self._to[i]
        raise KeyError(i)

    def phase(self, i: int) -> complex:
        self(i)  # KeyError off the domain
        return self._ph[i]

    @property
    def is_unitary(self) -> bool:
        return self._to.count(0) == 1

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.algebra.n, self.algebra.n), dtype=complex)
        for i, j in self.pairs:
            m[j - 1, i - 1] = self._ph[i]
        return m

    def adjoint(self) -> "StandardPartialIsometry":
        to, ph = [0] * len(self._to), [1.0 + 0.0j] * len(self._to)
        for i, j in self.pairs:
            to[j], ph[j] = i, self._ph[i].conjugate()
        return StandardPartialIsometry._derived(self.algebra, tuple(to),
                                                tuple(ph))

    def __matmul__(self, other: "StandardPartialIsometry") -> "StandardPartialIsometry":
        """Operator product self * other (apply other first)."""
        if other.algebra.n != self.algebra.n:
            raise ValueError("size mismatch in partial isometry product")
        to = tuple(self._to[j] for j in other._to)
        return StandardPartialIsometry._derived(self.algebra, to, tuple(
            x * self._ph[j] if k else 1.0 + 0.0j
            for x, j, k in zip(other._ph, other._to, to)))

    def is_block_preserving(self) -> bool:
        bi = self.algebra.block_index
        return all(bi(i) == bi(j) for i, j in self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StandardPartialIsometry):
            return NotImplemented
        return (self.algebra == other.algebra and self._to == other._to
                and all(abs(x - y) <= EXACT_SLACK
                        for x, y in zip(self._ph, other._ph)))

    def __repr__(self) -> str:
        trivial = all(abs(x - 1.0) <= EXACT_SLACK for x in self._ph)
        tag = "" if trivial else ", phased"
        return f"StandardPartialIsometry({len(self.pairs)} pairs{tag})"


def identity_unitary(algebra: DigraphAlgebra) -> StandardPartialIsometry:
    return StandardPartialIsometry._derived(
        algebra, tuple(range(algebra.n + 1)), (1.0 + 0.0j,) * (algebra.n + 1))


def is_normalizing(v: StandardPartialIsometry, a: DigraphAlgebra) -> bool:
    """Whether v lies in the algebra (pair i -> j needs edge (j, i))."""
    return all((j, i) in a.edges for i, j in v.pairs)


class PermutationUnitary(StandardPartialIsometry):
    """Block-preserving permutation, a unitary in A intersect A*.

    perm is the tuple with perm[i-1] = sigma(i); every phase is 1.
    """

    __slots__ = ()

    def __init__(self, algebra: DigraphAlgebra, perm: Sequence):
        perm = tuple(int(x) for x in perm)
        if sorted(perm) != list(range(1, algebra.n + 1)):
            raise ValueError("perm is not a permutation of 1..n")
        for i, j in enumerate(perm, 1):
            if algebra.block_index(i) != algebra.block_index(j):
                raise ValueError(f"perm moves {i} across blocks to {j}")
        self._pass(algebra, (0, *perm), (1.0 + 0.0j,) * (algebra.n + 1))

    @property
    def perm(self) -> tuple:
        return self._to[1:]

    def as_partial_isometry(self) -> StandardPartialIsometry:
        return StandardPartialIsometry._derived(self.algebra, self._to,
                                                self._ph)

    def __repr__(self) -> str:
        return f"PermutationUnitary{self.perm}"


@dataclass(frozen=True)
class RankMatrix:
    """Nonnegative integer matrix indexed by (block r, projection j)."""

    entries: tuple  # rows = blocks, cols = projections

    def as_lists(self) -> list:
        return [list(row) for row in self.entries]


def rank_profile(projections: Sequence[StandardProjection],
                 a: DigraphAlgebra) -> RankMatrix:
    """Entry (r, j) counts the support of P_j inside block r.

    Projections must have pairwise disjoint supports.
    """
    for j1 in range(len(projections)):
        for j2 in range(j1 + 1, len(projections)):
            common = projections[j1].support & projections[j2].support
            if common:
                raise NotOrthogonal(
                    f"projections {j1} and {j2} overlap",
                    j=j1, j2=j2, indices=sorted(common))
    rows = []
    for blk in a.blocks:
        bset = set(blk)
        rows.append(tuple(len(bset & p.support) for p in projections))
    return RankMatrix(tuple(rows))


def rational_rank(rows: Sequence) -> int:
    """Rank over Q of a matrix given as rows of integers or Fractions."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0),
                   None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                f = mat[r][col] / top[col]
                mat[r] = [x - f * y for x, y in zip(mat[r], top)]
        rank += 1
    return rank


def cycle_flagged_classes(a: DigraphAlgebra) -> tuple:
    """Indices of cstar classes whose reduced digraph carries undirected
    cycles not spanned by transitivity triangles.

    On such classes phase data of witnesses is not forced by triangle
    relations alone; reports surface the flag as metadata. The triangular
    algebras are never flagged, the 4-cycle digraph is.

    Each triangle x < y < z is found once, from its edge (x, y) and the
    common neighbours z > y of x and y; the edges are taken in sorted
    order and z ascending, so the triangles come in lexicographic order.
    """
    und = sorted({(min(r, s), max(r, s)) for (r, s) in a.reduced.edges
                  if r != s})
    nbr = [set() for _ in a.blocks]
    for r, s in und:
        nbr[r].add(s)
        nbr[s].add(r)
    verts = [0] * len(a.cstar_classes)
    for r in range(len(a.blocks)):
        verts[a.class_of_block(r)] += 1
    by_class = [[] for _ in a.cstar_classes]
    for e in und:
        by_class[a.class_of_block(e[0])].append(e)
    flagged = []
    for c, edges in enumerate(by_class):
        cycle_dim = len(edges) - verts[c] + 1
        if not edges or cycle_dim <= 0:
            continue
        pos = {e: k for k, e in enumerate(edges)}
        tri_rows = []
        for (x, y) in edges:
            for z in sorted(nbr[x] & nbr[y]):
                if z > y:
                    row = [0] * len(edges)
                    row[pos[(x, y)]] += 1
                    row[pos[(y, z)]] += 1
                    row[pos[(x, z)]] -= 1
                    tri_rows.append(row)
        if rational_rank(tri_rows) < cycle_dim:
            flagged.append(c)
    return tuple(flagged)
