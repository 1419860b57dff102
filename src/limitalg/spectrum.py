"""Finite-depth path spaces and cylinder relations of a direct system.

Everything is combinatorial: connectors act on diagonal indices through
their summand embeddings, weights never enter. Depth-d objects are honest
truncations; a pair's membership is decided by the tail condition over the
levels that exist, so pairs can disappear at larger depth while projections
of deeper relations always contain shallower ones.

Paths are held as a P x d integer array and a relation as a P x P matrix
of witness levels; Python tuples are built only when a caller asks for
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthUnavailable
from .intertwine import DirectSystem


@dataclass(frozen=True)
class BratteliPath:
    """Compatible diagonal indices, one per stage."""

    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))

    def __len__(self) -> int:
        return len(self.indices)

    def as_payload(self) -> list:
        return list(self.indices)


def _check_depth(sys: DirectSystem, depth: int) -> None:
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > sys.available_stages() and not sys.periodic:
        raise DepthUnavailable(depth, sys.available_stages())


def _summand_images(sys: DirectSystem, depth: int) -> list:
    """Per connector level l below depth - 1, the #summands x (n_l + 1)
    table whose (s, i) entry is iota_s(i), 0 off the summand's domain."""
    tables = []
    for l in range(depth - 1):
        conn = sys.connector(l)
        image = np.zeros((conn.pieces, conn.source.n + 1), dtype=int)
        image[conn.piece, conn.src] = conn.tgt
        tables.append(image)
    return tables


def _path_array(n: int, images: list) -> np.ndarray:
    """Paths from the n bottom indices through the given summand tables,
    as a read-only P x d array in lexicographic order.

    Built level by level: each path is extended by its last index's
    successors in ascending order, which keeps the rows sorted. Summand
    images are disjoint, so a successor is never listed twice.
    """
    paths = np.arange(1, n + 1)[:, None]
    for image in images:
        succ = np.sort(image[:, paths[:, -1]].T, axis=1)
        rows, cols = np.nonzero(succ)
        paths = np.column_stack((paths[rows], succ[rows, cols]))
    paths.setflags(write=False)
    return paths


def path_space(sys: DirectSystem, depth: int) -> list:
    """All depth-d paths, lexicographically ordered."""
    _check_depth(sys, depth)
    paths = _path_array(sys.stage_algebra(0).n, _summand_images(sys, depth))
    return [BratteliPath(p) for p in paths.tolist()]


class CylinderRelation:
    """Depth-truncated relation on paths with minimal witnesses.

    pairs is a tuple of (x, y, level, unit): the matrix unit (i, j) at the
    1-based witness level k satisfies (x_k, y_k) = (i, j), and from level k
    down to the bottom both coordinates always pass through one common
    connector summand. level is the least such k.

    paths is the P x d path array and levels the P x P matrix whose (a, b)
    entry is the witness level of (paths[a], paths[b]), 0 when unrelated;
    pairs, pair_set and statistics are derived from them on first use.
    """

    __slots__ = ("depth", "paths", "levels", "_pairs", "_set", "_stats")

    def __init__(self, depth: int, paths: np.ndarray, levels: np.ndarray):
        self.depth = depth
        self.paths = paths
        self.levels = levels
        self._pairs = None
        self._set = None
        self._stats = None

    def _entries(self) -> tuple:
        """Related row indices in row-major order, their levels and units."""
        xs, ys = np.nonzero(self.levels)
        lv = self.levels[xs, ys]
        return (xs.tolist(), ys.tolist(), lv.tolist(),
                self.paths[xs, lv - 1].tolist(),
                self.paths[ys, lv - 1].tolist())

    @property
    def pairs(self) -> tuple:
        if self._pairs is None:
            rows = [tuple(p) for p in self.paths.tolist()]
            self._pairs = tuple(
                (rows[x], rows[y], lvl, (i, j))
                for x, y, lvl, i, j in zip(*self._entries()))
        return self._pairs

    def pair_set(self) -> frozenset:
        if self._set is None:
            self._set = frozenset((x, y) for (x, y, _, _) in self.pairs)
        return self._set

    def statistics(self) -> "RelationStatistics":
        if self._stats is None:
            self._stats = _statistics(self.levels)
        return self._stats

    def as_payload(self) -> dict:
        rows = self.paths.tolist()
        return {"depth": self.depth,
                "pairs": [{"x": rows[x], "y": rows[y], "level": lvl,
                           "unit": [i, j]}
                          for x, y, lvl, i, j in zip(*self._entries())]}


@dataclass(frozen=True)
class RelationStatistics:
    path_count: int
    pair_count: int
    out_degrees: tuple
    in_degrees: tuple
    witness_levels: tuple
    symmetric_count: int
    antisymmetric_count: int
    antisym_out_degrees: tuple

    def as_payload(self) -> dict:
        return {"path_count": self.path_count,
                "pair_count": self.pair_count,
                "out_degrees": list(self.out_degrees),
                "in_degrees": list(self.in_degrees),
                "witness_levels": [list(p) for p in self.witness_levels],
                "symmetric_count": self.symmetric_count,
                "antisymmetric_count": self.antisymmetric_count,
                "antisym_out_degrees": list(self.antisym_out_degrees)}


def _positive_sorted(counts: np.ndarray) -> tuple:
    return tuple(np.sort(counts[counts > 0]).tolist())


def _statistics(levels: np.ndarray) -> RelationStatistics:
    related = levels > 0
    mutual = related & related.T
    hist = np.bincount(levels[related])
    pair_count = int(related.sum())
    sym = int(mutual.sum())
    return RelationStatistics(
        path_count=int((related.any(axis=0) | related.any(axis=1)).sum()),
        pair_count=pair_count,
        out_degrees=_positive_sorted(related.sum(axis=1)),
        in_degrees=_positive_sorted(related.sum(axis=0)),
        witness_levels=tuple((lvl, int(hist[lvl]))
                             for lvl in np.flatnonzero(hist).tolist()),
        symmetric_count=sym,
        antisymmetric_count=pair_count - sym,
        antisym_out_degrees=_positive_sorted((related & ~mutual).sum(axis=1)))


def cylinder_relation(sys: DirectSystem, depth: int) -> CylinderRelation:
    """All related depth-d path pairs with their minimal witness levels.

    (x, y) is related with witness level k (1-based) when stage k has the
    edge (x_k, y_k) and, at every connector level l >= k, some one summand
    of connector l carries x_l to x_{l+1} and y_l to y_{l+1}; the level is
    the least such k. The witness-level matrix is filled from the top level
    down while a P x P suffix mask keeps the AND of the joint-step tests
    above: the joint step at level l is S_l S_l^T > 0 for the P x #summands
    membership table S_l[x, s] = (iota_s(x_l) = x_{l+1}), and the edge test
    fancy-indexes stage k's support mask at (x_k, y_k). The cost is d array
    passes over P x P plus one P x #summands table per connector level.
    """
    _check_depth(sys, depth)
    images = _summand_images(sys, depth)
    paths = _path_array(sys.stage_algebra(0).n, images)
    count = len(paths)
    levels = np.zeros((count, count), dtype=int)
    suffix = np.ones((count, count), dtype=bool)
    for k in range(depth - 1, -1, -1):
        if k < depth - 1:
            member = (images[k][:, paths[:, k]] == paths[:, k + 1]).T
            suffix &= member @ member.T
        at = paths[:, k] - 1
        edge = sys.stage_algebra(k).support_mask()[np.ix_(at, at)]
        levels[edge & suffix] = k + 1
    levels.setflags(write=False)
    return CylinderRelation(depth, paths, levels)


@dataclass(frozen=True)
class DepthComparison:
    verdict: str  # "distinguished" or "compatible"
    depth: int
    mismatched: tuple
    lhs: RelationStatistics
    rhs: RelationStatistics

    def as_payload(self) -> dict:
        return {"verdict": self.verdict, "depth": self.depth,
                "mismatched_statistics": list(self.mismatched),
                "lhs": self.lhs.as_payload(), "rhs": self.rhs.as_payload()}


def compare_relations(lhs: CylinderRelation,
                      rhs: CylinderRelation) -> DepthComparison:
    """Compare the isomorphism-invariant statistics of two relations of
    the same depth; see relation_isomorphic_at_depth."""
    if lhs.depth != rhs.depth:
        raise ValueError("relations of different depths")
    s1, s2 = lhs.statistics(), rhs.statistics()
    # every path is reflexively related, but compare true path-space sizes
    # anyway so the verdict never rides on that
    mismatched = []
    if len(lhs.paths) != len(rhs.paths):
        mismatched.append("path_count")
    for name in ("pair_count", "out_degrees", "in_degrees", "witness_levels",
                 "symmetric_count", "antisymmetric_count",
                 "antisym_out_degrees"):
        if getattr(s1, name) != getattr(s2, name):
            mismatched.append(name)
    verdict = "distinguished" if mismatched else "compatible"
    return DepthComparison(verdict, lhs.depth, tuple(mismatched), s1, s2)


def relation_isomorphic_at_depth(sys1: DirectSystem, sys2: DirectSystem,
                                 depth: int) -> DepthComparison:
    """Compare isomorphism-invariant statistics of two depth-d relations.

    A mismatch certifies non-isomorphism at this depth; agreement only says
    the systems are compatible at depth d, never that they are isomorphic.
    """
    return compare_relations(cylinder_relation(sys1, depth),
                             cylinder_relation(sys2, depth))
