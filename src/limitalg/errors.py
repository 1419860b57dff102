"""Exception types shared across the package.

Every failure that a verb can report carries its witness data as attributes
in ``data``; the CLI renders those into its JSON error payload.
"""

from __future__ import annotations

from typing import Any


class LimitalgError(Exception):
    """Base class. Subclasses stash witness data in ``self.data``."""

    def __init__(self, message: str = "", **data: Any):
        self.data = data
        if not message and data:
            message = ", ".join(f"{k}={v!r}" for k, v in data.items())
        super().__init__(message)


# digraph / algebra construction

class NotReflexive(LimitalgError):
    """A vertex is missing its loop edge."""

    def __init__(self, i: int):
        super().__init__(f"missing loop at vertex {i}", vertex=i)


class NotTransitive(LimitalgError):
    """Edges (i,j) and (j,k) present but (i,k) absent."""

    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"edges ({i},{j}) and ({j},{k}) present but ({i},{k}) absent",
                         i=i, j=j, k=k)


class BandMismatch(LimitalgError):
    pass


class NotTrBand(LimitalgError):
    """Algebra is not an upper-triangular band algebra of the requested shape."""


class DimensionMismatch(LimitalgError):
    pass


class ShapeMismatch(LimitalgError):
    pass


# index maps and map construction

class NotInjective(LimitalgError):
    def __init__(self, i: int, j: int, image: int):
        super().__init__(f"indices {i} and {j} both map to {image}", i=i, j=j, image=image)


class EdgeIncompatible(LimitalgError):
    """The index map sends some source edge outside the target edge set."""

    def __init__(self, i: int, j: int):
        super().__init__(f"source edge ({i},{j}) has no image edge", i=i, j=j)


class BlockPartial(LimitalgError):
    """An index map touches a C*-class without covering all of it."""

    def __init__(self, cls: tuple):
        super().__init__(f"class {cls} is only partially covered", cls=list(cls))


class ImageOverlap(LimitalgError):
    """Two summands of a map share target indices."""


class SourceTargetMismatch(LimitalgError):
    pass


class NotOrthogonal(LimitalgError):
    """Requested projections fail mutual orthogonality."""


# numeric validation

class NotStarConsistent(LimitalgError):
    def __init__(self, i: int, j: int, residual: float):
        super().__init__(f"image of ({i},{j})* deviates from adjoint by {residual:.3e}",
                         i=i, j=j, residual=residual)


class NotInRange(LimitalgError):
    def __init__(self, i: int, j: int, residual: float):
        super().__init__(f"image of ({i},{j}) leaves the target algebra by {residual:.3e}",
                         i=i, j=j, residual=residual)


class NotMultiplicative(LimitalgError):
    def __init__(self, left: tuple, right: tuple, residual: float):
        super().__init__(f"product rule fails on {left} * {right} by {residual:.3e}",
                         left=list(left), right=list(right), residual=residual)


# conjugacy and intertwining verdicts

class ProfileMismatch(LimitalgError):
    def __init__(self, r: int, j: int):
        super().__init__(f"rank profiles differ at block {r}, diagonal {j}", r=r, j=j)


class NotInnerEquivalent(LimitalgError):
    """Maps have distinct induced block index maps, so no inner conjugacy exists."""


class TriangleNotCommuting(LimitalgError):
    def __init__(self, residual: float, stage: int = None):
        where = "" if stage is None else f" at stage {stage}"
        data = {"residual": residual}
        if stage is not None:
            data["stage"] = stage
        super().__init__(f"triangle residual {residual:.3e}{where}", **data)


class NotRegular(LimitalgError):
    """No unitary in the target conjugates the map onto a standard one."""


class ResidualTooLarge(LimitalgError):
    def __init__(self, residual: float, bound: float, stage: int = None):
        where = "" if stage is None else f" at stage {stage}"
        data = {"residual": residual, "bound": bound}
        if stage is not None:
            data["stage"] = stage
        super().__init__(
            f"residual {residual:.3e} exceeds gate {bound:.3e}{where}", **data)


class TooFarApart(LimitalgError):
    def __init__(self, distance: float, bound: float):
        super().__init__(f"maps are {distance:.3e} apart, gate is {bound:.3e}",
                         distance=distance, bound=bound)


class CensusMismatch(LimitalgError):
    """Summand censuses disagree, so the maps cannot be close-conjugate."""


class InconsistentRanks(LimitalgError):
    def __init__(self, r: int, j: int, value: int):
        super().__init__(f"rank equation at block {r}, diagonal {j} leaves {value}",
                         r=r, j=j, value=value)


class CapacityExceeded(LimitalgError):
    pass


class DepthUnavailable(LimitalgError):
    def __init__(self, depth: int, available: int):
        super().__init__(f"depth {depth} requested but only {available} is available",
                         depth=depth, available=available)


# CLI / serialization

class SchemaError(LimitalgError):
    def __init__(self, pointer: str, message: str = ""):
        super().__init__(message or f"bad document at {pointer}", pointer=pointer)


class DanglingReference(LimitalgError):
    def __init__(self, name: str):
        super().__init__(f"workspace has no object named {name!r}", name=name)


class UsageError(LimitalgError):
    pass


class InternalError(LimitalgError):
    """A self-check on the library's own output failed: a bug, not input."""
