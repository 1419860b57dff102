"""Input-size parameters, computed from the inputs alone.

These are the benchmark's own definitions, independent of how the library
implements a step, so a later change to the library cannot move them:
a gain can be related to them across commits.
"""

from __future__ import annotations


def algebra_sizes(prefix: str, a) -> dict:
    return {f"{prefix}_n": a.n, f"{prefix}_edges": len(a.edges)}


def envelope_units(source) -> int:
    """Matrix units of the generated C*-algebra: sum of class sizes squared."""
    return sum(len(c) ** 2 for c in source.cstar_classes)


def candidate_count(src, tgt) -> int:
    """Size of the census search space: block maps of each source class
    that preserve reduced edges both ways and fit block sizes."""
    red_s, red_t = src.reduced.edges, tgt.reduced.edges
    s_sizes, t_sizes = src.block_sizes(), tgt.block_sizes()
    total = 0
    for c in range(len(src.cstar_classes)):
        rs = src.class_blocks(c)

        def count(k, partial):
            if k == len(rs):
                return 1
            r = rs[k]
            n = 0
            for t in range(len(t_sizes)):
                if s_sizes[r] > t_sizes[t]:
                    continue
                if all(((rr, r) not in red_s or (tt, t) in red_t)
                       and ((r, rr) not in red_s or (t, tt) in red_t)
                       for rr, tt in partial.items()):
                    partial[r] = t
                    n += count(k + 1, partial)
                    del partial[r]
            return n

        total += count(0, {})
    return total


def kernel_shape(src, tgt) -> dict:
    """Shape of the intertwiner kernel of the regularity decision.

    Rows are one n x n block per generator (diagonal units plus both
    directions of a spanning tree of each class); parameters are the
    entries of a block-diagonal target matrix. ``kernel_u_bytes`` is the
    complex128 full left singular basis, rows^2 * 16 bytes: computed from
    the shape, not measured.
    """
    gens = src.n + 2 * sum(len(c) - 1 for c in src.cstar_classes)
    rows = gens * tgt.n * tgt.n
    params = sum(s * s for s in tgt.block_sizes())
    return {"kernel_rows": rows, "kernel_params": params,
            "kernel_u_bytes": rows * rows * 16}


def map_sizes(src, tgt) -> dict:
    units = envelope_units(src)
    return {**algebra_sizes("source", src), **algebra_sizes("target", tgt),
            "envelope_units": units, "sweep_pairs": units * units,
            "candidates": candidate_count(src, tgt)}


def system_sizes(sys, depth: int) -> dict:
    """Stages and depth-d path count of a direct system."""
    paths = {(i,) for i in range(1, sys.stage_algebra(0).n + 1)}
    for level in range(depth - 1):
        succ = {}
        for s in sys.connector(level).summands:
            for i in s.domain():
                succ.setdefault(i, []).append(s(i))
        paths = {p + (j,) for p in paths for j in succ.get(p[-1], ())}
    return {"stages": len(sys.stages), "depth": depth, "paths": len(paths),
            "path_pairs": len(paths) ** 2}
