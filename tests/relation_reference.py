"""The edge-by-edge relation check and algebra build that the block-wise
DigraphAlgebra replaced, kept as the reference it is tested against.

reference_build(n, edges) validates like the old builder and returns the
derived attributes the old constructor set, under the same names, or
raises the same error with the same witness.
"""

import functools
import operator

from limitalg.core import Digraph
from limitalg.errors import NotReflexive, NotTransitive


def reference_check_relation(n, edges):
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


def reference_build(n, edges):
    """The checked relation's derived attributes, by name."""
    edges = frozenset(edges)
    reference_check_relation(n, edges)
    adj = [set() for _ in range(n + 1)]
    for (i, j) in edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)

    # blocks: mutual-edge classes, ordered by least element
    seen = [False] * (n + 1)
    blocks = []
    for i in range(1, n + 1):
        if seen[i]:
            continue
        cls = sorted([i] + [j for j in adj[i] if j > i
                            and (i, j) in edges and (j, i) in edges])
        for j in cls:
            seen[j] = True
        blocks.append(tuple(cls))
    blocks = tuple(blocks)
    block_of = {}
    for r, blk in enumerate(blocks):
        for i in blk:
            block_of[i] = r

    # cstar classes: undirected components, each with its BFS tree
    seen2 = set()
    classes = []
    trees = []
    for i in range(1, n + 1):
        if i in seen2:
            continue
        seen2.add(i)
        order = [i]
        tree = []
        for p in order:
            for c in sorted(adj[p] - seen2):
                seen2.add(c)
                tree.append((p, c))
                order.append(c)
        classes.append(tuple(sorted(order)))
        trees.append(tuple(tree))
    class_of = {}
    for c, cls in enumerate(classes):
        for i in cls:
            class_of[i] = c

    redges = frozenset((block_of[i], block_of[j]) for (i, j) in edges)
    return {"blocks": blocks,
            "cstar_classes": tuple(classes),
            "class_trees": tuple(trees),
            "reduced": Digraph(len(blocks), redges),
            "_neighbours": tuple(tuple(sorted(a)) for a in adj),
            "_block_of": block_of,
            "_class_of": class_of,
            "_block_of_block": tuple(class_of[blk[0]] for blk in blocks)}
