"""Spanning trees, cycletrees, and fundamental cycle bases.

A cycletree is a connected spanning subgraph with exactly one cycle, i.e.
a spanning tree plus one extra edge, so it has exactly |V| edges. Trees
and cycletrees are enumerated as ascending edge-id tuples. A cycletree's
unique cycle is stored as a chain with coefficients in {-1, 0, +1},
canonically oriented so the smallest cycle edge id gets +1.

Enumeration works by filtering edge subsets of the right size, which is
exact and deterministic on small graphs; its cost grows exponentially with
the edge count, so the CLI bounds the graphs it enumerates (``--cap``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import NotConnectedError
from .graphs import (
    Multigraph,
    require_connected,
    spanning_subgraph_connected,
    _forest,
)
from .intlinalg import _kernel_vectors

# Graphs kept by `tree_number` and `verify._cycletree_count_or_zero`, least
# recently used first out: on one family-sweep pass (seed 1), 64 keep 90%
# of the tree-count hits and 89% of the cycletree-count hits of an unbounded
# cache. The enumeration caches keep only the graph in hand, since one
# graph's cycletrees can take megabytes and every reuse is a repeat call on
# that graph, as in `verify --all` or `cycletrees` and its windings.
GRAPH_CACHE_SIZE = 64


class Cycletree(NamedTuple):
    """Ascending edge ids of a cycletree together with its oriented unique cycle."""

    edge_ids: tuple[int, ...]
    cycle: tuple[int, ...]


def spanning_trees(g: Multigraph) -> list[tuple[int, ...]]:
    """All spanning trees as ascending edge-id tuples, in lexicographic order."""
    require_connected(g)
    non_loops = [e for e in range(g.edge_count) if not g.is_loop(e)]
    return [combo for combo in combinations(non_loops, g.vertex_count - 1) if spanning_subgraph_connected(g, combo)]


def lexmin_spanning_tree(g: Multigraph) -> frozenset[int]:
    """Greedy matroid construction of the lexicographically smallest tree.

    The graph is connected exactly when the greedy forest has V - 1 edges;
    fewer than V - 1 edges are refused before any per-vertex work.
    """
    chosen = _forest(g.vertex_count, g.edges) if g.edge_count >= g.vertex_count - 1 else []
    if len(chosen) != g.vertex_count - 1:
        raise NotConnectedError("graph is not connected")
    return frozenset(chosen)


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def tree_number(g: Multigraph) -> int:
    """Number of spanning trees, the reduced Laplacian's determinant: ``_cycle_projection``'s k for x = 0."""
    require_connected(g)
    return _cycle_projection(g.vertex_count, g.edges, {})[0]


def _cycle_projection(vertex_count: int, edges, x: dict) -> tuple[int, tuple[int, ...]]:
    """(k, k P x) for the number k of spanning trees and the orthogonal
    projection P onto the cycles of the 1-chain x, given as {edge: value};
    k = 0 and the zero chain when the edges do not connect the vertices.

    With D the incidence matrix without vertex 0's row, the reduced
    Laplacian L = D D^T has det L = k (Kirchhoff), so k P x = k x - D^T
    adj(L) D x. The elimination of [L | D x] ends with the pivot k, and its
    kernel vector is (y, k) for y = -adj(L) D x. L is positive definite
    when the edges connect, so no row is swapped; else it has < V - 1 pivots.
    """
    rows = [[0] * (vertex_count + 1) for _ in range(vertex_count)]  # [L | D x] with vertex 0's row and column
    for e, (t, h) in enumerate(edges):
        if t == h:  # a loop adds nothing
            continue
        for a, b, sign in ((t, h, -1), (h, t, 1)):
            rows[a][a] += 1
            rows[a][b] -= 1
            rows[a][-1] += sign * x.get(e, 0)
    del rows[0]  # vertex 0's row and column go in place: the kernel eliminates these lists
    for row in rows:
        del row[0]
    pivots, k, kernel = _kernel_vectors(rows, vertex_count)
    if len(pivots) < vertex_count - 1:
        return 0, (0,) * len(edges)
    if not x:  # k P 0 = 0: no kernel vector is read, so none is back-substituted
        return k, (0,) * len(edges)
    ((_, y),) = kernel
    y.insert(0, 0)
    return k, tuple(k * x.get(e, 0) + y[h] - y[t] for e, (t, h) in enumerate(edges))


def unique_cycle(g: Multigraph, edge_ids) -> tuple[int, ...]:
    """Oriented unique cycle of a cycletree edge set.

    The smallest cycle edge id gets coefficient +1.
    """
    edge_set = set(edge_ids)
    for e in edge_set:
        g.check_edge(e)
    if len(edge_set) != g.vertex_count or not spanning_subgraph_connected(g, edge_set):
        raise ValueError("edge set is not a cycletree (must be spanning, connected, |E| = |V|)")
    return _walk_unique_cycle(g, edge_set)


def _walk_unique_cycle(g: Multigraph, edge_ids) -> tuple[int, ...]:
    """``unique_cycle`` on an edge set already known to be a cycletree, unchecked.

    The greedy forest of the edges is a spanning tree, and the one edge it
    leaves out closes the cycle.
    """
    edges = sorted(edge_ids)
    tree = [edges[i] for i in _forest(g.vertex_count, [g.edges[e] for e in edges])]
    (extra,) = set(edges).difference(tree)
    coeffs = _tree_cycle(g, _root(g, tree), extra)
    first = next(c for c in coeffs if c)
    return tuple(first * c for c in coeffs)


@lru_cache(maxsize=1)
def _cycletrees_cached(g: Multigraph) -> tuple[Cycletree, ...]:
    """The cycletrees, whose cycles are shared: one tuple per distinct cycle."""
    cycles: dict[tuple[int, ...], tuple[int, ...]] = {}
    found = []
    for combo in combinations(range(g.edge_count), g.vertex_count):
        if spanning_subgraph_connected(g, combo):
            cycle = _walk_unique_cycle(g, combo)
            found.append(Cycletree(combo, cycles.setdefault(cycle, cycle)))
    return tuple(found)


def cycletrees(g: Multigraph) -> list[Cycletree]:
    """All cycletrees with canonically oriented cycles, in lexicographic order."""
    require_connected(g)
    return list(_cycletrees_cached(g))


def _root(g: Multigraph, tree) -> list | None:
    """The tree rooted at vertex 0 by one traversal: for each vertex, (depth,
    parent, edge to the parent, +1 when that edge points from the parent to
    the vertex, else -1). None when the edges do not reach every vertex.
    """
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(g.vertex_count)]
    for e in tree:
        t, h = g.edges[e]
        adjacency[t].append((h, e, 1))
        adjacency[h].append((t, e, -1))
    up: list = [(0, None, None, None)] + [None] * (g.vertex_count - 1)
    order = [0]
    for v in order:
        for w, e, direction in adjacency[v]:
            if up[w] is None:
                up[w] = (up[v][0] + 1, v, e, direction)
                order.append(w)
    return up if len(order) == g.vertex_count else None


def _tree_cycle(g: Multigraph, up: list, edge: int) -> list[int]:
    """The edge plus the tree path from its head back to its tail, found by
    walking both ends up to their common ancestor: up from the head against
    each parent edge's direction, and down to the tail along it."""
    coeffs = [0] * g.edge_count
    coeffs[edge] = 1
    tail, head = g.edges[edge]
    while head != tail:
        if up[head][0] >= up[tail][0]:
            _, head, f, direction = up[head]
            coeffs[f] = -direction
        else:
            _, tail, f, direction = up[tail]
            coeffs[f] = direction
    return coeffs


def _cotree(g: Multigraph, tree) -> tuple[tuple[int, ...], list]:
    """The non-tree edges in increasing id, and the tree rooted by ``_root``, whose one traversal
    proves that the V - 1 tree edges span; ValueError when they are not a spanning tree."""
    tree = frozenset(tree)
    for e in tree:
        g.check_edge(e)
    # V - 1 edges reach every vertex only when each finds a new one, so a loop fails too.
    up = _root(g, tree) if len(tree) == g.vertex_count - 1 else None
    if up is None:
        raise ValueError("edge set is not a spanning tree")
    return tuple(e for e in range(g.edge_count) if e not in tree), up


def fundamental_basis(g: Multigraph, tree) -> tuple[tuple[int, ...], ...]:
    """Fundamental cycles of the non-tree edges, in increasing edge id, each +1
    at its own non-tree edge and 0 at the others: walks up the tree ``_cotree`` roots."""
    non_tree, up = _cotree(g, tree)
    return tuple(tuple(_tree_cycle(g, up, e)) for e in non_tree)
