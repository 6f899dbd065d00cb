"""Multigraphs with loops and parallel edges, and their basic surgery.

Vertices are ids ``0..n-1``; edges are an ordered list of (tail, head)
pairs, so parallel edges and loops are just repeated or degenerate pairs.
Every edge carries the fixed orientation tail -> head, which the incidence
matrix encodes as -1 at the tail and +1 at the head. Boundaries of chains
and connectivity are computed on the edge list itself, in one pass over the
edges; the dense incidence matrix is built only where a matrix is wanted.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .errors import DimensionError, NotConnectedError
from .intlinalg import IntMatrix


class Multigraph(namedtuple("Multigraph", ("vertex_count", "edges"))):
    """Immutable multigraph, the named tuple (vertex_count, edges), compared and
    hashed as that tuple: the per-graph caches of ``spanning`` are keyed by it."""

    __slots__ = ()

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __new__(cls, vertex_count: int, edges: tuple[tuple[int, int], ...]):
        if vertex_count < 1:
            raise ValueError("a multigraph needs at least one vertex")
        for idx, (t, h) in enumerate(edges):
            if not (0 <= t < vertex_count and 0 <= h < vertex_count):
                raise ValueError(f"edge {idx} = ({t}, {h}) has endpoints outside 0..{vertex_count - 1}")
        return tuple.__new__(cls, (vertex_count, edges))

    __reduce__ = IntMatrix.__reduce__  # unpickled through __new__ at every protocol, so checked

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_loop(self, edge: int) -> bool:
        t, h = self.edges[edge]
        return t == h

    def check_edge(self, edge: int) -> None:
        if not (0 <= edge < len(self.edges)):
            raise ValueError(f"invalid edge id {edge} (graph has {len(self.edges)} edges)")


def incidence_matrix(g: Multigraph) -> IntMatrix:
    """Vertex-by-edge incidence matrix; loop columns are zero."""
    n, m = g.vertex_count, g.edge_count
    entries = [0] * (n * m)
    for j, (t, h) in enumerate(g.edges):
        if t != h:
            entries[t * m + j] = -1
            entries[h * m + j] = 1
    return IntMatrix(n, m, tuple(entries))


def boundary(g: Multigraph, chain: Sequence) -> list:
    """The boundary of a 1-chain, the sum over its edges of c (head - tail).

    One pass over the edges, equal to the incidence matrix times the chain;
    a loop adds and removes its coefficient at one vertex.
    """
    if len(chain) != g.edge_count:
        raise DimensionError(f"chain length {len(chain)} != {g.edge_count} edges")
    out = [0] * g.vertex_count
    for (t, h), c in zip(g.edges, chain):
        out[t] -= c
        out[h] += c
    return out


def are_cycles(g: Multigraph, columns: IntMatrix) -> bool:
    """True when every column, a chain on the edges, has zero boundary."""
    return not any(any(boundary(g, columns.column(j))) for j in range(columns.cols))


def _find(parent: list[int], v: int) -> int:
    """Root of v in a union-find forest, halving the path on the way (Tarjan, 1975)."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _forest(vertex_count: int, edge_pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Indices of the greedy spanning forest: each edge, in order, that joins
    two components. It is the lexicographically smallest spanning forest, so
    there are V minus its size components; the pass stops once there is one.
    """
    parent = list(range(vertex_count))
    chosen: list[int] = []
    for e, (t, h) in enumerate(edge_pairs):
        if len(chosen) == vertex_count - 1:
            break
        rt, rh = _find(parent, t), _find(parent, h)
        if rt != rh:
            if rt > rh:
                rt, rh = rh, rt
            parent[rh] = rt
            chosen.append(e)
    return chosen


def _spans(vertex_count: int, edge_pairs: Sequence[tuple[int, int]]) -> bool:
    """True when the edges connect all the vertices, by union-find.

    Fewer than V - 1 edges cannot, which is answered before any per-vertex
    work, so a huge vertex count with few edges fails fast.
    """
    return len(edge_pairs) >= vertex_count - 1 and len(_forest(vertex_count, edge_pairs)) == vertex_count - 1


def is_connected(g: Multigraph) -> bool:
    return _spans(g.vertex_count, g.edges)


def require_connected(g: Multigraph) -> None:
    if not is_connected(g):
        raise NotConnectedError("graph is not connected")


def spanning_subgraph_connected(g: Multigraph, edge_ids) -> bool:
    """True when the subgraph on the given edges reaches every vertex."""
    edges = g.edges
    return _spans(g.vertex_count, [edges[e] for e in edge_ids])


def delete(g: Multigraph, edge: int) -> Multigraph:
    """Remove one edge; vertices are untouched and later edges move down one id."""
    g.check_edge(edge)
    return Multigraph(g.vertex_count, g.edges[:edge] + g.edges[edge + 1 :])


def contract(g: Multigraph, edge: int) -> Multigraph:
    """Contract one edge, merging its endpoints (the lower id survives).

    Contracting a loop is deletion with no vertex changes.
    """
    return contract_edges(g, (edge,))


def contract_edges(g: Multigraph, edge_ids) -> Multigraph:
    """Contract a whole edge subset at once (loops in the subset just vanish).

    All vertices touched by the subset collapse to one vertex per connected
    piece of the subset; surviving vertices are renumbered in increasing
    order of their smallest original member, and surviving edges keep their
    order.
    """
    removed = set(edge_ids)
    for e in removed:
        g.check_edge(e)
    parent = list(range(g.vertex_count))
    for e in removed:
        a, b = g.edges[e]
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = [_find(parent, v) for v in range(g.vertex_count)]
    reps = sorted(set(roots))
    rep_index = {rep: i for i, rep in enumerate(reps)}
    new_id = [rep_index[root] for root in roots]
    return Multigraph(len(reps), tuple((new_id[a], new_id[b]) for e, (a, b) in enumerate(g.edges) if e not in removed))


def corank(g: Multigraph) -> int:
    """|E| - |V| + 1, the rank of the cycle space of a connected graph."""
    require_connected(g)
    return g.edge_count - g.vertex_count + 1
