"""Seeded input documents for the hx benchmark.

Everything here is computed without importing hx (exact ranks come from
sympy), so the documents (and the expected values the checks derive from
them) do not depend on the code under test. The same seed always gives byte-identical documents.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix


@dataclass(frozen=True)
class Instance:
    """One generated document plus what the checks need to know about it."""

    name: str
    vertices: int
    edges: tuple[tuple[int, int], ...]
    columns: tuple[tuple[int, ...], ...]  # unicyclizer columns, each of length |E|
    coords: tuple[tuple[int, ...], ...]  # the columns in fundamental-cycle coordinates
    cycles: tuple[tuple[int, ...], ...]  # fundamental cycles of the lexmin tree

    def document(self) -> str:
        obj = {
            "vertices": self.vertices,
            "edges": [list(e) for e in self.edges],
            "unicyclizer": [list(c) for c in self.columns],
        }
        return json.dumps(obj, sort_keys=True)


def theta() -> tuple[int, tuple[tuple[int, int], ...]]:
    return 2, ((0, 1), (0, 1), (0, 1))


def cycle_graph(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    return n, tuple((i, (i + 1) % n) for i in range(n))


def circulant(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Edges (i, i+1) and (i, i+2) mod n: 2n edges, corank n + 1."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, (i + 2) % n))
    return n, tuple(edges)


def lexmin_tree(vertices: int, edges, skip: int | None = None) -> list[int]:
    """Greedy spanning forest over edges in id order, optionally avoiding one edge.

    Without ``skip`` this is the documented default basis tree.
    """
    parent = list(range(vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = []
    for e, (t, h) in enumerate(edges):
        rt, rh = find(t), find(h)
        if rt != rh and e != skip:
            parent[max(rt, rh)] = min(rt, rh)
            tree.append(e)
    return tree


def fundamental_cycles(vertices: int, edges, tree=None) -> tuple[tuple[int, ...], ...]:
    """One cycle per non-tree edge e: +1 on e, then the tree path from e's head back to its tail."""
    if tree is None:
        tree = lexmin_tree(vertices, edges)
    adjacency: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(vertices)}
    for e in tree:
        t, h = edges[e]
        adjacency[t].append((h, e, 1))
        adjacency[h].append((t, e, -1))
    tree_set = set(tree)
    cycles = []
    for e in range(len(edges)):
        if e in tree_set:
            continue
        coeffs = [0] * len(edges)
        coeffs[e] = 1
        tail, head = edges[e]
        # Depth-first search in the tree from head to tail, remembering the edge walked.
        came = {head: None}
        stack = [head]
        while stack:
            v = stack.pop()
            for w, f, direction in adjacency[v]:
                if w not in came:
                    came[w] = (v, f, direction)
                    stack.append(w)
        v = tail
        while v != head:
            prev, f, direction = came[v]
            coeffs[f] += direction
            v = prev
        cycles.append(tuple(coeffs))
    return tuple(cycles)


def random_coords(rng: random.Random, m: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """m - 1 columns of length m with entries in [-bound, bound] and full column rank."""
    while True:
        cols = [tuple(rng.randint(-bound, bound) for _ in range(m)) for _ in range(m - 1)]
        if m == 1 or DomainMatrix.from_list([list(c) for c in cols], ZZ).rank() == m - 1:
            return tuple(cols)


def make_instance(name: str, vertices: int, edges, coords) -> Instance:
    cycles = fundamental_cycles(vertices, edges)
    columns = tuple(
        tuple(sum(c * z[e] for c, z in zip(col, cycles)) for e in range(len(edges))) for col in coords
    )
    return Instance(name, vertices, tuple(edges), columns, tuple(coords), cycles)


def random_instance(rng: random.Random, name: str, graph, bound: int) -> Instance:
    vertices, edges = graph
    m = len(edges) - vertices + 1
    return make_instance(name, vertices, edges, random_coords(rng, m, bound))


def theta_instance(rng: random.Random, name: str, torsion: int) -> Instance:
    """Theta with one unicyclizer column whose coordinates have gcd ``torsion``."""
    pairs = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if math.gcd(a, b) == 1]
    a, b = rng.choice(pairs)
    vertices, edges = theta()
    return make_instance(name, vertices, edges, ((torsion * a, torsion * b),))


def chain_is_cycle(vertices: int, edges, chain) -> bool:
    net = [0] * vertices
    for (t, h), c in zip(edges, chain):
        net[t] -= c
        net[h] += c
    return not any(net)


def random_non_cycle(rng: random.Random, inst: Instance) -> tuple[int, ...]:
    while True:
        chain = tuple(rng.randint(-2, 2) for _ in inst.edges)
        if not chain_is_cycle(inst.vertices, inst.edges, chain):
            return chain


def connected_subsets(vertices: int, edges, size: int) -> int:
    """Count edge subsets of the given size whose subgraph reaches every vertex."""
    count = 0
    for combo in combinations(range(len(edges)), size):
        parent = list(range(vertices))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        parts = vertices
        for e in combo:
            t, h = edges[e]
            rt, rh = find(t), find(h)
            if rt != rh:
                parent[rt] = rh
                parts -= 1
        count += parts == 1
    return count
