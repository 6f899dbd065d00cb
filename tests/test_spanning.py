import gc
import random
import tracemalloc
from itertools import combinations_with_replacement

import pytest

from hx.errors import EnumerationCapError, NotConnectedError
from hx.graphs import Multigraph, contract, delete, incidence_matrix, is_connected
from hx.intlinalg import IntMatrix, det, mat_vec
from hx.spanning import (
    GRAPH_CACHE_SIZE,
    _cycletrees_cached,
    cycletrees,
    fundamental_basis,
    lexmin_spanning_tree,
    spanning_trees,
    tree_number,
    unique_cycle,
)
from hx.verify import _cycletree_count_or_zero, connected_multigraphs
from hx.winding import new_unicyclization

THETA = Multigraph(2, ((0, 1), (0, 1), (0, 1)))


def cycle_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))


def test_spanning_trees_of_tree_is_itself():
    g = path_graph(4)
    assert spanning_trees(g) == [(0, 1, 2)]


def test_spanning_trees_theta():
    assert spanning_trees(THETA) == [(0,), (1,), (2,)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_spanning_trees_cycle_graph(n):
    assert len(spanning_trees(cycle_graph(n))) == n


def test_spanning_trees_require_connected():
    with pytest.raises(NotConnectedError):
        spanning_trees(Multigraph(2, ()))


def test_enumeration_cap():
    g = Multigraph(2, tuple((0, 1) for _ in range(5)))
    with pytest.raises(EnumerationCapError):
        spanning_trees(g, cap=4)
    assert len(spanning_trees(g, cap=5)) == 5


def test_tree_number_examples():
    assert tree_number(path_graph(5)) == 1
    assert tree_number(THETA) == 3
    for n in range(3, 9):
        assert tree_number(cycle_graph(n)) == n


def test_lexmin_spanning_tree():
    assert lexmin_spanning_tree(THETA) == frozenset({0})
    assert lexmin_spanning_tree(cycle_graph(4)) == frozenset({0, 1, 2})
    # Enough edges but two components, and too few edges for a billion vertices.
    for g in (Multigraph(4, ((0, 1), (0, 1), (2, 3))), Multigraph(10**9, ())):
        with pytest.raises(NotConnectedError):
            lexmin_spanning_tree(g)


def test_cycletrees_theta():
    found = cycletrees(THETA)
    assert [ct.edge_ids for ct in found] == [(0, 1), (0, 2), (1, 2)]
    assert found[0].cycle == (1, -1, 0)


def test_cycletrees_of_tree_empty():
    assert cycletrees(path_graph(3)) == []


def test_cycletree_single_loop():
    g = Multigraph(1, ((0, 0),))
    found = cycletrees(g)
    assert len(found) == 1
    assert found[0].edge_ids == (0,)
    assert found[0].cycle == (1,)


def test_cycletree_invariants_family():
    for g in connected_multigraphs(4, 5):
        incid = incidence_matrix(g)
        for ct in cycletrees(g):
            assert len(ct.edge_ids) == g.vertex_count
            assert all(c in (-1, 0, 1) for c in ct.cycle)
            support = {e for e, c in enumerate(ct.cycle) if c}
            assert support <= set(ct.edge_ids)
            assert all(v == 0 for v in mat_vec(incid, ct.cycle))
            assert ct.cycle[min(support)] == 1
            for e in support:
                rest = tuple(f for f in ct.edge_ids if f != e)
                assert rest in spanning_trees(g)


def test_unique_cycle_theta_pair():
    assert unique_cycle(THETA, {0, 1}) == (1, -1, 0)


def test_unique_cycle_loop():
    g = Multigraph(2, ((0, 1), (1, 1)))
    assert unique_cycle(g, {0, 1}) == (0, 1)


def test_unique_cycle_triangle():
    g = cycle_graph(3)
    cycle = unique_cycle(g, {0, 1, 2})
    assert cycle[0] == 1
    assert all(v == 0 for v in mat_vec(incidence_matrix(g), cycle))


def test_unique_cycle_rejects_non_cycletree():
    with pytest.raises(ValueError):
        unique_cycle(THETA, {0})


def test_fundamental_basis_theta():
    # One cycle per non-tree edge, 1 and 2: +1 at its own, 0 at the other.
    assert fundamental_basis(THETA, {0}) == ((-1, 1, 0), (-1, 0, 1))


def test_fundamental_basis_of_tree_is_empty():
    assert fundamental_basis(path_graph(3), {0, 1}) == ()


def test_fundamental_basis_with_loop():
    g = Multigraph(2, ((0, 1), (1, 1)))
    assert fundamental_basis(g, {0}) == ((0, 1),)


def test_fundamental_basis_rejects_non_tree():
    with pytest.raises(ValueError):
        fundamental_basis(THETA, {0, 1})


def test_express_reconstruction_round_trip():
    rng = random.Random(5)
    for g in connected_multigraphs(4, 5):
        tree = lexmin_spanning_tree(g)
        cycles = fundamental_basis(g, tree)
        non_tree = [e for e in range(g.edge_count) if e not in tree]
        for _ in range(5):
            coeffs = tuple(rng.randint(-4, 4) for _ in range(len(cycles)))
            chain = [0] * g.edge_count
            for c, z in zip(coeffs, cycles):
                for e, v in enumerate(z):
                    chain[e] += c * v
            assert tuple(chain[e] for e in non_tree) == coeffs


def all_connected_multigraphs_labeled(max_vertices, max_edges):
    for n in range(1, max_vertices + 1):
        pair_types = [(i, j) for i in range(n) for j in range(i, n)]
        for count in range(max_edges + 1):
            for combo in combinations_with_replacement(pair_types, count):
                g = Multigraph(n, combo)
                if is_connected(g):
                    yield g


def test_tree_count_matches_enumeration_family():
    for g in all_connected_multigraphs_labeled(5, 7):
        assert len(spanning_trees(g)) == tree_number(g)


def test_deletion_contraction_recursion_family():
    for g in connected_multigraphs(4, 6):
        k = tree_number(g)
        for e in range(g.edge_count):
            deleted = delete(g, e)
            contracted = contract(g, e)
            k_deleted = tree_number(deleted) if is_connected(deleted) else 0
            k_contracted = tree_number(contracted) if is_connected(contracted) else 0
            if g.is_loop(e):
                assert k == k_deleted == k_contracted
            else:
                assert k == k_deleted + k_contracted


def test_cycletree_bijections_family():
    for g in connected_multigraphs(4, 6):
        all_cts = cycletrees(g)
        for e in range(g.edge_count):
            through = sum(1 for y in all_cts if e in y.edge_ids)
            deleted = delete(g, e)
            contracted = contract(g, e)
            u_deleted = len(cycletrees(deleted)) if is_connected(deleted) else 0
            if g.is_loop(e):
                assert through == tree_number(contracted)
            else:
                assert through == len(cycletrees(contracted))
            assert len(all_cts) == through + u_deleted


def test_graph_caches_are_bounded():
    # The enumeration caches keep the graph in hand only, since one graph's
    # enumeration can take megabytes; the caches of a number per graph keep
    # the GRAPH_CACHE_SIZE graphs used last.
    enumerations = (_cycletrees_cached, connected_multigraphs)
    scalars = (tree_number, _cycletree_count_or_zero)
    kinds = ((0, 1), (1, 0), (0, 0), (1, 1))
    for i in range(GRAPH_CACHE_SIZE + 8):
        # A distinct cheap graph per i: an edge 0-1 plus seven edges chosen by the base-4 digits of i.
        g = Multigraph(2, ((0, 1),) + tuple(kinds[(i >> (2 * d)) & 3] for d in range(7)))
        cycletrees(g)
        tree_number(g)
        connected_multigraphs(0, i)
        _cycletree_count_or_zero(g)
        assert all(cache.cache_info().currsize == 1 for cache in enumerations)
        assert all(cache.cache_info().currsize <= GRAPH_CACHE_SIZE for cache in scalars)
    assert all(cache.cache_info().currsize == GRAPH_CACHE_SIZE for cache in scalars)
    # A repeat call on the graph in hand is answered from the cache.
    hits = _cycletrees_cached.cache_info().hits
    assert cycletrees(g) == cycletrees(g)
    assert _cycletrees_cached.cache_info().hits == hits + 2


def test_long_lived_loop_retains_one_graphs_enumeration():
    # 100 distinct 12-edge graphs of one shape, so every enumeration is the same
    # size: the edges of the triangle with each side taken four times, in 100 orders.
    rng = random.Random(12)
    edges = [(0, 1), (1, 2), (0, 2)] * 4
    graphs = []
    while len(graphs) < 100:
        rng.shuffle(edges)
        g = Multigraph(3, tuple(edges))
        if g not in graphs:
            graphs.append(g)
    _cycletrees_cached.cache_clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i, g in enumerate(graphs):
            cycletrees(g)
            spanning_trees(g)
            tree_number(g)
            if i == 0:
                one_graph = tracemalloc.get_traced_memory()[0] - start
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 2 * one_graph


@pytest.mark.parametrize(
    "call, bound_mib",
    [
        (tree_number, 16),
        (lambda g: new_unicyclization(g, IntMatrix.zero(g.edge_count, 0)), 20),
    ],
    ids=["tree_number", "new_unicyclization"],
)
def test_the_largest_cycle_is_eliminated_in_one_dense_copy(call, bound_mib):
    # The cycle with 2^10 edges, the most a document may declare: [L_0 | D x]
    # is 1,023 lists of 1,024 ints, 8 MiB of pointers, eliminated in place. A
    # flattened matrix and the rows rebuilt from it would hold three such
    # copies at once, about 29 MiB at the peak.
    g = cycle_graph(1024)
    tree_number.cache_clear()
    tracemalloc.start()
    try:
        call(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_cycletrees_share_their_cycles():
    n = 8
    g = Multigraph(n, tuple(edge for i in range(n) for edge in ((i, (i + 1) % n), (i, (i + 2) % n))))
    cts = cycletrees(g)
    assert len({id(ct.cycle) for ct in cts}) == len({ct.cycle for ct in cts}) < len(cts)


def tree_path(g, tree, start, goal):
    """Oracle: the edge walk through the tree from start to goal as (edge id,
    direction), by a fresh depth-first search over the tree's adjacency."""
    adjacency = {v: [] for v in range(g.vertex_count)}
    for e in tree:
        t, h = g.edges[e]
        adjacency[t].append((h, e, 1))
        adjacency[h].append((t, e, -1))
    prev = {}
    stack, seen = [start], {start}
    while stack:
        v = stack.pop()
        for w, e, direction in adjacency[v]:
            if w not in seen:
                seen.add(w)
                prev[w] = (v, e, direction)
                stack.append(w)
    path, v = [], goal
    while v != start:
        u, e, direction = prev[v]
        path.append((e, direction))
        v = u
    return path


def fundamental_cycles_by_paths(g, tree):
    cycles = []
    for e in range(g.edge_count):
        if e in tree:
            continue
        coeffs = [0] * g.edge_count
        coeffs[e] = 1
        tail, head = g.edges[e]
        for f, direction in tree_path(g, tree, head, tail):
            coeffs[f] = direction
        cycles.append(tuple(coeffs))
    return tuple(cycles)


def random_spanning_tree(rng, g):
    """Union-find over the edges in a random order."""
    parent = list(range(g.vertex_count))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    tree = set()
    for e in rng.sample(range(g.edge_count), g.edge_count):
        a, b = find(g.edges[e][0]), find(g.edges[e][1])
        if a != b:
            parent[a] = b
            tree.add(e)
    return frozenset(tree)


def test_fundamental_basis_matches_tree_path_oracle_family():
    for g in connected_multigraphs(4, 5):
        for tree in spanning_trees(g):
            assert fundamental_basis(g, tree) == fundamental_cycles_by_paths(g, tree)


def test_fundamental_basis_matches_tree_path_oracle_random_trees():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 30)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
        rng.shuffle(edges)
        g = Multigraph(n, tuple((h, t) if rng.random() < 0.5 else (t, h) for t, h in edges))
        tree = random_spanning_tree(rng, g)
        assert fundamental_basis(g, tree) == fundamental_cycles_by_paths(g, tree)


@pytest.mark.parametrize(
    "graph, tree",
    [
        (THETA, {0, 1}),  # too many edges
        (Multigraph(3, ((0, 1), (0, 1), (1, 2))), {0, 1}),  # V - 1 edges with a cycle, missing vertex 2
        (Multigraph(2, ((0, 1), (1, 1), (0, 0))), {1}),  # a loop
        (Multigraph(4, ((0, 1), (2, 3), (1, 2))), {0, 1}),  # too few edges
    ],
)
def test_fundamental_basis_rejects_non_spanning_sets(graph, tree):
    with pytest.raises(ValueError, match="^edge set is not a spanning tree$"):
        fundamental_basis(graph, tree)


def test_tree_number_matches_incidence_laplacian_family():
    for g in connected_multigraphs(4, 6):
        d1 = incidence_matrix(g)
        laplacian = d1 @ d1.transpose()
        n = g.vertex_count - 1
        reduced = IntMatrix(n, n, tuple(laplacian[i, j] for i in range(1, n + 1) for j in range(1, n + 1)))
        assert tree_number(g) == det(reduced)
