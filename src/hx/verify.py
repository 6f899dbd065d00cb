"""Brute-force verifiers for the structural identities, on small instances.

Each verifier re-derives one identity by exhaustive enumeration and returns
a report of named checks. The oracles for the closed forms in ``winding``
are here too: ``determinant_windings`` takes each winding as the
determinant that defines it, ``_weighted_cycle_sum`` k and lambda from a
Gram matrix, and ``cycletree_sum`` and ``cycletree_split`` sum the
cycletrees. The instance family generator enumerates every connected
multigraph up to the given size (one representative per vertex
relabeling) and equips each with seeded random valid unicyclizers, which
is what the acceptance suite sweeps.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from typing import Iterator, NamedTuple

from .complexes import energy, harmonic_basis, laplacian
from .errors import InternalError
from .graphs import Multigraph, contract, corank, delete, is_connected, spanning_subgraph_connected
from .intlinalg import IntMatrix, _from_columns, _kernel_vectors, _matrix, _primitive, det, dot, mat_vec, rank
from .spanning import GRAPH_CACHE_SIZE, cycletrees, fundamental_basis, lexmin_spanning_tree, spanning_trees, tree_number
from .winding import Unicyclization, cycle_coordinates, standard_harmonic_cycle

DEFAULT_SEED = 2024


class Check(NamedTuple):
    name: str
    passed: bool
    lhs: str
    rhs: str


class VerificationReport(NamedTuple):
    instance: str
    checks: tuple[Check, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        """The report as a JSON object whose checks are a generator of
        records, which the CLI's writer encodes one at a time."""
        return {"instance": self.instance, "overall": self.overall, "checks": (c._asdict() for c in self.checks)}


def describe_graph(g: Multigraph) -> str:
    return f"vertices={g.vertex_count} edges={list(map(list, g.edges))}"


def describe_instance(a: Unicyclization) -> str:
    return f"{describe_graph(a.graph)} unicyclizer={[list(a.partial.column(j)) for j in range(a.partial.cols)]}"


def basis_cycles(a: Unicyclization) -> tuple[tuple[int, ...], ...]:
    """The fundamental cycles at ``a.non_tree_edges``, in order: the instance's basis, built on each call."""
    return fundamental_basis(a.graph, set(range(a.graph.edge_count)).difference(a.non_tree_edges))


def _random_cycle(rng: random.Random, cycles) -> tuple[int, ...]:
    coeffs = [rng.randint(-3, 3) for _ in cycles]
    total = [0] * len(cycles[0])
    for c, z in zip(coeffs, cycles):
        if c:
            total = [t + c * v for t, v in zip(total, z)]
    return tuple(total)


def determinant_windings(a: Unicyclization, cycles) -> list[int]:
    """Winding numbers by their definition, o det[coords(z) | P], one determinant per distinct cycle.

    P is the unicyclizer read off at the instance's non-tree edges and o its
    orientation. This is the oracle for the winding covector.
    """
    # Each determinant is taken of the transpose, whose rows are coords(z) and then P's columns.
    p_rows = tuple(a.partial[e, j] for j in range(a.partial.cols) for e in a.non_tree_edges)
    m = a.cycle_rank
    cycles = [tuple(z) for z in cycles]
    windings = {z: a.orientation * det(_matrix(m, m, cycle_coordinates(a, z) + p_rows)) for z in set(cycles)}
    return [windings[z] for z in cycles]


def _weighted_cycle_sum(edge_count: int, cycles, values) -> tuple[int, tuple[int, ...]]:
    """(det G, B adj(G) f) for a Z-basis B of the cycle lattice, its Gram
    matrix G = B^T B and the values f of a linear functional on B: the tree
    count k (Bacher, de la Harpe and Nagnibeda, 1997) and the sum over the
    cycletrees of f(cycle) times the cycle, as both are cycles with inner
    product k f_i with each b_i. One elimination of [G | f] ends with the
    pivot det G, and its kernel vector is (-adj(G) f, det G). This is the
    oracle for ``spanning._cycle_projection``, which builds every instance.
    """
    m = len(cycles)
    augmented = [[dot(u, v) for v in cycles] + [f] for u, f in zip(cycles, values)]
    pivots, d, kernel = _kernel_vectors(augmented, m + 1)
    if pivots != list(range(m)):
        raise InternalError(f"Gram matrix of the {m} cycles is singular: they are not a basis")
    ((_, x),) = kernel
    return d, tuple(mat_vec(_from_columns(cycles, edge_count), [-e for e in x]))


def _winding_weighted_sum(a: Unicyclization, trees) -> tuple[int, ...]:
    """Sum of the cycletrees' unique cycles, each times its determinant winding number.

    Many cycletrees share a cycle, so each distinct cycle's determinant is
    taken once and weighted by the number of cycletrees that have it.
    """
    counts = Counter(ct.cycle for ct in trees)
    weights = [counts[z] * w for z, w in zip(counts, determinant_windings(a, list(counts)))]
    return tuple(mat_vec(_from_columns(list(counts), a.graph.edge_count), weights))


def cycletree_sum(a: Unicyclization) -> tuple[int, ...]:
    """The standard harmonic cycle by enumeration: the sum over all
    cycletrees of the unique cycle times its determinant winding number."""
    return _winding_weighted_sum(a, cycletrees(a.graph))


def cycletree_split(a: Unicyclization, edge: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``cycletree_sum`` split by enumeration into the cycletrees through the edge and the rest."""
    a.graph.check_edge(edge)
    trees = cycletrees(a.graph)
    through = _winding_weighted_sum(a, [ct for ct in trees if edge in ct.edge_ids])
    return through, _winding_weighted_sum(a, [ct for ct in trees if edge not in ct.edge_ids])


def verify_inner_product(a: Unicyclization, trials: int = 50, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Check cycle . lambda = winding(cycle) * tree count, over many cycles.

    Covers every cycletree cycle, every basis cycle, and seeded random
    integer combinations of the basis. Windings are determinants and k is
    the basis' Gram determinant (``_weighted_cycle_sum``), not the Laplacian
    that gives lambda, so the probes check lambda and, through it, that k.
    """
    rng = random.Random(seed)
    probes = [(f"cycletree[{i}]", ct.cycle) for i, ct in enumerate(cycletrees(a.graph))]
    cycles = basis_cycles(a)
    probes += [(f"basis[{i}]", z) for i, z in enumerate(cycles)]
    probes += [(f"random[{t}]", _random_cycle(rng, cycles)) for t in range(trials)]
    lam = standard_harmonic_cycle(a)
    k, _ = _weighted_cycle_sum(a.graph.edge_count, cycles, a.covector)
    checks = []
    for (name, cycle), w in zip(probes, determinant_windings(a, [z for _, z in probes])):
        lhs, rhs = dot(cycle, lam), w * k
        checks.append(Check(name, lhs == rhs, str(lhs), str(rhs)))
    return VerificationReport(describe_instance(a), tuple(checks))


def verify_harmonicity(a: Unicyclization) -> VerificationReport:
    """Check the standard harmonic cycle is a nonzero harmonic cycle."""
    lam = standard_harmonic_cycle(a)
    x = a.complex()
    incid = x.boundary(1)
    boundary_image = mat_vec(incid, lam)
    coboundary_image = mat_vec(a.partial.transpose(), lam)
    laplacian_image = mat_vec(laplacian(x, 1), lam)
    basis = harmonic_basis(x, 1)
    proportional = basis == [_primitive(lam)]  # both sides primitive, first nonzero entry positive; a zero lam matches no basis
    checks = (
        Check("cycle", all(v == 0 for v in boundary_image), str(boundary_image), "0"),
        Check("cocycle", all(v == 0 for v in coboundary_image), str(coboundary_image), "0"),
        Check("laplacian_kernel", all(v == 0 for v in laplacian_image), str(laplacian_image), "0"),
        Check("nonzero", any(v != 0 for v in lam), str(list(lam)), "!= 0"),
        Check("spans_harmonic_space", proportional, str(list(lam)), str([list(b) for b in basis])),
    )
    return VerificationReport(describe_instance(a), checks)


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _cycletree_count_or_zero(g: Multigraph) -> int:
    """Number of cycletrees, the connected V-edge subsets, counted without walking their cycles."""
    if not is_connected(g):
        return 0
    return sum(spanning_subgraph_connected(g, combo) for combo in combinations(range(g.edge_count), g.vertex_count))


def verify_counts(g: Multigraph) -> VerificationReport:
    """Check the deletion/contraction recursions for trees and cycletrees."""
    trees = spanning_trees(g)
    k = tree_number(g)
    all_cycletrees = cycletrees(g)
    checks = [
        Check("matrix_tree", len(trees) == k, str(len(trees)), str(k)),
    ]
    for edge in range(g.edge_count):
        deleted = delete(g, edge)
        contracted = contract(g, edge)
        k_del = tree_number(deleted) if is_connected(deleted) else 0
        k_con = tree_number(contracted)  # contracting an edge keeps the graph connected
        through = sum(1 for y in all_cycletrees if edge in y.edge_ids)
        u_del = _cycletree_count_or_zero(deleted)
        if g.is_loop(edge):
            checks.append(Check(f"tree_recursion[{edge}]", k == k_del == k_con, str(k), f"{k_del} = {k_con}"))
            checks.append(Check(f"cycletrees_through[{edge}]", through == k_con, str(through), str(k_con)))
            checks.append(
                Check(f"cycletree_recursion[{edge}]", len(all_cycletrees) == k_con + u_del, str(len(all_cycletrees)), f"{k_con} + {u_del}")
            )
        else:
            u_con = _cycletree_count_or_zero(contracted)
            checks.append(Check(f"tree_recursion[{edge}]", k == k_del + k_con, str(k), f"{k_del} + {k_con}"))
            checks.append(Check(f"cycletrees_through[{edge}]", through == u_con, str(through), str(u_con)))
            checks.append(
                Check(f"cycletree_recursion[{edge}]", len(all_cycletrees) == u_con + u_del, str(len(all_cycletrees)), f"{u_con} + {u_del}")
            )
    return VerificationReport(describe_graph(g), tuple(checks))


def verify_energy_min(a: Unicyclization, trials: int = 100, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Check the energy-minimizing property of the standard harmonic cycle.

    For seeded random 2-chains y, the cycle must be orthogonal to the
    boundary of y and never lose to the perturbed chain, with equality
    exactly when the boundary vanishes.
    """
    lam = standard_harmonic_cycle(a)
    base = energy(lam)
    rng = random.Random(seed)
    cols = a.partial.cols
    names = ("orthogonal_to_boundaries", "energy_minimal", "equality_iff_zero_boundary")
    passed = [0] * len(names)
    failing = [None] * len(names)  # each check's first failing y
    for _ in range(trials):
        y = [rng.randint(-3, 3) for _ in range(cols)]
        v = mat_vec(a.partial, y)
        perturbed = energy([l + w for l, w in zip(lam, v)])
        for i, ok in enumerate((dot(lam, v) == 0, base <= perturbed, (perturbed == base) == (not any(v)))):
            passed[i] += ok
            if not ok and failing[i] is None:
                failing[i] = y
    checks = tuple(
        Check(name, n == trials, f"{n}/{trials}", f"{trials}/{trials}" + ("" if y is None else f"; first failing y={y}"))
        for name, n, y in zip(names, passed, failing)
    )
    return VerificationReport(describe_instance(a), checks)


def _relabelings(n: int, pair_types: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Each non-identity vertex permutation's action on the pair-type indices.

    The pair types (i, j), i <= j, are in lexicographic order, so comparing
    sorted index tuples is the same as comparing sorted pair tuples.
    """
    index = {pair: k for k, pair in enumerate(pair_types)}
    return [
        tuple(index[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in pair_types)
        for perm in permutations(range(n))
        if perm != tuple(range(n))
    ]


@lru_cache(maxsize=1)
def connected_multigraphs(max_vertices: int, max_edges: int) -> tuple[Multigraph, ...]:
    """Connected multigraphs up to the given size, one per relabeling class.

    Edges are canonically oriented tail <= head; the representative of each
    class is the lexicographically smallest edge multiset over all vertex
    permutations. Each permutation's action on the pair types is computed
    once per vertex count; a multiset is kept exactly when no permutation
    maps it to a smaller one, and dropped at the first permutation that does.
    """
    found = []
    for n in range(1, max_vertices + 1):
        pair_types = [(i, j) for i in range(n) for j in range(i, n)]
        relabelings = _relabelings(n, pair_types)
        for count in range(max_edges + 1):
            for combo in combinations_with_replacement(range(len(pair_types)), count):
                if any(tuple(sorted([image[k] for k in combo])) < combo for image in relabelings):
                    continue
                g = Multigraph(n, tuple(pair_types[k] for k in combo))
                if is_connected(g):
                    found.append(g)
    return tuple(found)


def exhaustive_family(
    max_vertices: int,
    max_edges: int,
    max_entry: int,
    per_graph: int = 20,
    seed: int = DEFAULT_SEED,
) -> Iterator[tuple[Multigraph, IntMatrix]]:
    """Deterministic stream of (graph, unicyclizer) instances.

    Every connected multigraph with positive corank appears; its
    unicyclizers are random integer combinations of the fundamental cycles
    with coefficients bounded by ``max_entry``, kept only when the columns
    are independent. Duplicate unicyclizers on a graph are skipped, so
    graphs whose corank is one contribute a single instance (the empty
    unicyclizer is the only valid one there).
    """
    rng = random.Random(seed)
    for g in connected_multigraphs(max_vertices, max_edges):
        if corank(g) < 1:
            continue
        m = corank(g)
        if m == 1:
            yield g, IntMatrix.zero(g.edge_count, 0)
            continue
        basis_matrix = _from_columns(fundamental_basis(g, lexmin_spanning_tree(g)), g.edge_count)
        emitted: set[IntMatrix] = set()
        attempts = 0
        while len(emitted) < per_graph and attempts < 50 * per_graph:
            attempts += 1
            combo = IntMatrix(
                m,
                m - 1,
                tuple(rng.randint(-max_entry, max_entry) for _ in range(m * (m - 1))),
            )
            if rank(combo) < m - 1:
                continue
            partial = basis_matrix @ combo
            if partial in emitted:
                continue
            emitted.add(partial)
            yield g, partial
