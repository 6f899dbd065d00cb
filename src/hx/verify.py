"""Brute-force verifiers for the structural identities, on small instances.

Each verifier re-derives one identity by exhaustive enumeration and returns
a report of named checks. ``cycletree_sum`` is the standard harmonic cycle
by its definition, the oracle for the closed form in ``winding``. The
instance family generator enumerates every connected multigraph up to the
given size (one representative per vertex relabeling) and equips each with
seeded random valid unicyclizers, which is what the acceptance suite
sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import Iterator

from .complexes import energy, harmonic_basis
from .graphs import Multigraph, contract, corank, delete, incidence_matrix, is_connected
from .intlinalg import IntMatrix, dot, mat_vec, rank
from .spanning import cycletrees, fundamental_basis, lexmin_spanning_tree, spanning_trees, tree_number
from .winding import Unicyclization, standard_harmonic_cycle, winding_number

DEFAULT_SEED = 2024


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    lhs: str
    rhs: str


@dataclass(frozen=True)
class VerificationReport:
    instance: str
    checks: tuple[Check, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "overall": self.overall,
            "checks": [
                {"name": c.name, "passed": c.passed, "lhs": c.lhs, "rhs": c.rhs}
                for c in self.checks
            ],
        }


def describe_graph(g: Multigraph) -> str:
    return f"vertices={g.vertex_count} edges={list(map(list, g.edges))}"


def describe_instance(a: Unicyclization) -> str:
    return f"{describe_graph(a.graph)} unicyclizer={[list(a.partial.column(j)) for j in range(a.partial.cols)]}"


def _random_cycle(rng: random.Random, a: Unicyclization) -> tuple[int, ...]:
    coeffs = [rng.randint(-3, 3) for _ in a.basis]
    total = [0] * a.graph.edge_count
    for c, z in zip(coeffs, a.basis):
        if c:
            for e, v in enumerate(z):
                total[e] += c * v
    return tuple(total)


def cycletree_sum(a: Unicyclization, cap: int | None = None) -> tuple[int, ...]:
    """The standard harmonic cycle by enumeration: the sum over all
    cycletrees of the unique cycle times its determinant winding number."""
    total = [0] * a.graph.edge_count
    for ct in cycletrees(a.graph, cap):
        w = winding_number(a, ct.cycle)
        if w:
            for e, c in enumerate(ct.cycle):
                if c:
                    total[e] += w * c
    return tuple(total)


def verify_inner_product(
    a: Unicyclization, trials: int = 50, seed: int = DEFAULT_SEED, cap: int | None = None
) -> VerificationReport:
    """Check cycle . lambda = winding(cycle) * tree count, over many cycles.

    Covers every cycletree cycle, every basis cycle, and seeded random
    integer combinations of the basis. Windings are determinants, so the
    probes check the closed-form lambda independently of it.
    """
    all_cycletrees = cycletrees(a.graph, cap)
    lam = standard_harmonic_cycle(a)
    k = a.tree_count
    checks = []

    def probe(name: str, cycle) -> None:
        lhs = dot(cycle, lam)
        rhs = winding_number(a, cycle) * k
        checks.append(Check(name, lhs == rhs, str(lhs), str(rhs)))

    for i, ct in enumerate(all_cycletrees):
        probe(f"cycletree[{i}]", ct.cycle)
    for i, z in enumerate(a.basis):
        probe(f"basis[{i}]", z)
    rng = random.Random(seed)
    for t in range(trials):
        probe(f"random[{t}]", _random_cycle(rng, a))
    return VerificationReport(describe_instance(a), tuple(checks))


def verify_harmonicity(a: Unicyclization) -> VerificationReport:
    """Check the standard harmonic cycle is a nonzero harmonic cycle."""
    lam = standard_harmonic_cycle(a)
    x = a.complex()
    incid = incidence_matrix(a.graph)
    boundary_image = mat_vec(incid, lam)
    coboundary_image = mat_vec(a.partial.transpose(), lam)
    laplacian_image = mat_vec(incid.transpose() @ incid + a.partial @ a.partial.transpose(), lam)
    basis = harmonic_basis(x, 1)
    proportional = len(basis) == 1 and all(
        basis[0][i] * lam[j] == basis[0][j] * lam[i]
        for i in range(len(lam))
        for j in range(i + 1, len(lam))
    )
    checks = (
        Check("cycle", all(v == 0 for v in boundary_image), str(boundary_image), "0"),
        Check("cocycle", all(v == 0 for v in coboundary_image), str(coboundary_image), "0"),
        Check("laplacian_kernel", all(v == 0 for v in laplacian_image), str(laplacian_image), "0"),
        Check("nonzero", any(v != 0 for v in lam), str(list(lam)), "!= 0"),
        Check("spans_harmonic_space", proportional, str(list(lam)), str([list(b) for b in basis])),
    )
    return VerificationReport(describe_instance(a), checks)


def _tree_count_or_zero(g: Multigraph) -> int:
    return tree_number(g) if is_connected(g) else 0


def _cycletree_count_or_zero(g: Multigraph, cap: int | None) -> int:
    return len(cycletrees(g, cap)) if is_connected(g) else 0


def verify_counts(g: Multigraph, cap: int | None = None) -> VerificationReport:
    """Check the deletion/contraction recursions for trees and cycletrees."""
    trees = spanning_trees(g, cap)
    k = tree_number(g)
    all_cycletrees = cycletrees(g, cap)
    checks = [
        Check("matrix_tree", len(trees) == k, str(len(trees)), str(k)),
    ]
    for edge in range(g.edge_count):
        deleted, _ = delete(g, edge)
        contracted, _ = contract(g, edge)
        k_del = _tree_count_or_zero(deleted)
        k_con = _tree_count_or_zero(contracted)
        through = sum(1 for y in all_cycletrees if edge in y.edge_ids)
        u_del = _cycletree_count_or_zero(deleted, cap)
        if g.is_loop(edge):
            checks.append(Check(f"tree_recursion[{edge}]", k == k_del == k_con, str(k), f"{k_del} = {k_con}"))
            checks.append(Check(f"cycletrees_through[{edge}]", through == k_con, str(through), str(k_con)))
            checks.append(
                Check(f"cycletree_recursion[{edge}]", len(all_cycletrees) == k_con + u_del, str(len(all_cycletrees)), f"{k_con} + {u_del}")
            )
        else:
            u_con = _cycletree_count_or_zero(contracted, cap)
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
    orthogonal = 0
    minimal = 0
    strict = 0
    first_failure = ""
    for _ in range(trials):
        y = [rng.randint(-3, 3) for _ in range(cols)]
        v = mat_vec(a.partial, y)
        perturbed = energy([l + w for l, w in zip(lam, v)])
        ortho = dot(lam, v) == 0
        le = base <= perturbed
        eq_iff = (perturbed == base) == all(w == 0 for w in v)
        orthogonal += ortho
        minimal += le
        strict += eq_iff
        if not (ortho and le and eq_iff) and not first_failure:
            first_failure = f"y={y}"
    checks = (
        Check("orthogonal_to_boundaries", orthogonal == trials, f"{orthogonal}/{trials}", f"{trials}/{trials}"),
        Check("energy_minimal", minimal == trials, f"{minimal}/{trials}", f"{trials}/{trials}"),
        Check("equality_iff_zero_boundary", strict == trials, f"{strict}/{trials}", f"{trials}/{trials}" + first_failure),
    )
    return VerificationReport(describe_instance(a), checks)


def _canonical_edges(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    best = None
    for perm in permutations(range(n)):
        mapped = tuple(
            sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges)
        )
        if best is None or mapped < best:
            best = mapped
    return best


@lru_cache(maxsize=None)
def connected_multigraphs(max_vertices: int, max_edges: int) -> tuple[Multigraph, ...]:
    """Connected multigraphs up to the given size, one per relabeling class.

    Edges are canonically oriented tail <= head; the representative of each
    class is the lexicographically smallest edge multiset over all vertex
    permutations.
    """
    found = []
    for n in range(1, max_vertices + 1):
        pair_types = [(i, j) for i in range(n) for j in range(i, n)]
        for count in range(max_edges + 1):
            for combo in combinations_with_replacement(pair_types, count):
                if combo != _canonical_edges(n, combo):
                    continue
                g = Multigraph(n, combo)
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
        basis = fundamental_basis(g, lexmin_spanning_tree(g))
        basis_matrix = IntMatrix.from_columns(basis.cycles, rows=g.edge_count)
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
