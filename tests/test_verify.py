import hashlib
import random
from itertools import combinations_with_replacement, permutations

import pytest

from hx import verify
from hx.errors import UnicyclizerAxiomError
from hx.graphs import Multigraph, contract, corank, delete, is_connected
from hx.intlinalg import IntMatrix, rank
from hx.spanning import cycletrees, fundamental_basis, lexmin_spanning_tree
from hx.verify import (
    DEFAULT_SEED,
    _cycletree_count_or_zero,
    _random_cycle,
    basis_cycles,
    connected_multigraphs,
    exhaustive_family,
    verify_counts,
    verify_energy_min,
    verify_harmonicity,
    verify_inner_product,
)
from hx.winding import new_unicyclization

THETA = Multigraph(2, ((0, 1), (0, 1), (0, 1)))


def theta_instance(column=(1, -1, 0)):
    return new_unicyclization(THETA, IntMatrix.from_columns([list(column)]))


def cycle_instance(n):
    g = Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))
    return new_unicyclization(g, IntMatrix.zero(n, 0))


def test_inner_product_report_theta():
    report = verify_inner_product(theta_instance())
    assert report.overall
    by_name = {c.name: c for c in report.checks}
    # the basis cycle through the third edge winds once: 3 = 1 * 3
    assert by_name["basis[1]"].lhs == "3"
    assert by_name["basis[1]"].rhs == "3"
    assert len([c for c in report.checks if c.name.startswith("random")]) == 50


def test_inner_product_report_torsion_theta():
    report = verify_inner_product(theta_instance((2, -2, 0)))
    assert report.overall
    by_name = {c.name: c for c in report.checks}
    assert by_name["basis[1]"].lhs == "6"


def test_inner_product_cycle_graphs():
    for n in range(3, 7):
        assert verify_inner_product(cycle_instance(n)).overall


def circulant_instance(n, seed):
    """Edges (i, i+1), (i, i+2) mod n with the unicyclizer F M, for the fundamental
    cycles F and a seeded +-2 matrix M of full column rank."""
    edges = tuple((i, (i + step) % n) for i in range(n) for step in (1, 2))
    g = Multigraph(n, edges)
    cycles = fundamental_basis(g, lexmin_spanning_tree(g))
    m = len(cycles)
    rng = random.Random(seed)
    combo = IntMatrix.zero(m, m - 1)
    while rank(combo) < m - 1:
        combo = IntMatrix(m, m - 1, tuple(rng.randint(-2, 2) for _ in range(m * (m - 1))))
    return new_unicyclization(g, IntMatrix.from_columns(cycles, rows=len(edges)) @ combo)


def inner_product_digest(instances):
    h = hashlib.sha256()
    for a in instances:
        report = verify_inner_product(a)
        h.update(repr((report.instance, report.checks)).encode())
    return h.hexdigest()


def test_inner_product_reports_are_pinned():
    # Digests of the reports of the one-determinant-per-probe verifier: grouping
    # the probes by cycle changes no check name, order, lhs or rhs.
    family = [new_unicyclization(g, p) for g, p in exhaustive_family(4, 6, 2, per_graph=1, seed=2024)]
    assert inner_product_digest(family) == "a6bb0618d455df349b743926f1289e6d4e545dc1137da4fcb7e7a46b8f7e888b"
    assert inner_product_digest([circulant_instance(6, 12)]) == (
        "1b49ef899b91cc9c13d36490e7dbeae5e1281fef9e34d875d28788efd5e4cc9d"
    )


def test_inner_product_takes_one_determinant_per_distinct_cycle(monkeypatch):
    a = circulant_instance(6, 12)
    rng = random.Random(DEFAULT_SEED)
    cycles = basis_cycles(a)
    probes = [ct.cycle for ct in cycletrees(a.graph)] + list(cycles) + [_random_cycle(rng, cycles) for _ in range(50)]
    calls = []
    determinant = verify.det
    monkeypatch.setattr(verify, "det", lambda m: calls.append(m) or determinant(m))
    report = verify_inner_product(a)
    assert report.overall and len(report.checks) == len(probes)
    assert len(calls) == len(set(probes)) < len(probes)
    # Cycles may be any sequences, lists included, as before the grouping.
    assert verify.determinant_windings(a, [list(z) for z in probes]) == verify.determinant_windings(a, probes)


def test_harmonicity_reports():
    assert verify_harmonicity(theta_instance()).overall
    assert verify_harmonicity(theta_instance((2, -2, 0))).overall


def test_harmonicity_precondition_on_tree_graph():
    tree = Multigraph(3, ((0, 1), (1, 2)))
    with pytest.raises(UnicyclizerAxiomError):
        new_unicyclization(tree, IntMatrix.zero(2, 0))


def test_counts_reports():
    report = verify_counts(THETA)
    assert report.overall
    assert len(cycletrees(THETA)) == 3
    c3 = Multigraph(3, ((0, 1), (1, 2), (2, 0)))
    assert verify_counts(c3).overall
    assert len(cycletrees(c3)) == 1
    loop = Multigraph(1, ((0, 0),))
    assert verify_counts(loop).overall
    assert len(cycletrees(loop)) == 1


def test_energy_min_reports():
    report = verify_energy_min(theta_instance(), trials=100)
    assert report.overall
    names = [c.name for c in report.checks]
    assert "orthogonal_to_boundaries" in names
    assert "energy_minimal" in names
    assert "equality_iff_zero_boundary" in names


def test_report_json_shape():
    payload = verify_harmonicity(theta_instance()).to_json()
    assert set(payload) == {"instance", "overall", "checks"}
    assert payload["overall"] is True
    assert all(set(c) == {"name", "passed", "lhs", "rhs"} for c in payload["checks"])


def test_family_includes_both_theta_instances():
    seen_plain = seen_torsion = False
    for g, partial in exhaustive_family(2, 3, 2, per_graph=40, seed=0):
        if g != THETA or partial.cols != 1:
            continue
        a = new_unicyclization(g, partial)
        if a.torsion_order == 1:
            seen_plain = True
        if a.torsion_order == 2:
            seen_torsion = True
    assert seen_plain and seen_torsion


def test_family_includes_cycle_graph_with_empty_unicyclizer():
    instances = list(exhaustive_family(3, 3, 1, per_graph=5, seed=0))
    c3 = Multigraph(3, ((0, 1), (0, 2), (1, 2)))
    assert any(g == c3 and partial.cols == 0 for g, partial in instances)


def test_family_minimal_limits():
    instances = list(exhaustive_family(1, 1, 1, per_graph=5, seed=0))
    assert instances == [(Multigraph(1, ((0, 0),)), IntMatrix.zero(1, 0))]


def test_family_is_deterministic():
    first = list(exhaustive_family(3, 4, 2, per_graph=5, seed=12))
    second = list(exhaustive_family(3, 4, 2, per_graph=5, seed=12))
    assert first == second


def test_family_instances_are_valid():
    for g, partial in exhaustive_family(3, 4, 2, per_graph=3, seed=5):
        assert corank(g) >= 1
        a = new_unicyclization(g, partial)
        assert a.partial.cols == corank(g) - 1


def test_connected_multigraphs_counts():
    graphs = connected_multigraphs(2, 3)
    assert Multigraph(1, ()) in graphs
    assert THETA in graphs
    for g in graphs:
        assert g.vertex_count <= 2 and g.edge_count <= 3
    # no two representatives are vertex-relabelings of each other
    assert len(graphs) == len(set(graphs))


def _sorted_image(perm, edges):
    return tuple(sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges))


def _canonical_edges(n, edges):
    """Oracle: the smallest image of the edge multiset over all n! vertex permutations."""
    return min(_sorted_image(perm, edges) for perm in permutations(range(n)))


def _labeled_connected(max_vertices, max_edges):
    """Every connected multigraph up to the size, once per labeling (edges tail <= head, sorted)."""
    for n in range(1, max_vertices + 1):
        pair_types = [(i, j) for i in range(n) for j in range(i, n)]
        for count in range(max_edges + 1):
            for combo in combinations_with_replacement(pair_types, count):
                if is_connected(Multigraph(n, combo)):
                    yield n, combo


@pytest.mark.parametrize("size", [(4, 6), (5, 4)])
def test_connected_multigraphs_match_the_sorting_oracle(size):
    expected = tuple(
        Multigraph(n, edges) for n, edges in _labeled_connected(*size) if edges == _canonical_edges(n, edges)
    )
    assert connected_multigraphs(*size) == expected


def test_every_labeled_multigraph_relabels_to_one_representative():
    representatives = {(g.vertex_count, g.edges) for g in connected_multigraphs(4, 5)}
    for n, edges in _labeled_connected(4, 5):
        relabelings = {_sorted_image(perm, edges) for perm in permutations(range(n))}
        assert sum((n, image) in representatives for image in relabelings) == 1


def test_family_stream_digest_is_pinned():
    # The stream of the acceptance family's shape; any change to the graph
    # order or the rng draws changes the digest.
    family = exhaustive_family(4, 6, 2, per_graph=20, seed=2024)
    stream = repr([(g.vertex_count, g.edges, p.rows, p.cols, p.entries) for g, p in family])
    assert hashlib.sha256(stream.encode()).hexdigest() == (
        "792980f456c488fb6043bce8dbb19e82b9a275b54d3e2f731542f3154322a431"
    )


def test_cycletree_count_matches_enumeration_family():
    for g in connected_multigraphs(4, 6):
        assert _cycletree_count_or_zero(g) == len(cycletrees(g))
        for e in range(g.edge_count):
            for smaller in (delete(g, e), contract(g, e)):
                expected = len(cycletrees(smaller)) if is_connected(smaller) else 0
                assert _cycletree_count_or_zero(smaller) == expected
