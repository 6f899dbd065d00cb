"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The instance family sweeps every connected multigraph with at most 4
vertices and 6 edges (one representative per vertex relabeling), each
equipped with 20 seeded random valid unicyclizers.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from hx.complexes import (
    check_mean_value,
    complex_from_boundaries,
    energy,
    harmonic_basis,
    homology_group,
    laplacian,
)
from hx.graphs import Multigraph, incidence_matrix
from hx.intlinalg import IntMatrix, dot, gcd_of_vector, kernel_basis, mat_vec
from hx.spanning import cycletrees, fundamental_basis, spanning_trees, tree_number
from hx.verify import (
    basis_cycles,
    connected_multigraphs,
    exhaustive_family,
    verify_counts,
    verify_harmonicity,
    verify_inner_product,
)
from hx.winding import (
    contract_unicyclization,
    cycletree_windings,
    delete_unicyclization,
    harmonic_to_unicyclizer,
    new_unicyclization,
    split_standard_cycle,
    standard_harmonic_cycle,
    standard_harmonic_cycle_grouped,
    winding_difference,
    winding_number,
)

THETA = Multigraph(2, ((0, 1), (0, 1), (0, 1)))
FAMILY_SEED = 2024


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({description}): PASS [{elapsed:.1f}s, budget {budget_seconds:g}s]")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


@lru_cache(maxsize=1)
def family():
    return tuple(
        new_unicyclization(g, partial)
        for g, partial in exhaustive_family(4, 6, 2, per_graph=20, seed=FAMILY_SEED)
    )


def up_to_sign(chain, expected):
    return tuple(chain) == expected or tuple(-c for c in chain) == expected


def test_criterion_1_theta_fixture():
    with criterion(1, "theta fixture", 1.0):
        a = new_unicyclization(THETA, IntMatrix.from_columns([[1, -1, 0]]))
        assert a.tree_count == 3
        assert len(cycletrees(THETA)) == 3
        assert sorted(abs(w) for w in cycletree_windings(a)) == [0, 1, 1]
        lam = standard_harmonic_cycle(a)
        assert up_to_sign(lam, (-1, -1, 2))
        assert a.torsion_order == 1
        spot = (-1, 0, 1)
        assert dot(spot, lam) == 3 == winding_number(a, spot) * a.tree_count
        assert verify_inner_product(a).overall


def test_criterion_2_torsion_fixture():
    with criterion(2, "torsion fixture", 1.0):
        a = new_unicyclization(THETA, IntMatrix.from_columns([[2, -2, 0]]))
        assert a.torsion_order == 2
        assert sorted(abs(w) for w in cycletree_windings(a)) == [0, 2, 2]
        assert up_to_sign(standard_harmonic_cycle(a), (-2, -2, 4))
        assert gcd_of_vector([winding_number(a, z) for z in basis_cycles(a)]) == 2
        assert verify_inner_product(a).overall


def test_criterion_3_cycle_graph_base_case():
    with criterion(3, "cycle-graph base case", 1.0):
        for n in range(3, 9):
            g = Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))
            a = new_unicyclization(g, IntMatrix.zero(n, 0))
            assert a.tree_count == n
            lam = standard_harmonic_cycle(a)
            for ct in cycletrees(g):
                w = winding_number(a, ct.cycle)
                assert abs(w) == 1
                assert dot(ct.cycle, lam) == w * n


def sigma_avoiding_cycles(a, sigma):
    trees_avoiding = [t for t in spanning_trees(a.graph) if sigma not in t]
    if not trees_avoiding:
        return list(basis_cycles(a))
    # sigma is outside the tree, so only its own fundamental cycle goes through it.
    return [z for z in fundamental_basis(a.graph, trees_avoiding[0]) if z[sigma] == 0]


def test_criterion_4_exhaustive_family_theorems():
    with criterion(4, "exhaustive family: inner product, harmonicity, splits", 120.0):
        for a in family():
            g = a.graph
            assert verify_inner_product(a).overall
            assert verify_harmonicity(a).overall
            lam = standard_harmonic_cycle(a)
            assert standard_harmonic_cycle_grouped(a) == lam
            for sigma in range(g.edge_count):
                lam_with, lam_without = split_standard_cycle(a, sigma)
                assert tuple(x + y for x, y in zip(lam_with, lam_without)) == lam
                avoid = sigma_avoiding_cycles(a, sigma)
                if g.is_loop(sigma):
                    for c in avoid:
                        assert dot(c, lam_with) == 0
                else:
                    contracted = contract_unicyclization(a, sigma)
                    assert contracted.tree_count == tree_number(contracted.graph)
                    lam_c = standard_harmonic_cycle(contracted)
                    for c in avoid:
                        cc = tuple(v for e, v in enumerate(c) if e != sigma)
                        assert dot(c, lam_with) == dot(cc, lam_c)
                if winding_difference(a, sigma) == 0:
                    assert not any(lam_without)
                else:
                    smaller, n_sigma = delete_unicyclization(a, sigma)
                    assert smaller.tree_count == tree_number(smaller.graph)
                    lam_d = standard_harmonic_cycle(smaller)
                    for c in avoid:
                        if c[sigma] != 0:
                            continue
                        cd = tuple(v for e, v in enumerate(c) if e != sigma)
                        assert dot(c, lam_without) == n_sigma * dot(cd, lam_d)


def test_criterion_5_counting_recursions():
    with criterion(5, "counting recursions", 60.0):
        for g in connected_multigraphs(4, 6):
            assert verify_counts(g).overall


def test_criterion_6_hodge_and_energy():
    with criterion(6, "hodge rank equality and energy minimization", 60.0):
        import random

        for a in family():
            x = a.complex()
            for i in (0, 1):
                assert len(kernel_basis(laplacian(x, i))) == homology_group(x, i).rank
            lam = standard_harmonic_cycle(a)
            base = energy(lam)
            rng = random.Random(FAMILY_SEED)
            for _ in range(100):
                y = [rng.randint(-3, 3) for _ in range(a.partial.cols)]
                v = mat_vec(a.partial, y)
                assert dot(lam, v) == 0
                perturbed = energy([l + w for l, w in zip(lam, v)])
                assert base <= perturbed
                assert (perturbed == base) == all(w == 0 for w in v)


def test_criterion_7_basis_and_orientation_robustness():
    with criterion(7, "basis and orientation robustness", 30.0):
        for a in family():
            g = a.graph
            trees = spanning_trees(g)
            lam = standard_harmonic_cycle(a)
            if len(trees) <= 4:
                for tree in trees:
                    other = new_unicyclization(g, a.partial, basis_tree=tree)
                    lam_other = standard_harmonic_cycle(other)
                    assert lam_other in (lam, tuple(-c for c in lam))
                    sign = 1 if lam_other == lam else -1
                    for z in basis_cycles(a):
                        assert winding_number(other, z) == sign * winding_number(a, z)
            for ct in cycletrees(g):
                flipped = tuple(-c for c in ct.cycle)
                w, w_flipped = winding_number(a, ct.cycle), winding_number(a, flipped)
                assert tuple(w * c for c in ct.cycle) == tuple(w_flipped * c for c in flipped)


def test_criterion_8_harmonic_round_trip():
    with criterion(8, "harmonic cycle round trip", 30.0):
        for a in family():
            lam = standard_harmonic_cycle(a)
            rebuilt, scale = harmonic_to_unicyclizer(a.graph, lam, a.partial)
            lam_rebuilt = standard_harmonic_cycle(new_unicyclization(a.graph, rebuilt))
            assert scale != 0
            assert tuple(Fraction(c) for c in lam) == tuple(scale * c for c in lam_rebuilt)


def test_criterion_9_mean_value_property():
    with criterion(9, "mean value property at dimension 0", 10.0):
        for a in family():
            x = a.complex()
            vectors = harmonic_basis(x, 0)
            assert vectors
            for h in vectors:
                assert check_mean_value(x, h)
