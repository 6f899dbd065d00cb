"""Unicyclizations, winding numbers, and the standard harmonic cycle.

A unicyclizer of a connected graph is an integer matrix with independent
columns, killed by the incidence matrix, whose image leaves exactly one
free factor in the cycle space. The pair (graph, unicyclizer) behaves like
a cell complex whose first homology has rank one: every cycle gets an
integer winding number (a determinant in cycle-space coordinates), and the
cycletree-weighted sum of winding numbers is a nonzero harmonic cycle. That
sum is computed here in closed form from the cycle basis; the enumerated sum
is kept in ``verify`` as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Sequence

from .complexes import ChainComplex, complex_from_boundaries
from .errors import DimensionError, InternalError, UnicyclizerAxiomError
from .graphs import (
    Multigraph,
    contract,
    contract_edges,
    corank,
    delete,
    incidence_matrix,
    require_connected,
)
from .intlinalg import (
    IntMatrix,
    det,
    dot,
    gcd_of_vector,
    kernel_lattice_basis,
    mat_vec,
    rank,
    smith_normal_form,
    solve_exact,
    vstack,
    _primitive,
)
from .spanning import (
    check_enumeration_cap,
    cycletrees,
    fundamental_basis,
    lexmin_spanning_tree,
    spanning_trees,
    tree_number,
)


@dataclass(frozen=True)
class Unicyclization:
    """A validated (graph, unicyclizer) pair with its cached derived data.

    ``basis`` is a Z-basis of the cycle lattice; for fundamental bases the
    coordinates of a cycle are read off at ``read_off_edges``, otherwise
    they are recovered by exact solving. ``partial_coords`` is the
    unicyclizer expressed in that basis, and ``torsion_factors`` are its
    Smith invariant factors, whose product is ``torsion_order``.
    """

    graph: Multigraph
    partial: IntMatrix
    basis: tuple[tuple[int, ...], ...]
    basis_label: str
    read_off_edges: tuple[int, ...] | None
    tree_count: int
    partial_coords: IntMatrix
    torsion_factors: tuple[int, ...]
    torsion_order: int

    @property
    def cycle_rank(self) -> int:
        return len(self.basis)

    def complex(self) -> ChainComplex:
        """The two-step chain complex (vertices, edges, unicyclizer columns)."""
        return complex_from_boundaries(incidence_matrix(self.graph), self.partial)

    @cached_property
    def standard_cycle(self) -> tuple[int, ...]:
        """The standard harmonic cycle, in closed form, computed on first use.

        With B the stored basis and P the unicyclizer's coordinates, the
        winding covector c_i = w(b_i) = det[e_i | P] and the Gram matrix
        G = B^T B, whose determinant is the tree count k for any Z-basis of
        the cycle lattice, give lambda = B adj(G) c. Then b_i . lambda =
        (G adj(G) c)_i = k c_i, which is the identity C . lambda = w(C) k on
        a basis, and lambda is a cycle; the cycle space's inner product being
        nondegenerate, these pin down the cycletree sum. adj(G) c is taken
        by Cramer's rule: its j-th entry is det G with column j replaced by c.
        """
        m = self.cycle_rank
        p_columns = [self.partial_coords.column(j) for j in range(self.partial_coords.cols)]
        covector = []
        for i in range(m):
            unit = [1 if r == i else 0 for r in range(m)]
            covector.append(det(IntMatrix.from_columns([unit] + p_columns, rows=m)))
        # G is symmetric, so its rows serve as its columns below.
        gram = [[dot(u, v) for v in self.basis] for u in self.basis]
        gram_det = det(IntMatrix.from_columns(gram, rows=m))
        if gram_det != self.tree_count:
            raise InternalError(f"Gram determinant {gram_det} of the cycle basis != tree count {self.tree_count}")
        coeffs = [
            det(IntMatrix.from_columns(gram[:j] + [covector] + gram[j + 1 :], rows=m))
            for j in range(m)
        ]
        total = [0] * self.graph.edge_count
        for a, z in zip(coeffs, self.basis):
            if a:
                for e, v in enumerate(z):
                    if v:
                        total[e] += a * v
        return tuple(total)


@dataclass(frozen=True)
class WindingReport:
    value: int | Fraction
    chain: tuple
    basis_used: str
    is_cycle: bool


def check_axioms(g: Multigraph, partial: IntMatrix) -> list[tuple[int, bool, str]]:
    """Evaluate the three unicyclizer axioms, reporting each separately."""
    require_connected(g)
    if partial.rows != g.edge_count:
        raise DimensionError(
            f"unicyclizer has {partial.rows} rows, graph has {g.edge_count} edges"
        )
    results = []
    r = rank(partial)
    ok1 = r == partial.cols
    results.append((1, ok1, "columns are linearly independent" if ok1 else f"column rank {r} < {partial.cols}"))
    ok2 = (incidence_matrix(g) @ partial).is_zero()
    results.append((2, ok2, "incidence times unicyclizer is zero" if ok2 else "incidence times unicyclizer is nonzero"))
    quotient = corank(g) - r
    ok3 = quotient == 1
    results.append((3, ok3, f"cycle-space quotient has rank {quotient}"))
    return results


def _assemble(
    g: Multigraph,
    partial: IntMatrix,
    basis: tuple[tuple[int, ...], ...],
    basis_label: str,
    read_off_edges: tuple[int, ...] | None,
) -> Unicyclization:
    for axiom, ok, detail in check_axioms(g, partial):
        if not ok:
            raise UnicyclizerAxiomError(axiom, f"unicyclizer axiom ({axiom}) fails: {detail}")
    if read_off_edges is not None:
        coord_columns = [
            [partial[e, j] for e in read_off_edges] for j in range(partial.cols)
        ]
    else:
        basis_matrix = IntMatrix.from_columns(basis, rows=g.edge_count)
        coord_columns = []
        for j in range(partial.cols):
            solution = solve_exact(basis_matrix, partial.column(j))
            if solution is None or any(x.denominator != 1 for x in solution):
                raise UnicyclizerAxiomError(2, "unicyclizer column is not an integer cycle combination")
            coord_columns.append([int(x) for x in solution])
    partial_coords = IntMatrix.from_columns(coord_columns, rows=len(basis))
    factors = smith_normal_form(partial_coords).diag
    return Unicyclization(
        graph=g,
        partial=partial,
        basis=basis,
        basis_label=basis_label,
        read_off_edges=read_off_edges,
        tree_count=tree_number(g),
        partial_coords=partial_coords,
        torsion_factors=factors,
        torsion_order=prod(factors) if factors else 1,
    )


def new_unicyclization(g: Multigraph, partial: IntMatrix, basis_tree=None) -> Unicyclization:
    """Validate a unicyclizer and attach the fundamental basis of a tree.

    By default the basis tree is the lexicographically smallest spanning
    tree, making all derived outputs reproducible.
    """
    require_connected(g)
    tree = lexmin_spanning_tree(g) if basis_tree is None else frozenset(basis_tree)
    cycle_basis = fundamental_basis(g, tree)
    return _assemble(
        g,
        partial,
        cycle_basis.cycles,
        f"fundamental(tree={sorted(tree)})",
        read_off_edges=cycle_basis.non_tree_edges,
    )


def select_independent_columns(m: IntMatrix) -> IntMatrix:
    """Greedy maximal linearly independent column subset, by column order."""
    kept: list[int] = []
    for j in range(m.cols):
        candidate = kept + [j]
        sub = IntMatrix.from_columns([m.column(c) for c in candidate], rows=m.rows)
        if rank(sub) == len(candidate):
            kept = candidate
    return IntMatrix.from_columns([m.column(c) for c in kept], rows=m.rows)


def face_lattice_basis(faces: IntMatrix) -> IntMatrix:
    """Z-basis of the lattice that all the face columns span.

    The greedy independent subset when it generates every face over Z, so
    the presentation is kept; otherwise the Smith basis d_i S e_i of the
    column lattice (faces = S D T with T unimodular). Either way the torsion
    matches the homology of the complex with all the faces.
    """
    kept = select_independent_columns(faces)
    for j in range(faces.cols):
        if any(x.denominator != 1 for x in solve_exact(kept, faces.column(j))):
            snf = smith_normal_form(faces)
            columns = [[d * x for x in snf.s.column(i)] for i, d in enumerate(snf.diag)]
            return IntMatrix.from_columns(columns, rows=faces.rows)
    return kept


def from_cw(x: ChainComplex) -> Unicyclization:
    """Build a unicyclization from a complex whose first homology has rank 1.

    The 1-skeleton is reconstructed from the first boundary matrix and the
    unicyclizer is a Z-basis of the lattice spanned by the second one's
    columns, see ``face_lattice_basis``.
    A zero incidence column is a loop, which is only placeable when the
    complex has a single vertex.
    """
    if x.dimension < 1:
        raise DimensionError("complex must have dimension at least 1")
    d1 = x.boundary(1)
    edges = []
    for j in range(d1.cols):
        col = d1.column(j)
        support = [(i, v) for i, v in enumerate(col) if v != 0]
        if not support:
            if d1.rows == 1:
                edges.append((0, 0))
                continue
            raise ValueError(f"column {j} is zero: loop vertex is not recoverable from the boundary matrix")
        if len(support) == 2 and sorted(v for _, v in support) == [-1, 1]:
            tail = next(i for i, v in support if v == -1)
            head = next(i for i, v in support if v == 1)
            edges.append((tail, head))
        else:
            raise ValueError(f"column {j} is not an incidence column of a multigraph")
    g = Multigraph(d1.rows, tuple(edges))
    require_connected(g)
    faces = x.boundary(2)
    h1_rank = corank(g) - rank(faces)
    if h1_rank != 1:
        raise ValueError(f"first homology has rank {h1_rank}, expected 1")
    return new_unicyclization(g, face_lattice_basis(faces))


def cycle_coordinates(a: Unicyclization, chain: Sequence[int]) -> tuple[int, ...]:
    """Coordinates of an integer cycle with respect to the stored basis."""
    g = a.graph
    if len(chain) != g.edge_count:
        raise DimensionError(f"chain length {len(chain)} != {g.edge_count} edges")
    for x in chain:
        if type(x) is not int:
            raise ValueError("cycle coordinates need integer chains")
    if a.read_off_edges is not None:
        if any(v != 0 for v in mat_vec(incidence_matrix(g), chain)):
            raise ValueError("chain is not a cycle")
        return tuple(chain[e] for e in a.read_off_edges)
    basis_matrix = IntMatrix.from_columns(a.basis, rows=g.edge_count)
    solution = solve_exact(basis_matrix, chain)
    if solution is None:
        raise ValueError("chain is not a cycle")
    if any(x.denominator != 1 for x in solution):
        raise ValueError("chain is not in the integer cycle lattice")
    return tuple(int(x) for x in solution)


def winding_number(a: Unicyclization, chain: Sequence[int]) -> int:
    """Determinant of the cycle's coordinates next to the unicyclizer's."""
    coords = cycle_coordinates(a, chain)
    m = a.cycle_rank
    columns = [coords] + [a.partial_coords.column(j) for j in range(a.partial_coords.cols)]
    return det(IntMatrix.from_columns(columns, rows=m))


def torsion(a: Unicyclization) -> tuple[int, tuple[int, ...]]:
    """Torsion order of the first homology, with its invariant factors."""
    return a.torsion_order, a.torsion_factors


def cycletree_windings(a: Unicyclization, cap: int | None = None) -> tuple[int, ...]:
    """Winding numbers of the unique cycles, aligned with ``cycletrees``.

    Each is cycle . lambda / k, an exact division by the inner-product
    identity; a remainder means the closed form is wrong.
    """
    trees = cycletrees(a.graph, cap)
    lam, k = standard_harmonic_cycle(a), a.tree_count
    windings = []
    for ct in trees:
        w, remainder = divmod(dot(ct.cycle, lam), k)
        if remainder:
            raise InternalError(f"cycle {list(ct.cycle)} has non-integral winding {dot(ct.cycle, lam)}/{k}")
        windings.append(w)
    return tuple(windings)


def standard_harmonic_cycle(a: Unicyclization) -> tuple[int, ...]:
    """Sum of winding-number-weighted unique cycles over all cycletrees.

    Computed in closed form without enumeration, see
    ``Unicyclization.standard_cycle``; ``verify.cycletree_sum`` is the
    enumerated oracle. Each summand is orientation-invariant, so the result
    does not depend on the canonical cycle orientations; it does flip with
    the basis, see ``sign_normalized`` for a presentation-stable variant.
    """
    return a.standard_cycle


def standard_harmonic_cycle_grouped(a: Unicyclization, cap: int | None = None) -> tuple[int, ...]:
    """The same chain, assembled cycle by cycle.

    Cycletrees sharing a unique cycle are grouped; each distinct cycle
    contributes its winding number times the tree count of the graph with
    that cycle contracted to a point. Agreement with the cycletree sum is a
    nontrivial identity because the group sizes are recounted here via the
    matrix-tree determinant of the contracted graph.
    """
    check_enumeration_cap(a.graph, cap)
    seen: dict[tuple[int, ...], None] = {}
    for ct in cycletrees(a.graph, cap):
        seen.setdefault(ct.cycle)
    total = [0] * a.graph.edge_count
    for cycle in seen:
        support = [e for e, c in enumerate(cycle) if c]
        contracted, _ = contract_edges(a.graph, support)
        weight = tree_number(contracted) * winding_number(a, cycle)
        if weight:
            for e, c in enumerate(cycle):
                if c:
                    total[e] += weight * c
    return tuple(total)


def split_standard_cycle(a: Unicyclization, edge: int, cap: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the standard harmonic cycle by cycletrees containing the edge.

    Returns (sum over cycletrees through the edge, sum over the rest); the
    two add up to the full standard harmonic cycle.
    """
    a.graph.check_edge(edge)
    windings = cycletree_windings(a, cap)
    with_edge = [0] * a.graph.edge_count
    without_edge = [0] * a.graph.edge_count
    for ct, w in zip(cycletrees(a.graph, cap), windings):
        if not w:
            continue
        target = with_edge if edge in ct.edge_ids else without_edge
        for e, c in enumerate(ct.cycle):
            if c:
                target[e] += w * c
    return tuple(with_edge), tuple(without_edge)


def winding_difference(a: Unicyclization, edge: int) -> int:
    """gcd of the unicyclizer row at the edge; 0 flags an all-zero row."""
    a.graph.check_edge(edge)
    return gcd_of_vector(a.partial.row(edge))


def sign_normalized(chain: Sequence) -> tuple:
    """Flip the chain's global sign so its first nonzero entry is positive."""
    first = next((c for c in chain if c != 0), 0)
    if first < 0:
        return tuple(-c for c in chain)
    return tuple(chain)


def contract_unicyclization(a: Unicyclization, edge: int) -> Unicyclization:
    """Contract a non-loop edge, transporting basis and unicyclizer.

    The cycle space maps isomorphically onto the contraction's by dropping
    the edge's coordinate, so cycle coordinates and winding numbers of
    transported cycles are preserved exactly.
    """
    g = a.graph
    g.check_edge(edge)
    if g.is_loop(edge):
        raise ValueError("cannot contract a loop")
    contracted, relabeling = contract(g, edge)
    surviving = [e for e in range(g.edge_count) if e != edge]
    partial_c = a.partial.select_rows(surviving)
    basis_c = tuple(relabeling.transport_chain(z) for z in a.basis)
    return _assemble(
        contracted,
        partial_c,
        basis_c,
        f"contract({edge}) of {a.basis_label}",
        read_off_edges=None,
    )


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    g, r = a, b
    while r:
        q = g // r
        g, r = r, g - q * r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if g < 0:
        g, x0, y0 = -g, -x0, -y0
    return g, x0, y0


def _delete_with_tree(a: Unicyclization, edge: int, tree: frozenset[int], n_sigma: int, force: bool):
    """Attempt the deletion construction over one tree avoiding the edge.

    Column-reduces the unicyclizer coordinates so the deleted edge's row
    becomes (0, ..., 0, n_sigma), keeping track of determinant signs so the
    winding relation holds against the parent's own basis. Returns None
    when the sign cannot be matched with this tree (only possible with a
    single unicyclizer column) unless ``force`` is set, in which case the
    transported basis chain is negated to absorb the sign.
    """
    g = a.graph
    m = a.cycle_rank
    cycle_basis = fundamental_basis(g, tree)
    chain_by_edge = dict(zip(cycle_basis.non_tree_edges, cycle_basis.cycles))
    order = [e for e in cycle_basis.non_tree_edges if e != edge] + [edge]
    ordered_chains = [chain_by_edge[e] for e in order]

    change = IntMatrix.from_columns([cycle_coordinates(a, z) for z in ordered_chains], rows=m)
    eps = det(change)

    columns = [[a.partial[e, j] for e in order] for j in range(a.partial.cols)]
    det_u = 1
    last = m - 1
    ncols = len(columns)
    for j in range(ncols - 1):
        lead = columns[j][last]
        if lead == 0:
            continue
        corner = columns[ncols - 1][last]
        gg, x, y = _xgcd(lead, corner)
        lead_g, corner_g = lead // gg, corner // gg
        col_j, col_last = columns[j], columns[ncols - 1]
        columns[j] = [corner_g * p - lead_g * q for p, q in zip(col_j, col_last)]
        columns[ncols - 1] = [x * p + y * q for p, q in zip(col_j, col_last)]
    if columns[ncols - 1][last] < 0:
        columns[ncols - 1] = [-v for v in columns[ncols - 1]]
        det_u = -det_u
    if columns[ncols - 1][last] != n_sigma:
        raise InternalError(f"column reduction left {columns[ncols - 1][last]} at the deleted edge, expected {n_sigma}")

    negate_basis = False
    if det_u * eps != 1:
        if ncols >= 2:
            columns[0] = [-v for v in columns[0]]
            det_u = -det_u
        elif force:
            negate_basis = True
        else:
            return None

    smaller, relabeling = delete(g, edge)
    transported = [relabeling.transport_chain(z) for z in ordered_chains[:-1]]
    if negate_basis:
        transported = [tuple(-c for c in z) for z in transported]
    top_coords = IntMatrix.from_columns(
        [[col[i] for i in range(last)] for col in columns[: ncols - 1]], rows=last
    )
    basis_matrix = IntMatrix.from_columns(transported, rows=smaller.edge_count)
    partial_d = basis_matrix @ top_coords
    read_off = None
    if not negate_basis:
        read_off = tuple(relabeling.edges[e] for e in order[:-1])
    return _assemble(
        smaller,
        partial_d,
        tuple(transported),
        f"delete({edge}) of {a.basis_label}",
        read_off_edges=read_off,
    )


def delete_unicyclization(a: Unicyclization, edge: int) -> tuple[Unicyclization, int]:
    """Delete an edge whose unicyclizer row is nonzero.

    Returns the induced unicyclization on the smaller graph and the winding
    difference n, with the exact relation: for every cycle with zero
    coefficient at the edge, its winding number equals n times the winding
    number of the transported cycle downstairs.
    """
    g = a.graph
    g.check_edge(edge)
    n_sigma = winding_difference(a, edge)
    if n_sigma == 0:
        raise ValueError(
            "unicyclizer row at the edge is zero: deleting it would kill the free homology factor"
        )
    candidate_trees = [t for t in spanning_trees(g) if edge not in t]
    result = None
    for tree in candidate_trees:
        result = _delete_with_tree(a, edge, tree, n_sigma, force=False)
        if result is not None:
            break
    if result is None:
        result = _delete_with_tree(a, edge, candidate_trees[0], n_sigma, force=True)
    return result, n_sigma


def extended_winding(a: Unicyclization, chain: Sequence) -> Fraction:
    """Rational winding value of an arbitrary 1-chain.

    Inner product with the standard harmonic cycle divided by the tree
    count; agrees with the integer winding number on cycles.
    """
    if len(chain) != a.graph.edge_count:
        raise DimensionError(f"chain length {len(chain)} != {a.graph.edge_count} edges")
    return Fraction(dot(chain, standard_harmonic_cycle(a)), a.tree_count)


def winding_report(a: Unicyclization, chain: Sequence) -> WindingReport:
    """Evaluate a chain: integer winding for cycles, rational otherwise."""
    is_cycle = all(type(x) is int for x in chain) and all(
        v == 0 for v in mat_vec(incidence_matrix(a.graph), chain)
    )
    if is_cycle:
        value: int | Fraction = winding_number(a, chain)
    else:
        value = extended_winding(a, chain)
    return WindingReport(value=value, chain=tuple(chain), basis_used=a.basis_label, is_cycle=is_cycle)


def harmonic_to_unicyclizer(
    g: Multigraph, chain: Sequence, faces: IntMatrix
) -> tuple[IntMatrix, Fraction]:
    """Rebuild a rank-one face matrix from a harmonic cycle.

    Given a harmonic cycle of the complex (graph, faces), forms the lattice
    of integer cycles orthogonal to it, extends the face columns to a basis
    of that lattice, and returns the basis together with the rational scale
    relating the input to the standard harmonic cycle it induces.
    """
    require_connected(g)
    if len(chain) != g.edge_count:
        raise DimensionError(f"chain length {len(chain)} != {g.edge_count} edges")
    if faces.rows != g.edge_count:
        raise DimensionError(f"face matrix has {faces.rows} rows, graph has {g.edge_count} edges")
    if all(c == 0 for c in chain):
        raise ValueError("the zero chain is not a harmonic cycle")
    incid = incidence_matrix(g)
    if any(v != 0 for v in mat_vec(incid, chain)):
        raise ValueError("chain is not a cycle")
    if not (incid @ faces).is_zero():
        raise ValueError("face columns are not cycles")
    for j in range(faces.cols):
        if dot(chain, faces.column(j)) != 0:
            raise ValueError(f"chain is not orthogonal to face column {j} (not harmonic)")

    direction = _primitive([Fraction(c) for c in chain])
    stacked = vstack(incid, IntMatrix.from_rows([list(direction)]))
    lattice = kernel_lattice_basis(stacked)
    coord_columns = []
    for j in range(faces.cols):
        solution = solve_exact(lattice, faces.column(j))
        if solution is None or any(x.denominator != 1 for x in solution):
            raise ValueError("face column does not lie in the orthogonal cycle lattice")
        coord_columns.append([int(x) for x in solution])
    face_coords = IntMatrix.from_columns(coord_columns, rows=lattice.cols)
    rebased = lattice @ smith_normal_form(face_coords).s
    rebuilt = new_unicyclization(g, rebased)
    lam = standard_harmonic_cycle(rebuilt)
    pivot = next(e for e, c in enumerate(lam) if c != 0)
    scale = Fraction(chain[pivot], 1) / lam[pivot]
    if any(Fraction(chain[e]) != scale * lam[e] for e in range(g.edge_count)):
        raise ValueError("chain is not proportional to the induced standard harmonic cycle")
    return rebased, scale
