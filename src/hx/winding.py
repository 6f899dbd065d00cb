"""Unicyclizations, winding numbers, and the standard harmonic cycle.

A unicyclizer of a connected graph is an integer matrix with independent
columns, killed by the incidence matrix, whose image leaves exactly one
free factor in the cycle space. The pair (graph, unicyclizer) behaves like
a cell complex whose first homology has rank one: every cycle gets an
integer winding number (a determinant in cycle-space coordinates, linear in
the cycle, so one covector per instance), and the cycletree-weighted sum of
winding numbers is a nonzero harmonic cycle. That sum, and its split at an
edge, are computed here in closed form from the reduced Laplacian, see
``spanning._cycle_projection``; the determinant windings, the Gram
elimination and the enumerated sums are kept in ``verify`` as the oracles.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import DimensionError, InternalError, UnicyclizerAxiomError
from .graphs import (
    Multigraph,
    are_cycles,
    boundary,
    contract,
    contract_edges,
    corank,
    delete,
    incidence_matrix,
)
from .intlinalg import (
    IntMatrix,
    dot,
    gcd_of_vector,
    mat_vec,
    rank,
    _clear_row,
    _from_columns,
    _kernel_vectors,
    _matrix,
    _primitive,
    _smith_modulo,
)
from .spanning import (
    cycletrees,
    fundamental_basis,
    lexmin_spanning_tree,
    tree_number,
    _cotree,
    _cycle_projection,
    _tree_cycle,
)

# fractions and complexes are imported by the few functions that use them, so
# that building an instance, and the commands that only do that, load neither.
if TYPE_CHECKING:
    from fractions import Fraction

    from .complexes import ChainComplex

class Unicyclization(
    namedtuple(
        "Unicyclization",
        "graph partial non_tree_edges orientation tree_count covector standard_cycle",
    )
):
    """A validated (graph, unicyclizer) pair with what later calls read.

    ``non_tree_edges`` are the edges outside a spanning tree of ``graph``, in
    increasing id: a cycle's coefficients there are its coordinates in the
    tree's fundamental basis, which ``verify.basis_cycles`` builds. The winding
    of a cycle z is the determinant det[coords(z) | P] against the
    unicyclizer's coordinates P, times ``orientation`` (+1 or -1).
    Contraction and deletion build on a tree of the new graph and set the
    sign here from the parent's winding of one lifted basis cycle. The
    determinant is linear in z, so it is stored as
    ``covector``, c_i = w(b_i) with the orientation folded in: every winding is
    c . coords(z). Expanding det[e_i | P] along its first column, c_i is +-P's
    maximal minor without row i, so all of c is read off one elimination of
    P^T, and ``torsion_order`` is the gcd of c. Placed at the non-tree edges, c
    is a chain whose inner product with each cycle is its winding, and one more
    elimination, of the reduced Laplacian next to its boundary, gives
    ``tree_count`` and the standard harmonic cycle ``standard_cycle``, see
    ``spanning._cycle_projection``. An instance is compared and hashed as the
    tuple of these fields.
    """

    __slots__ = ()

    graph: Multigraph
    partial: IntMatrix
    non_tree_edges: tuple[int, ...]
    orientation: int
    tree_count: int
    covector: tuple[int, ...]
    standard_cycle: tuple[int, ...]

    @property
    def cycle_rank(self) -> int:
        return len(self.non_tree_edges)

    @property
    def torsion_order(self) -> int:
        return gcd_of_vector(self.covector)

    def complex(self) -> ChainComplex:
        """The two-step chain complex (vertices, edges, unicyclizer columns)."""
        from .complexes import complex_from_boundaries

        return complex_from_boundaries(incidence_matrix(self.graph), self.partial)


class WindingReport(NamedTuple):
    value: int | Fraction
    is_cycle: bool


# What ``check_axioms`` reports for a valid unicyclizer, which every successful build has.
AXIOMS_HOLD = (
    (1, True, "columns are linearly independent"),
    (2, True, "incidence times unicyclizer is zero"),
    (3, True, "cycle-space quotient has rank 1"),
)


def check_axioms(g: Multigraph, partial: IntMatrix) -> list[tuple[int, bool, str]]:
    """Evaluate the three unicyclizer axioms, reporting each separately."""
    if partial.rows != g.edge_count:
        raise DimensionError(f"unicyclizer has {partial.rows} rows, graph has {g.edge_count} edges")
    r = rank(partial)
    quotient = corank(g) - r
    return [
        AXIOMS_HOLD[0] if r == partial.cols else (1, False, f"column rank {r} < {partial.cols}"),
        AXIOMS_HOLD[1] if are_cycles(g, partial) else (2, False, "incidence times unicyclizer is nonzero"),
        AXIOMS_HOLD[2] if quotient == 1 else (3, False, f"cycle-space quotient has rank {quotient}"),
    ]


def _assemble(
    g: Multigraph, partial: IntMatrix, tree, parent_winding: Callable[[list[int]], int] | None = None
) -> Unicyclization:
    non_tree_edges, up = _cotree(g, tree)
    m = len(non_tree_edges)
    # Once the columns are cycles, reading coordinates at the non-tree edges is injective on them, so
    # m - 1 pivots of P^T, for P the coordinates, is axioms 1 and 3; check_axioms only names a failure.
    reading = None
    if partial.rows == g.edge_count and partial.cols == m - 1 and are_cycles(g, partial):
        reading = _kernel_vectors([[col[e] for e in non_tree_edges] for col in map(partial.column, range(partial.cols))], m)
    if reading is None or len(reading[0]) != m - 1:
        axioms = check_axioms(g, partial)
        for axiom, ok, detail in axioms:
            if not ok:
                raise UnicyclizerAxiomError(axiom, f"unicyclizer axiom ({axiom}) fails: {detail}", axioms)
        raise InternalError("unicyclizer passes check_axioms but its coordinates are rank deficient")
    # c_i = det[e_i | P] = (-1)^i det(P^T without column i). With f the one free column, the signed
    # pivot minor is d = det(P^T without column f), and Cramer's rule gives the others.
    _, d, kernel = reading
    ((f, v),) = kernel
    del reading, kernel  # they hold the elimination's rows: free them before the Laplacian's
    v.insert(f, d)  # v held the entries at the pivot columns, every column but f
    # Unoriented, the basis cycle at the free column winds (-1)^f d != 0; the parent's winding of it is the sign.
    orientation = 1
    if parent_winding is not None:
        w, unoriented = parent_winding(_tree_cycle(g, up, non_tree_edges[f])), (-1) ** f * d
        if abs(w) != abs(unoriented):
            raise InternalError(f"a basis cycle winds {w} times in the parent, expected +-{abs(unoriented)}")
        orientation = w // unoriented
    sign = orientation * (-1) ** f
    covector = tuple(sign * x for x in v)
    x = dict(zip(non_tree_edges, covector))  # a chain whose product with a cycle is its winding
    tree_count, standard_cycle = _cycle_projection(g.vertex_count, g.edges, x)
    return Unicyclization(g, partial, non_tree_edges, orientation, tree_count, covector, standard_cycle)


def new_unicyclization(g: Multigraph, partial: IntMatrix, basis_tree=None) -> Unicyclization:
    """Validate a unicyclizer and read its coordinates at the edges outside a tree.

    By default the basis tree is the lexicographically smallest spanning
    tree, making all derived outputs reproducible.
    """
    tree = lexmin_spanning_tree(g) if basis_tree is None else basis_tree
    return _assemble(g, partial, tree)


def face_lattice_basis(faces: IntMatrix) -> IntMatrix:
    """Z-basis of the lattice that all the face columns span.

    The greedy independent subset K, that is the pivot columns of the
    echelon form, when it generates every face over Z, so the presentation
    is kept. Face j is K x_j / d for -x_j the pivot entries of its vector
    of ``_kernel_vectors`` (x_j = d e_i for pivot column i), so K generates
    every face exactly when the pivot minor d divides every x_j. Otherwise
    the basis is K H / |d| for H the column echelon basis, with positive
    pivots, of the lattice of the x_j; that lattice contains d Z^r (the
    pivot columns), so ``_clear_row`` builds H row by row with every entry
    below the current row kept under |d| (Domich, Kannan and Trotter, 1987).
    Either way the torsion matches the homology of the complex with all the
    faces.
    """
    kept, d, kernel = _kernel_vectors(faces.to_rows(), faces.cols)
    kept_faces = _from_columns([faces.column(c) for c in kept], faces.rows)
    r, modulus = len(kept), abs(d)
    reduced = ([-e % modulus for e in x] for _, x in kernel)
    columns = [column for column in reduced if any(column)]  # a zero column lies in d Z^r already
    if not columns:
        return kept_faces
    h_columns = []
    for i in range(r):
        columns.append([modulus * (t == i) for t in range(r)])
        _clear_row(columns, i)
        pivot = columns.pop()
        if pivot[i] < 0:
            pivot = [-x for x in pivot]
        h_columns.append(pivot[: i + 1] + [x % modulus for x in pivot[i + 1 :]])
        columns = [[x % modulus for x in col] for col in columns]
    lattice = kept_faces @ _from_columns(h_columns, r)
    return _matrix(lattice.rows, lattice.cols, tuple(x // modulus for x in lattice.entries))


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
    basis = face_lattice_basis(x.boundary(2))
    h1_rank = corank(g) - basis.cols
    if h1_rank != 1:
        raise ValueError(f"first homology has rank {h1_rank}, expected 1")
    return new_unicyclization(g, basis)


def cycle_coordinates(a: Unicyclization, chain: Sequence[int]) -> tuple[int, ...]:
    """Coordinates of an integer cycle in the instance's basis: its coefficients at the non-tree edges."""
    g = a.graph
    if len(chain) != g.edge_count:
        raise DimensionError(f"chain length {len(chain)} != {g.edge_count} edges")
    if not set(map(type, chain)) <= {int}:
        raise ValueError("cycle coordinates need integer chains")
    if any(boundary(g, chain)):
        raise ValueError("chain is not a cycle")
    return tuple(chain[e] for e in a.non_tree_edges)


def winding_number(a: Unicyclization, chain: Sequence[int]) -> int:
    """The winding covector dotted with the cycle's coordinates."""
    return dot(a.covector, cycle_coordinates(a, chain))


def torsion(a: Unicyclization) -> tuple[int, tuple[int, ...]]:
    """Torsion order of the first homology, with its invariant factors.

    The factors are the Smith form's diagonal of the unicyclizer's
    coordinates, computed here on each call: nothing else needs them. The
    torsion order is their product, so the Smith form runs modulo it, and
    a torsion-free instance needs no elimination.
    """
    order = a.torsion_order
    return order, _smith_modulo(a.partial.select_rows(a.non_tree_edges), a.cycle_rank - 1, order)


def _covector_winding(a: Unicyclization, cycle: Sequence[int]) -> int:
    """Winding of a chain already known to be a cycle of ``a.graph``."""
    return sum(c * cycle[e] for c, e in zip(a.covector, a.non_tree_edges))


def cycletree_windings(a: Unicyclization, cap: int | None = None) -> tuple[int, ...]:
    """Winding numbers of the unique cycles, aligned with ``cycletrees``.

    Each is the winding covector dotted with the cycle's coefficients at the
    non-tree edges; ``verify.determinant_windings`` is the oracle.
    """
    return tuple(_covector_winding(a, ct.cycle) for ct in cycletrees(a.graph, cap))


def standard_harmonic_cycle(a: Unicyclization) -> tuple[int, ...]:
    """Sum of winding-number-weighted unique cycles over all cycletrees.

    Computed in closed form without enumeration when the instance is
    built, see ``spanning._cycle_projection``; ``verify.cycletree_sum`` is
    the enumerated oracle. Each summand is orientation-invariant, so the result
    does not depend on the canonical cycle orientations; it does flip with
    the basis, see ``sign_normalized`` for a presentation-stable variant.
    """
    return a.standard_cycle


def standard_harmonic_cycle_grouped(a: Unicyclization) -> tuple[int, ...]:
    """The same chain, assembled cycle by cycle.

    Cycletrees sharing a unique cycle are grouped; each distinct cycle
    contributes its winding number times the tree count of the graph with
    that cycle contracted to a point. Agreement with the cycletree sum is a
    nontrivial identity because the group sizes are recounted here via the
    matrix-tree determinant of the contracted graph.
    """
    cycles = list(dict.fromkeys(ct.cycle for ct in cycletrees(a.graph)))
    weights = []
    for cycle in cycles:
        contracted = contract_edges(a.graph, [e for e, c in enumerate(cycle) if c])
        weights.append(tree_number(contracted) * _covector_winding(a, cycle))
    return tuple(mat_vec(_from_columns(cycles, a.graph.edge_count), weights))


def split_standard_cycle(a: Unicyclization, edge: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the standard harmonic cycle by cycletrees containing the edge.

    Returns (sum over cycletrees through the edge, sum over the rest); the
    two add up to the full standard harmonic cycle. The cycletrees that
    avoid the edge are exactly those of the graph with it deleted, so their
    sum is that graph's standard harmonic cycle for the same windings, which
    the covector at the non-tree edges still gives with 0 at the edge. So
    ``_cycle_projection`` runs with the edge made a loop, which adds
    nothing; the sum is zero when the deletion disconnects the graph.
    ``verify.cycletree_split`` is the enumerated oracle.
    """
    g = a.graph
    g.check_edge(edge)
    x = {e: c for e, c in zip(a.non_tree_edges, a.covector) if e != edge}
    _, without_edge = _cycle_projection(g.vertex_count, g.edges[:edge] + ((0, 0),) + g.edges[edge + 1 :], x)
    return tuple(p - q for p, q in zip(a.standard_cycle, without_edge)), without_edge


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
    """Contract a non-loop edge, transporting the unicyclizer.

    The cycle space maps isomorphically onto the contraction's by dropping
    the edge's coordinate, and winding numbers of transported cycles are
    preserved exactly. So the unicyclizer downstairs is the parent's without
    the edge's row, on the lexmin tree of the contraction, and its
    orientation makes one basis cycle, lifted back with the coefficient at
    the edge that closes it, wind as it does in the parent.
    """
    g = a.graph
    g.check_edge(edge)
    if g.is_loop(edge):
        raise ValueError("cannot contract a loop")
    head = g.edges[edge][1]

    def parent_winding(z: list[int]) -> int:
        lift = z[:edge] + [0] + z[edge:]  # later edges moved down one id
        lift[edge] = -boundary(g, lift)[head]
        return winding_number(a, lift)

    contracted = contract(g, edge)
    partial_c = a.partial.select_rows([e for e in range(g.edge_count) if e != edge])
    return _assemble(contracted, partial_c, lexmin_spanning_tree(contracted), parent_winding)


def delete_unicyclization(a: Unicyclization, edge: int) -> tuple[Unicyclization, int]:
    """Delete an edge whose unicyclizer row is nonzero.

    Returns the induced unicyclization on the smaller graph and the winding
    difference n, with the exact relation: for every cycle with zero
    coefficient at the edge, its winding number equals n times the winding
    number of the transported cycle downstairs.

    Column operations of determinant 1 (``_clear_row``) turn the edge's row
    of the unicyclizer into (0, ..., 0, +-n). The other columns then avoid
    the edge, and without its row they are the unicyclizer downstairs, on
    the lexmin tree of the smaller graph. Its orientation makes one basis
    cycle, lifted back with 0 at the edge, wind n times as much in the parent.
    """
    g = a.graph
    g.check_edge(edge)
    n_sigma = winding_difference(a, edge)
    if n_sigma == 0:
        raise ValueError(
            "unicyclizer row at the edge is zero: deleting it would kill the free homology factor"
        )
    columns = [a.partial.column(j) for j in range(a.partial.cols)]
    _clear_row(columns, edge)
    if abs(columns[-1][edge]) != n_sigma:
        raise InternalError(f"column reduction left {columns[-1][edge]} at the deleted edge, expected +-{n_sigma}")

    def parent_winding(z: list[int]) -> int:
        w = winding_number(a, z[:edge] + [0] + z[edge:])  # later edges moved down one id
        if w % n_sigma:
            raise InternalError(f"a cycle avoiding the deleted edge winds {w} times, not a multiple of {n_sigma}")
        return w // n_sigma

    smaller = delete(g, edge)
    partial_d = _from_columns([col[:edge] + col[edge + 1 :] for col in columns[:-1]], smaller.edge_count)
    return _assemble(smaller, partial_d, lexmin_spanning_tree(smaller), parent_winding), n_sigma


def extended_winding(a: Unicyclization, chain: Sequence) -> Fraction:
    """Rational winding value of an arbitrary 1-chain.

    Inner product with the standard harmonic cycle divided by the tree
    count; agrees with the integer winding number on cycles.
    """
    from fractions import Fraction

    if len(chain) != a.graph.edge_count:
        raise DimensionError(f"chain length {len(chain)} != {a.graph.edge_count} edges")
    return Fraction(dot(chain, standard_harmonic_cycle(a)), a.tree_count)


def winding_report(a: Unicyclization, chain: Sequence) -> WindingReport:
    """Evaluate a chain: integer winding for cycles, rational otherwise."""
    is_cycle = all(type(x) is int for x in chain) and not any(boundary(a.graph, chain))
    if is_cycle:
        value: int | Fraction = winding_number(a, chain)
    else:
        value = extended_winding(a, chain)
    return WindingReport(value=value, is_cycle=is_cycle)


def harmonic_to_unicyclizer(
    g: Multigraph, chain: Sequence, faces: IntMatrix
) -> tuple[IntMatrix, Fraction]:
    """Rebuild a unicyclizer from a harmonic cycle of the complex (graph, faces).

    Returns a Z-basis of L, the lattice of integer cycles orthogonal to the
    chain h, with the rational scale relating h to the standard harmonic
    cycle it induces. With B the lexmin tree's fundamental basis, L is
    B ker_Z(u) for u the primitive B^T h: clearing the last row of [I; u] by
    ``_clear_row`` gives a unimodular U with uU = (0, ..., 0, g), so x is in
    ker_Z(u) exactly when U^-1 x ends in 0, and U's first m - 1 columns
    are a Z-basis of it. Negating one column flips every winding, so when the
    basis has a column the scale is made positive. The faces only define
    the complex in which h must be harmonic; each is in L by the checks.
    """
    from fractions import Fraction

    if len(chain) != g.edge_count:
        raise DimensionError(f"chain length {len(chain)} != {g.edge_count} edges")
    if faces.rows != g.edge_count:
        raise DimensionError(f"face matrix has {faces.rows} rows, graph has {g.edge_count} edges")
    if all(c == 0 for c in chain):
        raise ValueError("the zero chain is not a harmonic cycle")
    if any(boundary(g, chain)):
        raise ValueError("chain is not a cycle")
    if not are_cycles(g, faces):
        raise ValueError("face columns are not cycles")
    for j in range(faces.cols):
        if dot(chain, faces.column(j)) != 0:
            raise ValueError(f"chain is not orthogonal to face column {j} (not harmonic)")

    cycles = fundamental_basis(g, lexmin_spanning_tree(g))
    m = len(cycles)
    u = _primitive([dot(z, chain) for z in cycles])
    columns = [[int(r == j) for r in range(m)] + [u[j]] for j in range(m)]
    _clear_row(columns, m)
    lattice = _from_columns(cycles, g.edge_count) @ _from_columns([col[:m] for col in columns[:-1]], m)
    lam = standard_harmonic_cycle(new_unicyclization(g, lattice))
    pivot = next(e for e, c in enumerate(lam) if c != 0)
    scale = Fraction(chain[pivot], 1) / lam[pivot]
    if any(Fraction(chain[e]) != scale * lam[e] for e in range(g.edge_count)):
        raise ValueError("chain is not proportional to the induced standard harmonic cycle")
    if scale < 0 and lattice.cols:
        columns = [[-x for x in lattice.column(0)]] + [lattice.column(j) for j in range(1, lattice.cols)]
        return _from_columns(columns, g.edge_count), -scale
    return lattice, scale
