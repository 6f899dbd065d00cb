"""The integer elimination kernel and what reads off it, against sympy, a
fraction-free Gauss-Jordan reference, and the older per-column routes kept
here as independent oracles; the Smith diagonal against sympy's full Smith
form and invariant factors."""

import random

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors, smith_normal_form

from hx.intlinalg import (
    IntMatrix,
    _bareiss,
    _kernel_vectors,
    kernel_basis,
    mat_vec,
    rank,
    smith_diagonal,
)
from hx.graphs import Multigraph
from hx.spanning import fundamental_basis, lexmin_spanning_tree, spanning_trees, tree_number
from hx.verify import connected_multigraphs
from hx.winding import face_lattice_basis

BOUND = 9


def random_matrix(rng, rows, cols, bound=BOUND) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols)))


def rank_deficient(rng, rows, cols) -> IntMatrix:
    """A product through a narrower inner dimension, so its rank is below min(rows, cols)."""
    inner = rng.randint(0, max(0, min(rows, cols) - 1))
    return random_matrix(rng, rows, inner, 3) @ random_matrix(rng, inner, cols, 3)


def shapes(rng):
    """0-row, 0-column, tall, wide, square and rank-deficient matrices."""
    yield IntMatrix.zero(0, 0)
    for n in range(1, 5):
        yield IntMatrix.zero(0, n)
        yield IntMatrix.zero(n, 0)
        yield IntMatrix.zero(n, n)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(5, 8)
        yield random_matrix(rng, rows, cols)
        yield random_matrix(rng, cols, rows)
        yield random_matrix(rng, rows + 1, rows + 1)
        yield rank_deficient(rng, rng.randint(1, 7), rng.randint(1, 7))


def gauss_jordan(m: IntMatrix) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination over Z (Bareiss, 1968), the
    reference for the forward kernel and its back substitution.

    Returns (rows, pivot columns, d). Each step replaces every other row by
    (p * row - row[c] * pivot_row) // prev, and a row swapped into pivot
    position is negated, so d is the signed pivot minor and rows / d is the
    reduced row echelon form over Q.
    """
    rows = m.to_rows()
    pivots: list[int] = []
    prev = 1
    for c in range(m.cols):
        r = len(pivots)
        if r == m.rows:
            break
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = [-x for x in rows[pivot_row]], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(m.rows):
            if i != r:
                f = rows[i][c]
                if f:
                    rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
                elif p != prev:
                    rows[i] = [p * x // prev for x in rows[i]]
        pivots.append(c)
        prev = p
    return rows, pivots, prev


def kernel_matrices(rng):
    """The shapes above again, and the same shapes with entries up to 2^55."""
    yield from shapes(rng)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(5, 7)
        yield random_matrix(rng, rows, cols, 2**55)
        yield random_matrix(rng, cols, rows, 2**55)
        yield random_matrix(rng, rows + 1, rows + 1, 2**55)
        inner = rng.randint(0, rows)
        yield random_matrix(rng, cols, inner, 2**27) @ random_matrix(rng, inner, cols, 2**27)


def test_kernel_vectors_match_gauss_jordan():
    rng = random.Random(1968)
    deficient = 0
    for m in kernel_matrices(rng):
        rows, pivots, d = gauss_jordan(m)
        r = len(pivots)
        deficient += r < min(m.rows, m.cols)
        triangular, kernel_pivots, kernel_d = _bareiss(m.to_rows(), m.cols)
        assert (kernel_pivots, kernel_d) == (pivots, d)
        assert all(not any(row) for row in triangular[r:])
        kernel_pivots, kernel_d, kernel = _kernel_vectors(m.to_rows(), m.cols)
        kernel = dict(kernel)
        assert (kernel_pivots, kernel_d) == (pivots, d)
        assert list(kernel) == [j for j in range(m.cols) if j not in pivots]
        for j, x in kernel.items():
            # Back substitution gives -d times column j of the reduced form at the pivots.
            assert [-e for e in x] == [rows[i][j] for i in range(r)]
            v = [d * (c == j) for c in range(m.cols)]
            for p, e in zip(pivots, x):
                v[p] = e
            assert not any(mat_vec(m, v))
        for i, p in enumerate(pivots):
            assert [row[p] for row in rows] == [d * (t == i) for t in range(m.rows)]
        assert all(not any(row) for row in rows[r:])
    assert deficient > 50


def to_sympy(m: IntMatrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols, list(m.entries))


def test_rank_and_kernel_match_sympy():
    rng = random.Random(2024)
    for m in shapes(rng):
        s = to_sympy(m)
        assert rank(m) == s.rank()
        basis = kernel_basis(m)
        assert len(basis) == m.cols - s.rank() == len(s.nullspace())
        for v in basis:
            assert all(x == 0 for x in mat_vec(m, v))
        if basis:
            # Same span: the sympy nullspace adds nothing to the rank of the basis.
            together = sympy.Matrix.hstack(sympy.Matrix([list(v) for v in basis]).T, *s.nullspace())
            assert together.rank() == len(basis)


def greedy_independent_columns(m: IntMatrix) -> IntMatrix:
    """One rank test per candidate column on the growing kept submatrix."""
    kept: list[int] = []
    for j in range(m.cols):
        candidate = kept + [j]
        if rank(IntMatrix.from_columns([m.column(c) for c in candidate], rows=m.rows)) == len(candidate):
            kept = candidate
    return IntMatrix.from_columns([m.column(c) for c in kept], rows=m.rows)


def pivot_columns(m: IntMatrix) -> IntMatrix:
    return IntMatrix.from_columns([m.column(c) for c in _bareiss(m.to_rows(), m.cols)[1]], rows=m.rows)


def test_select_independent_columns_matches_greedy_rank_loop():
    # The echelon form's pivot columns are the greedy independent subset.
    rng = random.Random(23)
    for m in shapes(rng):
        assert pivot_columns(m) == greedy_independent_columns(m)


def exact_solution(a: IntMatrix, b) -> list:
    """The unique rational x with a x = b, for a of full column rank and b in its span."""
    if a.cols == 0:
        return []
    x, free = to_sympy(a).gauss_jordan_solve(sympy.Matrix(b))
    assert free.rows == 0
    return list(x)


def kept_columns_generate(faces: IntMatrix) -> bool:
    """One exact solve per face column against the greedy independent columns."""
    kept = greedy_independent_columns(faces)
    return all(x.is_integer for j in range(faces.cols) for x in exact_solution(kept, faces.column(j)))


def same_column_lattice(a: IntMatrix, b: IntMatrix) -> bool:
    """Equal Hermite normal forms (sympy), which are unique per lattice."""
    return hermite_normal_form(to_sympy(a)) == hermite_normal_form(to_sympy(b))


def face_matrices(rng):
    """Random integer combinations of each small graph's fundamental cycles, plus the shapes above."""
    for g in connected_multigraphs(4, 6):
        cycles = fundamental_basis(g, lexmin_spanning_tree(g))
        for _ in range(6):
            columns = []
            for _ in range(rng.randint(0, 4)):
                column = [0] * g.edge_count
                for z in cycles:
                    q = rng.randint(-3, 3)
                    column = [a + q * b for a, b in zip(column, z)]
                columns.append(column)
            yield IntMatrix.from_columns(columns, rows=g.edge_count)
    yield from shapes(rng)


def assert_entries_bounded(basis: IntMatrix, faces: IntMatrix) -> None:
    """Each basis column is K h / |d| with 0 <= h_i <= |d|, so no entry exceeds r max |face entry|."""
    bound = basis.cols * max(map(abs, faces.entries), default=0)
    assert all(abs(x) <= bound for x in basis.entries)


def test_face_lattice_basis_spans_the_faces_lattice():
    rng = random.Random(41)
    echelon_branch = kept_branch = 0
    for faces in face_matrices(rng):
        basis = face_lattice_basis(faces)
        assert basis.cols == rank(faces) == rank(basis)
        assert same_column_lattice(basis, faces)
        assert_entries_bounded(basis, faces)
        if kept_columns_generate(faces):
            # The presentation is kept: the pivot columns, unchanged.
            assert basis == greedy_independent_columns(faces) == pivot_columns(faces)
            kept_branch += 1
        else:
            echelon_branch += 1
    assert echelon_branch > 0 and kept_branch > 0


def test_face_lattice_basis_of_many_faces_stays_small():
    # Twice as many random faces as the cycle rank of a 50-edge circulant:
    # without reduction modulo d, the basis entries grow to over 200 bits.
    n = 25
    g = Multigraph(n, tuple(e for i in range(n) for e in ((i, (i + 1) % n), (i, (i + 2) % n))))
    cycles = fundamental_basis(g, lexmin_spanning_tree(g))
    combo = random_matrix(random.Random(2), len(cycles), 2 * len(cycles))
    faces = IntMatrix.from_columns(cycles, rows=g.edge_count) @ combo
    basis = face_lattice_basis(faces)
    assert basis.cols == rank(faces)
    assert_entries_bounded(basis, faces)
    assert same_column_lattice(basis, faces)


def sympy_smith_diagonal(m: IntMatrix) -> tuple[int, ...]:
    return tuple(abs(int(d)) for d in invariant_factors(to_sympy(m), domain=sympy.ZZ) if d != 0)


def sympy_full_form_diagonal(m: IntMatrix) -> tuple[int, ...]:
    full = smith_normal_form(to_sympy(m), domain=sympy.ZZ)
    return tuple(abs(int(full[i, i])) for i in range(min(m.rows, m.cols)) if full[i, i] != 0)


def assert_smith_diagonal_matches(m: IntMatrix) -> None:
    """Both orientations: the modulus comes from eliminating the wider of m and m^T."""
    diag = smith_diagonal(m)
    assert diag == sympy_full_form_diagonal(m)
    assert diag == sympy_smith_diagonal(m)
    assert smith_diagonal(m.transpose()) == diag


def test_smith_diagonal_matches_full_form_and_sympy():
    rng = random.Random(57)
    for m in face_matrices(rng):
        assert_smith_diagonal_matches(m)


@st.composite
def integer_matrices(draw):
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    bound = draw(st.sampled_from((1, 9, 1000, 2**55)))
    entries = draw(st.lists(st.integers(-bound, bound), min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, tuple(entries))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices())
def test_random_smith_diagonal_matches_full_form_and_sympy(m):
    assert_smith_diagonal_matches(m)


def random_unimodular(draw, n: int) -> IntMatrix:
    """A product of random elementary operations: row additions, swaps and negations."""
    u = IntMatrix.identity(n).to_rows()
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("add", "swap", "negate")))
        if kind == "add" and i != j:
            q = draw(st.integers(-3, 3))
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        elif kind == "swap":
            u[i], u[j] = u[j], u[i]
        elif kind == "negate":
            u[i] = [-x for x in u[i]]
    return IntMatrix.from_rows(u, cols=n)


@st.composite
def planted_torsion_matrices(draw):
    """U diag(d_1, ..., d_r) V for random unimodular U and V, with factors that need not divide each other."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    factors = draw(st.lists(st.integers(1, 60), min_size=1, max_size=min(rows, cols)))
    middle = IntMatrix.zero(rows, cols).to_rows()
    for i, f in enumerate(factors):
        middle[i][i] = f
    return random_unimodular(draw, rows) @ IntMatrix.from_rows(middle, cols=cols) @ random_unimodular(draw, cols)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(planted_torsion_matrices())
def test_planted_torsion_smith_diagonal_matches_sympy(m):
    assert_smith_diagonal_matches(m)


def dense_bareiss(m: IntMatrix) -> tuple[list[list[int]], list[int], int]:
    """The forward elimination of ``_bareiss`` with every row below the pivot
    rescaled at every step, the plain form of Bareiss (1968): the reference
    for its lazy scaling, whose result must be the same, row for row."""
    rows = m.to_rows()
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols if nrows else 0):
        top = rows[r]
        p = top[c]
        if not p:
            swap = next((i for i in range(r + 1, nrows) if rows[i][c]), None)
            if swap is None:
                continue
            rows[swap], top = top, [-x for x in rows[swap]]
            rows[r] = top
            p = top[c]
        pivots.append(c)
        r += 1
        if r == nrows:
            return rows, pivots, p
        for row in rows[r:]:
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[c] = 0
        prev = p
    return rows, pivots, prev


@st.composite
def structured_matrices(draw):
    """Banded, block-diagonal, rank-deficient and dense matrices with zero
    columns put in and rows repeated up to a factor, then shuffled: most
    steps leave some rows untouched, and pivots come from rows left stale."""
    kind = draw(st.sampled_from(("banded", "blocks", "deficient", "dense")))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40))
    if kind == "deficient":
        inner = draw(st.integers(0, min(rows, cols) - 1))
        left, right = (
            IntMatrix(a, b, tuple(draw(st.lists(st.integers(-3, 3), min_size=a * b, max_size=a * b))))
            for a, b in ((rows, inner), (inner, cols))
        )
        m = (left @ right).to_rows()
    elif kind == "blocks":
        m = [[0] * cols for _ in range(rows)]
        i = j = 0
        while i < rows and j < cols:
            h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            for a in range(i, min(i + h, rows)):
                for b in range(j, min(j + w, cols)):
                    m[a][b] = draw(entry)
            i, j = i + h, j + w
    else:
        width = draw(st.integers(0, 2)) if kind == "banded" else max(rows, cols)
        m = [[draw(entry) if abs(a - b) <= width else 0 for b in range(cols)] for a in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(m[0])))
        m = [row[:at] + [0] + row[at:] for row in m]
    for _ in range(draw(st.integers(0, 2))):
        factor = draw(st.sampled_from((-2, -1, 1, 3)))
        m.append([factor * x for x in m[draw(st.integers(0, len(m) - 1))]])
    m = draw(st.permutations(m))
    return IntMatrix.from_rows(m)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(structured_matrices(), integer_matrices()))
def test_lazy_scaling_matches_dense_bareiss(m):
    assert _bareiss(m.to_rows(), m.cols) == dense_bareiss(m)


def test_lazy_scaling_swaps_in_a_stale_row():
    # Step 0 updates row 1 to [0, 0, 8] and leaves row 2 at scale 1 below the
    # pivot 2, so column 1 swaps in row 2, which is scaled before it is used.
    m = IntMatrix.from_rows([[2, 2, 1], [2, 2, 5], [0, 3, 1]])
    assert _bareiss(m.to_rows(), m.cols) == dense_bareiss(m) == ([[2, 2, 1], [0, -6, -2], [0, 0, -24]], [0, 1, 2], -24)
    for m in kernel_matrices(random.Random(1995)):
        assert _bareiss(m.to_rows(), m.cols) == dense_bareiss(m)


def test_tree_number_counts_the_trees_of_the_acceptance_family():
    tree_number.cache_clear()
    for g in connected_multigraphs(4, 6):
        assert tree_number(g) == len(spanning_trees(g))
