import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from hx.errors import DimensionError
from hx.intlinalg import (
    IntMatrix,
    _bareiss,
    det,
    dot,
    gcd_of_vector,
    kernel_basis,
    mat_vec,
    rank,
    smith_diagonal,
    vstack,
)


def perm_det(m: IntMatrix) -> int:
    """Signed permutation-sum determinant, independent of elimination."""
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = (-1) ** inversions
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return total


def minor_gcd(m: IntMatrix, size: int) -> int:
    values = []
    for rows in combinations(range(m.rows), size):
        for cols in combinations(range(m.cols), size):
            sub = IntMatrix.from_rows([[m[i, j] for j in cols] for i in rows])
            values.append(perm_det(sub))
    return gcd_of_vector(values)


def random_matrix(rng, rows, cols, bound=5) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols)))


def test_det_identity():
    assert det(IntMatrix.identity(2)) == 1


def test_det_hand_case():
    assert det(IntMatrix.from_rows([[-1, -1], [1, 0]])) == 1


def test_det_empty_matrix_is_one():
    assert det(IntMatrix(0, 0, ())) == 1


def test_det_non_square_rejected():
    with pytest.raises(DimensionError):
        det(IntMatrix.zero(2, 3))


def test_det_matches_permutation_oracle():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(0, 4)
        m = random_matrix(rng, n, n)
        assert det(m) == perm_det(m)


def test_det_matches_permutation_oracle_on_singular_and_large_entries():
    rng = random.Random(1968)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        bound = rng.choice((1, 9, 2**55))
        m = random_matrix(rng, n, n, bound)
        if rng.random() < 0.3:
            # A repeated row or a zero leading column: singular, or a forced row swap.
            rows = m.to_rows()
            if n > 1 and rng.random() < 0.5:
                rows[-1] = rows[0]
            else:
                for row in rows[: n - 1]:
                    row[0] = 0
            m = IntMatrix.from_rows(rows)
        singular += perm_det(m) == 0
        assert det(m) == perm_det(m)
    assert singular > 10


def test_rank_examples():
    assert rank(IntMatrix.zero(3, 3)) == 0
    assert rank(IntMatrix.from_columns([[1, -1, 0]])) == 1
    assert rank(IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]])) == 2


def test_kernel_of_identity_is_empty():
    assert kernel_basis(IntMatrix.identity(2)) == []


def test_kernel_of_theta_incidence():
    incidence = IntMatrix.from_rows([[-1, -1, -1], [1, 1, 1]])
    basis = kernel_basis(incidence)
    assert len(basis) == incidence.cols - rank(incidence) == 2
    for v in basis:
        assert all(x == 0 for x in mat_vec(incidence, v))
        assert gcd_of_vector(v) == 1
        assert next(c for c in v if c) > 0


def test_kernel_of_zero_row_is_standard_basis():
    assert kernel_basis(IntMatrix.zero(1, 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kernel_vectors_annihilated_exactly():
    rng = random.Random(7)
    for _ in range(200):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        basis = kernel_basis(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis:
            assert all(x == 0 for x in mat_vec(m, v))


def test_snf_diagonal_examples():
    assert smith_diagonal(IntMatrix.from_rows([[1, 0], [0, 1]])) == (1, 1)
    assert smith_diagonal(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert smith_diagonal(IntMatrix.from_columns([[-2, 0]])) == (2,)


def test_snf_length_is_rank_and_chain_divides():
    rng = random.Random(13)
    for _ in range(250):
        m = random_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        diag = smith_diagonal(m)
        assert len(diag) == rank(m)
        for a, b in zip(diag, diag[1:]):
            assert a > 0 and b % a == 0
        assert not diag or diag[-1] > 0


def test_snf_invariant_factors_match_minor_gcds():
    rng = random.Random(99)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        diag = smith_diagonal(m)
        product = 1
        for j, d in enumerate(diag, start=1):
            product *= d
            assert product == minor_gcd(m, j)


def test_echelon_final_pivot_is_signed_determinant():
    rng = random.Random(31)
    swapped = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        # Zeros on the leading diagonal force row swaps.
        zero_diagonal = rng.random() < 0.5
        m = IntMatrix(n, n, tuple(0 if zero_diagonal and i == j else rng.randint(-5, 5) for i in range(n) for j in range(n)))
        if det(m) == 0:
            continue
        swapped += m[0, 0] == 0
        _, pivots, d = _bareiss(m.to_rows(), m.cols)
        assert pivots == list(range(n))
        assert d == det(m) == perm_det(m)
    assert swapped > 50

def test_gcd_of_vector():
    assert gcd_of_vector((4, -6)) == 2
    assert gcd_of_vector((0, 0, 0)) == 0
    assert gcd_of_vector((-2, 0)) == 2
    assert gcd_of_vector(()) == 0


@pytest.mark.parametrize("entry", [Fraction(3, 2), 0.9, Fraction(-1, 2), Fraction(2, 1), True, 1.5])
def test_constructors_reject_non_integer_entries(entry):
    with pytest.raises(DimensionError):
        IntMatrix(1, 1, (entry,))
    with pytest.raises(DimensionError):
        IntMatrix.from_rows([[1, entry]])
    with pytest.raises(DimensionError):
        IntMatrix.from_columns([[1, entry]])


@pytest.mark.parametrize(
    "entries, named",
    [((1, 2.5, "x"), "float"), ((Fraction(1, 2), 0.5), "Fraction"), ((0, 1, True), "bool"), ((None, 1, 2), "NoneType")],
)
def test_int_check_names_the_first_offending_type(entries, named):
    with pytest.raises(DimensionError, match=f"^matrix entries must be ints, got {named}$"):
        IntMatrix(1, len(entries), entries)


def test_derived_matrices_pass_the_entry_check():
    """Products, transposes, sums, row selections and stacks skip the entry
    check; each must still be a matrix the checked constructor accepts."""
    rng = random.Random(9)
    for _ in range(100):
        n, k, m = (rng.randint(0, 4) for _ in range(3))
        a, b = random_matrix(rng, n, k), random_matrix(rng, k, m)
        indices = [rng.randrange(n) for _ in range(rng.randint(0, 5))] if n else []
        for d in (a @ b, a.transpose(), a + a, a.select_rows(indices), vstack(a, a)):
            assert IntMatrix(d.rows, d.cols, d.entries) == d
    for bad in ([2], [0, -1]):
        with pytest.raises(IndexError):
            IntMatrix.identity(2).select_rows(bad)


def test_products_match_entrywise_sums():
    rng = random.Random(8)
    for _ in range(200):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = random_matrix(rng, rows, cols)
        vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cols)]
        assert mat_vec(m, vec) == [sum(m[i, j] * vec[j] for j in range(cols)) for i in range(rows)]
        ints = [rng.randint(-9, 9) for _ in range(cols)]
        assert dot(ints, vec) == sum(a * b for a, b in zip(ints, vec))
        columns = [m.column(j) for j in range(cols)]
        assert IntMatrix.from_columns(columns, rows=rows) == m
