"""Value semantics of the immutable records: equality, hashing, immutability, copies."""

import copy
import pickle

import pytest

from hx.graphs import Multigraph
from hx.intlinalg import IntMatrix
from hx.winding import new_unicyclization, standard_harmonic_cycle

THETA = ((0, 1), (0, 1), (0, 1))


def theta_unicyclization():
    return new_unicyclization(Multigraph(2, THETA), IntMatrix.from_columns([[1, -1, 0]]))


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: IntMatrix(2, 2, (1, 0, 0, 1)), "entries"),
        (lambda: IntMatrix.from_columns([[1, 0], [0, 1]]).transpose(), "rows"),
        (lambda: Multigraph(2, THETA), "edges"),
        (theta_unicyclization, "tree_count"),
    ],
)
def test_records_are_immutable_values(make, field):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != object() and len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert twin == a and hash(twin) == hash(a) and type(twin) is type(a)
    assert repr(a).startswith(type(a).__name__ + "(")


def test_records_differ_when_a_field_differs():
    assert IntMatrix(1, 2, (1, 2)) != IntMatrix(2, 1, (1, 2))
    assert Multigraph(2, THETA) != Multigraph(3, THETA)
    a = theta_unicyclization()
    b = new_unicyclization(Multigraph(2, THETA), IntMatrix.from_columns([[2, -2, 0]]))
    assert a != b and a.graph == b.graph


def test_unicyclization_copies_keep_the_cached_cycle():
    a = theta_unicyclization()
    lam = standard_harmonic_cycle(a)
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert twin == a and standard_harmonic_cycle(twin) == lam
