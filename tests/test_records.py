"""Value semantics of the immutable records: equality, hashing, immutability, copies."""

import copy
import gc
import pickle
import tracemalloc

import pytest

from hx import spanning, winding
from hx.documents import build_unicyclization, parse_document
from hx.errors import DimensionError, DocumentError
from hx.graphs import Multigraph
from hx.intlinalg import IntMatrix, _from_columns, _matrix
from hx.spanning import fundamental_basis, lexmin_spanning_tree
from hx.winding import Unicyclization, new_unicyclization, standard_harmonic_cycle

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
    pickles = [pickle.loads(pickle.dumps(a, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (*pickles, copy.deepcopy(a), copy.copy(a)):
        assert twin == a and hash(twin) == hash(a) and type(twin) is type(a)
    assert repr(a).startswith(type(a).__name__ + "(")


def test_unicyclization_refuses_new_attributes():
    # Like every record, it has empty __slots__ and so no instance dict to take a new name.
    a = theta_unicyclization()
    with pytest.raises(AttributeError):
        a.scratch = 1
    assert not hasattr(a, "__dict__") and not hasattr(a, "scratch")


def test_every_public_matrix_construction_checks_its_entries_once(monkeypatch):
    # bench/spans.py counts checked constructions by patching __post_init__.
    calls = []
    check = IntMatrix.__post_init__
    monkeypatch.setattr(IntMatrix, "__post_init__", lambda self: calls.append(self) or check(self))
    m = IntMatrix(2, 2, (1, 2, 3, 4))
    checked = [
        lambda: IntMatrix(2, 2, (1, 2, 3, 4)),
        lambda: IntMatrix.from_rows([[1, 2], [3, 4]]),
        lambda: IntMatrix.from_columns([[1, 3], [2, 4]]),
        lambda: IntMatrix.zero(2, 3),
        lambda: IntMatrix.identity(3),
        lambda: pickle.loads(pickle.dumps(m)),
        lambda: copy.copy(m),
        lambda: copy.deepcopy(m),
    ]
    for make in checked:
        calls.clear()
        result = make()
        assert len(calls) == 1 and calls[0] is result
    calls.clear()
    assert _matrix(2, 2, (1, 2, 3, 4)) == m and _from_columns([[1, 3], [2, 4]], 2) == m
    assert calls == []
    # A copy is checked again, so an unchecked bad matrix cannot be copied.
    with pytest.raises(DimensionError):
        copy.copy(_matrix(1, 1, (0.5,)))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_checks_matrices_and_graphs_at_every_protocol(protocol):
    # Protocols 0 and 1 rebuild a tuple subclass without __new__ unless __reduce__ says otherwise.
    with pytest.raises(DimensionError):
        pickle.loads(pickle.dumps(_matrix(1, 1, (0.5,)), protocol))
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(tuple.__new__(Multigraph, (2, ((0, 2),))), protocol))


def test_records_differ_when_a_field_differs():
    assert IntMatrix(1, 2, (1, 2)) != IntMatrix(2, 1, (1, 2))
    assert Multigraph(2, THETA) != Multigraph(3, THETA)
    a = theta_unicyclization()
    b = new_unicyclization(Multigraph(2, THETA), IntMatrix.from_columns([[2, -2, 0]]))
    assert a != b and a.graph == b.graph


def test_unicyclization_copies_carry_the_standard_cycle():
    a = theta_unicyclization()
    lam = standard_harmonic_cycle(a)
    assert lam == a.standard_cycle == (-1, -1, 2)
    pickles = [pickle.loads(pickle.dumps(a, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (*pickles, copy.deepcopy(a), copy.copy(a)):
        assert twin == a and twin.standard_cycle == lam and standard_harmonic_cycle(twin) == lam


def test_unicyclization_keeps_what_later_calls_read(monkeypatch):
    # The cycle basis and the torsion order are derived from these fields, and
    # neither a build nor a document's pinned tree builds a fundamental cycle.
    assert Unicyclization._fields == (
        "graph", "partial", "non_tree_edges", "orientation", "tree_count", "covector", "standard_cycle"
    )

    def forbidden(*args):
        raise AssertionError("fundamental cycles built")

    monkeypatch.setattr(spanning, "fundamental_basis", forbidden)
    monkeypatch.setattr(winding, "fundamental_basis", forbidden)
    a = build_unicyclization(
        parse_document('{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[2,-2,0]],"basis_tree":[1]}')
    )
    assert (a.non_tree_edges, a.cycle_rank, a.covector, a.torsion_order) == ((0, 2), 2, (0, -2), 2)
    with pytest.raises(DocumentError, match="basis_tree: edge set is not a spanning tree"):
        parse_document('{"vertices":2,"edges":[[0,0],[0,1]],"basis_tree":[0]}')
    with pytest.raises(ValueError, match="edge set is not a spanning tree"):
        new_unicyclization(Multigraph(2, THETA), IntMatrix.zero(3, 2), basis_tree=[0, 1])


def test_a_record_retains_no_cycle_basis():
    # The 1,024-edge circulant, (i, i+1) and (i, i+2) mod 512, whose
    # unicyclizer is the lexmin tree's fundamental cycles but the first. A
    # record that stored its 513 fundamental cycles, 1,024 entries each, kept
    # 4.18 MiB; without them it keeps 0.14 MiB (Python 3.11).
    n = 512
    g = Multigraph(n, tuple(e for i in range(n) for e in ((i, (i + 1) % n), (i, (i + 2) % n))))
    partial = IntMatrix.from_columns(fundamental_basis(g, lexmin_spanning_tree(g))[1:], rows=g.edge_count)
    gc.collect()
    tracemalloc.start()
    try:
        a = new_unicyclization(g, partial)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert a.cycle_rank == 513 and a.torsion_order == 1
    assert retained < 1 << 20, f"the record retains {retained} bytes"
