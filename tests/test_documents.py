import json

import pytest

from hx.documents import (
    MAX_EDGES,
    MAX_ENTRY_BITS,
    MAX_INCIDENCE_ENTRIES,
    MAX_VERTICES,
    ComplexDocument,
    build_unicyclization,
    parse_document,
    unicyclizer_columns,
)
from hx.errors import DocumentError
from hx.graphs import Multigraph
from hx.intlinalg import IntMatrix

THETA_DOC = '{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[1,-1,0]]}'


def test_parse_theta_document():
    doc = parse_document(THETA_DOC)
    assert doc.graph == Multigraph(2, ((0, 1), (0, 1), (0, 1)))
    assert doc.unicyclizer == IntMatrix.from_columns([[1, -1, 0]])
    assert doc.faces is None and doc.basis_tree is None


def test_parse_implicit_empty_unicyclizer():
    doc = parse_document('{"vertices":1,"edges":[[0,0]]}')
    assert doc.unicyclizer is None
    assert unicyclizer_columns(doc) == IntMatrix.zero(1, 0)
    a = build_unicyclization(doc)
    assert a.torsion_order == 1


def test_parse_wrong_column_length_names_column():
    with pytest.raises(DocumentError, match=r"unicyclizer\[0\]"):
        parse_document('{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[1,-1]]}')


def test_parse_malformed_json_reports_position():
    with pytest.raises(DocumentError, match="line 1"):
        parse_document('{"vertices":2,')


def test_parse_rejects_both_unicyclizer_and_faces():
    with pytest.raises(DocumentError, match="at most one"):
        parse_document('{"vertices":1,"edges":[[0,0]],"unicyclizer":[],"faces":[]}')


def test_parse_rejects_unknown_fields():
    with pytest.raises(DocumentError, match="unknown"):
        parse_document('{"vertices":1,"edges":[],"extra":1}')


def test_parse_rejects_bad_vertices():
    with pytest.raises(DocumentError):
        parse_document('{"vertices":0,"edges":[]}')
    with pytest.raises(DocumentError):
        parse_document('{"vertices":true,"edges":[]}')
    with pytest.raises(DocumentError, match="above the limit"):
        parse_document(f'{{"vertices":{MAX_VERTICES + 1},"edges":[]}}')
    assert parse_document(f'{{"vertices":{MAX_VERTICES},"edges":[]}}').graph.vertex_count == MAX_VERTICES


def test_parse_bounds_the_edge_count():
    loops = [[0, 0]] * MAX_EDGES
    assert len(parse_document(json.dumps({"vertices": 1, "edges": loops})).graph.edges) == MAX_EDGES
    with pytest.raises(DocumentError, match="above the limit"):
        parse_document(json.dumps({"vertices": 1, "edges": loops + [[0, 0]]}))


def test_parse_bounds_the_incidence_entries():
    per_vertex = MAX_INCIDENCE_ENTRIES // MAX_VERTICES
    at_bound = {"vertices": MAX_VERTICES, "edges": [[0, 1]] * per_vertex}
    assert len(parse_document(json.dumps(at_bound)).graph.edges) == per_vertex
    for edges in (per_vertex + 1, 64):
        with pytest.raises(DocumentError, match="vertices x edges: .* above the limit"):
            parse_document(json.dumps({"vertices": MAX_VERTICES, "edges": [[0, 1]] * edges}))


@pytest.mark.parametrize("key", ["unicyclizer", "faces"])
def test_parse_bounds_the_entry_bits(key):
    top = (1 << MAX_ENTRY_BITS) - 1
    theta = {"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]]}
    doc = parse_document(json.dumps({**theta, key: [[top, -top, 0]]}))
    assert getattr(doc, key).column(0) == (top, -top, 0)
    for entry in (top + 1, -top - 1):
        with pytest.raises(DocumentError, match=f"{key}\\[0\\]\\[1\\]: .*above the limit of {MAX_ENTRY_BITS} bits"):
            parse_document(json.dumps({**theta, key: [[1, entry, 0]]}))


def test_parse_rejects_out_of_range_edges():
    with pytest.raises(DocumentError, match=r"edges\[1\]"):
        parse_document('{"vertices":2,"edges":[[0,1],[0,2]]}')


def test_parse_rejects_non_integer_entries():
    with pytest.raises(DocumentError, match=r"unicyclizer\[0\]\[1\]"):
        parse_document('{"vertices":2,"edges":[[0,1],[0,1]],"unicyclizer":[[1,0.5]]}')


@pytest.mark.parametrize(
    "column, message",
    [
        ([1, 1 << 70, True, "x"], "unicyclizer[1][1]: 71-bit entry is above the limit of 64 bits"),
        ([1, True, 1 << 70, 0], "unicyclizer[1][1]: expected an integer, got True"),
        ([1, 0, 0, 2.0], "unicyclizer[1][3]: expected an integer, got 2.0"),
        ([-(1 << 64), None, 0, 0], "unicyclizer[1][0]: 65-bit entry is above the limit of 64 bits"),
    ],
)
def test_parse_names_the_first_bad_entry(column, message):
    # Columns are checked in bulk; a failing column is read again entry by entry to name the first bad one.
    text = json.dumps({"vertices": 2, "edges": [[0, 1]] * 4, "unicyclizer": [[1, -1, 0, 0], column]})
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    assert str(info.value) == message


def test_parse_accepts_empty_columns():
    doc = parse_document('{"vertices":1,"edges":[],"unicyclizer":[[],[]]}')
    assert (doc.unicyclizer.rows, doc.unicyclizer.cols) == (0, 2)


def test_basis_tree_validation():
    doc = parse_document('{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[1,-1,0]],"basis_tree":[1]}')
    assert doc.basis_tree == (1,)
    with pytest.raises(DocumentError, match="basis_tree"):
        parse_document('{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"basis_tree":[0,1]}')
    with pytest.raises(DocumentError, match="basis_tree"):
        parse_document('{"vertices":2,"edges":[[0,1],[0,1]],"basis_tree":[5]}')
    with pytest.raises(DocumentError, match="duplicate"):
        parse_document('{"vertices":2,"edges":[[0,1],[0,1]],"basis_tree":[0,0]}')
    with pytest.raises(DocumentError, match="basis_tree: edge set is not a spanning tree"):
        parse_document('{"vertices":3,"edges":[[0,1],[0,1]],"basis_tree":[0]}')


def test_round_trip_documents():
    samples = [
        THETA_DOC,
        '{"vertices":1,"edges":[[0,0]]}',
        '{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"faces":[[1,-1,0],[1,-1,0]]}',
        '{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[1,-1,0]],"basis_tree":[2]}',
    ]
    for text in samples:
        doc = parse_document(text)
        obj = {"vertices": doc.graph.vertex_count, "edges": [list(e) for e in doc.graph.edges]}
        for key in ("unicyclizer", "faces"):
            if getattr(doc, key) is not None:
                m = getattr(doc, key)
                obj[key] = [list(m.column(j)) for j in range(m.cols)]
        if doc.basis_tree is not None:
            obj["basis_tree"] = list(doc.basis_tree)
        assert parse_document(json.dumps(obj)) == doc


def test_faces_extraction():
    doc = parse_document('{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"faces":[[1,-1,0],[1,-1,0]]}')
    assert unicyclizer_columns(doc) == IntMatrix.from_columns([[1, -1, 0]])
    a = build_unicyclization(doc)
    assert a.partial.cols == 1


def test_basis_tree_changes_basis():
    base = build_unicyclization(parse_document(THETA_DOC))
    alt = build_unicyclization(
        parse_document('{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[1,-1,0]],"basis_tree":[1]}')
    )
    assert base.non_tree_edges != alt.non_tree_edges


def test_document_equality_is_structural():
    doc = ComplexDocument(Multigraph(2, ((0, 1),)), None, None, None)
    assert doc == ComplexDocument(Multigraph(2, ((0, 1),)), None, None, None)
