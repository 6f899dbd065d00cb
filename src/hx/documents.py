"""JSON document format for unicyclization instances.

A document carries a multigraph (vertex count plus an ordered edge list)
and at most one of:

* ``unicyclizer`` — explicit integer columns, each of length |E|;
* ``faces`` — boundary columns of 2-cells, from which a Z-basis of the
  lattice they span is extracted.

Neither key means the empty unicyclizer. An optional ``basis_tree`` pins
the spanning tree behind the cycle-space basis. All vectors are indexed in
document edge-list order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DocumentError
from .graphs import Multigraph
from .intlinalg import IntMatrix
from .spanning import fundamental_basis
from .winding import Unicyclization, face_lattice_basis, new_unicyclization


@dataclass(frozen=True)
class ComplexDocument:
    vertices: int
    edges: tuple[tuple[int, int], ...]
    unicyclizer: IntMatrix | None
    faces: IntMatrix | None
    basis_tree: tuple[int, ...] | None


def _expect_int(value, where: str) -> int:
    if type(value) is not int:
        raise DocumentError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_columns(raw, edge_count: int, where: str) -> IntMatrix:
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: expected a list of columns")
    columns = []
    for idx, col in enumerate(raw):
        if not isinstance(col, list):
            raise DocumentError(f"{where}[{idx}]: expected a list of integers")
        if len(col) != edge_count:
            raise DocumentError(f"{where}[{idx}]: expected {edge_count} entries, got {len(col)}")
        columns.append([_expect_int(x, f"{where}[{idx}][{i}]") for i, x in enumerate(col)])
    return IntMatrix.from_columns(columns, rows=edge_count)


def document_from_obj(obj) -> ComplexDocument:
    """Validate a decoded JSON object into a document."""
    if not isinstance(obj, dict):
        raise DocumentError("document root must be a JSON object")
    known = {"vertices", "edges", "unicyclizer", "faces", "basis_tree"}
    unknown = set(obj) - known
    if unknown:
        raise DocumentError(f"unknown fields: {sorted(unknown)}")
    if "vertices" not in obj or "edges" not in obj:
        raise DocumentError("document needs 'vertices' and 'edges'")
    vertices = _expect_int(obj["vertices"], "vertices")
    if vertices < 1:
        raise DocumentError("vertices: must be at least 1")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise DocumentError("edges: expected a list of [tail, head] pairs")
    edges = []
    for idx, pair in enumerate(raw_edges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"edges[{idx}]: expected a [tail, head] pair")
        tail = _expect_int(pair[0], f"edges[{idx}][0]")
        head = _expect_int(pair[1], f"edges[{idx}][1]")
        if not (0 <= tail < vertices and 0 <= head < vertices):
            raise DocumentError(f"edges[{idx}]: endpoints ({tail}, {head}) out of range 0..{vertices - 1}")
        edges.append((tail, head))
    if "unicyclizer" in obj and "faces" in obj:
        raise DocumentError("provide at most one of 'unicyclizer' and 'faces'")
    unicyclizer = faces = None
    if "unicyclizer" in obj:
        unicyclizer = _parse_columns(obj["unicyclizer"], len(edges), "unicyclizer")
    if "faces" in obj:
        faces = _parse_columns(obj["faces"], len(edges), "faces")
    basis_tree = None
    if "basis_tree" in obj:
        raw_tree = obj["basis_tree"]
        if not isinstance(raw_tree, list):
            raise DocumentError("basis_tree: expected a list of edge ids")
        ids = [_expect_int(x, f"basis_tree[{i}]") for i, x in enumerate(raw_tree)]
        for i, e in enumerate(ids):
            if not (0 <= e < len(edges)):
                raise DocumentError(f"basis_tree[{i}]: edge id {e} out of range")
        if len(set(ids)) != len(ids):
            raise DocumentError("basis_tree: duplicate edge ids")
        try:
            fundamental_basis(Multigraph(vertices, tuple(edges)), ids)
        except ValueError as exc:
            raise DocumentError(f"basis_tree: {exc}") from exc
        basis_tree = tuple(sorted(ids))
    return ComplexDocument(
        vertices=vertices,
        edges=tuple(edges),
        unicyclizer=unicyclizer,
        faces=faces,
        basis_tree=basis_tree,
    )


def parse_document(text: str) -> ComplexDocument:
    """Parse and validate a JSON document, with positioned error messages."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return document_from_obj(obj)


def serialize_document(doc: ComplexDocument) -> str:
    obj: dict = {
        "vertices": doc.vertices,
        "edges": [list(e) for e in doc.edges],
    }
    if doc.unicyclizer is not None:
        obj["unicyclizer"] = [list(doc.unicyclizer.column(j)) for j in range(doc.unicyclizer.cols)]
    if doc.faces is not None:
        obj["faces"] = [list(doc.faces.column(j)) for j in range(doc.faces.cols)]
    if doc.basis_tree is not None:
        obj["basis_tree"] = list(doc.basis_tree)
    return json.dumps(obj)


def build_graph(doc: ComplexDocument) -> Multigraph:
    return Multigraph(doc.vertices, doc.edges)


def unicyclizer_columns(doc: ComplexDocument) -> IntMatrix:
    """The document's unicyclizer: explicit, a basis of the faces' lattice, or empty."""
    if doc.faces is not None:
        return face_lattice_basis(doc.faces)
    if doc.unicyclizer is not None:
        return doc.unicyclizer
    return IntMatrix.zero(len(doc.edges), 0)


def build_unicyclization(doc: ComplexDocument) -> Unicyclization:
    return new_unicyclization(build_graph(doc), unicyclizer_columns(doc), basis_tree=doc.basis_tree)
