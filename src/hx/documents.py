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
from typing import TYPE_CHECKING, NamedTuple

from .errors import DocumentError
from .graphs import Multigraph
from .intlinalg import IntMatrix, _from_columns

if TYPE_CHECKING:
    from .winding import Unicyclization

# Largest vertex count a document may declare. Several commands build lists
# per vertex, so a huge count with few edges is refused here. At 2^20
# edgeless vertices, `homology --dim 0` and `--dim 1` each take 0.2 s and
# 57 MB (Python 3.11, one x86-64 core).
MAX_VERTICES = 1 << 20
# Largest edge count a document may declare. On the cycle graph with 2^10
# edges, `trees` takes 0.13 s and 23 MB and `validate` and `lambda` 0.18 s and
# 28 MB, most of it the one in-place elimination of the 1,023 dense rows of
# the reduced Laplacian, and `homology --dim 1` 0.08 s and 16 MB (best of 3,
# same host). `homology --dim 1` on the circulant with 200 edges (i, i+1),
# (i, i+2) mod 100 and +-9 coordinates takes 0.25 s and 16 MB.
MAX_EDGES = 1 << 10
# Largest product of the vertex and edge counts, the entry count of the dense
# incidence matrix. Only a connected graph's is built, by `verify`, and every
# connected document within MAX_EDGES is far below it; `homology` reads a
# spanning forest instead, and at 2^20 vertices with 4 parallel edges it
# takes 0.2 s and 57 MB for `--dim 0` or `--dim 1` (same host).
MAX_INCIDENCE_ENTRIES = 1 << 22
# Largest product of the edge count and the column count of the unicyclizer
# or the faces, counting an empty column as one entry; a valid unicyclizer has
# fewer columns than edges, so every one within MAX_EDGES is admitted. The
# columns are counted before any is read. The worst case found within this and
# MAX_DOCUMENT_BYTES, one loop with 10^6 one-entry columns (4.0 MB), takes
# 4.2 s and 199 MB under `validate` (best of 3, same host); 2^20 empty columns
# take 2.5 s and 174 MB. Columns are checked in bulk, elimination keeps the rows
# and back substitution only the pivot entries of the column it is reading.
MAX_COLUMN_ENTRIES = 1 << 20
# Largest size of a document in bytes, checked before it is decoded; the
# worst case at MAX_COLUMN_ENTRIES fits. A JSON container decodes to a Python
# object of about 80 bytes, so decoding may take 30 times the document's
# size: on 4 MiB of empty lists, 0.6 s and 122 MB (same host).
MAX_DOCUMENT_BYTES = 1 << 22
# Largest bit length of a unicyclizer or face entry. Every exact elimination
# carries intermediates whose size grows with the entries' bits; on the
# 50-edge circulant with 55-bit coordinates `homology --dim 1` takes 0.23 s.
MAX_ENTRY_BITS = 64


class ComplexDocument(NamedTuple):
    graph: Multigraph
    unicyclizer: IntMatrix | None
    faces: IntMatrix | None
    basis_tree: tuple[int, ...] | None


def _expect_int(value, where: str) -> int:
    if type(value) is not int:
        raise DocumentError(f"{where}: expected an integer, got {value!r}")
    return value


def _expect_entry(value, where: str) -> int:
    entry = _expect_int(value, where)
    if entry.bit_length() > MAX_ENTRY_BITS:
        raise DocumentError(f"{where}: {entry.bit_length()}-bit entry is above the limit of {MAX_ENTRY_BITS} bits")
    return entry


def _parse_columns(raw, edge_count: int, where: str) -> IntMatrix:
    if not isinstance(raw, list):
        raise DocumentError(f"{where}: expected a list of columns")
    entries = max(edge_count, 1) * len(raw)  # an empty column counts as one entry
    if entries > MAX_COLUMN_ENTRIES:
        raise DocumentError(f"{where}: {len(raw)} columns count as {entries} entries, above the limit of {MAX_COLUMN_ENTRIES}")
    columns = []
    for idx, col in enumerate(raw):
        if not isinstance(col, list):
            raise DocumentError(f"{where}[{idx}]: expected a list of integers")
        if len(col) != edge_count:
            raise DocumentError(f"{where}[{idx}]: expected {edge_count} entries, got {len(col)}")
        # One bulk test per column; the entry-by-entry checks run only to name the first bad entry.
        if col and not (set(map(type, col)) <= {int} and max(map(int.bit_length, col)) <= MAX_ENTRY_BITS):
            for i, x in enumerate(col):
                _expect_entry(x, f"{where}[{idx}][{i}]")
        columns.append(col)
    return _from_columns(columns, edge_count)  # every length and entry is checked above


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
    if vertices > MAX_VERTICES:
        raise DocumentError(f"vertices: {vertices} is above the limit of {MAX_VERTICES}")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise DocumentError("edges: expected a list of [tail, head] pairs")
    if len(raw_edges) > MAX_EDGES:
        raise DocumentError(f"edges: {len(raw_edges)} edges is above the limit of {MAX_EDGES}")
    if vertices * len(raw_edges) > MAX_INCIDENCE_ENTRIES:
        raise DocumentError(
            f"vertices x edges: {vertices} x {len(raw_edges)} is above the limit of {MAX_INCIDENCE_ENTRIES}"
        )
    edges = []
    for idx, pair in enumerate(raw_edges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"edges[{idx}]: expected a [tail, head] pair")
        tail = _expect_int(pair[0], f"edges[{idx}][0]")
        head = _expect_int(pair[1], f"edges[{idx}][1]")
        if not (0 <= tail < vertices and 0 <= head < vertices):
            raise DocumentError(f"edges[{idx}]: endpoints ({tail}, {head}) out of range 0..{vertices - 1}")
        edges.append((tail, head))
    graph = Multigraph(vertices, tuple(edges))
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
        from .spanning import _cotree

        try:
            _cotree(graph, ids)
        except ValueError as exc:
            raise DocumentError(f"basis_tree: {exc}") from exc
        basis_tree = tuple(sorted(ids))
    return ComplexDocument(graph=graph, unicyclizer=unicyclizer, faces=faces, basis_tree=basis_tree)


def parse_document(text: str) -> ComplexDocument:
    """Parse and validate a JSON document, with positioned error messages."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise DocumentError(f"malformed JSON: {exc}") from exc
    return document_from_obj(obj)


def read_document(path) -> ComplexDocument:
    """Read, parse and validate a document file of at most MAX_DOCUMENT_BYTES bytes of UTF-8."""
    with open(path, "rb") as handle:
        data = handle.read(MAX_DOCUMENT_BYTES + 1)
    if len(data) > MAX_DOCUMENT_BYTES:
        raise DocumentError(f"document is above the limit of {MAX_DOCUMENT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"document is not UTF-8: {exc}") from exc
    return parse_document(text)


def unicyclizer_columns(doc: ComplexDocument) -> IntMatrix:
    """The document's unicyclizer: explicit, a basis of the faces' lattice, or empty."""
    if doc.faces is not None:
        from .winding import face_lattice_basis

        return face_lattice_basis(doc.faces)
    if doc.unicyclizer is not None:
        return doc.unicyclizer
    return IntMatrix.zero(doc.graph.edge_count, 0)


def build_unicyclization(doc: ComplexDocument) -> Unicyclization:
    from .winding import new_unicyclization

    return new_unicyclization(doc.graph, unicyclizer_columns(doc), basis_tree=doc.basis_tree)
