import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import GeneratorType

import pytest

from hx import cli, documents, winding
from hx.cli import main
from hx.documents import MAX_COLUMN_ENTRIES, MAX_DOCUMENT_BYTES, MAX_EDGES, MAX_ENTRY_BITS, MAX_VERTICES, parse_document
from hx.errors import DimensionError, InternalError
from hx.graphs import Multigraph
from hx.intlinalg import IntMatrix, rank
from hx.spanning import fundamental_basis, lexmin_spanning_tree
from hx.verify import exhaustive_family

THETA_DOC = '{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[1,-1,0]]}'
TORSION_DOC = '{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[2,-2,0]]}'


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(THETA_DOC)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def test_lambda_default_sign_normalized(theta_file, capsys):
    code, payload, _ = run(capsys, "lambda", theta_file)
    assert code == 0
    assert payload == {"lambda": [1, 1, -2], "k": 3, "tau": 1}


def test_lambda_raw_sign(theta_file, capsys):
    code, payload, _ = run(capsys, "lambda", theta_file, "--raw-sign")
    assert code == 0
    assert payload == {"lambda": [-1, -1, 2], "k": 3, "tau": 1}


def test_lambda_output_is_byte_identical(theta_file, capsys):
    main(["lambda", theta_file])
    first = capsys.readouterr().out
    main(["lambda", theta_file])
    second = capsys.readouterr().out
    assert first == second


def test_winding_extended_value(theta_file, capsys):
    code, payload, _ = run(capsys, "winding", theta_file, "--chain", "0,0,1")
    assert code == 0
    assert payload == {"value": "2/3", "cycle": False}


def test_winding_cycle_value(theta_file, capsys):
    code, payload, _ = run(capsys, "winding", theta_file, "--chain=-1,0,1")
    assert code == 0
    assert payload == {"value": "1", "cycle": True}


def test_winding_torsion_multiple(tmp_path, capsys):
    path = tmp_path / "torsion.json"
    path.write_text(TORSION_DOC)
    code, payload, _ = run(capsys, "winding", str(path), "--chain=-1,0,1")
    assert code == 0
    assert payload["value"] == "2"


def test_winding_bad_chain(theta_file, capsys):
    code, _, err = run(capsys, "winding", theta_file, "--chain", "1,x,0")
    assert code == 2 and "chain" in err
    code, _, err = run(capsys, "winding", theta_file, "--chain", "1,0")
    assert code == 2 and "3" in err


def test_trees(theta_file, capsys):
    code, payload, _ = run(capsys, "trees", theta_file)
    assert code == 0
    assert payload == {"k": 3}
    code, payload, _ = run(capsys, "trees", theta_file, "--list")
    assert payload == {"k": 3, "trees": [[0], [1], [2]]}


def test_cycletrees(theta_file, capsys):
    code, payload, _ = run(capsys, "cycletrees", theta_file)
    assert code == 0
    assert payload["count"] == 3
    assert payload["cycletrees"][0] == {"edges": [0, 1], "cycle": [1, -1, 0], "winding": 0}
    assert sorted(abs(item["winding"]) for item in payload["cycletrees"]) == [0, 1, 1]


def test_cycletrees_on_tree_graph(tmp_path, capsys):
    # No key, an empty unicyclizer and empty faces are the same empty unicyclizer.
    path = tmp_path / "tree.json"
    for empty in ("", ',"unicyclizer":[]', ',"faces":[]'):
        path.write_text('{"vertices":3,"edges":[[0,1],[1,2]]%s}' % empty)
        code, payload, err = run(capsys, "cycletrees", str(path))
        assert code == 0, (empty, err)
        assert payload == {"count": 0, "cycletrees": []}


def test_homology(tmp_path, capsys):
    path = tmp_path / "torsion.json"
    path.write_text(TORSION_DOC)
    code, payload, _ = run(capsys, "homology", str(path))
    assert code == 0
    assert payload == {"dim": 1, "rank": 1, "torsion": [2]}
    code, payload, _ = run(capsys, "homology", str(path), "--dim", "0")
    assert payload == {"dim": 0, "rank": 1, "torsion": []}
    code, _, _ = run(capsys, "homology", str(path), "--dim", "5")
    assert code == 2


def test_split(theta_file, capsys):
    code, payload, _ = run(capsys, "split", theta_file, "--edge", "2")
    assert code == 0
    assert payload == {"edge": 2, "with_edge": [1, 1, -2], "without_edge": [0, 0, 0]}
    code, payload, _ = run(capsys, "split", theta_file, "--edge", "2", "--raw-sign")
    assert payload == {"edge": 2, "with_edge": [-1, -1, 2], "without_edge": [0, 0, 0]}
    code, _, _ = run(capsys, "split", theta_file, "--edge", "9")
    assert code == 2


def test_split_parts_sum_to_lambda_output(theta_file, capsys):
    _, lam_payload, _ = run(capsys, "lambda", theta_file)
    _, split_payload, _ = run(capsys, "split", theta_file, "--edge", "0")
    total = [a + b for a, b in zip(split_payload["with_edge"], split_payload["without_edge"])]
    assert total == lam_payload["lambda"]


def test_validate_valid(theta_file, capsys):
    code, payload, _ = run(capsys, "validate", theta_file)
    assert code == 0
    assert payload["valid"] is True
    assert [a["ok"] for a in payload["axioms"]] == [True, True, True]
    assert payload["k"] == 3 and payload["tau"] == 1 and payload["corank"] == 2


def test_validate_invalid_axiom(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[1,0,0]]}')
    code, payload, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert payload["valid"] is False
    assert payload["axioms"][1]["ok"] is False


VALIDATE_PINNED = [
    (
        THETA_DOC,
        0,
        '{"valid": true, "axioms": [{"axiom": 1, "ok": true, "detail": "columns are linearly independent"}, '
        '{"axiom": 2, "ok": true, "detail": "incidence times unicyclizer is zero"}, '
        '{"axiom": 3, "ok": true, "detail": "cycle-space quotient has rank 1"}], "corank": 2, "k": 3, "tau": 1}\n',
    ),
    (
        '{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[1,-1,0],[2,-2,0]]}',
        1,
        '{"valid": false, "axioms": [{"axiom": 1, "ok": false, "detail": "column rank 1 < 2"}, '
        '{"axiom": 2, "ok": true, "detail": "incidence times unicyclizer is zero"}, '
        '{"axiom": 3, "ok": true, "detail": "cycle-space quotient has rank 1"}], "corank": 2}\n',
    ),
    (
        '{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[1,0,0]]}',
        1,
        '{"valid": false, "axioms": [{"axiom": 1, "ok": true, "detail": "columns are linearly independent"}, '
        '{"axiom": 2, "ok": false, "detail": "incidence times unicyclizer is nonzero"}, '
        '{"axiom": 3, "ok": true, "detail": "cycle-space quotient has rank 1"}], "corank": 2}\n',
    ),
    (
        '{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[]}',
        1,
        '{"valid": false, "axioms": [{"axiom": 1, "ok": true, "detail": "columns are linearly independent"}, '
        '{"axiom": 2, "ok": true, "detail": "incidence times unicyclizer is zero"}, '
        '{"axiom": 3, "ok": false, "detail": "cycle-space quotient has rank 2"}], "corank": 2}\n',
    ),
]


@pytest.mark.parametrize("document, code, stdout", VALIDATE_PINNED, ids=["valid", "axiom1", "axiom2", "axiom3"])
def test_validate_output_is_pinned_and_evaluates_axioms_only_on_failure(tmp_path, capsys, monkeypatch, document, code, stdout):
    # A valid document, then one failing each axiom: the build proves a valid
    # unicyclizer, so check_axioms runs only to name a failure, and then once.
    path = tmp_path / "doc.json"
    path.write_text(document)
    calls = []
    evaluate = winding.check_axioms
    monkeypatch.setattr(winding, "check_axioms", lambda g, partial: calls.append(g) or evaluate(g, partial))
    assert main(["validate", str(path)]) == code
    assert capsys.readouterr().out == stdout
    assert len(calls) == (code == 1)


def test_validate_disconnected_graph_is_input_error(tmp_path, capsys):
    path = tmp_path / "disc.json"
    path.write_text('{"vertices":2,"edges":[]}')
    code, payload, err = run(capsys, "validate", str(path))
    assert code == 2 and payload is None
    assert err == "hx: graph is not connected\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["winding", "--chain", "1,x,0"], "hx: --chain: expected comma-separated integers: invalid literal for int() with base 10: 'x'"),
        (["winding", "--chain", "1,0"], "hx: --chain: expected 3 coefficients, got 2"),
        (["split", "--edge", "3"], "hx: invalid edge id 3 (graph has 3 edges)"),
    ],
)
def test_options_are_checked_before_the_build(theta_file, capsys, monkeypatch, argv, message):
    def fail(doc):
        raise RuntimeError("the instance was built before the options were checked")

    monkeypatch.setattr(documents, "build_unicyclization", fail)
    code, payload, err = run(capsys, argv[0], theta_file, *argv[1:])
    assert code == 2 and payload is None
    assert err == message + "\n"


def test_verify_all(theta_file, capsys):
    code, payload, _ = run(capsys, "verify", theta_file, "--all")
    assert code == 0
    assert payload["overall"] is True
    assert len(payload["reports"]) == 4


def test_verify_named_check(theta_file, capsys):
    code, payload, _ = run(capsys, "verify", theta_file, "counts")
    assert code == 0
    assert len(payload["reports"]) == 1


def test_verify_unknown_check(theta_file, capsys):
    code, _, err = run(capsys, "verify", theta_file, "nonsense")
    assert code == 2 and "unknown" in err


@pytest.mark.parametrize(
    "argv",
    [["--seed", "3", "counts", "energy"], ["counts", "--seed", "3", "energy"], ["counts", "energy", "--seed", "3"]],
    ids=["option-first", "option-between", "option-last"],
)
def test_verify_takes_options_anywhere_among_the_checks(theta_file, capsys, argv):
    assert main(["verify", theta_file, "counts", "energy", "--seed", "3"]) == 0
    expected = capsys.readouterr().out
    code, payload, _ = run(capsys, "verify", theta_file, *argv)
    assert code == 0 and payload["seed"] == 3 and len(payload["reports"]) == 2
    assert json.dumps(payload) + "\n" == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--seed", "3", "nonsense"], "hx: unknown checks ['nonsense']; available: inner_product, harmonicity, counts, energy\n"),
        (["verify", "counts", "--bogus"], "hx: error: unrecognized arguments: --bogus\n"),
        (["verify", "--bogus", "counts"], "hx: error: unrecognized arguments: --bogus counts\n"),
        (["lambda", "counts"], "hx: error: unrecognized arguments: counts\n"),
    ],
    ids=["unknown-check-after-option", "unknown-option-after-check", "unknown-option-before-check", "other-command"],
)
def test_leftover_arguments_exit_2(theta_file, capsys, argv, message):
    try:
        code = main([argv[0], theta_file, *argv[1:]])
    except SystemExit as exc:  # argparse's own usage errors exit from the parser
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.endswith(message)


def test_missing_file(capsys):
    code, _, err = run(capsys, "lambda", "/nonexistent/path.json")
    assert code == 2 and err


def test_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices":2')
    code, _, err = run(capsys, "lambda", str(path))
    assert code == 2 and "line" in err


@pytest.mark.parametrize("key", ["unicyclizer", "faces"])
@pytest.mark.parametrize("entry", ["1.5", "true"])
def test_non_integer_entries_are_input_errors(tmp_path, capsys, key, entry):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"{key}":[[1,-1,{entry}]]}}')
    for command in ("lambda", "homology"):
        code, payload, err = run(capsys, command, str(path))
        assert code == 2 and payload is None and f"{key}[0][2]" in err


def test_invalid_instance_is_input_error(tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text('{"vertices":3,"edges":[[0,1],[1,2]]}')
    code, _, err = run(capsys, "lambda", str(path))
    assert code == 2 and "axiom" in err


def test_disconnected_graph_is_input_error(tmp_path, capsys):
    path = tmp_path / "disc.json"
    path.write_text('{"vertices":2,"edges":[]}')
    code, _, err = run(capsys, "lambda", str(path))
    assert code == 2 and "connected" in err


def hx_env(**variables):
    """The environment of a child hx process: this checkout's src first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)


def run_limited(*argv):
    """Run hx in a child process under a 512 MB address-space limit, so a
    per-vertex allocation on a huge document exits 3 instead of exhausting memory."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    return subprocess.run(
        [sys.executable, "-m", "hx.cli", *argv],
        capture_output=True, text=True, env=hx_env(), timeout=60, preexec_fn=limit_memory,
    )


def test_huge_vertex_count_fails_fast(tmp_path):
    # A billion vertices is refused at the document boundary by every command.
    path = tmp_path / "huge.json"
    path.write_text('{"vertices": 1000000000, "edges": []}')
    for argv in (["validate"], ["lambda"], ["trees"], ["homology", "--dim", "0"], ["homology", "--dim", "1"]):
        done = run_limited(argv[0], str(path), *argv[1:])
        assert done.returncode == 2, done.stderr
        assert done.stdout == "" and "above the limit" in done.stderr
    # At the bound and with no edges, connectivity must be refused from the
    # edge count, before any per-vertex allocation.
    path.write_text(json.dumps({"vertices": MAX_VERTICES, "edges": []}))
    for command in ("validate", "lambda", "trees"):
        done = run_limited(command, str(path))
        assert done.returncode == 2, done.stderr
        assert done.stdout == "" and "not connected" in done.stderr


def test_incidence_entry_limit_is_input_error(tmp_path):
    # A dense 2^20 x 64 incidence matrix would exhaust the address-space limit.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"vertices": MAX_VERTICES, "edges": [[0, 1]] * 64}))
    for dim in ("0", "1"):
        done = run_limited("homology", str(path), "--dim", dim)
        assert done.returncode == 2, done.stderr
        assert done.stdout == "" and "above the limit" in done.stderr


def test_edge_and_entry_limits_are_input_errors(tmp_path, capsys):
    path = tmp_path / "over.json"
    for doc in (
        {"vertices": 1, "edges": [[0, 0]] * (MAX_EDGES + 1)},
        {"vertices": 2, "edges": [[0, 1]] * 3, "unicyclizer": [[1 << MAX_ENTRY_BITS, 0, 0]]},
    ):
        path.write_text(json.dumps(doc))
        code, payload, err = run(capsys, "validate", str(path))
        assert code == 2 and payload is None
        assert "above the limit" in err


@pytest.mark.parametrize(
    "key, edge_count",
    [("unicyclizer", 4), ("faces", 4), ("unicyclizer", 0), ("faces", 0)],
    ids=["unicyclizer", "faces", "unicyclizer-edgeless", "faces-edgeless"],
)
def test_column_entry_limit_is_input_error(tmp_path, key, edge_count):
    # One column over the limit is refused before any column is read; at the
    # limit the same document takes seconds and over 100 MB. With no edges
    # each empty column counts as one entry, so 2^20 + 1 of them are refused.
    path = tmp_path / "columns.json"
    columns = [[0] * edge_count] * (MAX_COLUMN_ENTRIES // max(edge_count, 1) + 1)
    path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]] * edge_count, key: columns}, separators=(",", ":")))
    for argv in (["validate"], ["homology", "--dim", "1"]):
        start = time.perf_counter()
        done = run_limited(argv[0], str(path), *argv[1:])
        assert done.returncode == 2, done.stderr
        assert done.stdout == "" and f"{len(columns)} columns count as" in done.stderr
        assert time.perf_counter() - start < 10


def test_many_face_columns_stay_in_bounded_memory(tmp_path):
    # 2^14 face columns on 4 parallel edges, each (a, b - a, -b, 0) with a = b
    # mod 2, an index-2 lattice: back substitution keeps the 2 pivot entries of
    # each free column, not a vector as long as the row (2^28 entries in all),
    # so both commands fit the 512 MB limit. The first two columns have pivot
    # minor 4, which the third does not divide, so `validate` also takes the
    # lattice-basis path. Outputs are pinned, so nothing runs unlimited here.
    rng = random.Random(14)
    pairs = [(2, 0), (0, 2), (1, 1)]
    for _ in range(1 << 14):
        a = rng.randint(-4, 4)
        pairs.append((a, a + 2 * rng.randint(-2, 2)))
    path = tmp_path / "faces.json"
    path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]] * 4, "faces": [[a, b - a, -b, 0] for a, b in pairs]}))
    done = run_limited("validate", str(path))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) | {"axioms": None} == {"valid": True, "axioms": None, "corank": 3, "k": 4, "tau": 2}
    done = run_limited("homology", str(path), "--dim", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout == '{"dim": 1, "rank": 1, "torsion": [2]}\n'


def test_document_byte_limit_is_input_error(tmp_path):
    path = tmp_path / "padded.json"
    path.write_text(THETA_DOC.ljust(MAX_DOCUMENT_BYTES))
    assert run_limited("lambda", str(path)).returncode == 0
    path.write_text(THETA_DOC.ljust(MAX_DOCUMENT_BYTES + 1))
    done = run_limited("lambda", str(path))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"hx: document is above the limit of {MAX_DOCUMENT_BYTES} bytes\n"


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000], ids=["not-utf8", "nested"])
def test_undecodable_documents_are_input_errors(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, payload, err = run(capsys, "lambda", str(path))
    assert code == 2 and payload is None
    assert err.startswith("hx: ") and "internal error" not in err


def test_homology_of_many_isolated_vertices(tmp_path):
    # Zero rows change no invariant factor, so no Smith transform grows with
    # the vertex count.
    path = tmp_path / "edgeless.json"
    path.write_text('{"vertices": 20000, "edges": []}')
    for dim, rank in ((0, 20000), (1, 0)):
        done = run_limited("homology", str(path), "--dim", str(dim))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"dim": dim, "rank": rank, "torsion": []}


def test_enumeration_cap_checked_before_build(tmp_path, capsys):
    # 20 edges, and the unicyclizer column is not a cycle (axiom 2 fails).
    edges = [[i, (i + d) % 10] for i in range(10) for d in (1, 2)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vertices": 10, "edges": edges, "unicyclizer": [[1] + [0] * 19]}))
    for argv in (["cycletrees"], ["verify", "harmonicity"]):
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert "enumeration cap" in err and "axiom" not in err


@pytest.mark.parametrize("failure", [InternalError("Gram determinant 4 != tree count 3"), AssertionError("bug")])
def test_internal_error_exit_code(theta_file, capsys, monkeypatch, failure):
    def broken(a):
        raise failure

    monkeypatch.setattr(winding, "standard_harmonic_cycle", broken)
    code, payload, err = run(capsys, "lambda", theta_file)
    assert code == 3 and payload is None
    assert err.startswith(f"hx: internal error: {failure}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["split", "--edge", "7"], "hx: invalid edge id 7 (graph has 3 edges)"),
        (["split", "--edge", "-1"], "hx: invalid edge id -1 (graph has 3 edges)"),
        (["homology", "--dim", "5"], "hx: dimension 5 out of range 0..2"),
        (["homology", "--dim", "-1"], "hx: dimension -1 out of range 0..2"),
    ],
)
def test_out_of_range_options_are_input_errors(theta_file, capsys, argv, message):
    code, payload, err = run(capsys, argv[0], theta_file, *argv[1:])
    assert code == 2 and payload is None
    assert err == message + "\n"


def test_faces_that_are_not_cycles_are_input_errors(tmp_path, capsys):
    path = tmp_path / "bad-faces.json"
    path.write_text('{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"faces":[[1,0,0]]}')
    code, payload, err = run(capsys, "homology", str(path))
    assert code == 2 and payload is None
    assert err == "hx: boundary 1 composed with boundary 2 is nonzero\n"


@pytest.mark.parametrize("failure", [ValueError("bad value"), DimensionError("bad shape")])
def test_library_value_error_is_internal_error(theta_file, capsys, monkeypatch, failure):
    # Input errors are DocumentError by the time they leave the CLI; a bare
    # ValueError from inside the library is a bug.
    def broken(a):
        raise failure

    monkeypatch.setattr(winding, "standard_harmonic_cycle", broken)
    code, payload, err = run(capsys, "lambda", theta_file)
    assert code == 3 and payload is None
    assert err.startswith(f"hx: internal error: {failure}\n")


def test_faces_tau_matches_homology(tmp_path, capsys):
    path = tmp_path / "faces.json"
    path.write_text('{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"faces":[[2,-2,0],[3,-3,0]]}')
    _, payload, _ = run(capsys, "validate", str(path))
    assert payload["valid"] is True and payload["tau"] == 1
    _, payload, _ = run(capsys, "lambda", str(path))
    assert payload == {"lambda": [1, 1, -2], "k": 3, "tau": 1}
    _, payload, _ = run(capsys, "homology", str(path), "--dim", "1")
    assert payload == {"dim": 1, "rank": 1, "torsion": []}


# The kept faces (the first face doubled, then the rest) do not generate the
# tripled first face, so the unicyclizer is the faces' echelon lattice basis.
FALLBACK_DOC = json.dumps(
    {
        "vertices": 3,
        "edges": [[0, 0], [0, 1], [0, 2], [1, 1], [2, 2]],
        "faces": [[-2, 0, 0, -2, 2], [2, 0, 0, -3, 3], [1, 0, 0, 1, -1]],
    }
)


def test_fallback_faces_keep_every_basis_free_output(tmp_path, capsys):
    # Pinned outputs from the Smith-basis construction: a different basis of the
    # same lattice changes none of them, only raw signs may flip.
    path = tmp_path / "fallback.json"
    path.write_text(FALLBACK_DOC)
    axioms = [
        {"axiom": 1, "ok": True, "detail": "columns are linearly independent"},
        {"axiom": 2, "ok": True, "detail": "incidence times unicyclizer is zero"},
        {"axiom": 3, "ok": True, "detail": "cycle-space quotient has rank 1"},
    ]
    pinned = [
        (["validate"], {"valid": True, "axioms": axioms, "corank": 3, "k": 1, "tau": 5}),
        (["homology", "--dim", "1"], {"dim": 1, "rank": 1, "torsion": [5]}),
        (["trees"], {"k": 1}),
        (["lambda"], {"lambda": [0, 0, 0, 5, 5], "k": 1, "tau": 5}),
        (["split", "--edge", "2"], {"edge": 2, "with_edge": [0, 0, 0, 5, 5], "without_edge": [0, 0, 0, 0, 0]}),
    ]
    for argv, expected in pinned:
        assert run(capsys, argv[0], str(path), *argv[1:])[:2] == (0, expected)
    code, payload, _ = run(capsys, "lambda", str(path), "--raw-sign")
    assert code == 0 and payload["lambda"] in ([0, 0, 0, 5, 5], [0, 0, 0, -5, -5])


def circulant_unicyclizer(n: int, seed: int) -> tuple[list[list[int]], list[list[int]]]:
    """Edges (i, i+1), (i, i+2) mod n, and the columns of the unicyclizer F M for
    the fundamental cycles F and a random +-9 matrix M of full column rank."""
    edges = [[i, (i + step) % n] for i in range(n) for step in (1, 2)]
    g = Multigraph(n, tuple(map(tuple, edges)))
    cycles = fundamental_basis(g, lexmin_spanning_tree(g))
    m = len(cycles)
    rng = random.Random(seed)
    combo = IntMatrix.zero(m, m - 1)
    while rank(combo) < m - 1:
        combo = IntMatrix(m, m - 1, tuple(rng.randint(-9, 9) for _ in range(m * (m - 1))))
    partial = IntMatrix.from_columns(cycles, rows=len(edges)) @ combo
    return edges, [list(partial.column(j)) for j in range(partial.cols)]


def test_fallback_faces_of_a_large_circulant_finish_under_limits(tmp_path):
    # 100 edges; the first unicyclizer column f is replaced by the faces 2f
    # and 3f, which span the same lattice.
    n = 50
    edges, columns = circulant_unicyclizer(n, 1)
    faces = [[2 * x for x in columns[0]], [3 * x for x in columns[0]], *columns[1:]]
    by_faces, by_unicyclizer = tmp_path / "faces.json", tmp_path / "unicyclizer.json"
    by_faces.write_text(json.dumps({"vertices": n, "edges": edges, "faces": faces}))
    by_unicyclizer.write_text(json.dumps({"vertices": n, "edges": edges, "unicyclizer": columns}))
    for argv in (["validate"], ["homology", "--dim", "1"]):
        done = run_limited(argv[0], str(by_faces), *argv[1:])
        assert done.returncode == 0, done.stderr
        assert done.stdout == run_limited(argv[0], str(by_unicyclizer), *argv[1:]).stdout


def test_homology_of_a_200_edge_circulant_finishes_under_limits(tmp_path):
    # The Smith form runs modulo a maximal minor, so its entries stay bounded.
    n = 100
    edges, columns = circulant_unicyclizer(n, 1)
    path = tmp_path / "circulant.json"
    path.write_text(json.dumps({"vertices": n, "edges": edges, "unicyclizer": columns}))
    done = run_limited("homology", str(path), "--dim", "1")
    assert done.returncode == 0, done.stderr
    group = json.loads(done.stdout)
    assert group["rank"] == 1
    validated = run_limited("validate", str(path))
    assert validated.returncode == 0, validated.stderr
    assert math.prod(group["torsion"]) == json.loads(validated.stdout)["tau"]


def test_output_is_byte_identical_across_hash_seeds(tmp_path):
    # Set and str-keyed dict order changes with PYTHONHASHSEED; stdout must not.
    edges, columns = circulant_unicyclizer(4, 6)
    unicyclizer = tmp_path / "unicyclizer.json"
    unicyclizer.write_text(json.dumps({"vertices": 4, "edges": edges, "unicyclizer": columns}))
    faces = tmp_path / "faces.json"
    faces.write_text(json.dumps({"vertices": 4, "edges": edges, "faces": [[2 * x for x in columns[0]], *columns[1:]]}))
    runs = [
        ("lambda", unicyclizer),
        ("split", unicyclizer, "--edge", "3"),
        ("homology", faces, "--dim", "1"),
        ("verify", unicyclizer, "--all"),
        ("verify", faces, "--all"),
    ]
    for command, path, *options in runs:
        outputs = set()
        for seed in ("0", "1", "2024"):
            done = subprocess.run(
                [sys.executable, "-m", "hx.cli", command, str(path), *options],
                capture_output=True, env=hx_env(PYTHONHASHSEED=seed), timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, (command, outputs)
        if command == "homology":
            assert json.loads(outputs.pop())["torsion"]


def test_homology_of_a_long_path_with_isolated_vertices(tmp_path):
    # 2^10 path edges and 2^10 isolated vertices: a spanning forest answers
    # without the dense (2^11 + 1) x 2^10 incidence matrix.
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"vertices": 2 * MAX_EDGES + 1, "edges": [[i, i + 1] for i in range(MAX_EDGES)]}))
    for dim, rank_ in ((0, MAX_EDGES + 1), (1, 0)):
        done = run_limited("homology", str(path), "--dim", str(dim))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"dim": dim, "rank": rank_, "torsion": []}


def test_bad_basis_tree_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad-tree.json"
    path.write_text('{"vertices":3,"edges":[[0,1],[0,1],[1,2]],"unicyclizer":[],"basis_tree":[0,1]}')
    for argv in (["validate"], ["lambda"], ["homology"], ["split", "--edge", "0"]):
        code, payload, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and payload is None
        assert err == "hx: basis_tree: edge set is not a spanning tree\n"


def test_validate_reduces_the_faces_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "fallback.json"
    path.write_text(FALLBACK_DOC)
    expected = run(capsys, "validate", str(path))
    calls = []
    reduce_faces = winding.face_lattice_basis

    def counted(faces):
        calls.append(faces)
        return reduce_faces(faces)

    monkeypatch.setattr(winding, "face_lattice_basis", counted)
    assert run(capsys, "validate", str(path)) == expected
    assert len(calls) == 1


FUZZ_BASES = (
    json.loads(THETA_DOC),
    json.loads(FALLBACK_DOC),
    {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0], [0, 0]], "unicyclizer": [[1, 1, 1, 0]], "basis_tree": [0, 1]},
)


def _nodes(value, path=()):
    """Every (path, value) in a decoded JSON document, the root included."""
    yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replace(doc, path, new):
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


def malformed_document(rng):
    """Text of a document that every command must refuse as an input error:
    a valid base document with one corruption the parser rejects."""
    doc = json.loads(json.dumps(rng.choice(FUZZ_BASES)))
    kind = rng.randrange(7)
    if kind == 0:  # one node of the wrong JSON type
        path, value = rng.choice(list(_nodes(doc)))
        wrong = (None, True, 1.5, "7", {}) + ((3,) if isinstance(value, (list, dict)) else ([],))
        doc = _replace(doc, path, rng.choice([w for w in wrong if type(w) is not type(value)]))
    elif kind == 1:  # an integer out of its range
        path = rng.choice([p for p, v in _nodes(doc) if type(v) is int])
        bad = {"vertices": (0, -1, MAX_VERTICES + 1), "edges": (-1, doc["vertices"]), "basis_tree": (-1, len(doc["edges"]))}
        doc = _replace(doc, path, rng.choice(bad.get(path[0], (1 << MAX_ENTRY_BITS, -(1 << MAX_ENTRY_BITS)))))
    elif kind == 2:  # an edge pair or a column of the wrong length
        path, value = rng.choice([(p, v) for p, v in _nodes(doc) if len(p) == 2 and p[0] != "basis_tree"])
        _replace(doc, path, value[:-1] if rng.random() < 0.5 else value + [0])
    elif kind == 3:  # a missing, unknown or conflicting key
        choice = rng.randrange(3)
        if choice == 0:
            del doc[rng.choice(("vertices", "edges"))]
        else:
            doc["unknown" if choice == 1 else ("faces" if "unicyclizer" in doc else "unicyclizer")] = []
    elif kind == 4:  # a basis tree that repeats an edge or does not span
        tree = doc.get("basis_tree", [0])
        doc["basis_tree"] = tree + tree[:1] if rng.random() < 0.5 else tree[1:]
    text = json.dumps(doc)
    if kind == 5:  # cut short
        text = text[: rng.randrange(len(text))]
    elif kind == 6:  # trailing data
        text += rng.choice(("x", "{}", "]", "0"))
    return text


def test_malformed_documents_are_input_errors(tmp_path, capsys):
    rng = random.Random(2026)
    path = tmp_path / "fuzz.json"
    for _ in range(250):
        text = malformed_document(rng)
        path.write_text(text)
        for argv in (["validate"], ["lambda"], ["homology"], ["split", "--edge", "0"]):
            code, payload, err = run(capsys, argv[0], str(path), *argv[1:])
            assert (code, payload) == (2, None), (text, argv, err)
            assert err.startswith("hx: ") and "internal error" not in err, (text, argv, err)



def materialized(value):
    """A handler's payload with every generator it streams read into a list."""
    if isinstance(value, GeneratorType):
        return [materialized(record) for record in value]
    if isinstance(value, dict):
        return {key: materialized(item) for key, item in value.items()}
    return value


def streaming_documents() -> dict[str, str]:
    """Theta, a tree (corank 0), C_6 (an empty unicyclizer), a faces document,
    circulants with 8 and 12 edges, and a slice of the exhaustive family."""
    docs = {
        "theta": THETA_DOC,
        "torsion": TORSION_DOC,
        "tree": '{"vertices":3,"edges":[[0,1],[1,2]]}',
        "cycle-6": json.dumps({"vertices": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]}),
        "fallback": FALLBACK_DOC,
    }
    for n in (4, 6):
        edges, columns = circulant_unicyclizer(n, n)
        docs[f"circulant-{2 * n}"] = json.dumps({"vertices": n, "edges": edges, "unicyclizer": columns})
    for i, (g, partial) in enumerate(exhaustive_family(3, 4, 2, per_graph=1, seed=3)):
        edges, columns = [list(e) for e in g.edges], [list(partial.column(j)) for j in range(partial.cols)]
        docs[f"family-{i}"] = json.dumps({"vertices": g.vertex_count, "edges": edges, "unicyclizer": columns})
    return docs


class RecordedStdout:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize(
    "options",
    [["cycletrees"], ["trees", "--list"], ["verify", "--all"], ["verify", "counts"], ["verify", "inner_product", "energy"]],
    ids=" ".join,
)
@pytest.mark.parametrize("chunk", [cli.WRITE_CHUNK, 100])
def test_streamed_output_is_json_dumps_of_the_payload(tmp_path, monkeypatch, options, chunk):
    monkeypatch.setattr(cli, "WRITE_CHUNK", chunk)
    for name, text in streaming_documents().items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        argv = [options[0], str(path), *options[1:]]
        args = cli.build_parser().parse_args(argv)
        stdout = RecordedStdout()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            code = main(argv)
        if code == 2:  # the tree has no unicyclization to verify
            assert name == "tree" and options[:2] != ["verify", "counts"] and stdout.writes == []
            continue
        payload, expected_code = cli._COMMANDS[args.command](parse_document(text), args)
        assert code == expected_code
        assert "".join(stdout.writes) == json.dumps(materialized(payload)) + "\n", name
        # Writes are batched: every one but the last holds at least a chunk.
        assert all(len(w) >= chunk for w in stdout.writes[:-1]), name


PEAK_RSS_SCRIPT = """
import sys
from hx.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def peak_rss_mb(*argv) -> float:
    """Peak resident set (VmHWM) of a child hx process running the command, in MB."""
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=hx_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stderr.split()[-1]) / 1024


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads the peak resident set from /proc")
def test_enumeration_output_on_a_16_edge_circulant_stays_in_bounded_memory(tmp_path):
    # The 7,997 cycletrees are written record by record: the peaks were 3.0 and
    # 5.9 MB above the same command's on theta, against 15.7 and 16.9 MB when
    # the whole output was built before it was printed (Python 3.11, x86-64).
    edges, columns = circulant_unicyclizer(8, 1)
    big, small = tmp_path / "circulant-16.json", tmp_path / "theta.json"
    big.write_text(json.dumps({"vertices": 8, "edges": edges, "unicyclizer": columns}))
    small.write_text(THETA_DOC)
    for options in (["cycletrees"], ["verify", "--all"]):
        growth = peak_rss_mb(options[0], str(big), *options[1:]) - peak_rss_mb(options[0], str(small), *options[1:])
        assert growth < 10, (options, growth)


def test_closed_stdout_is_reported_without_a_traceback(tmp_path):
    # stdout buffered, as it is when Python writes to a pipe by default.
    env = {k: v for k, v in hx_env().items() if k != "PYTHONUNBUFFERED"}
    edges, columns = circulant_unicyclizer(8, 1)
    big, err = tmp_path / "circulant-16.json", tmp_path / "stderr.txt"
    big.write_text(json.dumps({"vertices": 8, "edges": edges, "unicyclizer": columns}))
    # A reader that stops after a few bytes of the 7,997 cycletrees, as `| head -c 100` does.
    with open(err, "w") as stderr, subprocess.Popen(
        [sys.executable, "-m", "hx.cli", "cycletrees", str(big)], stdout=subprocess.PIPE, stderr=stderr, env=env
    ) as child:
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        assert child.wait(timeout=60) == 2
    assert err.read_text() == "hx: [Errno 32] Broken pipe\n"
    # A reader that is gone before the first byte: the short output sits in the buffer until it is flushed.
    small = tmp_path / "theta.json"
    small.write_text(THETA_DOC)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "hx.cli", "lambda", str(small)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "hx: [Errno 32] Broken pipe\n")
