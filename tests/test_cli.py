import json

import pytest

from hx import cli
from hx.cli import main
from hx.errors import InternalError

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
    path = tmp_path / "tree.json"
    path.write_text('{"vertices":3,"edges":[[0,1],[1,2]]}')
    code, payload, _ = run(capsys, "cycletrees", str(path))
    assert code == 0
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


def test_missing_file(capsys):
    code, _, err = run(capsys, "lambda", "/nonexistent/path.json")
    assert code == 2 and err


def test_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices":2')
    code, _, err = run(capsys, "lambda", str(path))
    assert code == 2 and "line" in err


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


def test_enumeration_cap_checked_before_build(tmp_path, capsys):
    # 20 edges, and the unicyclizer column is not a cycle (axiom 2 fails).
    edges = [[i, (i + d) % 10] for i in range(10) for d in (1, 2)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vertices": 10, "edges": edges, "unicyclizer": [[1] + [0] * 19]}))
    for argv in (["cycletrees"], ["split", "--edge", "0"], ["verify", "harmonicity"]):
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert "enumeration cap" in err and "axiom" not in err


@pytest.mark.parametrize("failure", [InternalError("Gram determinant 4 != tree count 3"), AssertionError("bug")])
def test_internal_error_exit_code(theta_file, capsys, monkeypatch, failure):
    def broken(a):
        raise failure

    monkeypatch.setattr(cli, "standard_harmonic_cycle", broken)
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
