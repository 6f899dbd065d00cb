"""Each CLI command loads only the hx modules it runs, and the package itself loads none;
no hx module imports a name it never reads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hx

THETA_DOC = '{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[1,-1,0]]}'


def loaded_modules(code: str) -> set[str]:
    """The modules in sys.modules after running the code in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    report = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_library_module():
    loaded = loaded_modules("import hx.cli")
    assert {m for m in loaded if m.split(".")[0] == "hx"} == {"hx", "hx.cli", "hx.errors"}


# No command loads dataclasses, with inspect and ast behind it; only the
# rational winding of a chain that is not a cycle needs fractions, with
# decimal behind it. The winding chain below is a cycle of theta.
NEVER = {"dataclasses"}
NO_FRACTIONS = NEVER | {"fractions", "decimal"}
EXTRA_ARGS = {"winding": ["--chain", "1,-1,0"], "split": ["--edge", "0"]}


@pytest.mark.parametrize(
    "command, absent",
    [
        ("homology", NO_FRACTIONS | {"hx.winding", "hx.spanning", "hx.verify"}),
        ("lambda", NO_FRACTIONS | {"hx.complexes", "hx.verify"}),
        ("validate", NO_FRACTIONS | {"hx.complexes", "hx.verify"}),
        ("trees", NO_FRACTIONS | {"hx.winding", "hx.verify"}),
        ("cycletrees", NO_FRACTIONS | {"hx.verify"}),
        ("split", NO_FRACTIONS | {"hx.complexes", "hx.verify"}),
        ("verify", NO_FRACTIONS),
        ("winding", NO_FRACTIONS | {"hx.verify"}),
    ],
)
def test_commands_load_only_what_they_run(tmp_path, command, absent):
    path = tmp_path / "theta.json"
    path.write_text(THETA_DOC)
    argv = [command, str(path), *EXTRA_ARGS.get(command, [])]
    loaded = loaded_modules(f"from hx.cli import main\nassert main({argv!r}) == 0")
    assert "hx.documents" in loaded
    assert not loaded & absent


def test_winding_of_a_non_cycle_loads_fractions(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(THETA_DOC)
    loaded = loaded_modules(f"from hx.cli import main\nassert main(['winding', {str(path)!r}, '--chain', '0,0,1']) == 0")
    assert "fractions" in loaded
    assert not loaded & (NEVER | {"hx.verify"})


def test_the_package_loads_no_submodule_and_exports_no_library_name():
    # Library names are imported from their submodules; the package holds no table of them.
    code = "import hx\nassert not hasattr(hx, 'new_unicyclization'), dir(hx)"
    assert {m for m in loaded_modules(code) if m.split(".")[0] == "hx"} == {"hx"}


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hx.no_such_name
    from hx import verify  # a submodule, not an export: found by the import system

    assert verify is sys.modules["hx.verify"]


def _annotation_names(node: ast.AST):
    """Names read by an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_no_module_imports_a_name_it_never_reads():
    # Annotations count as reads, also under TYPE_CHECKING and from __future__ import annotations.
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "hx").glob("*.py"))
    assert paths
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                read |= _annotation_names(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
                read |= _annotation_names(node.returns)
            elif isinstance(node, ast.AnnAssign):
                read |= _annotation_names(node.annotation)
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert not unused
