"""Each CLI command loads only the hx modules it runs, and the package resolves its exports lazily."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hx

THETA_DOC = '{"vertices":2,"edges":[[0,1],[0,1],[0,1]],"unicyclizer":[[1,-1,0]]}'


def loaded_hx_modules(code: str) -> set[str]:
    """The hx modules in sys.modules after running the code in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    report = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'hx')))"
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_library_module():
    assert loaded_hx_modules("import hx.cli") == {"hx", "hx.cli", "hx.errors"}


@pytest.mark.parametrize(
    "command, absent",
    [
        ("homology", {"hx.winding", "hx.spanning", "hx.verify"}),
        ("lambda", {"hx.verify"}),
    ],
)
def test_commands_load_only_what_they_run(tmp_path, command, absent):
    path = tmp_path / "theta.json"
    path.write_text(THETA_DOC)
    loaded = loaded_hx_modules(f"from hx.cli import main\nassert main([{command!r}, {str(path)!r}]) == 0")
    assert "hx.documents" in loaded
    assert not loaded & absent


def test_exports_are_the_submodules_objects():
    for name in hx.__all__:
        value = getattr(hx, name)
        assert value.__module__.startswith("hx.")
        assert getattr(sys.modules[value.__module__], name) is value
        assert vars(hx)[name] is value  # resolved once, then cached on the package


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hx.no_such_name
    from hx import verify  # a submodule, not an export: found by the import system

    assert verify is sys.modules["hx.verify"]
