import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sidlattice


def test_every_exported_name_resolves_once():
    names = sidlattice.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(sidlattice, name)] == []


def test_every_name_a_module_imports_is_read_in_it():
    """An import that nothing reads is dead code. __init__ is exempt: it imports to re-export."""
    unread = []
    for path in sorted(Path(sidlattice.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unread == []


def test_the_cli_import_loads_the_standard_library_and_numpy_alone():
    """The benchmark's setup_s times `import sidlattice.cli` in a fresh process, so a
    heavy import there (scipy, a test dependency) would cost every run."""
    probe = ("import json, sys; before = set(sys.modules); import sidlattice.cli; print("
             "json.dumps(sorted({name.split('.')[0] for name in set(sys.modules) - before})))")
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(sidlattice.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    loaded = json.loads(proc.stdout)
    assert "sidlattice" in loaded and "numpy" in loaded
    assert [name for name in loaded if name not in sys.stdlib_module_names
            and name not in ("numpy", "sidlattice")] == []
