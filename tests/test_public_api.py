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
