"""The package's only runtime dependency is NumPy (``pyproject.toml``), and
its public names all exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

import kgstab

_REPORT = ("import json, sys; print(json.dumps(sorted("
           "{name.partition('.')[0] for name in sys.modules})))")


def _top_level_modules(imports: str) -> set:
    """Top-level modules loaded by a fresh interpreter that runs
    ``imports``, outside the standard library."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(kgstab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", f"{imports}\n{_REPORT}"],
                         capture_output=True, text=True, check=True,
                         env=env).stdout
    return set(json.loads(out)) - set(sys.stdlib_module_names)


def test_import_loads_no_third_party_module_but_numpy():
    # ``site`` may load modules of its own (setuptools' _distutils_hack,
    # certifi), so the baseline is a bare interpreter
    bare = _top_level_modules("pass")
    loaded = _top_level_modules("import kgstab, kgstab.cli")
    assert loaded - bare == {"kgstab", "numpy"}


def test_every_public_name_resolves():
    missing = [name for name in kgstab.__all__ if not hasattr(kgstab, name)]
    assert missing == []
