"""The package's only runtime dependency is NumPy (``pyproject.toml``), the
eigensolver loads no random-number module, and its public names all
exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

import kgstab

_REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def _loaded_modules(code: str) -> set:
    """Modules loaded by a fresh interpreter that runs ``code``."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(kgstab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", f"{code}\n{_REPORT}"],
                         capture_output=True, text=True, check=True,
                         env=env).stdout
    return set(json.loads(out.splitlines()[-1]))


def _top_level_modules(imports: str) -> set:
    """Top-level modules loaded by a fresh interpreter that runs
    ``imports``, outside the standard library."""
    return ({name.partition(".")[0] for name in _loaded_modules(imports)}
            - set(sys.stdlib_module_names))


def test_import_loads_no_third_party_module_but_numpy():
    # ``site`` may load modules of its own (setuptools' _distutils_hack,
    # certifi), so the baseline is a bare interpreter
    bare = _top_level_modules("pass")
    loaded = _top_level_modules("import kgstab, kgstab.cli")
    assert loaded - bare == {"kgstab", "numpy"}


def test_spectrum_loads_no_random_generator():
    # the eigensolver's start vectors come from its own counter-based
    # generator: neither numpy.random nor the secrets module it imports
    loaded = _loaded_modules(
        "from kgstab import ModelParams, cli, spectral_report\n"
        "spectral_report(ModelParams(1, 1, 1), 0.9, 0.2)\n"
        "cli.main(['spectrum', '--a', '1', '--b', '1', '--m', '1',"
        " '--omega', '0.9', '--h', '0.2', '--json'])")
    assert "kgstab.spectrum" in loaded
    assert not {"numpy.random", "secrets"} & loaded


def test_every_public_name_resolves():
    missing = [name for name in kgstab.__all__ if not hasattr(kgstab, name)]
    assert missing == []
