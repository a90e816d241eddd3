import os
import subprocess
import sys
from pathlib import Path

import afk


def test_every_exported_name_resolves():
    assert len(afk.__all__) == len(set(afk.__all__))
    for name in afk.__all__:
        assert getattr(afk, name, None) is not None, name


def test_the_package_imports_only_the_standard_library():
    # a fresh interpreter, so modules the test runner loaded do not hide an import
    script = (
        "import sys, pkgutil\n"
        "before = set(sys.modules)\n"
        "import afk\n"
        "for info in pkgutil.iter_modules(afk.__path__):\n"
        "    __import__('afk.' + info.name)\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(afk.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {name.split(".")[0] for name in proc.stdout.split()}
    assert "afk" in loaded
    assert loaded - {"afk"} <= set(sys.stdlib_module_names)
    submodules = {name for name in proc.stdout.split() if name.startswith("afk.")}
    assert {"afk.cli", "afk.colimit", "afk.kstability", "afk.truncation"} <= submodules
