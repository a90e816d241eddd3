import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_star_import_and_dir_list_every_exported_name():
    namespace = {}
    exec("from afk import *", namespace)
    assert set(afk.__all__) <= set(namespace)
    assert set(afk.__all__) | {"__version__"} <= set(dir(afk))


def test_each_export_is_defined_in_the_module_its_table_entry_names():
    for name, module in afk._EXPORTS.items():
        home = importlib.import_module(f"afk.{module}")
        value = getattr(home, name)
        # classes and functions know their module; the INCONCLUSIVE sentinel's class does
        defined_in = value.__module__ if hasattr(value, "__qualname__") else type(value).__module__
        assert defined_in == home.__name__, name
        assert getattr(afk, name) is value, name


def test_the_readme_library_example_runs_on_the_readme_document():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    document = re.search(r"## Input format\n.*?```json\n(.*?)```", readme, re.S).group(1)
    example = re.search(r"## Library\n.*?```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {"text": document})
    # the README's document has Q + Q in every odd degree and is K-stable
    assert out.getvalue().split("\n") == [f"{m} {2 if m % 2 else 0}" for m in range(1, 10)] + ["k-stable", ""]


def test_an_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        afk.no_such_name


# the engine modules a cold call of each command must not load
STARTUP_ARGV = {
    "validate": ([], {"afk.colimit", "afk.truncation", "afk.kstability"}),
    "fm": (["--m", "3"], {"afk.kstability"}),
    "fm-profile": (["--max-m", "5"], {"afk.kstability"}),
    "k0q": ([], {"afk.kstability"}),
    "kstable": ([], {"afk.colimit"}),
    "telescope": (["--min-dim", "3"], {"afk.colimit"}),
    "export-dot": ([], {"afk.colimit", "afk.truncation", "afk.kstability"}),
}

# argvs that still need argparse (help and a usage error), with their exit codes
ARGPARSE_ARGV = {"help": (["--help"], 0), "usage-error": (["fm", "--m", "x"], 1)}

STARTUP_SCRIPT = """
import io, sys
from afk import cli
stdout, sys.stdout = sys.stdout, io.StringIO()
stderr, sys.stderr = sys.stderr, io.StringIO()
try:
    code = cli.main(sys.argv[1:] + ["--input", "-"])
except SystemExit as exc:
    code = exc.code
sys.stdout, sys.stderr = stdout, stderr
print(code)
print(" ".join(sorted(sys.modules)))
"""

TAIL_DOCUMENT = '{"levels":[[1,1],[2,2]],"matrices":[[[1,0],[1,1]]],"tail":{"matrix":[[1,0],[1,1]],"slack":[1,0]}}'


def test_a_cold_command_loads_only_its_own_engine_modules():
    src = str(Path(afk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argvs = {
        **{command: ([command, *flags], 0) for command, (flags, _) in STARTUP_ARGV.items()},
        **ARGPARSE_ARGV,
    }
    children = {
        name: subprocess.Popen(
            [sys.executable, "-c", STARTUP_SCRIPT, *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for name, (argv, _) in argvs.items()
    }
    for name, child in children.items():
        out, err = child.communicate(TAIL_DOCUMENT, timeout=60)
        assert child.returncode == 0, err
        code, modules = out.splitlines()
        loaded = set(modules.split())
        assert code == str(argvs[name][1]), name
        assert "afk.cli" in loaded
        assert "dataclasses" not in loaded, name
        if name in ARGPARSE_ARGV:  # help and usage errors are argparse's own
            assert {"argparse", "gettext"} <= loaded, name
        else:  # a well-formed call is read from the command table
            assert not loaded & {"argparse", "gettext"}, name
            assert not loaded & STARTUP_ARGV[name][1], (name, loaded & STARTUP_ARGV[name][1])
