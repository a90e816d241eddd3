import ast
import contextlib
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import afk

ROOT = Path(__file__).resolve().parents[1]


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
        assert value.__module__ == home.__name__, name
        assert getattr(afk, name) is value, name


def _readme_block(section, language):
    """The first `language` code block under the README's `## section` heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(rf"## {section}\n.*?```{language}\n(.*?)```", readme, re.S).group(1)


def test_the_readme_library_example_runs_on_the_readme_document():
    document = _readme_block("Input format", "json")
    example = _readme_block("Library", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {"text": document})
    # the README's document has Q + Q in every odd degree and is K-stable; its first level with no
    # summand below 4 is (4, 7), one tail step past the prefix
    assert out.getvalue().split("\n") == [f"{m} {2 if m % 2 else 0}" for m in range(1, 10)] + ["k-stable", "(4, 7)", ""]


AFK_MODULES = {"afk"} | {f"afk.{p.stem}" for p in (ROOT / "src" / "afk").glob("*.py") if p.stem != "__init__"}


def _afk_references(source):
    """The names `source` reads from afk.

    A name counts when it is imported from `afk` or an `afk.<module>`
    (relative imports inside the package included), or read as an
    attribute of an afk module, as in `_linalg.rank` or `afk.cli.fm_profile`.
    """
    tree = ast.parse(source)
    modules, names = {}, set()  # local alias -> afk module it names; names read from afk
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in AFK_MODULES:
                    modules[alias.asname or "afk"] = alias.name if alias.asname else "afk"
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("afk", node.module))) if node.level else node.module
            if base in AFK_MODULES:
                for alias in node.names:
                    if f"{base}.{alias.name}" in AFK_MODULES:
                        modules[alias.asname or alias.name] = f"{base}.{alias.name}"
                    else:
                        names.add(alias.name)

    def module_of(expr):
        """The afk module `expr` names, or None."""
        if isinstance(expr, ast.Name):
            return modules.get(expr.id)
        if isinstance(expr, ast.Attribute) and module_of(expr.value):
            dotted = f"{module_of(expr.value)}.{expr.attr}"
            return dotted if dotted in AFK_MODULES else None
        return None

    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and module_of(node.value)}
    return names


def _bound_in(fn):
    """Every name function `fn` binds: its parameters, assignment targets, imports and nested definitions."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node is not fn:
            names.add(node.name)
    return names


def _own_reads(source):
    """The module-level names `source` reads in its own code.

    A read is a loaded name that no enclosing function binds (so a local
    `d` or `rank` is not the module's `d` or `rank`); annotations are left
    out, since they only name a type.
    """
    reads = set()

    def visit(node, shadowed):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in shadowed:
                reads.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # decorators and defaults run in the enclosing scope, the body in the function's own
            for expr in [*getattr(node, "decorator_list", ()), *node.args.defaults, *node.args.kw_defaults]:
                visit(expr, shadowed)
            for stmt in node.body if isinstance(node.body, list) else [node.body]:
                visit(stmt, shadowed | _bound_in(node))
        else:
            for field, value in ast.iter_fields(node):
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST) and field not in ("annotation", "returns"):
                        visit(child, shadowed)

    visit(ast.parse(source), frozenset())
    return reads


def test_every_export_has_a_caller_outside_the_tests():
    # an exported name is read from afk by another engine module, the benchmark or the README's
    # library example, or used by the code of the module that defines it
    engine = {f"afk.{p.stem}": p.read_text(encoding="utf-8") for p in (ROOT / "src" / "afk").glob("*.py")}
    del engine["afk.__init__"]
    sources = engine | {str(p): p.read_text(encoding="utf-8") for p in (ROOT / "bench").glob("*.py")}
    sources["README.md"] = _readme_block("Library", "python")
    readers = {where: _afk_references(text) for where, text in sources.items()}
    own = {module: _own_reads(text) for module, text in engine.items()}
    unread = [
        name
        for name, module in afk._EXPORTS.items()
        if name not in own[f"afk.{module}"]
        and not any(name in names for where, names in readers.items() if where != f"afk.{module}")
    ]
    assert unread == []


def test_an_own_read_is_a_use_of_the_module_binding():
    source = """
def rank(m): return m
def d(n): return n
class Telescoped: pass
def unused(m): pass
def caller(d, m: Telescoped) -> Telescoped:
    rank = 3
    return d + rank + (lambda unused: unused)(m)
CONST = d(1)
"""
    assert _own_reads(source) & {"rank", "d", "Telescoped", "unused"} == {"d"}


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


def test_a_json_validate_call_loads_no_openssl_where_a_builtin_sha256_exists():
    # `io.input_digest` takes CPython's own SHA-256 (`_sha2` on 3.12 on, `_sha256` before): `hashlib` would
    # load and probe OpenSSL's `_hashlib` in every cold call
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    src = str(Path(afk.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, "validate", "--format", "json"],
        input=TAIL_DOCUMENT, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    code, modules = child.stdout.splitlines()
    assert code == "0"
    assert not set(modules.split()) & {"hashlib", "_hashlib"}
