"""Source hygiene checks that need no linter: every import is used, every
parameter default of the package is overridden by some call, every
``raise`` names a class of the failure taxonomy, and no module holds a
cache that outlives the calls that fill it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from cgflow import errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cgflow"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    source = "import os\nfrom json import dumps, loads\nfrom a import b as c\nprint(loads, os.sep)\n"
    assert unused_imports(source) == ["c (line 3)", "dumps (line 2)"]


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None, int]]:
    """(callee name, parameter, positional index at a call site or None for
    keyword-only, line) of every parameter that has a default.  A method's
    index skips ``self``/``cls``; ``__init__`` is called by its class name."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0
                name = cls if child.name == "__init__" else child.name
                positional = child.args.posonlyargs + child.args.args
                first = len(positional) - len(child.args.defaults)
                for i in range(first, len(positional)):
                    out.append((name, positional[i].arg, i - skip, child.lineno))
                for arg, default in zip(child.args.kwonlyargs, child.args.kw_defaults):
                    if default is not None:
                        out.append((name, arg.arg, None, child.lineno))
                visit(child, None)

    visit(tree, None)
    return out


def dead_parameters(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the functions in ``sources`` (module name ->
    text) that no call in ``callers`` passes, by keyword or by position.
    Calls match on the callee's name, the last part of a dotted call."""
    keywords: set[tuple[str, str]] = set()
    positional: dict[str, int] = {}
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            keywords.update((callee, kw.arg) for kw in node.keywords if kw.arg)
            n = len(node.args) if not any(isinstance(a, ast.Starred) for a in node.args) else 1 << 30
            positional[callee] = max(positional.get(callee, 0), n)
    dead = []
    for module, text in sources.items():
        for callee, param, index, line in defaulted_parameters(ast.parse(text)):
            by_position = index is not None and positional.get(callee, 0) > index
            if (callee, param) not in keywords and not by_position:
                dead.append(f"{module}:{line} {callee}({param})")
    return sorted(dead)


def test_no_dead_parameters():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    callers = [
        p.read_text(encoding="utf-8")
        for d in (SRC, ROOT / "tests", ROOT / "perfbench")
        for p in sorted(d.glob("*.py"))
    ]
    assert dead_parameters(sources, callers) == []


def test_detects_dead_parameter():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "class K:\n"
        "    def __init__(self, y=0):\n        pass\n"
        "    def m(self, x=0, z=1):\n        pass\n"
    )
    calls = "f(0, 1)\nf(0, e=5)\nK().m(1)\n"
    assert dead_parameters({"mod.py": source}, [source, calls]) == [
        "mod.py:1 f(c)",
        "mod.py:1 f(d)",
        "mod.py:4 K(y)",
        "mod.py:6 m(z)",
    ]


# the classes of cgflow.errors, and the one builtin the CLI maps to exit 3
RAISABLE = {name for name, v in vars(errors).items() if isinstance(v, type)} | {"FileNotFoundError"}


def foreign_raises(source: str) -> list[str]:
    """``raise`` statements whose class is not in ``RAISABLE``; a bare
    re-raise names no class and is reported too."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", None) or getattr(exc, "attr", None) or "bare raise"
            if name not in RAISABLE:
                out.append(f"{name} (line {node.lineno})")
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_raises_name_error_classes(path):
    assert foreign_raises(path.read_text(encoding="utf-8")) == []


def test_detects_foreign_raise():
    source = (
        "def f(x):\n"
        "    if x:\n        raise ConfigError('a')\n"
        "    if x > 1:\n        raise errors.ArtifactError\n"
        "    try:\n        raise KeyError(x)\n"
        "    except KeyError:\n        raise\n"
        "    raise StateFlowError('b')\n"
    )
    assert foreign_raises(source) == ["KeyError (line 7)", "StateFlowError (line 10)", "bare raise (line 9)"]


def module_level_empty_containers(source: str) -> list[str]:
    """Module-level names bound to an empty ``{}``, ``[]``, ``set()``,
    ``dict()`` or ``list()``: a cache that outlives every call, which leaks
    when one process runs many pipelines (perfbench runs every stage in one
    process).  Per-run memos belong to a caller or to the object they
    describe, like ``SynthonLibrary.static_features``."""

    def empty(value) -> bool:
        if isinstance(value, ast.Dict):
            return not value.keys
        if isinstance(value, ast.List):
            return not value.elts
        return (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", None) in {"set", "dict", "list"}
            and not value.args
            and not value.keywords
        )

    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and empty(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(f"{ast.unparse(t)} (line {node.lineno})" for t in targets)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_caches(path):
    assert module_level_empty_containers(path.read_text(encoding="utf-8")) == []


def test_detects_module_level_cache():
    source = (
        "A = {}\nB: list = []\nC = set()\nD = dict()\nE = list()\n"
        "F = {1: 2}\nG = [0]\nH = dict(a=1)\nI = set([1])\n"
        "def f():\n    local = {}\n    return local\n"
        "class K:\n    cache = {}\n"
    )
    assert module_level_empty_containers(source) == [
        "A (line 1)", "B (line 2)", "C (line 3)", "D (line 4)", "E (line 5)",
    ]


# the modules that turn bytes into text; the states' text format
# (compstate.encode_states / decode_states) is the package's only use
TEXT_CODECS = {"base64", "binascii"}


def codec_imports(source: str) -> list[str]:
    """Imports of a module in ``TEXT_CODECS``, or of a name from one."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module.split(".")[0]]
        else:
            continue
        out.extend(f"{name} (line {node.lineno})" for name in names if name in TEXT_CODECS)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_state_text_encoding_only_in_compstate(path):
    found = codec_imports(path.read_text(encoding="utf-8"))
    if path.name == "compstate.py":
        assert found
    else:
        assert found == []


def test_detects_codec_import():
    source = "import base64\nfrom binascii import a2b_base64\nimport json, binascii as b\nimport codecs\n"
    assert codec_imports(source) == ["base64 (line 1)", "binascii (line 2)", "binascii (line 3)"]


# an object's states and self-conditioning are one (P, 2) matrix each;
# compstate.component_states is the one per-component view
STATE_FIELDS = {"states", "self_cond"}


def state_subscripts(source: str) -> list[str]:
    """Subscripts of a ``.states`` or ``.self_cond`` attribute."""
    return sorted(
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in STATE_FIELDS
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "compstate.py"), ids=lambda p: p.name
)
def test_state_rows_sliced_only_in_compstate(path):
    assert state_subscripts(path.read_text(encoding="utf-8")) == []


def test_detects_state_subscript():
    source = (
        "a = x.states[0]\nb = y.self_cond[1:3]\nc = x.states.shape[0]\nd = states[0]\n"
        "e = component_states(x, 0, library)\nf = x.states\n"
    )
    assert state_subscripts(source) == ["x.states[0] (line 1)", "y.self_cond[1:3] (line 2)"]
