"""Properties of the package as a whole, checked from its source and a
fresh interpreter."""

import ast
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shiftcert
from shiftcert import agler, cli, lubin, shift2d

SRC = Path(shiftcert.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips asserts; cross-checks that guard a certificate raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_FLOAT_MATH = {"cos", "sin", "pi", "sqrt", "fsum", "exp", "log"}


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{node.lineno}: name float")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in _FLOAT_MATH
        ):
            found.append(f"{node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno}: from math import {a.name}" for a in node.names if a.name in _FLOAT_MATH]
    return found


def test_no_float_in_the_package():
    # every verdict is exact; a float would bring a tolerance back
    found = [
        f"{path.name}:{use}"
        for path in sorted(SRC.glob("*.py"))
        for use in _float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_no_sampling_in_the_package():
    # every verdict is a certificate: a check that samples (random paths, random
    # points) passes on what it happened to draw, so no module may import random
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "random" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random"
    ]
    assert found == []


def test_no_indented_json_dumps():
    # every indented payload goes through certificate.to_json; json.dumps with
    # an indent would be a second emission path, on the slow pure-Python encoder
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert found == []


def test_import_does_not_load_numpy():
    # dataclasses and inspect are measured as what the import adds, so a
    # site that preloads them does not fail the test
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = (
        "import sys; before = set(sys.modules); import shiftcert, shiftcert.cli; "
        "print('numpy' in sys.modules, sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "False []"


def test_no_cache_grows_with_the_parameter():
    # x-free results are cached once per process; nothing keyed by x may
    # grow without bound across verdict sheets at fresh parameters
    caches = {
        f"{module.__name__}.{name}": value
        for module in (lubin, agler, cli)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    assert "shiftcert.cli.build_parser" in caches
    sizes = []
    for j in range(30):
        x = Fraction(3 * j + 1, 61)  # 1/61 .. 88/61, every regime of the headline table
        # lubin certify runs lubin.family_report and agler.certify_sum
        cli.main(["lubin", "certify", "--x", str(x), "--out", os.devnull])
        sizes.append({name: cache.cache_info().currsize for name, cache in caches.items()})
    growing = [
        name
        for name, cache in caches.items()
        if cache.cache_info().maxsize is None and sizes[1][name] != sizes[-1][name]
    ]
    assert growing == []


def test_no_cache_grows_with_the_window_or_path_depth():
    # check2d reaches the index-keyed weight caches with its window and the
    # --restrict base point's depth; each of them must be bounded
    caches = {
        f"{module.__name__}.{name}": value
        for module in (lubin, agler, cli, shift2d)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    assert "shiftcert.lubin._b_moment_core" in caches
    sizes = []
    for side, depth in ((4, 40), (8, 150), (12, 400), (16, 900)):
        for base in ("0,0", "1,1"):
            cli.main(
                ["check2d", "--x", "1/5", "--window", f"{side}x{side}", "--restrict", base,
                 "--hyponormal", "--out", os.devnull]
            )
            for deep in (f"0,{depth}", f"{depth},0"):
                cli.main(["check2d", "--x", "1/5", "--window", "2x2", "--restrict", deep, "--out", os.devnull])
        sizes.append({name: cache.cache_info().currsize for name, cache in caches.items()})
    growing = [
        name
        for name, cache in caches.items()
        if cache.cache_info().maxsize is None and sizes[0][name] != sizes[-1][name]
    ]
    assert growing == []
    assert sizes[0]["shiftcert.lubin._b_moment_core"] < sizes[-1]["shiftcert.lubin._b_moment_core"]


def test_no_cache_grows_with_the_integral_moment_argument():
    # integral_moment keeps a numerator list per c; neither it nor the
    # (c, n)-keyed values may grow without bound across fresh c
    caches = {
        f"{module.__name__}.{name}": value
        for module in (lubin, agler, cli)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    assert {"shiftcert.agler.integral_moment", "shiftcert.agler._moment_numerators"} <= set(caches)
    before = {name: cache.cache_info().currsize for name, cache in caches.items()}
    for j in range(50):
        agler.integral_moment(Fraction(j + 1, 53), 60)
    growing = [
        name
        for name, cache in caches.items()
        if cache.cache_info().maxsize is None and before[name] != cache.cache_info().currsize
    ]
    assert growing == []
    assert agler._moment_numerators.cache_info().currsize <= agler._NUMERATOR_CACHE


def test_cached_threshold_t1_is_read_only():
    cert = lubin.threshold_t1()
    assert cert is lubin.threshold_t1()
    with pytest.raises(AttributeError):
        cert.ok = False
    with pytest.raises(TypeError):
        cert.witness["m_max"] = 0


def test_traced_names_resolve():
    # the benchmark's tracer patches these names by lookup; read its tables
    # without importing it, so a deleted or renamed function fails here
    tracing = SRC.parent.parent / "bench" / "tracing.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTERS")
    }
    assert set(tables) == {"SPANS", "COUNTERS"}
    missing = [
        f"{module}.{function}"
        for entries in tables.values()
        for _, module, function in entries
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []


def _definitions(module: ast.Module):
    """The top-level statements of a module, then the methods of its classes other than dunders."""
    for statement in module.body:
        yield statement
        if isinstance(statement, ast.ClassDef):
            for item in statement.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                    yield item


def _unreferenced(src: Path, demos: Path, bench: Path) -> list[str]:
    """Module-level functions, classes and constants, and class methods, of ``src`` that nothing else names.

    A constant is a name bound by a top-level assignment; dunder methods,
    which Python calls itself, are left out.  A reference is an AST name or
    attribute in ``src`` or ``demos``, outside the definition itself (so
    recursion does not count) and outside ``__init__.py``, whose re-exports
    are not uses.  The benchmark's tracer names functions as strings, so
    any word-bounded mention in ``bench`` counts too.  Docstrings hold no
    names, so they never count.
    """
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(src.glob("*.py")) + sorted(demos.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for statement in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            own: set[str] = set()
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {statement.name}
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                own = {
                    node.id
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                }
            if path.parent == src:
                defined.update((name, f"{path.name}:{name}") for name in own)
            for node in ast.walk(statement):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name not in own:
                    used.add(name)
    bench_text = "\n".join(path.read_text(encoding="utf-8") for path in sorted(bench.glob("*.py")))
    return sorted(
        where
        for name, where in defined.items()
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", bench_text)
    )


def test_every_function_and_class_is_used():
    # a module-level function, class or constant, or a method, that no other code
    # names is dead: delete it, or move it into the tests if only the tests call it
    root = SRC.parent.parent
    assert _unreferenced(SRC, root / "demos", root / "bench") == []


DEMOS = sorted((SRC.parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_cleanly(demo):
    # each demo runs standalone, in a fresh interpreter with src/ on the path
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
