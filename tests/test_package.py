"""Properties of the package as a whole, checked from its source and a
fresh interpreter."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shiftcert
from shiftcert import agler, cli, lubin, shift2d

from oracles import integral_moment_sum

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
    assert "shiftcert.lubin._moment" in caches
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
    assert sizes[0]["shiftcert.lubin._moment"] < sizes[-1]["shiftcert.lubin._moment"]


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
    # nor does one c's list grow with n: it keeps J_0 .. J_256 and runs the recurrence past them
    c = Fraction(3, 71)
    assert agler.integral_moment(c, 2000) > 0
    assert len(agler._moment_numerators(c.numerator, c.denominator)) == agler._ORDER_CACHE + 1
    assert agler.integral_moment(c, 300) == integral_moment_sum(c, 300)


def test_no_cache_grows_with_the_order_n():
    # the per-n slices and rows are cached by n; fresh orders past what
    # sweep and the certificate reach must not grow any cache without bound
    caches = {
        f"{module.__name__}.{name}": value
        for module in (lubin, agler, cli)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    before = {name: cache.cache_info().currsize for name, cache in caches.items()}
    for n in range(1, 400):
        agler.p_n_closed(Fraction(1, 5), 1, n)
    growing = [
        name
        for name, cache in caches.items()
        if cache.cache_info().maxsize is None and before[name] != cache.cache_info().currsize
    ]
    assert growing == []
    assert agler._slice.cache_info().currsize <= agler._ORDER_CACHE


def test_each_cache_covers_the_cap_that_sizes_it():
    # a window at the depth cap reads weights up to index DEPTH_MAX and piece moments up to DEPTH_MAX + 1
    assert lubin._INDEX_CACHE >= cli.DEPTH_MAX + 2
    # the n-keyed caches hold every n that sweep and the sum's certificate reach
    assert agler._ORDER_CACHE >= max(cli.SWEEP_N_MAX, agler.tail_stopping_index().n_star)


def test_cached_threshold_t1_is_read_only():
    cert = lubin.threshold_t1()
    assert cert is lubin.threshold_t1()
    with pytest.raises(AttributeError):
        cert.ok = False
    with pytest.raises(TypeError):
        cert.witness["m_max"] = 0


def test_all_lists_exactly_the_imported_names():
    # a deleted export that lingers in __all__ breaks `from shiftcert import *`
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(shiftcert.__all__) == len(set(shiftcert.__all__))
    assert set(shiftcert.__all__) == imported
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = "from shiftcert import *; import shiftcert; print(set(shiftcert.__all__) <= set(globals()))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "True"


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


def test_the_tracer_reads_both_caches():
    # bench/run.py --trace reads cache_state(), which needs moment2d and
    # integral_moment to stay lru_caches; load the tracer by path (it imports
    # only sys and time) and call it
    spec = importlib.util.spec_from_file_location("_tracing", SRC.parent.parent / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    lubin.moment2d(1, 1, Fraction(1, 5))
    state = tracing.cache_state()
    assert set(state) == {"moment2d_entries", "integral_moment_misses"}
    assert state["moment2d_entries"] >= 1
    assert isinstance(state["integral_moment_misses"], int)


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
    are not uses.  In ``bench`` only what :func:`_bench_names` finds
    counts.  Docstrings hold no names, so they never count.
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
    used |= _bench_names(bench)
    return sorted(where for name, where in defined.items() if name not in used)


def _bench_names(bench: Path) -> set[str]:
    """The names that ``bench`` uses as ``shiftcert`` names.

    These are the strings of the tracer tables ``SPANS`` and ``COUNTERS``,
    the names imported from ``shiftcert``, and the attributes of a
    ``shiftcert`` module: one bound by an import, a dotted
    ``shiftcert.module`` or a ``sys.modules["shiftcert..."]`` lookup.  A
    bench name that only shares a word with the package does not count.
    """
    names: set[str] = set()
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules: set[str] = set()  # local names bound to shiftcert modules
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                modules.update(b for b, alias in zip(bound, node.names) if alias.name.startswith("shiftcert"))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("shiftcert"):
                modules.update(alias.asname or alias.name for alias in node.names)
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and {getattr(t, "id", None) for t in node.targets} & {"SPANS", "COUNTERS"}:
                strings = (c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
                names.update(v for v in strings if isinstance(v, str))

        def is_module(node) -> bool:
            if isinstance(node, ast.Name):
                return node.id in modules
            if isinstance(node, ast.Attribute):
                return is_module(node.value)
            return (
                isinstance(node, ast.Subscript)
                and ast.unparse(node.value) == "sys.modules"
                and isinstance(node.slice, ast.Constant)
                and str(node.slice.value).startswith("shiftcert")
            )

        names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and is_module(node.value))
    return names


def test_every_function_and_class_is_used():
    # a module-level function, class or constant, or a method, that no other code
    # names is dead: delete it, or move it into the tests if only the tests call it
    root = SRC.parent.parent
    assert _unreferenced(SRC, root / "demos", root / "bench") == []


def test_bench_counts_only_its_shiftcert_names(tmp_path):
    # a tracer-table string, an import from shiftcert and an attribute of a
    # shiftcert module count; a bench class's own method of the same name does not
    (tmp_path / "b.py").write_text(
        "import sys\n"
        "import shiftcert.cli\n"
        "from shiftcert import agler\n"
        "from shiftcert.lubin import family_report\n"
        "SPANS = ((\"agler.certify_sum\", \"shiftcert.agler\", \"certify_sum\"),)\n"
        "class Sample:\n"
        "    def scaled(self):\n"
        "        return self.scaled\n"
        "agler.p_n_bruteforce\n"
        "shiftcert.cli.main\n"
        "sys.modules[\"shiftcert.agler\"].integral_moment\n"
        "other.moment1\n",
        encoding="utf-8",
    )
    names = _bench_names(tmp_path)
    assert {"certify_sum", "family_report", "p_n_bruteforce", "main", "integral_moment"} <= names
    assert not {"scaled", "Sample", "moment1"} & names


DEMOS = sorted((SRC.parent.parent / "demos").glob("*.py"))
DEMO_OUTPUTS = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_cleanly(demo):
    # each demo runs standalone, in a fresh interpreter with src/ on the path,
    # and prints exactly the stdout that tests/golden/regenerate.py pinned
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert b"Traceback" not in result.stdout + result.stderr
    assert result.stdout == (DEMO_OUTPUTS / f"{demo.stem}.txt").read_bytes()
