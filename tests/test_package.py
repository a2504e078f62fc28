"""Properties of the package as a whole, checked from its source and a
fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import shiftcert

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


def test_import_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = "import sys, shiftcert, shiftcert.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "False"
