"""Output identity: every CLI command of the golden corpus prints, writes
and exits exactly as recorded in ``tests/golden/expected.json``, and the
witnesses behind that output hold exact values, not text."""

import importlib.util
import json
from collections.abc import Mapping
from pathlib import Path

import pytest

from shiftcert import cli
from shiftcert.certificate import Certificate
from shiftcert.numerics import parse_rational

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

CORPUS = json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))


def test_the_corpus_covers_every_case_and_subcommand():
    assert {name: case["argv"] for name, case in CORPUS.items()} == regenerate.CASES
    assert {argv[0] for argv in regenerate.CASES.values()} == {
        "moments", "fit", "check1d", "check2d", "lubin", "sweep", "epsilon",
    }
    assert len(CORPUS) >= 40


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_output_is_byte_identical(name, tmp_path):
    case = CORPUS[name]
    got = regenerate.run_case(case["argv"], tmp_path)
    assert got == {key: case[key] for key in ("exit", "stdout", "stderr", "files")}


def _textual_rationals(value, path: str, found: list, in_witness: bool = False) -> None:
    """Append to ``found`` the path of every ``str`` in a certificate's
    witness under ``value`` that parses as a rational; words and prose do not."""
    if isinstance(value, Certificate):
        _textual_rationals(value.witness, f"{path}<{value.check}>", found, True)
    elif isinstance(value, Mapping):
        for key, item in value.items():
            _textual_rationals(item, f"{path}.{key}", found, in_witness)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _textual_rationals(item, f"{path}[{i}]", found, in_witness)
    elif in_witness and isinstance(value, str):
        try:
            parse_rational(value)
        except ValueError:
            return
        found.append(f"{path} = {value!r}")


def test_witnesses_reach_to_json_as_exact_values(monkeypatch, tmp_path):
    """Every rational in a witness is a Fraction (or an int) until to_json
    renders it: no witness is built from text."""
    found, payloads = [], []
    original = cli.to_json

    def guarded(value):
        _textual_rationals(value, "", found)
        payloads.append(value)
        return original(value)

    monkeypatch.setattr(cli, "to_json", guarded)
    for name, case in sorted(CORPUS.items()):
        regenerate.run_case(case["argv"], tmp_path / name)
    assert len(payloads) > 30
    assert found == []
