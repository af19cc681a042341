"""The README's examples run as written, and the code it names exists."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from adkit.catalog import CATALOG
from adkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
MODULES = sorted(path.stem for path in (ROOT / "src" / "adkit").glob("[a-z]*.py"))


def test_the_python_examples_run():
    # The library example, then the sigmoid, which registers itself.
    sources = [body for lang, body in BLOCKS if lang == "python"]
    assert len(sources) == 2
    saved = dict(CATALOG)
    try:
        for source in sources:
            exec(compile(source, "README.md", "exec"), {})
        assert "sigmoid" in CATALOG
    finally:
        CATALOG.clear()
        CATALOG.update(saved)


def test_every_cli_line_exits_0(tmp_path, monkeypatch):
    # `bench --csv counts.csv` writes to the working directory.
    monkeypatch.chdir(tmp_path)
    lines = [line for lang, body in BLOCKS if lang == "sh"
             for line in body.splitlines() if line.startswith("adkit ")]
    assert len(lines) == 7
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    assert (tmp_path / "counts.csv").exists()


@pytest.mark.parametrize("name", sorted(set(re.findall(
    rf"`(?:adkit\.)?((?:{'|'.join(MODULES)})\.[A-Za-z_]\w*)`", README))))
def test_every_module_attribute_it_names_exists(name):
    module, attr = name.split(".")
    assert hasattr(importlib.import_module(f"adkit.{module}"), attr), name
