"""`cli` only parses, calls and prints.

`harness` formats and writes every run file, and `pulses.save_catalog` the
designed pulse, so ``src/pulselab/cli.py`` reads no underscore name of
another pulselab module, calls no ``json.dump`` or ``json.dumps``, opens no
file for writing and creates no directory.  Reading the ``--config`` file
stays.
"""

import ast
from pathlib import Path

import pulselab

CLI = Path(pulselab.__file__).with_name("cli.py")

#: calls that write a file without opening it, or make a directory
WRITING_CALLS = {"write_text", "write_bytes", "makedirs", "mkdir"}


def _offences(source: str) -> list[str]:
    tree = ast.parse(source)
    modules = set()   # local names bound to pulselab modules
    offences = []     # (line, what)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "pulselab"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    offences.append((node.lineno, f"imports {alias.name}"))
                if node.module in (None, "pulselab"):   # from . import harness
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            offences += [(node.lineno, f"imports json.{a.name}") for a in node.names
                         if a.name in ("dump", "dumps")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner, attr = node.value.id, node.attr
            if owner in modules and attr.startswith("_"):
                offences.append((node.lineno, f"reads {owner}.{attr}"))
            if owner == "json" and attr in ("dump", "dumps"):
                offences.append((node.lineno, f"calls json.{attr}"))
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in WRITING_CALLS:
            offences.append((node.lineno, f"calls {name}"))
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
                offences.append((node.lineno, "opens a file for writing"))
    return [f"line {line}: {what}" for line, what in sorted(offences)]


def test_cli_formats_and_writes_no_file():
    assert _offences(CLI.read_text(encoding="utf-8")) == []


def test_the_check_sees_each_offence():
    source = '''
import json
from pulselab import harness as h
from .pulses import _require_first_order
from json import dumps
h._draws(1)
json.dumps({})
open(path, "w")
open(path, mode="a")
open(path, mode)
os.makedirs(out)
Path(path).write_text(text)
with open(config, "r", encoding="utf-8") as fh:
    json.load(fh)
'''
    assert _offences(source) == [
        "line 4: imports _require_first_order", "line 5: imports json.dumps",
        "line 6: reads h._draws", "line 7: calls json.dumps",
        "line 8: opens a file for writing", "line 9: opens a file for writing",
        "line 10: opens a file for writing", "line 11: calls makedirs",
        "line 12: calls write_text"]
