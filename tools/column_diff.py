"""Compare, column by column, what the runs of ``tools/output_digest.py`` print
and write in two trees.

A byte digest tells identical outputs from different ones, but not how far
apart two statistically equivalent runs lie.  This script runs each
invocation of ``output_digest.INVOCATIONS`` (the list of the tree it sits in)
on the package of either tree, the way ``output_digest.py`` runs it, and
prints one block per invocation: ``identical``, or each output that differs
with its largest relative difference |a - b| / max(|a|, |b|).  A table (a
``.csv`` or ``.dat`` file) gets one figure per column, a JSON file one per
differing leaf, stdout and stderr one over their whitespace-separated
tokens.  Text that differs counts as ``inf``.

    python tools/column_diff.py OLD_TREE NEW_TREE
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "output_digest", Path(__file__).resolve().with_name("output_digest.py"))
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def relative_difference(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two numbers written as text; 0 for equal
    text, inf for text that differs and is not two finite numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf


def _largest(pairs) -> float:
    return max((relative_difference(a, b) for a, b in pairs), default=0.0)


def table_differences(text_a: str, text_b: str) -> dict[str, float]:
    """{column: largest relative difference} of two tables with one header
    line: comma-separated, or whitespace-separated under a ``#`` header."""
    rows_a, rows_b = ([line.split(",") if "," in text.partition("\n")[0] else
                       line.split() for line in text.splitlines()]
                      for text in (text_a, text_b))
    header = [name for name in rows_a[0] if name != "#"]
    if rows_a[0] != rows_b[0] or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return {"<shape>": math.inf}
    return {name: _largest((ra[k], rb[k]) for ra, rb in zip(rows_a[1:], rows_b[1:]))
            for k, name in enumerate(header)}


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, json.dumps(value)


def json_differences(text_a: str, text_b: str) -> dict[str, float]:
    """{leaf path: relative difference} of the leaves of two JSON documents
    that differ; a leaf that only one of them has counts as inf."""
    leaves_a, leaves_b = (dict(_leaves(json.loads(t))) for t in (text_a, text_b))
    diffs = {path: relative_difference(leaves_a.get(path, "<none>"),
                                       leaves_b.get(path, "<none>"))
             for path in {**leaves_a, **leaves_b}}
    return {path: d for path, d in diffs.items() if d}


def differences(name: str, a: bytes, b: bytes) -> dict[str, float]:
    """The figures of one output `name` that differs between the two runs."""
    text_a, text_b = a.decode(), b.decode()
    if name.endswith((".csv", ".dat")):
        return table_differences(text_a, text_b)
    if name.endswith(".json"):
        return json_differences(text_a, text_b)
    tokens_a, tokens_b = text_a.split(), text_b.split()
    if len(tokens_a) != len(tokens_b):
        return {"<tokens>": math.inf}
    return {"<tokens>": _largest(zip(tokens_a, tokens_b))}


def compare(src_a, src_b, invocations) -> list[str]:
    """One block of lines per invocation, as the module docstring describes."""
    lines = []
    for args, inputs in invocations:
        code_a, *outs_a, files_a = output_digest.run(args, inputs, src_a)
        code_b, *outs_b, files_b = output_digest.run(args, inputs, src_b)
        lines.append(f"$ pulselab {' '.join(args)}")
        if code_a != code_b:
            lines.append(f"  exit {code_a} -> {code_b}")
        outputs_a = {"<stdout>": outs_a[0], "<stderr>": outs_a[1], **files_a}
        outputs_b = {"<stdout>": outs_b[0], "<stderr>": outs_b[1], **files_b}
        for name in dict.fromkeys([*outputs_a, *outputs_b]):
            a, b = outputs_a.get(name), outputs_b.get(name)
            if a is None or b is None:
                lines.append(f"  {name} written by one tree only")
            elif a != b:
                figures = differences(name, a, b)
                lines.append(f"  {name}: " + ", ".join(
                    f"{key} {d:.2g}" for key, d in figures.items()))
        if lines[-1].startswith("$ pulselab"):
            lines.append("  identical")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/column_diff.py OLD_TREE NEW_TREE", file=sys.stderr)
        return 2
    src_a, src_b = (Path(tree).resolve() / "src" for tree in argv)
    print("\n".join(compare(src_a, src_b, output_digest.INVOCATIONS)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
