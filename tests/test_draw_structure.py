"""The noise kind is decided inside `noise`.

`NoiseSampler.sample_block` and `NoiseSampler.finish_rows` hold the two
kinds' branches, under one draw contract, so the harness draws and evolves a
cell's noise without knowing which model made it: ``harness._draws``,
``_run_cell`` and ``noise_statistics`` read no ``.kind``, no ``EXPONENTIAL``
or ``GAUSSIAN`` and no kind string.  ``DEFAULT_FIT_WINDOWS`` and
``ScalingExperimentConfig.window`` pick a fit window by kind, and may.
"""

import ast
from pathlib import Path

import pulselab

HARNESS = Path(pulselab.__file__).with_name("harness.py")

#: harness functions that must not branch on the noise kind
KIND_BLIND = ("_draws", "_run_cell", "noise_statistics")

#: names and strings that say which kind a sampler draws
KIND_NAMES = {"kind", "EXPONENTIAL", "GAUSSIAN"}
KIND_STRINGS = {"exponential", "gaussian"}


def _kind_reads(source: str) -> tuple[set[str], list[str]]:
    """The `KIND_BLIND` functions defined in `source`, and each kind read in them."""
    found, reads = set(), []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in KIND_BLIND):
            continue
        found.add(fn.name)
        for node in ast.walk(fn):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else None)
            if name in KIND_NAMES:
                reads.append((node.lineno, f"{fn.name} reads {name}"))
            if isinstance(node, ast.Constant) and node.value in KIND_STRINGS:
                reads.append((node.lineno, f"{fn.name} reads {node.value!r}"))
    return found, [f"line {line}: {what}" for line, what in sorted(reads)]


def test_the_draw_loop_and_cell_runner_read_no_kind():
    found, reads = _kind_reads(HARNESS.read_text(encoding="utf-8"))
    assert found == set(KIND_BLIND)
    assert reads == []


def test_the_check_sees_each_kind_read():
    source = '''
def _draws(sampler):
    markov = sampler.model.kind == EXPONENTIAL

    def tiles():
        return noise.GAUSSIAN

def _run_cell(model):
    if model.kind == "gaussian":
        pass

def noise_statistics(sampler):
    return sampler.model.eta0

def window(model):
    return DEFAULT_FIT_WINDOWS[model.kind]
'''
    found, reads = _kind_reads(source)
    assert found == set(KIND_BLIND)
    assert reads == ["line 3: _draws reads EXPONENTIAL", "line 3: _draws reads kind",
                     "line 6: _draws reads GAUSSIAN", "line 9: _run_cell reads 'gaussian'",
                     "line 9: _run_cell reads kind"]
