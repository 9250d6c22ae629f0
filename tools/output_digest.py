"""Hash what a fixed list of ``python -m pulselab`` runs print and write.

Each invocation runs the package of the tree this script sits in (its
``src`` directory leads PYTHONPATH), with OPENBLAS_NUM_THREADS=1 and
PULSELAB_SEED unset, in a fresh working directory where ``--out`` is the
relative ``out``, so no output names a temporary path.  For each invocation
it prints the command, the exit code and the sha256 of stdout, stderr and
every file the run left behind.  Two trees compare with ``diff``:

    python tools/output_digest.py > a.txt     # in one tree
    python tools/output_digest.py > b.txt     # in the other
    diff a.txt b.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_EXP = ["--model", "exponential", "--gamma", "0.01"]

#: (arguments, {input file: text}); the input files are written into the
#: working directory first and are not hashed
INVOCATIONS = [
    (["scaling", *_EXP, "--pulses", "rect,corpse", "--inv-v-min", "1e-3",
      "--inv-v-max", "3e-2", "--points", "4", "--realizations", "800", "--steps", "64",
      "--seed", "5", "--out", "out"], {}),
    (["scaling", "--model", "gaussian", "--gamma", "0.1", "--pulses", "rect,sym2nd",
      "--points", "4", "--realizations", "9000", "--steps", "32", "--workers", "2",
      "--seed", "2", "--out", "out"], {}),
    (["--config", "run.json", "scaling", "--seed", "3", "--out", "out"],
     {"run.json": json.dumps({"model": "exponential", "gamma": 0.1, "pulses": ["corpse"],
                              "inv_v": [1e-3, 3e-3, 1e-2], "realizations": 500,
                              "steps": 32})}),
    # the two fit failures: overflowed cells, and cells whose stderr is too large
    (["scaling", "--model", "exponential", "--eta0", "1e308", "--inv-v", "10,100,1000",
      "--pulses", "rect,corpse", "--steps", "8", "--realizations", "50",
      "--fit-min", "1e-4", "--fit-max", "1e4", "--out", "out"], {}),
    (["scaling", *_EXP, "--pulses", "rect,corpse", "--inv-v", "1e-3,3e-3,1e-2",
      "--realizations", "2", "--steps", "16", "--out", "out"], {}),
    # two full chunks and a 37-realization remainder evolved with them, a
    # nonzero offset over the row tiles' recursion, and a step count that is
    # no multiple of the tile height
    (["scaling", *_EXP, "--eta0", "0.3", "--pulses", "rect,corpse", "--inv-v-max", "3e-2",
      "--points", "3",
      "--realizations", "8229", "--steps", "100", "--workers", "2", "--seed", "4",
      "--out", "out"], {}),
    # the Gaussian kind one step past a tile: its last row joins the tile
    # before it, as a one-row product would round differently
    (["scaling", "--model", "gaussian", "--gamma", "0.1", "--pulses", "rect,sym2nd",
      "--points", "3", "--realizations", "4133", "--steps", "33", "--workers", "2",
      "--seed", "6", "--out", "out"], {}),
    (["prefactor", *_EXP, "--realizations", "2000", "--steps", "64", "--seed", "1",
      "--out", "out"], {}),
    (["nogo", "--pulse", "scorpse", "--grid", "256", "--out", "out"], {}),
    (["nogo", "--pulse", "corpse", "--grid", "256", *_EXP, "--out", "out"], {}),
    (["design", *_EXP, "--segments", "4", "--budget", "40", "--restarts", "1",
      "--out", "out"], {}),
    # the search at the design benchmark's size, at its default seed 0
    (["design", *_EXP, "--segments", "5", "--budget", "2000", "--restarts", "3",
      "--out", "out"], {}),
    (["noise-validate", "--model", "gaussian", "--gamma", "0.5", "--steps", "8",
      "--realizations", "9000", "--seed", "2", "--out", "out"], {}),
    (["noise-validate", "--model", "exponential", "--gamma", "1.0", "--eta0", "0.5",
      "--steps", "32", "--realizations", "5000", "--out", "out"], {}),
    (["catalog-validate"], {}),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(args, inputs, src=SRC) -> tuple[int, bytes, bytes, dict[str, bytes]]:
    """Run one invocation on the package in `src`: its exit code, stdout,
    stderr and {relative path: bytes} of every file it wrote."""
    env = {k: v for k, v in os.environ.items() if k != "PULSELAB_SEED"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        for name, text in inputs.items():
            (cwd / name).write_text(text, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "pulselab", *args], cwd=cwd,
                              env=env, capture_output=True, timeout=600)
        written = sorted(p.relative_to(cwd).as_posix() for p in cwd.rglob("*")
                         if p.is_file())
        files = {name: (cwd / name).read_bytes() for name in written if name not in inputs}
    return proc.returncode, proc.stdout, proc.stderr, files


def digest(invocations) -> list[str]:
    """The digest lines of each invocation, in order."""
    lines = []
    for args, inputs in invocations:
        code, out, err, files = run(args, inputs)
        lines += [f"$ pulselab {' '.join(args)}", f"exit {code}",
                  f"{_sha(out)}  <stdout>", f"{_sha(err)}  <stderr>"]
        lines += [f"{_sha(data)}  {name}" for name, data in files.items()]
    return lines


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python tools/output_digest.py   (takes no options)")
    print("\n".join(digest(INVOCATIONS)))
