"""The exit-code contract at extreme values of every numeric option.

Each `int` or `float` option of the sweep, no-go, design and noise
subcommands, and the comma-list ``--inv-v``, is run at each of `VALUES` in
``--flag=value`` form, all cases in one child process whose address space is
capped like ``run_capped``'s.  The options are read from the parser, so an
option added later is covered as it is.  In the child the entry points of a
run's work raise `Started`: a thread pool of a sweep cell, a noise draw and
an evaluation of the design search.  So no thread starts and no run is
endless, and an input the program accepts ends the moment its work starts.

A case passes when it reaches that point, or when it returns 0, 1, 2 or 3
and prints no traceback, a non-zero code with exactly one ``error:`` line.
A case that runs past `CASE_SECONDS` fails: an input that lists its work
before starting it is a finding, not a pass.
"""

import json
import resource
import subprocess
import sys

from test_cli import MEMORY_CAP, _child_env

from pulselab import cli

VALUES = ("0", "-1", "2147483648", "9223372036854775808", "1e308", "inf", "-inf", "nan",
          "5e-324")

#: each subcommand's arguments before the option under test, which wins over them
BASE = {
    "scaling": ["scaling", "--model=exponential", "--gamma=0.01"],
    "prefactor": ["prefactor", "--model=exponential", "--gamma=0.01"],
    "nogo": ["nogo", "--model=exponential", "--gamma=0.01"],
    "design": ["design", "--model=exponential", "--gamma=0.01"],
    "noise-validate": ["noise-validate", "--model=exponential", "--gamma=0.5"],
}

CASE_SECONDS = 10

CHILD = r"""
import contextlib, io, json, signal, sys, traceback

from pulselab import cli, harness, magnus
from pulselab.noise import NoiseSampler


class Started(BaseException):
    "The input was accepted and its work started."


class TimedOut(BaseException):
    pass


def started(*args, **kwargs):
    raise Started


def timed_out(signum, frame):
    raise TimedOut


harness.ThreadPoolExecutor = NoiseSampler.sample_block = started
magnus._kernel_and_constraints = started
signal.signal(signal.SIGALRM, timed_out)
cases, out, seconds = json.load(sys.stdin)
results = []
for argv in cases:
    err = io.StringIO()
    signal.alarm(seconds)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            outcome = cli.main(argv + ["--out=" + out])
    except Started:
        outcome = "started"
    except TimedOut:
        outcome = "timed out"
    except Exception:
        outcome = "raised"
        err.write(traceback.format_exc())
    finally:
        signal.alarm(0)
    results.append((outcome, err.getvalue()))
json.dump(results, sys.stdout)
"""


def contract_cases() -> list[list[str]]:
    """Every numeric option of every `BASE` subcommand at every value."""
    _, commands = cli._build_parser()
    return [BASE[name] + [f"{action.option_strings[0]}={value}"]
            for name in BASE for action in commands[name]._actions
            if action.type in (int, float) or action.dest == "inv_v"
            for value in VALUES]


def finding(outcome, err: str):
    """What breaks the contract in one case's outcome and stderr, or None."""
    if outcome == "started" or outcome == 0:
        return "traceback" if "Traceback" in err else None
    if outcome not in (1, 2, 3):
        return f"{outcome}: {err.strip()[-300:]}"
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if "Traceback" in err or len(errors) != 1:
        return f"exit {outcome} with {len(errors)} error lines: {err.strip()[-300:]}"
    return None


def test_every_numeric_option_keeps_the_exit_code_contract(tmp_path):
    cases = contract_cases()
    assert {case[0] for case in cases} == set(BASE)
    assert ["scaling", "--model=exponential", "--gamma=0.01", "--inv-v=nan"] in cases

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    proc = subprocess.run([sys.executable, "-c", CHILD],
                          input=json.dumps([cases, str(tmp_path / "out"), CASE_SECONDS]),
                          cwd=tmp_path, env=_child_env(OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=cap, capture_output=True, text=True,
                          timeout=len(cases) * CASE_SECONDS)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    found = [f"{case[0]} {case[-1]}: {what}" for case, (outcome, err) in zip(cases, results)
             if (what := finding(outcome, err)) is not None]
    assert found == [], "\n".join(found)
