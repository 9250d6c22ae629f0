"""The byte-identity check between two trees (tools/output_digest.py)."""

import hashlib
import importlib.util
from pathlib import Path

from pulselab.cli import main

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_digest_hashes_what_the_run_prints_and_writes(tmp_path, monkeypatch, capsys):
    # a config-file run: the input file is written first and not hashed
    args = ["--config", "run.json", "nogo", "--out", "out"]
    inputs = {"run.json": '{"pulse": "scorpse", "grid": 64}'}
    lines = output_digest.digest([(args, inputs)])

    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(inputs["run.json"], encoding="utf-8")
    assert main(args) == 0
    out, err = capsys.readouterr()
    written = (tmp_path / "out" / "nogo_scorpse.json").read_bytes()
    assert lines == [
        "$ pulselab --config run.json nogo --out out", "exit 0",
        f"{_sha(out.encode())}  <stdout>", f"{_sha(err.encode())}  <stderr>",
        f"{_sha(written)}  out/nogo_scorpse.json"]


def test_invocations_cover_every_subcommand():
    commands = {"scaling", "prefactor", "nogo", "design", "noise-validate",
                "catalog-validate"}
    assert {a for args, _ in output_digest.INVOCATIONS for a in args if a in commands} \
        == commands
