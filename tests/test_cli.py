"""CLI behavior: subcommands, config merge, exit codes, outputs."""

import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import pulselab
from pulselab import (AutocorrelationModel, PiecewiseConstantPulse, TimeGrid, build_sampler,
                      cli, harness, load_catalog, magnus, save_catalog)
from pulselab.cli import main

#: one order-1 pulse turning by 2 pi: S = C = 0, but it is not a pi pulse
TWO_PI_CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                              "two_pi_catalog.json")


def run(args):
    return main(args)


class CatalogText(str):
    """Catalog file contents that a test writes to a file and passes as its path."""


def _written(arg, tmp_path):
    if isinstance(arg, CatalogText):
        path = tmp_path / "catalog.json"
        path.write_text(arg)
        return str(path)
    return arg


def _child_env(**extra) -> dict:
    """The environment of a ``python -m pulselab`` child: the sources of the
    package under test lead PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pulselab.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


#: enough address space to import the package and reach a large allocation
MEMORY_CAP = 2**30


def run_capped(args, cwd) -> tuple[int, str]:
    """Exit code and stderr of ``python -m pulselab *args`` in a child on one
    BLAS thread whose address space is capped at MEMORY_CAP, so an input that
    reaches a huge allocation fails there and not in the test process."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    proc = subprocess.run([sys.executable, "-m", "pulselab", *args], cwd=cwd,
                          env=_child_env(OPENBLAS_NUM_THREADS="1"), preexec_fn=cap,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


class TestCatalogValidate:
    def test_shipped_catalog_ok(self, capsys):
        assert run(["catalog-validate"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_runs_as_python_dash_m(self, tmp_path):
        # `python -m pulselab` from any directory, with the sources on the path
        env = _child_env()
        proc = subprocess.run([sys.executable, "-m", "pulselab", "catalog-validate"],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout

    def test_corrupt_catalog_fails(self, tmp_path, capsys):
        bad = [{
            "name": "RECT", "order": 0,
            "segments": [{"start": "0", "end": "1", "amplitude_taup": "1.5"}],
        }]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run(["catalog-validate", "--catalog", str(path)]) == 3

    def test_commands_name_the_first_failed_check(self, tmp_path, capsys):
        assert run(["nogo", "--catalog", TWO_PI_CATALOG, "--pulse", "twopi",
                    "--grid", "64", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: config: invalid catalog: TWOPI total-angle: "
            "|psi(tau_p) - pi| = 3.14e+00\n")
        # catalog-validate still prints the whole report
        assert run(["catalog-validate", "--catalog", TWO_PI_CATALOG]) == 3
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in out] == ["FAIL", "PASS", "PASS"]


    def test_repeated_pulse_name_is_config_error(self, tmp_path, capsys):
        # names are upper-cased, so a RECT shape appended as "corpse" repeats CORPSE
        catalog = load_catalog()
        path = tmp_path / "dup.json"
        save_catalog(list(catalog) + [PiecewiseConstantPulse(
            "corpse", 1.0, catalog["RECT"].segments, 0)], path)
        assert run(["catalog-validate", "--catalog", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: config: cannot load catalog: pulse CORPSE is defined twice"]


class TestScaling:
    def test_small_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run([
            "scaling", "--model", "exponential", "--gamma", "0.01",
            "--pulses", "rect,corpse", "--inv-v-min", "1e-3",
            "--inv-v-max", "3e-2", "--points", "4", "--realizations", "800",
            "--steps", "64", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        assert (out / "scaling.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["fits"]) == {"RECT", "CORPSE"}
        assert abs(summary["fits"]["RECT"]["slope"] - 1.0) < 0.15

    def test_zero_standard_error_is_numerical_error(self, tmp_path, capsys):
        # eta0 = 1e160 swamps the noise: every realization of a cell gives the
        # same DF, so each point is excluded and the fit has none left
        code = run(["scaling", "--model", "exponential", "--gamma", "0.01",
                    "--eta0", "1e160", "--pulses", "rect", "--realizations", "50",
                    "--steps", "16", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: numerical: ")
        # the line names the pulse and counts the exclusions by reason
        assert err[0].startswith("error: numerical: RECT: 0 usable points")
        assert "(6 zero standard error, 2 outside fit window)" in err[0]

    def test_overflowing_cells_are_numerical_error(self, tmp_path, capsys):
        # eta0 = 1e308 overflows h dt in the exact step, so every cell's mean
        # is nan: the fit excludes each one, with no warning on the way
        code = run(["scaling", "--model", "exponential", "--eta0", "1e308",
                    "--inv-v", "10,100,1000", "--pulses", "rect", "--steps", "8",
                    "--realizations", "50", "--fit-min", "1e-4", "--fit-max", "1e4",
                    "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: numerical: ")
        assert err[0] == ("error: numerical: RECT: 0 usable points at 0 distinct 1/v "
                          "values after exclusion (3 non-finite mean); need >= 3")

    def test_stderr_exclusions_count_as_one_reason(self, tmp_path, capsys):
        # two realizations per cell: every relative stderr is above the bound
        code = run(["scaling", "--model", "exponential", "--gamma", "0.01",
                    "--pulses", "rect,corpse", "--inv-v", "1e-3,3e-3,1e-2",
                    "--realizations", "2", "--steps", "16", "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: numerical: RECT: 0 usable points at 0 distinct 1/v values after "
            "exclusion (3 relative stderr > 5%); need >= 3"]

    def test_unknown_pulse_is_config_error(self, tmp_path):
        code = run(["scaling", "--model", "gaussian", "--gamma", "0.1",
                    "--pulses", "nosuch", "--out", str(tmp_path)])
        assert code == 2

    def test_missing_model_is_config_error(self, tmp_path):
        assert run(["scaling", "--pulses", "rect", "--out", str(tmp_path)]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        conf = {
            "model": "exponential", "gamma": 0.01,
            "pulses": "rect", "inv_v": "1e-3,3e-3,1e-2,3e-2",
            "realizations": 500, "steps": 48, "seed": 9,
        }
        cpath = tmp_path / "run.json"
        cpath.write_text(json.dumps(conf))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run(["--config", str(cpath), "scaling", "--out", str(out1)]) == 0
        # same config reloaded gives byte-identical csv
        assert run(["--config", str(cpath), "scaling", "--out", str(out2)]) == 0
        assert (out1 / "scaling.csv").read_bytes() == (out2 / "scaling.csv").read_bytes()
        # a flag overrides the config value
        out3 = tmp_path / "c"
        assert run(["--config", str(cpath), "scaling", "--seed", "10",
                    "--out", str(out3)]) == 0
        assert (out1 / "scaling.csv").read_bytes() != (out3 / "scaling.csv").read_bytes()

    def test_zero_seed_flag_overrides_config(self, tmp_path):
        conf = {"model": "exponential", "gamma": 0.01, "pulses": "rect",
                "inv_v": "1e-3,3e-3,1e-2", "realizations": 400, "steps": 48,
                "seed": 9}
        cpath = tmp_path / "run.json"
        cpath.write_text(json.dumps(conf))
        out1 = tmp_path / "file"
        assert run(["--config", str(cpath), "scaling", "--seed", "0",
                    "--out", str(out1)]) == 0
        flags = ["scaling", "--model", "exponential", "--gamma", "0.01",
                 "--pulses", "rect", "--inv-v", "1e-3,3e-3,1e-2",
                 "--realizations", "400", "--steps", "48", "--seed", "0"]
        out2 = tmp_path / "flags"
        assert run(flags + ["--out", str(out2)]) == 0
        assert (out1 / "scaling.csv").read_bytes() == (out2 / "scaling.csv").read_bytes()

    def test_list_valued_config_options(self, tmp_path):
        # pulses, like inv_v, may be a JSON list or a comma string
        conf = {"model": "exponential", "gamma": 0.01, "pulses": ["rect", "corpse"],
                "inv_v": [1e-3, 3e-3, 1e-2], "realizations": 400, "steps": 48}
        cpath = tmp_path / "run.json"
        cpath.write_text(json.dumps(conf))
        out1 = tmp_path / "file"
        assert run(["--config", str(cpath), "scaling", "--out", str(out1)]) == 0
        flags = ["scaling", "--model", "exponential", "--gamma", "0.01",
                 "--pulses", "rect,corpse", "--inv-v", "1e-3,3e-3,1e-2",
                 "--realizations", "400", "--steps", "48"]
        out2 = tmp_path / "flags"
        assert run(flags + ["--out", str(out2)]) == 0
        assert (out1 / "scaling.csv").read_bytes() == (out2 / "scaling.csv").read_bytes()
        assert sorted(os.listdir(out1)) == sorted(os.listdir(out2))

    @pytest.mark.parametrize("key, value", [
        ("realisations", 5),        # misspelt option
        ("no_polarization", True),  # removed option
        ("grid", 256),              # an option of another subcommand
    ])
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys, key, value):
        conf = {"model": "exponential", "gamma": 0.01, "pulses": "rect",
                "inv_v": "1e-3,3e-3,1e-2", "realizations": 400, "steps": 48, key: value}
        cpath = tmp_path / "run.json"
        cpath.write_text(json.dumps(conf))
        assert run(["--config", str(cpath), "scaling", "--out", str(tmp_path)]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("flag, window", [("--fit-min", [2e-3, 3e-2]),
                                              ("--fit-max", [1e-3, 2e-2])])
    def test_one_sided_fit_window_keeps_the_default_other_end(self, tmp_path, flag, window):
        value = "2e-3" if flag == "--fit-min" else "2e-2"
        assert run(["scaling", "--model", "exponential", "--gamma", "0.01",
                    "--pulses", "rect", "--inv-v", "1e-3,3e-3,1e-2,3e-2",
                    "--realizations", "400", "--steps", "48", "--seed", "3",
                    flag, value, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["fit_window"] == window

    def test_env_seed_default(self, tmp_path, monkeypatch):
        args = ["scaling", "--model", "exponential", "--gamma", "0.01",
                "--pulses", "rect", "--inv-v", "1e-3,3e-3,1e-2",
                "--realizations", "400", "--steps", "48"]
        monkeypatch.setenv("PULSELAB_SEED", "77")
        out1 = tmp_path / "env"
        assert run(args + ["--out", str(out1)]) == 0
        monkeypatch.delenv("PULSELAB_SEED")
        out2 = tmp_path / "flag"
        assert run(args + ["--seed", "77", "--out", str(out2)]) == 0
        assert (out1 / "scaling.csv").read_bytes() == (out2 / "scaling.csv").read_bytes()


class TestOtherSubcommands:
    def test_prefactor(self, tmp_path, capsys):
        code = run(["prefactor", "--model", "exponential", "--gamma", "0.01",
                    "--pulse", "corpse", "--inv-v", "1e-2",
                    "--realizations", "2000", "--steps", "128",
                    "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "prefactor_corpse.csv").read_text()
        assert text.startswith("inv_v,measured_df2")

    def test_prefactor_sorts_inv_v(self, tmp_path):
        # rows come in increasing 1/v, each drawn from its sorted position's
        # streams, as scaling does
        args = ["prefactor", "--model", "exponential", "--gamma", "0.01",
                "--pulse", "corpse", "--realizations", "200", "--steps", "32",
                "--seed", "3"]
        texts = []
        for inv_v, out in (("1e-2,3e-3", "given"), ("3e-3,1e-2", "sorted")):
            assert run(args + ["--inv-v", inv_v, "--out", str(tmp_path / out)]) == 0
            texts.append((tmp_path / out / "prefactor_corpse.csv").read_text())
        assert texts[0] == texts[1]
        assert [float(line.split(",")[0]) for line in texts[0].splitlines()[1:]] == [3e-3, 1e-2]

    def test_nogo(self, tmp_path):
        code = run(["nogo", "--pulse", "scorpse", "--grid", "256",
                    "--model", "exponential", "--gamma", "0.01",
                    "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "nogo_scorpse.json").read_text())
        assert payload["i32_kernel"] > 0
        assert payload["identity_residual"] > 0

    def test_design(self, tmp_path):
        # the search accepts a design under the rule catalog-validate applies,
        # so its file validates; a 5-iteration search ends near the bound
        for budget, seed in (("400", "1"), ("5", "0")):
            out = tmp_path / budget
            code = run(["design", "--model", "exponential", "--gamma", "0.01",
                        "--segments", "3", "--restarts", "1", "--budget", budget,
                        "--seed", seed, "--out", str(out)])
            assert code == 0
            recs = json.loads((out / "designed_pulse.json").read_text())
            assert len(recs) == 1 and len(recs[0]["segments"]) == 3
            assert run(["catalog-validate", "--catalog", str(out / "designed_pulse.json")]) == 0

    def test_noise_validate(self, tmp_path):
        code = run(["noise-validate", "--model", "gaussian", "--gamma", "0.5",
                    "--steps", "8", "--realizations", "20000",
                    "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "noise_validate.json").read_text())
        assert payload["max_cov_sigma"] < 5.0

    def test_noise_validate_with_offset(self, tmp_path):
        # a constant offset eta0 shifts the mean, not the covariance
        code = run(["noise-validate", "--model", "gaussian", "--gamma", "0.5",
                    "--eta0", "0.5", "--steps", "8", "--realizations", "20000",
                    "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "noise_validate.json").read_text())
        assert payload["max_cov_sigma"] < 5.0 and payload["max_mean_sigma"] < 5.0

    def test_noise_validate_exponential_recursion(self, tmp_path):
        # the exponential model draws by the Markov recursion, not by eigh
        code = run(["noise-validate", "--model", "exponential", "--gamma", "1.0",
                    "--steps", "64", "--realizations", "20000", "--eta0", "0.5",
                    "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "noise_validate.json").read_text())
        assert payload["max_cov_sigma"] < 5.0 and payload["max_mean_sigma"] < 5.0

    @pytest.mark.parametrize("model, gamma", [("gaussian", "0.5"), ("exponential", "1.0"),
                                              ("exponential", "0")])
    def test_noise_validate_huge_span(self, tmp_path, model, gamma):
        # midpoints of boundaries near the largest float do not overflow, and
        # the Gaussian g(t) underflows to 0 without a warning
        code = run(["noise-validate", "--model", model, "--gamma", gamma,
                    "--span", "1e308", "--steps", "8", "--realizations", "2000",
                    "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "noise_validate.json").read_text())
        assert math.isfinite(payload["max_cov_sigma"])
        assert math.isfinite(payload["max_mean_sigma"])

    def test_noise_validate_sums_over_chunks(self, tmp_path):
        # 9000 realizations span three chunks of harness.DEFAULT_CHUNK
        code = run(["noise-validate", "--model", "gaussian", "--gamma", "0.5",
                    "--steps", "8", "--realizations", "9000",
                    "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "noise_validate.json").read_text())
        assert payload["realizations"] == 9000
        assert payload["max_cov_sigma"] < 5.0 and payload["max_mean_sigma"] < 5.0

    @pytest.mark.parametrize("model, gamma", [("gaussian", "0.5"), ("exponential", "1.0")])
    def test_noise_validate_draw_layout(self, tmp_path, model, gamma):
        # chunk c of harness.DEFAULT_CHUNK realizations draws from stream (c,),
        # and the last chunk is short
        chunk = harness.DEFAULT_CHUNK
        m, n, seed = 2 * chunk + 37, 8, 3
        assert run(["noise-validate", "--model", model, "--gamma", gamma,
                    "--steps", str(n), "--realizations", str(m), "--seed", str(seed),
                    "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "noise_validate.json").read_text())
        noise = AutocorrelationModel(model, gamma=float(gamma))
        sampler = build_sampler(noise, TimeGrid.uniform(1.0, n), seed)
        sums, products = np.zeros(n), np.zeros((n, n))
        for c, start in enumerate(range(0, m, chunk)):
            block = sampler.sample_block(min(chunk, m - start), stream=(c,)) - noise.eta0
            sums += block.sum(axis=1)
            products += block @ block.T
        target = sampler.covariance
        se_cov = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / m)
        assert payload == {
            "max_cov_sigma": float(np.abs((products / m - target) / se_cov).max()),
            "max_mean_sigma": float(np.abs(sums / m / np.sqrt(np.diag(target) / m)).max()),
            "realizations": m, "steps": n}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", ["gaussian", "exponential"])
    @pytest.mark.parametrize("g0", ["1e-100", "1e150"])
    def test_noise_validate_g0_whose_fourth_power_is_out_of_range(self, tmp_path, model, g0):
        # g0^2 is in range but g0^4 is not: the statistics square the covariance
        assert run(["noise-validate", "--model", model, "--gamma", "0.5", "--g0", g0,
                    "--steps", "8", "--realizations", "4000", "--seed", "2",
                    "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "noise_validate.json").read_text())
        assert math.isfinite(payload["max_cov_sigma"])
        assert math.isfinite(payload["max_mean_sigma"])

    @pytest.mark.parametrize("args", [
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect",
         "--realizations", "1"],
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect",
         "--inv-v", "1e-3,1e-3,1e-2"],
        ["prefactor", "--model", "gaussian"],
        ["prefactor", "--model", "exponential", "--pulse", "rect"],
        ["prefactor", "--model", "exponential", "--pulse", "nope"],
        # --gamma defaults to 0, which has no cusp and predicts no cubic law
        ["prefactor", "--model", "exponential", "--pulse", "sym2nd"],
        ["nogo", "--pulse", "nope"],
        # the exponential default upper end 3e-2 lies below this lower end
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect",
         "--fit-min", "5e-2"],
        ["noise-validate", "--model", "gaussian", "--gamma", "0.5", "--realizations", "0"],
        ["noise-validate", "--model", "gaussian", "--gamma", "0.5", "--realizations", "1"],
        ["nogo", "--pulse", "scorpse", "--grid", "0"],
        ["nogo", "--pulse", "scorpse", "--grid", "-3"],
        ["design", "--model", "exponential", "--gamma", "0.01", "--restarts", "0"],
        ["design", "--model", "exponential", "--gamma", "0.01", "--vmax", "-1"],
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect",
         "--workers", "0"],
        # one grid point cannot resolve the kernel's sign function
        ["nogo", "--pulse", "scorpse", "--grid", "1"],
        # grids above noise.MAX_DENSE_N are refused before anything is built:
        # nogo's residual takes O(N^2) time, the sampler's arrays O(N^2) memory
        ["nogo", "--pulse", "scorpse", "--grid", "60000"],
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--steps", "40000",
         "--realizations", "100", "--pulses", "corpse"],
        ["design", "--model", "exponential", "--gamma", "0.01", "--vmax", "nan"],
        ["design", "--model", "exponential", "--gamma", "0.01", "--vmax", "inf"],
        ["design", "--model", "exponential", "--gamma", "0.01", "--budget", "-1"],
        # non-finite parameters are refused by the value types
        ["nogo", "--pulse", "scorpse", "--model", "exponential", "--gamma", "nan"],
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect",
         "--inv-v", "nan,1e-2,2e-2"],
        ["prefactor", "--model", "exponential", "--gamma", "0.01", "--pulse", "corpse",
         "--inv-v", "nan"],
        ["noise-validate", "--model", "gaussian", "--gamma", "0.5", "--g0", "nan"],
        # TimeGrid.uniform refuses a span that is not positive and finite
        ["noise-validate", "--model", "gaussian", "--gamma", "0.5", "--span", "nan"],
        ["noise-validate", "--model", "gaussian", "--gamma", "0.5", "--span", "inf"],
        ["noise-validate", "--model", "gaussian", "--gamma", "0.5", "--span", "0"],
        ["noise-validate", "--model", "gaussian", "--gamma", "0.5", "--span", "-1"],
        # the sweep's config refuses a repeated 1/v for prefactor as for scaling
        ["prefactor", "--model", "exponential", "--gamma", "0.01", "--pulse", "corpse",
         "--inv-v", "1e-2,1e-2"],
        # NotFirstOrder is an invalid argument, as in prefactor-rect
        ["nogo", "--pulse", "rect", "--grid", "64"],
        # an empty 1/v list leaves nothing to run
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect",
         "--inv-v", ","],
        ["prefactor", "--model", "exponential", "--gamma", "0.01", "--pulse", "corpse",
         "--inv-v", ","],
        # fewer than 3 values of 1/v in the fit window: refused before any cell
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect,corpse",
         "--points", "2"],
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect,corpse",
         "--inv-v", "1e-4,2e-4,3e-4"],
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect,corpse",
         "--inv-v", "1e-3,2e-3,5e-2,6e-2"],
        # a catalog that catalog-validate rejects is refused before it is used
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--catalog", TWO_PI_CATALOG,
         "--pulses", "twopi", "--inv-v", "1e-3,3e-3,1e-2", "--realizations", "100",
         "--steps", "16"],
        ["prefactor", "--model", "exponential", "--gamma", "0.01", "--catalog",
         TWO_PI_CATALOG, "--pulse", "twopi", "--inv-v", "1e-2", "--realizations", "100",
         "--steps", "16"],
        ["nogo", "--catalog", TWO_PI_CATALOG, "--pulse", "twopi", "--grid", "64"],
        # a pulse named twice, in any case, would run its cells twice
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect,RECT",
         "--inv-v", "1e-3,3e-3,1e-2", "--realizations", "100", "--steps", "16"],
        # the gaussian g(t) squares gamma, which overflows above 1.34e154
        ["scaling", "--model", "gaussian", "--gamma", "1e160", "--pulses", "rect",
         "--inv-v", "1e-3,1e-2,1e-1", "--realizations", "100", "--steps", "16"],
        ["noise-validate", "--model", "gaussian", "--gamma", "1e160",
         "--realizations", "100"],
        # g(0) = g0^2 overflows or underflows
        ["noise-validate", "--model", "gaussian", "--gamma", "0.5", "--g0", "1e160",
         "--realizations", "100"],
        ["noise-validate", "--model", "exponential", "--gamma", "0.5", "--g0", "1e-200",
         "--realizations", "100"],
        # a catalog file of the wrong shape, or an empty one, is refused on loading
        ["catalog-validate", "--catalog", CatalogText("[5]")],
        ["catalog-validate", "--catalog", CatalogText('{"RECT": 1}')],
        ["catalog-validate", "--catalog", CatalogText(
            '[{"name": 5, "segments": [{"start": "0", "end": "1", "amplitude_taup": "1"}]}]')],
        ["catalog-validate", "--catalog", CatalogText('[{"name": "X", "segments": 5}]')],
        ["catalog-validate", "--catalog", CatalogText("[]")],
        ["catalog-validate", "--catalog", CatalogText(
            '[{"name": "X", "segments": [{"start": null, "end": "1", "amplitude_taup": "1"}]}]')],
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect",
         "--catalog", CatalogText("[5]")],
        ["prefactor", "--model", "exponential", "--gamma", "0.01", "--catalog",
         CatalogText("[5]")],
        ["nogo", "--catalog", CatalogText("[5]")],
        # a negative seed is refused where the first stream is drawn
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect",
         "--inv-v", "1e-3,3e-3,1e-2", "--realizations", "100", "--steps", "16",
         "--seed", "-1"],
        ["design", "--model", "exponential", "--gamma", "0.01", "--seed", "-1"],
        ["noise-validate", "--model", "gaussian", "--gamma", "0.5", "--realizations", "100",
         "--seed", "-1"],
    ], ids=["one-realization", "duplicate-inv-v", "prefactor-gaussian",
            "prefactor-rect", "prefactor-unknown-pulse", "prefactor-zero-gamma",
            "nogo-unknown-pulse", "empty-fit-window",
            "noise-validate-no-realization", "noise-validate-one-realization",
            "nogo-zero-grid", "nogo-negative-grid", "design-zero-restarts",
            "design-negative-vmax", "scaling-zero-workers", "nogo-one-point-grid",
            "nogo-dense-grid-too-large", "scaling-dense-steps-too-large",
            "design-nan-vmax", "design-inf-vmax", "design-negative-budget",
            "nogo-nan-gamma", "scaling-nan-inv-v", "prefactor-nan-inv-v",
            "noise-validate-nan-g0", "noise-validate-nan-span", "noise-validate-inf-span",
            "noise-validate-zero-span", "noise-validate-negative-span",
            "prefactor-duplicate-inv-v", "nogo-not-first-order",
            "scaling-empty-inv-v", "prefactor-empty-inv-v", "scaling-two-points",
            "scaling-below-fit-window", "scaling-two-in-fit-window",
            "scaling-invalid-catalog", "prefactor-invalid-catalog", "nogo-invalid-catalog",
            "scaling-repeated-pulse", "scaling-gaussian-gamma-squared-overflows",
            "noise-validate-gaussian-gamma-squared-overflows",
            "noise-validate-g0-squared-overflows", "noise-validate-g0-squared-underflows",
            "catalog-not-a-list", "catalog-record-not-an-object", "catalog-name-not-a-string",
            "catalog-segments-not-a-list", "catalog-empty", "catalog-null-number",
            "scaling-malformed-catalog", "prefactor-malformed-catalog",
            "nogo-malformed-catalog", "scaling-negative-seed", "design-negative-seed",
            "noise-validate-negative-seed"])
    def test_invalid_input_is_one_line_config_error(self, tmp_path, capsys, args):
        args = [_written(arg, tmp_path) for arg in args]
        out = [] if args[0] == "catalog-validate" else ["--out", str(tmp_path)]
        assert run(args + out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ")

    @pytest.mark.parametrize("args", [
        ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect"],
        ["prefactor", "--model", "exponential", "--gamma", "0.01"],
        ["noise-validate", "--model", "gaussian", "--gamma", "0.5"],
    ], ids=["scaling", "prefactor", "noise-validate"])
    def test_huge_grid_is_refused_before_it_is_allocated(self, tmp_path, args):
        # a billion steps: the grid's boundaries alone take 7.45 GiB; never run
        # this in the test process or without the cap
        code, err = run_capped(args + ["--steps", "1000000000", "--out", "out"], tmp_path)
        assert code == 2, err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config: "), err

    def test_usage_error_exit_code(self):
        assert run(["frobnicate"]) == 1
        assert run([]) == 1


#: a child that runs every subcommand but design, then a design its argument
#: checks refuse and a tiny one, and prints the scipy modules loaded after each
SCIPY_PROBE = """
import json, sys
import pulselab
from pulselab import cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

pulselab.load_catalog()
steps = [["import", None, loaded()]]
exp = ["--model", "exponential", "--gamma", "0.01", "--out", "out"]
for args in (["catalog-validate"], ["nogo", "--grid", "64", "--out", "out"],
             ["scaling", *exp, "--pulses", "rect", "--inv-v", "1e-3,3e-3,1e-2",
              "--realizations", "400", "--steps", "16"],
             ["prefactor", *exp, "--realizations", "100", "--steps", "16"],
             ["noise-validate", "--model", "gaussian", "--gamma", "0.5",
              "--steps", "8", "--realizations", "100", "--out", "out"],
             ["design", *exp, "--restarts", "0"],
             ["design", *exp, "--segments", "3", "--budget", "5", "--restarts", "1"]):
    steps.append([args[0], cli.main(args), loaded()])
print(json.dumps(steps))
"""


def test_only_design_loads_scipy(tmp_path):
    # a fresh interpreter: the test process has scipy loaded by other tests
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], cwd=tmp_path,
                          env=_child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *cold, design = json.loads(proc.stdout.splitlines()[-1])
    assert [step[:2] for step in cold] == [
        ["import", None], ["catalog-validate", 0], ["nogo", 0], ["scaling", 0],
        ["prefactor", 0], ["noise-validate", 0], ["design", 2]]
    assert all(modules == [] for _, _, modules in cold), cold
    assert design[:2] == ["design", 0] and "scipy.optimize" in design[2]


# one invocation per subcommand that writes to --out
OUT_COMMANDS = {
    "scaling": ["scaling", "--model", "exponential", "--gamma", "0.01", "--pulses", "rect",
                "--inv-v", "1e-3,3e-3,1e-2", "--realizations", "100", "--steps", "16"],
    "prefactor": ["prefactor", "--model", "exponential", "--gamma", "0.01",
                  "--realizations", "100", "--steps", "16"],
    "nogo": ["nogo", "--pulse", "scorpse", "--grid", "64"],
    "design": ["design", "--model", "exponential", "--gamma", "0.01", "--segments", "4"],
    "noise-validate": ["noise-validate", "--model", "gaussian", "--gamma", "0.5",
                       "--realizations", "100"],
}


class TestOutDirectory:
    @pytest.mark.parametrize("below", ["", "sub/dir"], ids=["file", "below-file"])
    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_out_that_cannot_be_a_directory_is_refused_first(
            self, tmp_path, monkeypatch, capsys, command, below):
        def called(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")
        for target in (harness, "run_scaling"), (harness, "run_prefactor_check"), \
                (magnus, "minimize_i32"), (magnus, "verify_nogo"), (cli, "build_sampler"):
            monkeypatch.setattr(*target, called)
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n")
        out = os.path.join(blocker, below) if below else str(blocker)
        assert run(OUT_COMMANDS[command] + ["--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ")
        assert blocker.read_text() == "a file\n"

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_empty_out_is_refused(self, tmp_path, monkeypatch, capsys, command):
        # an empty --out names no directory; it would end in a traceback
        monkeypatch.chdir(tmp_path)
        assert run(OUT_COMMANDS[command] + ["--out", ""]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: config: --out must not be empty"]
        assert list(tmp_path.iterdir()) == []

    def test_invalid_input_creates_no_out_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["scaling", "--model", "exponential", "--pulses", "nope"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_missing_parents_are_created(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert run(OUT_COMMANDS["nogo"] + ["--out", str(out)]) == 0
        assert (out / "nogo_scorpse.json").exists()


# Options a subcommand would not read: (subcommand args, option, value).  Both
# tests fail before the subcommand runs, so nothing is written.
UNREAD_OPTIONS = [
    (["nogo", "--pulse", "scorpse", "--grid", "64"], "seed", "3"),
    (["nogo", "--pulse", "scorpse", "--grid", "64"], "eta0", "0.5"),
    (["design", "--model", "exponential", "--gamma", "0.01", "--budget", "20",
      "--restarts", "1"], "catalog", "/nonexistent.json"),
    (["design", "--model", "exponential", "--gamma", "0.01", "--budget", "20",
      "--restarts", "1"], "eta0", "5"),
    (["noise-validate", "--model", "gaussian", "--gamma", "0.5",
      "--realizations", "100"], "catalog", "/nonexistent.json"),
    (["catalog-validate"], "out", "somewhere"),
    (["catalog-validate"], "seed", "3"),
]
UNREAD_IDS = [f"{args[0]}-{key}" for args, key, _ in UNREAD_OPTIONS]


class TestOnlyReadOptions:
    @pytest.mark.parametrize("args, key, value", UNREAD_OPTIONS, ids=UNREAD_IDS)
    def test_unread_flag_is_usage_error(self, capsys, args, key, value):
        assert run(args + [f"--{key}", value]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("args, key, value", UNREAD_OPTIONS, ids=UNREAD_IDS)
    def test_unread_config_key_is_config_error(self, tmp_path, capsys, args, key, value):
        cpath = tmp_path / "run.json"
        cpath.write_text(json.dumps({key: value}))
        assert run(["--config", str(cpath)] + args) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: config: unknown key {key!r} for {args[0]}"]


NOISE_ARGS = ["noise-validate", "--model", "gaussian", "--gamma", "0.5", "--steps", "4",
              "--realizations", "100"]


class TestOneTypingPath:
    """A config value is parsed exactly as its flag would be."""

    @pytest.mark.parametrize("conf, message", [
        ({"steps": 1.5}, "argument --steps: "),     # not silently truncated to 1 step
        ({"seed": True}, "argument --seed: "),      # not silently seed 1
        ({"gamma": [1, 2]}, "argument --gamma: "),  # a list becomes "1,2", not a float
        ({"steps": "abc"}, "argument --steps: "),
        ({"model": "cauchy"}, "argument --model: "),
        # no flag carries a JSON object
        ({"out": {"a": 1}}, "key 'out' must hold a value or a list of values"),
        ({"out": ["a", ["b"]]}, "key 'out' must hold a value or a list of values"),
    ], ids=["float-steps", "bool-seed", "list-gamma", "text-steps", "unknown-model",
            "object-out", "nested-list-out"])
    def test_refused_value_names_the_option(self, tmp_path, capsys, conf, message):
        cpath = tmp_path / "run.json"
        cpath.write_text(json.dumps(conf))
        assert run(["--config", str(cpath)] + NOISE_ARGS[:1] + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config: {message}")

    def test_config_catalog_is_a_path_not_a_file_descriptor(self, tmp_path):
        # {"catalog": 5} names the file ./5; fd 5, open on a valid catalog, is not read
        shipped = os.path.join(os.path.dirname(os.path.abspath(pulselab.__file__)), "data",
                               "catalog.json")
        (tmp_path / "run.json").write_text(json.dumps({"catalog": 5}))
        env = _child_env()
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m pulselab --config run.json catalog-validate 5< "$1"',
             sys.executable, shipped], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 2, proc.stdout
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: cannot load catalog: ")
        assert "'5'" in err[0]

    def test_numeric_out_is_a_directory_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps({"out": 5}))
        assert run(["--config", "run.json"] + NOISE_ARGS) == 0
        assert (tmp_path / "5" / "noise_validate.json").exists()
        assert capsys.readouterr().err == ""

    def test_invalid_env_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PULSELAB_SEED", "abc")
        assert run(NOISE_ARGS + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: argument --seed: ")

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_error_names_the_seed(self, tmp_path, monkeypatch, capsys, source):
        if source == "env":
            monkeypatch.setenv("PULSELAB_SEED", "-1")
        flag = ["--seed", "-1"] if source == "flag" else []
        assert run(NOISE_ARGS + flag + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: config: seed must be a non-negative integer, got -1"]

    def test_empty_env_seed_is_seed_zero(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PULSELAB_SEED", "")
        assert run(NOISE_ARGS + ["--out", str(tmp_path / "env")]) == 0
        monkeypatch.delenv("PULSELAB_SEED")
        assert run(NOISE_ARGS + ["--seed", "0", "--out", str(tmp_path / "flag")]) == 0
        assert ((tmp_path / "env" / "noise_validate.json").read_bytes()
                == (tmp_path / "flag" / "noise_validate.json").read_bytes())


# Every default the CLI owns, as its subcommand's --help shows it.
HELP_DEFAULTS = {
    None: [],
    "scaling": ["results", "rect,corpse,scorpse", "0.001", "0.1", "8", "20000",
                "gaussian 0.001, exponential 0.001", "gaussian 0.1, exponential 0.03", "1"],
    "prefactor": ["results", "corpse", "3e-3,1e-2", "50000", "512"],
    "nogo": ["results", "scorpse", "1024"],
    "design": ["results", "3", "10", "15000", "12.566370614359172"],
    "noise-validate": ["results", "16", "1.0", "200000"],
    "catalog-validate": [],
}


@pytest.mark.parametrize("command", list(HELP_DEFAULTS), ids=lambda c: c or "top-level")
def test_help_shows_each_default(monkeypatch, capsys, command):
    # argparse %-formats every help text, so a bare % in one would crash --help
    monkeypatch.setenv("COLUMNS", "200")
    assert run(([command] if command else []) + ["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert text.startswith("usage: pulselab")
    for value in HELP_DEFAULTS[command]:
        assert f"(default: {value})" in text
    if command in ("scaling", "prefactor", "design", "noise-validate"):
        assert "master RNG seed (default: $PULSELAB_SEED if set, else 0)" in text
