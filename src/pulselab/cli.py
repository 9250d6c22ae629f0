"""Command-line interface.

Subcommands
    scaling          amplitude sweep + exponent fits (CSV, summary JSON, .dat)
    prefactor        measured vs predicted cubic law for a first-order pulse
    nogo             discretized kernel-operator report for a first-order pulse
    design           constrained minimization of the anomalous integral
    noise-validate   sample-covariance check of the noise synthesis
    catalog-validate consistency checks of a pulse catalog file

Every option can also come from a flat JSON config file (``--config``);
explicit flags win, and a key that is not an option of the chosen subcommand
is a configuration error.  The environment variable PULSELAB_SEED provides
the default seed.  Exit codes: 0 success, 1 usage, 2 configuration,
3 numerical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import harness, magnus
from .errors import CatalogInvalid, PulselabError
from .noise import (AutocorrelationModel, EXPONENTIAL, GAUSSIAN, TimeGrid,
                    build_sampler)
from .pulses import load_catalog, require_valid, save_catalog, validate_catalog

EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class ConfigError(Exception):
    pass


def _default_seed() -> int:
    env = os.environ.get("PULSELAB_SEED")
    return int(env) if env else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="pulselab",
                     description="Shaped spin-flip pulses under correlated dephasing noise")
    parser.add_argument("--config", help="flat JSON file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--out": dict(help="output directory (default: results)"),
        "--seed": dict(type=int, help="master RNG seed"),
        "--catalog": dict(help="pulse catalog JSON (default: shipped)"),
        "--model": dict(choices=[GAUSSIAN, EXPONENTIAL], help="autocorrelation kind"),
        "--gamma": dict(type=float, help="correlation decay rate "
                        f"(default {AutocorrelationModel.gamma})"),
        "--g0": dict(type=float, help=f"noise amplitude (default {AutocorrelationModel.g0})"),
        "--eta0": dict(type=float, help="constant noise offset "
                       f"(default {AutocorrelationModel.eta0})"),
    }

    def add_shared(p, flags):
        """Attach the shared options a subcommand reads, and no others."""
        for flag in flags.split():
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("scaling", help="amplitude sweep and exponent fits")
    add_shared(p, "--out --seed --catalog --model --gamma --g0 --eta0")
    p.add_argument("--pulses", help="comma-separated pulse names")
    p.add_argument("--inv-v", dest="inv_v",
                   help="explicit comma-separated 1/v values (overrides the range)")
    p.add_argument("--inv-v-min", dest="inv_v_min", type=float)
    p.add_argument("--inv-v-max", dest="inv_v_max", type=float)
    p.add_argument("--points", type=int, help="log-spaced 1/v count (default 8)")
    p.add_argument("--realizations", type=int)
    p.add_argument("--steps", type=int, help="time steps per pulse (default "
                   f"{harness.ScalingExperimentConfig.steps_per_pulse})")
    p.add_argument("--fit-min", dest="fit_min", type=float)
    p.add_argument("--fit-max", dest="fit_max", type=float)
    p.add_argument("--workers", type=int)

    p = sub.add_parser("prefactor", help="cubic-law prefactor comparison")
    add_shared(p, "--out --seed --catalog --model --gamma --g0 --eta0")
    p.add_argument("--pulse", help="first-order pulse name (default corpse)")
    p.add_argument("--inv-v", dest="inv_v", help="comma-separated 1/v values")
    p.add_argument("--realizations", type=int)
    p.add_argument("--steps", type=int)

    p = sub.add_parser("nogo", help="kernel-operator positivity report")
    add_shared(p, "--out --catalog --model --gamma --g0")
    p.add_argument("--pulse")
    p.add_argument("--grid", type=int, help="grid points (default 1024)")

    # I_3/2 does not depend on eta0, and the search starts from the shipped catalog
    p = sub.add_parser("design", help="minimize the anomalous integral")
    add_shared(p, "--out --seed --model --gamma --g0")
    p.add_argument("--segments", type=int, help="segment count (default 3)")
    p.add_argument("--restarts", type=int, help="random starts per segment count")
    p.add_argument("--budget", type=int, help="SLSQP iterations per start")
    p.add_argument("--vmax", type=float, help="amplitude bound in 1/tau_p units")

    p = sub.add_parser("noise-validate", help="sample-covariance statistics")
    add_shared(p, "--out --seed --model --gamma --g0 --eta0")
    p.add_argument("--steps", type=int, help="grid points (default 16)")
    p.add_argument("--span", type=float, help="grid span in time units (default 1)")
    p.add_argument("--realizations", type=int)

    p = sub.add_parser("catalog-validate", help="validate a catalog file")
    add_shared(p, "--catalog")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    merged = dict(vars(args))
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(file_conf, dict):
            raise ConfigError("config file must hold a flat JSON object")
        options = set(merged) - {"config", "command"}
        for key, value in file_conf.items():
            dest = key.replace("-", "_")
            if dest not in options:
                raise ConfigError(f"unknown key {key!r} for {args.command}")
            if merged[dest] is None:
                merged[dest] = value
    return merged


def _get(conf: dict, key: str, default=None):
    value = conf.get(key)
    return default if value is None else value


def _given(conf: dict, **options) -> dict:
    """``{param: cast(conf[key])}`` for each ``param=(key, cast)`` whose option is set;
    an unset option is left out, so the library's default applies."""
    return {param: cast(conf[key]) for param, (key, cast) in options.items()
            if conf.get(key) is not None}


def _model_from(conf: dict) -> AutocorrelationModel:
    kind = _get(conf, "model")
    if kind is None:
        raise ConfigError("--model is required")
    return AutocorrelationModel(kind, **_given(conf, g0=("g0", float), gamma=("gamma", float),
                                               eta0=("eta0", float)))


def _tokens(value) -> list[str]:
    """The non-empty items of a comma-list option: a JSON list or a comma string."""
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    return [tok for tok in (str(item).strip() for item in items) if tok]


def _inv_v_values(value) -> tuple[float, ...]:
    """Explicit 1/v values in increasing order; the config refuses repeats."""
    return tuple(sorted(float(tok) for tok in _tokens(value)))


def _inv_v_grid(conf: dict) -> tuple[float, ...]:
    if _get(conf, "inv_v"):
        return _inv_v_values(conf["inv_v"])
    lo = float(_get(conf, "inv_v_min", 1e-3))
    hi = float(_get(conf, "inv_v_max", 1e-1))
    n = int(_get(conf, "points", 8))
    if not 0 < lo < hi or n < 2:
        raise ConfigError("invalid 1/v range")
    return tuple(np.geomspace(lo, hi, n))


def _known_pulse(catalog, name: str) -> str:
    if name not in catalog:
        raise ConfigError(f"unknown pulse {name!r}")
    return name


def _outdir(conf: dict) -> str:
    out = _get(conf, "out", "results")
    os.makedirs(out, exist_ok=True)
    return out


def _load_catalog(conf: dict):
    path = _get(conf, "catalog")
    try:
        return load_catalog(path)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot load catalog: {exc}")


def _valid_catalog(conf: dict):
    """The loaded catalog, refused as a configuration error unless every
    ``catalog-validate`` check passes; the error names the first failure."""
    try:
        return require_valid(_load_catalog(conf))
    except CatalogInvalid as exc:
        pulse, check, _, detail = exc.report.failures[0]
        raise ConfigError(f"invalid catalog: {pulse} {check}: {detail}")


def _cmd_scaling(conf: dict) -> int:
    catalog = _valid_catalog(conf)
    names = [_known_pulse(catalog, tok)
             for tok in _tokens(_get(conf, "pulses", "rect,corpse,scorpse"))]
    model = _model_from(conf)
    window = None
    if _get(conf, "fit_min") is not None or _get(conf, "fit_max") is not None:
        lo, hi = harness.DEFAULT_FIT_WINDOWS[model.kind]
        window = (float(_get(conf, "fit_min", lo)), float(_get(conf, "fit_max", hi)))
    config = harness.ScalingExperimentConfig(
        pulses=tuple(names),
        model=model,
        inv_v_grid=_inv_v_grid(conf),
        seed=int(_get(conf, "seed", _default_seed())),
        fit_window=window,
        **_given(conf, realizations=("realizations", int),
                 steps_per_pulse=("steps", int), workers=("workers", int)),
    )
    result = harness.run_scaling(config, catalog)
    out = _outdir(conf)
    result.write(out)
    for name, fit in result.fits.items():
        print(f"{name}: slope {fit.slope:.3f} +- {fit.slope_err:.3f} "
              f"({fit.n_used} points)")
    print(f"wrote {out}/scaling.csv and {out}/summary.json")
    return 0


def _cmd_prefactor(conf: dict) -> int:
    catalog = _valid_catalog(conf)
    name = _known_pulse(catalog, str(_get(conf, "pulse", "corpse")))
    model = _model_from(conf)
    rows = harness.run_prefactor_check(
        name, model, _inv_v_values(_get(conf, "inv_v", "3e-3,1e-2")),
        realizations=int(_get(conf, "realizations", 50000)),
        seed=int(_get(conf, "seed", _default_seed())),
        catalog=catalog,
        **_given(conf, steps_per_pulse=("steps", int)),
    )
    out = _outdir(conf)
    path = os.path.join(out, f"prefactor_{name.lower()}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("inv_v,measured_df2,stderr_df2,predicted_df2,ratio,ratio_err\n")
        for r in rows:
            fh.write(f"{r.inv_v!r},{r.measured_df2!r},{r.stderr_df2!r},"
                     f"{r.predicted_df2!r},{r.ratio!r},{r.ratio_err!r}\n")
    for r in rows:
        print(f"1/v={r.inv_v:9.3e}: ratio {r.ratio:.4f} +- {r.ratio_err:.4f}")
    print(f"wrote {path}")
    return 0


def _cmd_nogo(conf: dict) -> int:
    catalog = _valid_catalog(conf)
    name = _known_pulse(catalog, str(_get(conf, "pulse", "scorpse")))
    grid_n = int(_get(conf, "grid", 1024))
    model = None
    if _get(conf, "model") is not None:
        model = _model_from(conf)
    report = magnus.verify_nogo(catalog[name], grid_n, model=model)
    out = _outdir(conf)
    payload = {
        "pulse": name.upper(),
        "grid_n": report.grid_n,
        "quad_a_cos": report.quad_a_cos,
        "quad_a_sin": report.quad_a_sin,
        "b_norm_cos": report.b_norm_cos,
        "b_norm_sin": report.b_norm_sin,
        "i32_kernel": report.i32_kernel,
        "i32_discrete": report.i32_discrete,
        "identity_residual": report.identity_residual,
    }
    path = os.path.join(out, f"nogo_{name.lower()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"I_3/2 kernel form: {report.i32_kernel:.6e} (positive: "
          f"{report.i32_kernel > 0}); identity residual {report.identity_residual:.3e}")
    print(f"wrote {path}")
    return 0


def _cmd_design(conf: dict) -> int:
    model = _model_from(conf)
    pulse, i32_min = magnus.minimize_i32(
        n_segments=int(_get(conf, "segments", 3)),
        model=model,
        seed=int(_get(conf, "seed", _default_seed())),
        **_given(conf, budget=("budget", int), restarts=("restarts", int),
                 v_max_taup=("vmax", float)),
    )
    out = _outdir(conf)
    path = os.path.join(out, "designed_pulse.json")
    save_catalog([pulse], path)
    print(f"best feasible I_3/2 = {i32_min:.6e} (tau_p = 1); pulse written to {path}")
    return 0


def _cmd_noise_validate(conf: dict) -> int:
    model = _model_from(conf)
    n = int(_get(conf, "steps", 16))
    span = float(_get(conf, "span", 1.0))
    m = int(_get(conf, "realizations", 200000))
    seed = int(_get(conf, "seed", _default_seed()))
    if m < 2:
        raise ConfigError("need at least 2 realizations")
    grid = TimeGrid.uniform(span, n)
    sampler = build_sampler(model, grid, seed)
    # deviations from the mean eta0, whose covariance is the target, summed
    # over the blocks of the sweep's draw loop (chunk c from stream (c,))
    sums, products = np.zeros(n), np.zeros((n, n))
    for block in harness._draws(sampler, m, harness.DEFAULT_CHUNK, 1, ()):
        block = block.reshape(n, -1) - model.eta0
        sums += block.sum(axis=1)
        products += block @ block.T
    sample_cov = products / m
    mean = sums / m
    target = sampler.covariance
    se_cov = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / m)
    worst = float(np.abs((sample_cov - target) / se_cov).max())
    worst_mean = float(np.abs(mean / np.sqrt(np.diag(target) / m)).max())
    out = _outdir(conf)
    path = os.path.join(out, "noise_validate.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"max_cov_sigma": worst, "max_mean_sigma": worst_mean,
                   "realizations": m, "steps": n}, fh, indent=2)
        fh.write("\n")
    print(f"max covariance deviation {worst:.2f} sigma; max mean {worst_mean:.2f} sigma")
    print(f"wrote {path}")
    return 0 if worst < 5.0 and worst_mean < 5.0 else EXIT_NUMERICAL


def _cmd_catalog_validate(conf: dict) -> int:
    catalog = _load_catalog(conf)
    report = validate_catalog(catalog)
    print(report)
    return 0 if report.ok else EXIT_NUMERICAL


_COMMANDS = {
    "scaling": _cmd_scaling,
    "prefactor": _cmd_prefactor,
    "nogo": _cmd_nogo,
    "design": _cmd_design,
    "noise-validate": _cmd_noise_validate,
    "catalog-validate": _cmd_catalog_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        conf = _merge_config(args)
        return _COMMANDS[args.command](conf)
    except (ConfigError, ValueError) as exc:
        # the package raises ValueError only for invalid arguments; its
        # numerical failures are PulselabErrors
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PulselabError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
