"""Command-line interface.

Subcommands
    scaling          amplitude sweep + exponent fits (CSV, summary JSON, .dat)
    prefactor        measured vs predicted cubic law for a first-order pulse
    nogo             discretized kernel-operator report for a first-order pulse
    design           constrained minimization of the anomalous integral
    noise-validate   sample-covariance check of the noise synthesis
    catalog-validate consistency checks of a pulse catalog file

This module parses the options, calls the library and prints; `harness`
formats and writes every file under ``--out`` but the designed pulse, which
`pulses.save_catalog` writes.

Every option can also come from a flat JSON config file (``--config``),
parsed exactly as its flag would be; explicit flags win, and a key that is
not an option of the chosen subcommand is a configuration error.  The
environment variable PULSELAB_SEED provides the default seed.  ``--help``
shows each default.  Exit codes: 0 success, 1 usage, 2 configuration,
3 numerical.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

import numpy as np

from . import harness, magnus
from .errors import PulselabError
from .noise import (AutocorrelationModel, EXPONENTIAL, GAUSSIAN, TimeGrid,
                    build_sampler)
from .pulses import load_catalog, require_valid, save_catalog, validate_catalog

EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: most log-spaced 1/v values `scaling --points` asks for, refused before the
#: grid is formed; each value is one cell per pulse
MAX_POINTS = 1000

#: the design search's defaults, which `--help` shows: read at import, so the
#: help text does not depend on what `magnus.minimize_i32` is bound to later
_SEARCH = inspect.signature(magnus.minimize_i32).parameters


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> tuple[_Parser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="pulselab",
                     description="Shaped spin-flip pulses under correlated dephasing noise")
    parser.add_argument("--config", help="flat JSON file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--out": dict(default="results", help="output directory (default: %(default)s)"),
        "--seed": dict(type=int, default=0, help="master RNG seed "
                       "(default: $PULSELAB_SEED if set, else %(default)s)"),
        "--catalog": dict(help="pulse catalog JSON (default: shipped)"),
        "--model": dict(choices=[GAUSSIAN, EXPONENTIAL], help="autocorrelation kind"),
        "--gamma": dict(type=float, help="correlation decay rate "
                        f"(default: {AutocorrelationModel.gamma})"),
        "--g0": dict(type=float, help=f"noise amplitude (default: {AutocorrelationModel.g0})"),
        "--eta0": dict(type=float, help="constant noise offset "
                       f"(default: {AutocorrelationModel.eta0})"),
    }

    def add_shared(p, flags):
        """Attach the shared options a subcommand reads, and no others."""
        for flag in flags.split():
            p.add_argument(flag, **shared[flag])

    # the defaults the library owns, as --help shows them
    sweep = harness.ScalingExperimentConfig
    steps_help = f"time steps per pulse (default: {sweep.steps_per_pulse})"

    def window_end(end):
        return ", ".join(f"{kind} {window[end]}"
                         for kind, window in harness.DEFAULT_FIT_WINDOWS.items())

    p = sub.add_parser("scaling", help="amplitude sweep and exponent fits")
    add_shared(p, "--out --seed --catalog --model --gamma --g0 --eta0")
    p.add_argument("--pulses", default="rect,corpse,scorpse",
                   help="comma-separated pulse names (default: %(default)s)")
    p.add_argument("--inv-v", dest="inv_v",
                   help="explicit comma-separated 1/v values (overrides the range)")
    p.add_argument("--inv-v-min", dest="inv_v_min", type=float, default=1e-3,
                   help="smallest 1/v of the range (default: %(default)s)")
    p.add_argument("--inv-v-max", dest="inv_v_max", type=float, default=1e-1,
                   help="largest 1/v of the range (default: %(default)s)")
    p.add_argument("--points", type=int, default=8,
                   help=f"log-spaced 1/v count, at most {MAX_POINTS} (default: %(default)s)")
    p.add_argument("--realizations", type=int,
                   help=f"realizations per 1/v (default: {sweep.realizations})")
    p.add_argument("--steps", type=int, help=steps_help)
    p.add_argument("--fit-min", dest="fit_min", type=float,
                   help=f"lower end of the fit window (default: {window_end(0)})")
    p.add_argument("--fit-max", dest="fit_max", type=float,
                   help=f"upper end of the fit window (default: {window_end(1)})")
    p.add_argument("--workers", type=int,
                   help="threads per cell, counting the one that evolves it, at most "
                        f"{harness.MAX_WORKERS}; the others draw its chunks, at least "
                        f"one (default: {sweep.workers})")

    p = sub.add_parser("prefactor", help="cubic-law prefactor comparison")
    add_shared(p, "--out --seed --catalog --model --gamma --g0 --eta0")
    p.add_argument("--pulse", default="corpse",
                   help="first-order pulse name (default: %(default)s)")
    p.add_argument("--inv-v", dest="inv_v", default="3e-3,1e-2",
                   help="comma-separated 1/v values (default: %(default)s)")
    p.add_argument("--realizations", type=int, default=50000,
                   help="realizations per 1/v (default: %(default)s)")
    p.add_argument("--steps", type=int, help=steps_help)

    p = sub.add_parser("nogo", help="kernel-operator positivity report")
    add_shared(p, "--out --catalog --model --gamma --g0")
    p.add_argument("--pulse", default="scorpse",
                   help="first-order pulse name (default: %(default)s)")
    p.add_argument("--grid", type=int, default=1024, help="grid points (default: %(default)s)")

    # I_3/2 does not depend on eta0, and the search starts from the shipped catalog
    p = sub.add_parser("design", help="minimize the anomalous integral")
    add_shared(p, "--out --seed --model --gamma --g0")
    p.add_argument("--segments", type=int, default=3,
                   help=f"segment count, 3 to {magnus.MAX_SEGMENTS} (default: %(default)s)")
    p.add_argument("--restarts", type=int, help="random starts per segment count "
                   f"(default: {_SEARCH['restarts'].default})")
    p.add_argument("--budget", type=int, help="SLSQP iterations per start "
                   f"(default: {_SEARCH['budget'].default})")
    p.add_argument("--vmax", type=float, help="amplitude bound in 1/tau_p units "
                   f"(default: {magnus.DEFAULT_V_MAX_TAUP})")

    p = sub.add_parser("noise-validate", help="sample-covariance statistics")
    add_shared(p, "--out --seed --model --gamma --g0 --eta0")
    p.add_argument("--steps", type=int, default=16, help="grid points (default: %(default)s)")
    p.add_argument("--span", type=float, default=1.0,
                   help="grid span in time units (default: %(default)s)")
    p.add_argument("--realizations", type=int, default=200000,
                   help="sampled paths (default: %(default)s)")

    p = sub.add_parser("catalog-validate", help="validate a catalog file")
    add_shared(p, "--catalog")
    return parser, sub.choices


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """``--key=value`` for PULSELAB_SEED and then each config-file entry, so a
    later source wins; a JSON list becomes a comma list and a null is skipped."""
    options = set(vars(args)) - {"config", "command"}
    env = os.environ.get("PULSELAB_SEED")
    tokens = [f"--seed={env}"] if env and "seed" in options else []
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file: {exc}")
        if not isinstance(file_conf, dict):
            raise ValueError("config file must hold a flat JSON object")
        for key, value in file_conf.items():
            if key.replace("-", "_") not in options:
                raise ValueError(f"unknown key {key!r} for {args.command}")
            items = value if isinstance(value, list) else [value]
            if any(isinstance(item, (dict, list)) for item in items):
                raise ValueError(f"key {key!r} must hold a value or a list of values")
            if value is not None:
                tokens.append(f"--{key.replace('_', '-')}=" + ",".join(map(str, items)))
    return tokens


def _parse(argv) -> argparse.Namespace:
    """The subcommand's own parser types the config tokens on their own, a
    value its type or choices refuse being a configuration error that names
    the option; the typed values become its defaults, and the flags are
    parsed again over them, so a flag still wins."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    command = commands[args.command]
    command.exit_on_error = False
    try:
        command.set_defaults(**vars(command.parse_args(_config_tokens(args))))
    except argparse.ArgumentError as exc:
        raise ValueError(exc) from None
    return parser.parse_args(argv)


def _given(args: argparse.Namespace, **options) -> dict:
    """``{param: args.<option>}`` for each ``param=option`` that is set; an
    unset option is left out, so the library's default applies."""
    return {param: getattr(args, option) for param, option in options.items()
            if getattr(args, option, None) is not None}


def _model_from(args: argparse.Namespace) -> AutocorrelationModel:
    if args.model is None:
        raise ValueError("--model is required")
    return AutocorrelationModel(args.model, **_given(args, g0="g0", gamma="gamma", eta0="eta0"))


def _tokens(value: str) -> list[str]:
    """The non-empty items of a comma-list option."""
    return [tok for tok in (item.strip() for item in value.split(",")) if tok]


def _inv_v_values(value: str) -> tuple[float, ...]:
    """Explicit 1/v values in increasing order; the config refuses repeats."""
    return tuple(sorted(float(tok) for tok in _tokens(value)))


def _inv_v_grid(args: argparse.Namespace) -> tuple[float, ...]:
    if args.inv_v is not None:      # an empty list is refused, not the range
        return _inv_v_values(args.inv_v)
    if not 0 < args.inv_v_min < args.inv_v_max or args.points < 2:
        raise ValueError("invalid 1/v range")
    if args.points > MAX_POINTS:
        raise ValueError(f"--points {args.points} exceeds the limit of {MAX_POINTS}")
    return tuple(np.geomspace(args.inv_v_min, args.inv_v_max, args.points))


def _known_pulse(catalog, name: str) -> str:
    if name not in catalog:
        raise ValueError(f"unknown pulse {name!r}")
    return name


def _check_out(out: str) -> None:
    """Refuse an `--out` that cannot become a directory, creating nothing:
    it is not empty, and its nearest existing ancestor is a directory."""
    if not out:
        raise ValueError("--out must not be empty")
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValueError(f"--out {out!r}: {path} is not a directory")


def _write(args: argparse.Namespace, name: str, text: str) -> None:
    for path in harness.write_files(args.out, {name: text}):
        print(f"wrote {path}")


def _load_catalog(args: argparse.Namespace):
    try:
        return load_catalog(args.catalog)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        raise ValueError(f"cannot load catalog: {exc}")


def _sweep_config(args: argparse.Namespace, catalog, names: list[str],
                  inv_v_grid: tuple[float, ...], **fields
                  ) -> harness.ScalingExperimentConfig:
    """The sweep config of `scaling` and `prefactor`; an option the
    subcommand lacks or leaves unset takes the config's default."""
    return harness.ScalingExperimentConfig(
        pulses=tuple(_known_pulse(catalog, name) for name in names),
        model=_model_from(args), inv_v_grid=inv_v_grid, seed=args.seed, **fields,
        **_given(args, realizations="realizations", steps_per_pulse="steps",
                 workers="workers"))


def _cmd_scaling(args: argparse.Namespace) -> int:
    catalog = require_valid(_load_catalog(args))
    config = _sweep_config(args, catalog, _tokens(args.pulses), _inv_v_grid(args),
                           fit_window=(args.fit_min, args.fit_max))
    result = harness.run_scaling(config, catalog)
    result.write(args.out)
    for name, fit in result.fits.items():
        print(f"{name}: slope {fit.slope:.3f} +- {fit.slope_err:.3f} "
              f"({fit.n_used} points)")
    print(f"wrote {args.out}/scaling.csv and {args.out}/summary.json")
    return 0


def _cmd_prefactor(args: argparse.Namespace) -> int:
    catalog = require_valid(_load_catalog(args))
    config = _sweep_config(args, catalog, [args.pulse], _inv_v_values(args.inv_v))
    rows = harness.run_prefactor_check(config, catalog)
    for r in rows:
        print(f"1/v={r.cell.inv_v:9.3e}: ratio {r.ratio:.4f} +- {r.ratio_err:.4f}")
    _write(args, f"prefactor_{args.pulse.lower()}.csv", harness.prefactor_csv(rows))
    return 0


def _cmd_nogo(args: argparse.Namespace) -> int:
    catalog = require_valid(_load_catalog(args))
    name = _known_pulse(catalog, args.pulse)
    model = None if args.model is None else _model_from(args)
    report = magnus.verify_nogo(catalog[name], args.grid, model=model)
    print(f"I_3/2 kernel form: {report.i32_kernel:.6e} (positive: "
          f"{report.i32_kernel > 0}); identity residual {report.identity_residual:.3e}")
    _write(args, f"nogo_{name.lower()}.json", harness.nogo_json(name, report))
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    pulse, i32_min = magnus.minimize_i32(
        n_segments=args.segments, model=_model_from(args), seed=args.seed,
        **_given(args, budget="budget", restarts="restarts", v_max_taup="vmax"),
    )
    path = os.path.join(args.out, "designed_pulse.json")
    save_catalog([pulse], path)
    print(f"best feasible I_3/2 = {i32_min:.6e} (tau_p = 1); pulse written to {path}")
    return 0


def _cmd_noise_validate(args: argparse.Namespace) -> int:
    sampler = build_sampler(_model_from(args), TimeGrid.uniform(args.span, args.steps),
                            args.seed)
    stats = harness.noise_statistics(sampler, args.realizations)
    worst, worst_mean = stats["max_cov_sigma"], stats["max_mean_sigma"]
    print(f"max covariance deviation {worst:.2f} sigma; max mean {worst_mean:.2f} sigma")
    _write(args, "noise_validate.json", harness.json_text(stats))
    return 0 if worst < 5.0 and worst_mean < 5.0 else EXIT_NUMERICAL


def _cmd_catalog_validate(args: argparse.Namespace) -> int:
    catalog = _load_catalog(args)
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
    try:
        args = _parse(argv)
        if hasattr(args, "out"):
            _check_out(args.out)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    except ValueError as exc:
        # the package raises ValueError only for invalid arguments; its
        # numerical failures are PulselabErrors
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PulselabError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
