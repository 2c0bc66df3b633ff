"""Command-line front end: verify, residuals, convergence, fields.

Exit codes: 0 all checks pass, 1 a residual exceeds its tolerance,
2 configuration or usage error.  BITIME_THREADS caps the numeric thread
pools (it must be set before numpy loads its BLAS backends, which is why
it is handled at the top of this module).
"""

import json
import os
import sys
from contextlib import contextmanager

_threads = os.environ.get("BITIME_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import click  # noqa: E402

_CONFIG_ERROR = 2
_RESIDUAL_ERROR = 1


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise click.exceptions.Exit(_fail(f"cannot read {path}: {exc}"))
    except ValueError as exc:  # a syntax error, or an integer beyond the digit limit
        raise click.exceptions.Exit(_fail(f"invalid JSON in {path}: {exc}"))


def _fail(message):
    click.echo(f"error: {message}", err=True)
    return _CONFIG_ERROR


@contextmanager
def _input_errors(*kinds):
    """Exit 2 with one line on an exception of `kinds` or on arithmetic out of
    float64 range, which numpy raises here instead of warning."""
    import numpy as np
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise click.exceptions.Exit(_fail(f"arithmetic out of float64 range ({exc})"))
    except kinds as exc:
        raise click.exceptions.Exit(_fail(str(exc)))


def _parse_h(text):
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise click.exceptions.Exit(
            _fail(f"invalid grid spacing {text!r}: expected a number or a fraction like 1/64"))


def _build_config(config_path, **overrides):
    from .suite import RunConfig
    data = _load_json(config_path) if config_path else {}
    with _input_errors(TypeError, ValueError):
        if not isinstance(data, dict):
            raise ValueError(f"config {config_path} must be a JSON object")
        return RunConfig.from_dict({**data, **{k: v for k, v in overrides.items()
                                               if v is not None}})


def _common_options(fn):
    for opt in reversed([
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="JSON config file; flags override its keys."),
        click.option("--h", "h", type=str, default=None,
                     help="Grid spacing (accepts fractions like 1/64)."),
        click.option("--family", type=str, default=None,
                     help="Solution family: quadratic, inv_x, inv_y, constant."),
        click.option("--alpha", type=float, default=None),
        click.option("--beta", type=float, default=None),
        click.option("--gamma", type=float, default=None),
        click.option("--delta", type=float, default=None),
        click.option("--out", type=click.Path(), default=None,
                     help="Output directory for file-writing commands."),
        click.option("--json", "as_json", is_flag=True,
                     help="Machine-readable report on stdout."),
    ]):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Verification tool for plane quasi-linear systems and their optimal controls."""


@main.command()
@_common_options
def verify(config_path, h, family, alpha, beta, gamma, delta, out, as_json):
    """Run the full closed-form verification suite."""
    from .suite import run_verify
    config = _build_config(config_path, h=_parse_h(h) if h else None,
                           family=family, alpha=alpha, beta=beta,
                           gamma=gamma, delta=delta, out=out)
    with _input_errors(ValueError):
        report = run_verify(config)
    click.echo(report.to_json() if as_json else report.to_text())
    sys.exit(0 if report.passed else _RESIDUAL_ERROR)


@main.command()
@click.argument("system_file", type=click.Path())
@_common_options
def residuals(system_file, config_path, h, family, alpha, beta, gamma, delta,
              out, as_json):
    """Forward and integrability residual norms for a config-defined system."""
    from .expressions import fields_from_config, system_from_config
    from .grid import ExclusionZone, banded_norms, build_disc_grid
    from .integrability import cic_multi
    from .systems import forward_residual, split_controls

    spec = _load_json(system_file)
    with _input_errors(KeyError, TypeError, ValueError):
        if config_path:
            spec = {**_load_json(config_path), **spec}
        sys_def = system_from_config(spec)
        h_val = _parse_h(h) if h else float(spec.get("h", 1.0 / 64.0))
        zones = [ExclusionZone(z["kind"], z["size"]) for z in spec.get("zones", [])]
        grid = build_disc_grid(h_val, zones=zones)

        def residual_fields(band):
            states, controls = fields_from_config(spec, band)
            fwd = forward_residual(sys_def, band, states, controls)
            cic = cic_multi(split_controls(sys_def, band, states, controls))
            return {**{f"forward.{b + 1}": f for b, f in enumerate(fwd)},
                    **{f"cic.{i + 1}": r for i, r in enumerate(cic.residuals)}}

        rows = [{"condition": name, "max_norm": max_norm, "l2_norm": l2_norm, "h": grid.h}
                for name, (max_norm, l2_norm) in banded_norms(grid, residual_fields).items()]
    if as_json:
        click.echo(json.dumps({"h": grid.h, "rows": rows}, indent=2))
    else:
        for row in rows:
            click.echo(f"{row['condition']:10s} max={row['max_norm']:.6e} "
                       f"l2={row['l2_norm']:.6e}")
    sys.exit(0)


@main.command()
@click.option("--h-values", "h_values", type=str, default="1/32,1/64,1/128",
              help="Comma-separated halving sequence of grid spacings.")
@_common_options
def convergence(h_values, config_path, h, family, alpha, beta, gamma, delta,
                out, as_json):
    """h-halving study: residual norms and consecutive ratios per condition."""
    from .suite import run_convergence
    config = _build_config(config_path, family=family, alpha=alpha, beta=beta,
                           gamma=gamma, delta=delta, out=out)
    with _input_errors(ValueError):
        hs = [_parse_h(tok) for tok in h_values.split(",") if tok.strip()]
        table = run_convergence(config, hs)
    if as_json:
        click.echo(json.dumps(table, indent=2))
    else:
        for row in table["rows"]:
            norms = " ".join(f"{n:.3e}" for n in row["max_norms"])
            ratios = " ".join(f"{r:.2f}" for r in row["ratios"])
            click.echo(f"{row['condition']:13s} [{norms}] ratios [{ratios}] "
                       f"{row['status']}")
    sys.exit(0 if table["passed"] else _RESIDUAL_ERROR)


@main.command()
@_common_options
def fields(config_path, h, family, alpha, beta, gamma, delta, out, as_json):
    """Write state, stress, costate, and residual fields as CSV."""
    from .suite import write_fields
    config = _build_config(config_path, h=_parse_h(h) if h else None,
                           family=family, alpha=alpha, beta=beta,
                           gamma=gamma, delta=delta, out=out)
    with _input_errors(ValueError):
        try:
            paths = write_fields(config)
        except OSError as exc:
            raise click.exceptions.Exit(_fail(f"cannot write output: {exc}"))
    if as_json:
        click.echo(json.dumps({"files": paths}))
    else:
        for p in paths:
            click.echo(p)
    sys.exit(0)


if __name__ == "__main__":
    main()
