"""Command-line front end: verify, residuals, convergence, fields.

Exit codes: 0 all checks pass, 1 a residual exceeds its tolerance,
2 configuration or usage error.  BITIME_THREADS caps the numeric thread
pools (it must be set before numpy loads its BLAS backends, which is why
it is handled at the top of this module).  On glibc the command group keeps
freed heap memory for the process (`_keep_heap`), so a band array freed by
one stage of a walk is reused by the next instead of being returned to the
OS and faulted back in.  The command sets no floating-point policy (`bitime.grid` does).
"""

import functools
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


def _keep_heap():
    """Keep band-sized arrays on the heap and freed heap memory in the process.

    Sets both thresholds: setting the trim threshold alone freezes the mmap
    threshold at its 128 KiB default, so every band array would be mapped
    and unmapped.  Does nothing off glibc.  Only the CLI sets this, because
    it owns its process; library callers keep their process's allocator.
    """
    import ctypes
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (ValueError, OSError):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the values glibc's dynamic rule settles at for large blocks on 64-bit
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: DEFAULT_MMAP_THRESHOLD_MAX
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc}")
    except ValueError as exc:  # a syntax error, or an integer beyond the digit limit
        raise _fail(f"invalid JSON in {path}: {exc}")


def _fail(message):
    """Print `message` as the one `error:` line; the exit-2 exception to raise."""
    click.echo(f"error: {message}", err=True)
    return click.exceptions.Exit(_CONFIG_ERROR)


@contextmanager
def _input_errors():
    """Exit 2 with one line on a usage error or a ValueError."""
    try:
        yield
    except click.UsageError as exc:
        raise _fail(exc.format_message())
    except ValueError as exc:
        raise _fail(str(exc))


def _parse_h(text):
    num, slash, den = text.partition("/")
    try:
        return float(num) / (float(den) if slash else 1.0)
    except (ValueError, ZeroDivisionError):
        raise _fail(f"invalid grid spacing {text!r}: expected a number or a fraction like 1/64")


def _build_config(config_path, **overrides):
    from .suite import RunConfig
    data = _load_json(config_path) if config_path else {}
    if not isinstance(data, dict):
        raise ValueError(f"config {config_path} must be a JSON object")
    return RunConfig.from_dict({**data, **{k: v for k, v in overrides.items() if v is not None}})


_OPTIONS = {
    "--config": click.option("--config", "config_path", type=click.Path(), default=None,
                             help="JSON config file; flags override its keys."),
    "--h": click.option("--h", type=str, default=None,
                        callback=lambda ctx, param, text: None if text is None else _parse_h(text),
                        help="Grid spacing (accepts fractions like 1/64)."),
    "--family": click.option("--family", type=str, default=None,
                             help="Solution family: quadratic, inv_x, inv_y, constant."),
    **{name: click.option(name, type=float, default=None)
       for name in ("--alpha", "--beta", "--gamma", "--delta")},
    "--out": click.option("--out", type=click.Path(), default=None,
                          help="Output directory for the CSV files."),
    "--json": click.option("--json", "as_json", is_flag=True,
                           help="Machine-readable report on stdout."),
}
_FAMILY = ("--family", "--alpha", "--beta", "--gamma", "--delta")


def _options(*names):
    """Decorator adding the named options, listed in this order."""
    return lambda fn: functools.reduce(lambda f, name: _OPTIONS[name](f), reversed(names), fn)


class _Commands(click.Group):
    """Parses and runs every command under `_input_errors`, so a usage error or
    a ValueError exits 2 with one `error:` line."""

    def make_context(self, *args, **kwargs):
        with _input_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _input_errors():
            return super().invoke(ctx)


@click.group(cls=_Commands, no_args_is_help=False)
def main():
    """Verification tool for plane quasi-linear systems and their optimal controls."""
    _keep_heap()


@main.command()
@_options("--config", "--h", *_FAMILY, "--json")
def verify(config_path, as_json, **flags):
    """Run the full closed-form verification suite."""
    from .suite import run_verify
    report = run_verify(_build_config(config_path, **flags))
    click.echo(report.to_json() if as_json else report.to_text())
    sys.exit(0 if report.passed else _RESIDUAL_ERROR)


@main.command()
@click.argument("system_file", type=click.Path())
@_options("--h", "--json")
def residuals(system_file, h, as_json):
    """Forward and integrability residual norms for a config-defined system."""
    from .expressions import field_sampler, grid_from_config, system_from_config
    from .grid import banded_norms
    from .integrability import forward_and_cic

    spec = _load_json(system_file)
    sys_def = system_from_config(spec)
    grid = grid_from_config(spec, h)
    sample = field_sampler(spec)

    # a band samples every declared state and control, so the walk sizes bands by their count
    sheets = len(spec["states"]) + len(spec.get("controls", []))
    norms = banded_norms(grid, lambda band: forward_and_cic(sys_def, band, *sample(band)), sheets)
    # the stream ends with the forward rows; the report lists them first
    rows = [{"condition": name, "max_norm": norms[name][0], "l2_norm": norms[name][1],
             "h": grid.h} for name in sorted(norms, key=lambda name: name.startswith("cic"))]
    if as_json:
        click.echo(json.dumps({"h": grid.h, "rows": rows}, indent=2))
    else:
        for row in rows:
            click.echo(f"{row['condition']:10s} max={row['max_norm']:.6e} "
                       f"l2={row['l2_norm']:.6e}")


@main.command()
@click.option("--h-values", "h_values", type=str, default="1/32,1/64,1/128",
              help="Comma-separated halving sequence of grid spacings.")
@_options("--config", *_FAMILY, "--json")
def convergence(h_values, config_path, as_json, **flags):
    """h-halving study: residual norms and consecutive ratios per condition."""
    from .suite import run_convergence
    config = _build_config(config_path, **flags)
    table = run_convergence(config, [_parse_h(tok) for tok in h_values.split(",") if tok.strip()])
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
@_options("--config", "--h", *_FAMILY, "--out", "--json")
def fields(config_path, as_json, **flags):
    """Write state, stress, costate, and residual fields as CSV."""
    from .suite import write_fields
    config = _build_config(config_path, **flags)
    try:
        paths = write_fields(config)
    except OSError as exc:
        raise _fail(f"cannot write output: {exc}")
    if as_json:
        click.echo(json.dumps({"files": paths}))
    else:
        for p in paths:
            click.echo(p)


if __name__ == "__main__":
    main()
