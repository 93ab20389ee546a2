"""Command-line entry point: run one experiment described by a JSON config.

Usage: mottbox <config.json> [--seed U64] [--out-dir PATH]

The config names one experiment (bell, scatter, track, isotropy, render) plus
its parameters; outputs are CSV/JSON/PPM files and a one-line summary on
stdout.  Identical config and seed give byte-identical output files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import bell, chamber, mott, render
from .numerics import RngStream, unit

logger = logging.getLogger(__name__)

# most angles scatter accepts: 10^6 rows took 31 s, 46 MB peak RSS and a
# 128 MB angular.csv on one thread of a 2-vCPU VM
MAX_ANGLES = 1_000_000
SEEDS = (0, 2**64 - 1)  # the documented --seed U64; RngStream would alias a seed outside it


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


def _need(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"missing required key '{key}'")
    return config[key]


def _number(config: dict, key: str, default=None) -> float:
    value = config.get(key, default)
    if value is None:
        raise ConfigError(f"missing required key '{key}'")
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"key '{key}' must be a number, got {config[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be finite, got {value}")
    return value


def _integer(config: dict, key: str, default=None, bounds=None) -> int:
    value = config.get(key, default)
    if value is None:
        raise ConfigError(f"missing required key '{key}'")
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"key '{key}' must be an integer, got {config[key]!r}")
    if bounds is not None and not bounds[0] <= value <= bounds[1]:
        raise ConfigError(f"key '{key}' must lie in [{bounds[0]}, {bounds[1]}], got {value}")
    return value


def _vector(config: dict, key: str, default=None) -> np.ndarray:
    value = config.get(key, default)
    if value is None:
        raise ConfigError(f"missing required key '{key}'")
    try:
        v = np.asarray(value, dtype=float)
        ok = v.shape == (3,) and bool(np.all(np.isfinite(v)))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"key '{key}' must be a finite 3-vector, got {value!r}")
    return v


def _direction(config: dict, key: str) -> np.ndarray:
    try:
        return unit(_vector(config, key))
    except ValueError as exc:
        raise ConfigError(f"key '{key}': {exc}") from None


def _domain(builder, *args, **kwargs):
    # module preconditions surface as config errors, before any computation
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: str, rows) -> None:
    # each row is a sequence of cell strings, written as it comes, so no
    # file's text is ever held whole in memory
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def _run_bell(config: dict, out_dir: Path) -> str:
    n = _integer(config, "n_trials", bounds=(1, bell.MAX_TRIALS))
    seed = _integer(config, "seed", bounds=SEEDS)
    a = _domain(bell.ApparatusSetting, _direction(config, "a"))
    b = _domain(bell.ApparatusSetting, _direction(config, "b"))
    c = _domain(bell.ApparatusSetting, _direction(config, "c")) if "c" in config else None
    rng = RngStream(seed)
    stream_ids = itertools.count(1)
    estimates = []

    def correlation(x: bell.ApparatusSetting, y: bell.ApparatusSetting):
        est = bell.correlation_mc(x, y, n, rng.substream(next(stream_ids)))
        estimates.append((x, y, est))
        return est

    if c is None:
        est = correlation(a, b)
        summary = f"E={est.mean:.4f}±{est.std_error:.4f}"
    else:
        result = bell.bell_test(a, b, c, correlation)
        summary = (
            f"bell lhs={result.lhs:.4f} rhs={result.rhs:.4f} "
            f"violated={'true' if result.violated else 'false'}"
        )
    rows = (
        [*map(_fmt, x.orientation), *map(_fmt, y.orientation), _fmt(est.mean), _fmt(est.std_error),
         str(est.n_trials)]
        for x, y, est in estimates
    )
    _write_csv(out_dir / config.get("output", "bell.csv"), "ax,ay,az,bx,by,bz,mean,std_error,n", rows)
    return summary


def _build_context(config: dict) -> mott.ScatteringContext:
    k = _number(config, "k")
    if k <= 0.0:
        raise ConfigError(f"key 'k' must be positive, got {k}")
    delta_e = _number(config, "delta_e", 0.0)
    return _domain(mott.ScatteringContext.from_wavenumber, k, delta_e)


def _run_scatter(config: dict, out_dir: Path) -> str:
    ctx = _build_context(config)
    if "position" in config:
        position = _vector(config, "position")
    else:
        position = np.array([0.0, 0.0, _number(config, "distance")])
    atom = _domain(
        mott.atom,
        position=position,
        width=_number(config, "s"),
        g0=_number(config, "g0"),
        g1=_number(config, "g1"),
        delta_e=_number(config, "delta_e", 0.0),
    )
    n_theta = _integer(config, "n_theta", 181, bounds=(2, MAX_ANGLES))
    _domain(mott.quadrature_convergence_check, ctx, atom["width"], atom["g0"], atom["g1"])
    c2 = _domain(mott.normalization_c2, ctx, atom)  # couplings whose intensity overflows raise
    total = mott.flux_total(ctx, atom)

    def rows():
        for theta in np.linspace(0.0, math.pi, n_theta):
            i0 = mott.angular_amplitude(ctx, atom, 0, theta)
            i1 = mott.angular_amplitude(ctx, atom, 1, theta)
            q = mott.transferred_momentum(ctx.k, theta)
            yield map(_fmt, (theta, i0.real, i0.imag, i1.real, i1.imag, q))

    _write_csv(out_dir / config.get("output", "angular.csv"), "theta,re_I0,im_I0,re_I1,im_I1,q", rows())
    return f"|C|^2={c2:.6f} flux_total={total:.6f} flux_free={mott.flux_free(ctx):.6f}"


def _gas_species(config: dict) -> chamber.AtomSpecies:
    return _domain(
        chamber.AtomSpecies,
        width=_number(config, "width"),
        g0=_number(config, "g0"),
        g1=_number(config, "g1"),
        delta_e=_number(config, "delta_e", 0.0),
    )


_TRACK_HEADER = "dx,dy,dz,N,flux_ratio"


def _track_row(direction, n, ratio) -> list[str]:
    return [_fmt(direction[0]), _fmt(direction[1]), _fmt(direction[2]), str(n), _fmt(ratio)]


def _run_track(config: dict, out_dir: Path) -> str:
    ctx = _build_context(config)
    if "gas_file" in config:
        try:
            gas = chamber.load_configuration(Path(config["gas_file"]))  # open() reads ints as fds
        except (OSError, TypeError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot load gas_file {config['gas_file']!r}: {exc}") from None
    else:
        species = _gas_species(config)
        density = _number(config, "density")
        if density < 0.0:
            raise ConfigError(f"key 'density' must be non-negative, got {density}")
        rng = RngStream(_integer(config, "seed", bounds=SEEDS))
        gas = _domain(
            chamber.sample_gas,
            density,
            _number(config, "inner_radius"),
            _number(config, "chamber_radius"),
            species,
            rng,
        )
    atoms = gas.atoms
    _domain(mott.quadrature_convergence_check, ctx, atoms["width"], atoms["g0"], atoms["g1"])
    # before any file: a gas too narrow for a forward cone, or couplings whose
    # intensity overflows in |C|^2, raise here
    track = _domain(chamber.select_track, gas, ctx)
    chamber.save_configuration(gas, out_dir / config.get("gas_output", "gas.json"))
    rows = [] if track is None else [_track_row(track.direction, track.chain.n, track.flux_ratio)]
    _write_csv(out_dir / config.get("output", "track.csv"), _TRACK_HEADER, rows)
    if track is None:
        return "no track (empty configuration)"
    if logger.isEnabledFor(logging.INFO):  # one |C|^2 per atom, only for a line someone reads
        off_chain = chamber.off_chain_c2_product(gas, ctx, track.chain)
        logger.info("off-chain |C|^2 product: %r over %d atoms", off_chain, gas.n_atoms - track.chain.n)
    return f"track N={track.chain.n} flux_ratio={track.flux_ratio:.4f}"


def _run_isotropy(config: dict, out_dir: Path) -> str:
    ctx = _build_context(config)
    species = _gas_species(config)
    n_configs = _integer(config, "n_configs")
    density = _number(config, "density")
    rng = RngStream(_integer(config, "seed", bounds=SEEDS))
    _domain(mott.quadrature_convergence_check, ctx, species.width, species.g0, species.g1)
    result = _domain(
        chamber.isotropy_experiment,
        n_configs,
        density,
        _number(config, "inner_radius"),
        _number(config, "chamber_radius"),
        species,
        ctx,
        rng,
    )
    counts = ([str(i), str(count)] for i, count in enumerate(result.counts))
    _write_csv(out_dir / config.get("output", "isotropy.csv"), "bin,count", counts)
    tracks = (_track_row(*t) for t in zip(result.directions, result.chain_lengths, result.flux_ratios))
    _write_csv(out_dir / config.get("tracks_output", "tracks.csv"), _TRACK_HEADER, tracks)
    return f"isotropy n={n_configs} chi2={result.chi_square:.2f} p={result.p_value:.4f}"


def _run_render(config: dict, out_dir: Path) -> str:
    ctx = _build_context(config)
    plane_cfg = _need(config, "plane")
    if not isinstance(plane_cfg, dict):
        raise ConfigError("key 'plane' must be an object")
    plane = _domain(
        render.PlaneSpec,
        origin=_vector(plane_cfg, "origin", [0.0, 0.0, 0.0]),
        u_axis=_direction(plane_cfg, "u_axis"),
        v_axis=_direction(plane_cfg, "v_axis"),
        half_extent=_number(plane_cfg, "half_extent"),
        resolution=_integer(plane_cfg, "resolution"),
    )
    scale = _number(config, "modulus_scale")
    if scale <= 0.0:
        raise ConfigError(f"key 'modulus_scale' must be positive, got {scale}")
    atom = None
    if "obstacle" in config:
        ob = config["obstacle"]
        if not isinstance(ob, dict):
            raise ConfigError("key 'obstacle' must be an object")
        atom = _domain(
            mott.atom,
            position=_vector(ob, "position"),
            width=_number(ob, "width"),
            g0=_number(ob, "g0"),
            g1=_number(ob, "g1"),
            delta_e=_number(ob, "delta_e", ctx.delta_e),
        )
        _domain(mott.quadrature_convergence_check, ctx, atom["width"], atom["g0"], atom["g1"])
        _domain(mott.normalization_c2, ctx, atom)  # couplings whose intensity overflows raise
    grid = render.sample_plane(lambda p: mott.wave_field(ctx, atom, p), plane)
    image = render.colorize(grid, scale)
    out_path = out_dir / config.get("output", "field.ppm")
    render.write_ppm(image, out_path)
    if "grid_csv" in config:
        render.write_grid_csv(grid, plane, out_dir / config["grid_csv"])
    return f"render wrote {out_path.name} {image.width}x{image.height}"


_RUNNERS = {
    "bell": _run_bell,
    "scatter": _run_scatter,
    "track": _run_track,
    "isotropy": _run_isotropy,
    "render": _run_render,
}


def run(config: dict, out_dir: Path) -> str:
    """Dispatch one experiment config; returns the summary line."""
    experiment = _need(config, "experiment")
    if experiment not in _RUNNERS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; valid names: {', '.join(_RUNNERS)}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    for key in ("output", "gas_output", "tracks_output", "grid_csv"):
        if key in config and not (folder := (out_dir / config[key]).parent).is_dir():
            raise ConfigError(f"key '{key}': directory {str(folder)!r} does not exist")
    return _RUNNERS[experiment](config, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mottbox",
        description="Deterministic hidden-variable simulations: EPR correlations and cloud-chamber tracks.",
    )
    parser.add_argument("config", help="JSON experiment configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ConfigError(f"config {args.config!r} is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        if args.seed is not None:
            config["seed"] = args.seed
            _integer(config, "seed", bounds=SEEDS)
        summary = run(config, Path(args.out_dir))
    except ConfigError as exc:
        print(f"mottbox: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface runtime failures as exit 1
        print(f"mottbox: runtime error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
