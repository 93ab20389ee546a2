"""Command-line entry point: run one experiment described by a JSON config.

Usage: mottbox <config.json> [--seed U64] [--out-dir PATH]

The config names one experiment (bell, scatter, track, isotropy, render) plus
its parameters; outputs are CSV/JSON/PPM files and a one-line summary on
stdout.  Identical config and seed give byte-identical output files.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import logging
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bell, chamber, mott, render
from .numerics import RngStream, unit

logger = logging.getLogger(__name__)

# most angles scatter accepts: 10^6 rows took 5.8-6.7 s, 45 MB max RSS and a
# 128 MB angular.csv on a 2-vCPU Xeon VM with AVX-512
MAX_ANGLES = 1_000_000
SEEDS = (0, 2**64 - 1)  # the documented --seed U64; RngStream would alias a seed outside it


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


def _need(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"key {key!r} is missing")
    return config[key]


def _read(config: dict, key, default=None, kind=(int, float), where: str = "key "):
    # the number rule of a gas.json value, for a key that may fall back to a default
    if default is not None and key not in config:
        return default
    return _domain(chamber._json_number, config, key, where, kind)


def _number(config: dict, key: str, default=None) -> float:
    return float(_read(config, key, default))


def _integer(config: dict, key: str, default=None, bounds=None) -> int:
    value = _read(config, key, default, int)
    if bounds is not None and not bounds[0] <= value <= bounds[1]:
        raise ConfigError(f"key '{key}' must lie in [{bounds[0]}, {bounds[1]}], got {value}")
    return value


def _vector(config: dict, key: str, default=None) -> np.ndarray:
    value = config.get(key, default) if default is not None else _need(config, key)
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"key '{key}' must be a list of three numbers, got {value!r}")
    items = dict(enumerate(value))
    return np.array([_read(items, i, where=f"key '{key}' item ") for i in range(3)], dtype=float)


def _direction(config: dict, key: str) -> np.ndarray:
    try:
        return unit(_vector(config, key))
    except ValueError as exc:
        raise ConfigError(f"key '{key}': {exc}") from None


def _domain(builder, *args, **kwargs):
    # module preconditions surface as config errors, before any file is written
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@contextlib.contextmanager
def _csv(path: Path, header: str):
    # write(n_rows, columns) appends rows of repr cells 256 at a time, never the whole text: columns(block)
    # gives that slice of each column (equal-length arrays or lists, whose .tolist() values format faster
    # than numpy scalars).  The file opens with the first write; a run that fails after it removes it
    with contextlib.ExitStack() as stack:
        files = []

        def write(n_rows: int, columns) -> None:
            if not files:
                files.append(open(path, "w", encoding="utf-8"))
                stack.push(lambda failed, *_: failed and path.unlink())  # runs after the close below
                stack.callback(files[0].close)
                files[0].write(header + "\n")
            for i in range(0, n_rows, 256):
                cells = (map(repr, np.asarray(c).tolist()) for c in columns(slice(i, i + 256)))
                files[0].writelines(",".join(row) + "\n" for row in zip(*cells))

        yield write


def _write_csv(path: Path, header: str, n_rows: int, columns) -> None:
    with _csv(path, header) as write:
        write(n_rows, columns)


def _run_bell(config: dict, paths: dict[str, Path]) -> str:
    n = _integer(config, "n_trials")
    seed = _integer(config, "seed", bounds=SEEDS)
    a = _domain(bell.ApparatusSetting, _direction(config, "a"))
    b = _domain(bell.ApparatusSetting, _direction(config, "b"))
    c = _domain(bell.ApparatusSetting, _direction(config, "c")) if "c" in config else None
    rng = RngStream(seed)
    stream_ids = itertools.count(1)
    estimates = []

    def correlation(x: bell.ApparatusSetting, y: bell.ApparatusSetting):
        # an n_trials outside [1, MAX_TRIALS] raises before anything is drawn
        est = _domain(bell.correlation_mc, x, y, n, rng.substream(next(stream_ids)))
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
    _write_csv(paths["output"], "ax,ay,az,bx,by,bz,mean,std_error,n", len(estimates), lambda _: zip(*(
        [*x.orientation, *y.orientation, est.mean, est.std_error, est.n_trials] for x, y, est in estimates)))
    return summary


def _species(config: dict, width: str = "width", delta_e: float = 0.0) -> dict:
    # the fields of an ATOM_DTYPE record besides its position
    return {"width": _number(config, width), "g0": _number(config, "g0"), "g1": _number(config, "g1"),
            "delta_e": _number(config, "delta_e", delta_e)}


def _build_context(config: dict) -> mott.ScatteringContext:
    k, delta_e = _number(config, "k"), _number(config, "delta_e", 0.0)
    return _domain(mott.ScatteringContext.from_wavenumber, k, delta_e)


def _run_scatter(config: dict, paths: dict[str, Path]) -> str:
    ctx = _build_context(config)
    if "position" in config:
        position = _vector(config, "position")
    else:
        position = np.array([0.0, 0.0, _number(config, "distance")])
    atom = _domain(mott.atom, position, **_species(config, "s"))
    n_theta = _integer(config, "n_theta", 181, bounds=(2, MAX_ANGLES))
    _domain(mott.quadrature_convergence_check, ctx, atom["width"], atom["g0"], atom["g1"])
    c2 = _domain(mott.normalization_c2, ctx, atom)  # couplings whose intensity overflows raise
    total = mott.flux_total(ctx, atom)
    thetas = np.linspace(0.0, math.pi, n_theta)

    def columns(block):
        q, i0, i1 = mott._amplitudes(ctx, atom, thetas[block])  # both channels from one q and envelope
        return thetas[block], i0.real, i0.imag, i1.real, i1.imag, q

    _write_csv(paths["output"], "theta,re_I0,im_I0,re_I1,im_I1,q", n_theta, columns)
    return f"|C|^2={c2:.6f} flux_total={total:.6f} flux_free={mott.flux_free(ctx):.6f}"


def _gas(config: dict) -> tuple:
    # the sampling keys of a gas, in the argument order of sample_gas
    species = _domain(chamber.AtomSpecies, **_species(config))
    density, inner, outer = (_number(config, key) for key in ("density", "inner_radius", "chamber_radius"))
    return density, inner, outer, species, RngStream(_integer(config, "seed", bounds=SEEDS))


_TRACK_HEADER = "dx,dy,dz,N,flux_ratio"


def _run_track(config: dict, paths: dict[str, Path]) -> str:
    ctx = _build_context(config)
    if "gas_file" in config:
        try:
            gas = chamber.load_configuration(Path(config["gas_file"]))  # open() reads ints as fds
        except (OSError, TypeError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot load gas_file {config['gas_file']!r}: {exc}") from None
    else:
        gas = _domain(chamber.sample_gas, *_gas(config))
    atoms = gas.atoms
    _domain(mott.quadrature_convergence_check, ctx, atoms["width"], atoms["g0"], atoms["g1"])
    # before any file: a gas too narrow for a forward cone, or couplings whose
    # intensity overflows in |C|^2, raise here
    track = _domain(chamber.select_track, gas, ctx)
    chamber.save_configuration(gas, paths["gas_output"])
    _write_csv(paths["output"], _TRACK_HEADER, 0 if track is None else 1,
               lambda _: (*track.direction[:, None], [track.chain.n], [track.flux_ratio]))
    if track is None:
        return "no track (empty configuration)"
    if logger.isEnabledFor(logging.INFO):  # one |C|^2 per atom, only for a line someone reads
        off_chain = chamber.off_chain_c2_product(gas, ctx, track.chain)
        logger.info("off-chain |C|^2 product: %r over %d atoms", off_chain, gas.n_atoms - track.chain.n)
    return f"track N={track.chain.n} flux_ratio={track.flux_ratio:.4f}"


def _run_isotropy(config: dict, paths: dict[str, Path]) -> str:
    ctx = _build_context(config)
    n_configs = _integer(config, "n_configs")
    density, inner, outer, species, rng = _gas(config)
    _domain(mott.quadrature_convergence_check, ctx, species.width, species.g0, species.g1)
    with _csv(paths["tracks_output"], _TRACK_HEADER) as write:  # each chunk's tracks as they come
        result = _domain(chamber.isotropy_experiment, n_configs, density, inner, outer, species, ctx, rng,
                         lambda dirs, n, ratios: write(len(ratios), lambda b: (*dirs[b].T, n[b], ratios[b])))
    _write_csv(paths["output"], "bin,count", len(result.counts), lambda _: zip(*enumerate(result.counts)))
    return f"isotropy n={n_configs} chi2={result.chi_square:.2f} p={result.p_value:.4f}"


def _run_render(config: dict, paths: dict[str, Path]) -> str:
    ctx = _build_context(config)
    plane_cfg = _need(config, "plane")  # an object, as run() checked
    plane = _domain(
        render.PlaneSpec,
        origin=_vector(plane_cfg, "origin", [0.0, 0.0, 0.0]),
        u_axis=_direction(plane_cfg, "u_axis"),
        v_axis=_direction(plane_cfg, "v_axis"),
        half_extent=_number(plane_cfg, "half_extent"),
        resolution=_integer(plane_cfg, "resolution"),
    )
    scale = _domain(render.check_modulus_scale, _number(config, "modulus_scale"))  # before sampling
    atom = None
    if "obstacle" in config:
        ob = config["obstacle"]
        atom = _domain(mott.atom, _vector(ob, "position"), **_species(ob, delta_e=ctx.delta_e))
        _domain(mott.quadrature_convergence_check, ctx, atom["width"], atom["g0"], atom["g1"])
        _domain(mott.normalization_c2, ctx, atom)  # couplings whose intensity overflows raise
    # grid.csv, when asked for, is written block by block while the plane is sampled
    image = render.render_plane(lambda p: mott.wave_field(ctx, atom, p), plane, scale, paths.get("grid_csv"))
    render.write_ppm(image, paths["output"])
    return f"render wrote {paths['output'].name} {image.width}x{image.height}"


# each experiment's runner, its output keys with their default file names, in
# the order they are checked (None: written only when given), and the other
# keys it reads.  Every config may hold a seed: --seed writes one into any
_EXPERIMENTS = {
    "bell": (_run_bell, {"output": "bell.csv"}, "n_trials a b c"),
    "scatter": (_run_scatter, {"output": "angular.csv"}, "k delta_e position distance s g0 g1 n_theta"),
    "track": (_run_track, {"gas_output": "gas.json", "output": "track.csv"},
              "k delta_e gas_file density inner_radius chamber_radius width g0 g1"),
    "isotropy": (_run_isotropy, {"output": "isotropy.csv", "tracks_output": "tracks.csv"},
                 "k delta_e n_configs density inner_radius chamber_radius width g0 g1"),
    "render": (_run_render, {"output": "field.ppm", "grid_csv": None},
               "k delta_e plane modulus_scale obstacle"),
}
_SUB_KEYS = {"plane": "origin u_axis v_axis half_extent resolution",
             "obstacle": "position width g0 g1 delta_e"}


def _output_paths(config: dict, out_dir: Path, defaults: dict) -> dict[str, Path]:
    # every output of a run, checked before any file is written
    paths, keys, root = {}, {}, out_dir.resolve()
    for key, default in defaults.items():
        if key not in config and default is None:
            continue
        name = config.get(key, default)
        if not isinstance(name, str):
            raise ConfigError(f"key '{key}' must be a file name, got {name!r}")
        path = out_dir / name
        try:
            real, is_dir, in_dir = path.resolve(), path.is_dir(), path.parent.is_dir()
        except (OSError, RuntimeError, ValueError) as exc:  # NUL bytes, lone surrogates, too long, loops
            raise ConfigError(f"key '{key}': cannot use {name!r} as a file name: {exc}") from None
        if not real.is_relative_to(root):
            raise ConfigError(f"key '{key}': {name!r} resolves outside --out-dir {str(out_dir)!r}")
        if is_dir:
            raise ConfigError(f"key '{key}': {str(path)!r} is a directory")
        if not in_dir:
            raise ConfigError(f"key '{key}': directory {str(path.parent)!r} does not exist")
        if real in keys:
            raise ConfigError(f"keys '{keys[real]}' and '{key}' name the same file {str(real)!r}")
        paths[key], keys[real] = path, key
    return paths


def run(config: dict, out_dir: Path) -> str:
    """Dispatch one experiment config; returns the summary line."""
    experiment = _need(config, "experiment")
    if not isinstance(experiment, str) or experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; valid names: {', '.join(_EXPERIMENTS)}"
        )
    runner, outputs, keys = _EXPERIMENTS[experiment]
    sections = [("", config, ["experiment", "seed", *keys.split(), *outputs])]
    for where, section, known in sections:  # the first key that the run would not read exits 2
        for key, value in section.items():
            if key not in known:
                raise ConfigError(f"unknown key {key!r}{where}; valid keys: {', '.join(known)}")
            if key in _SUB_KEYS:
                if not isinstance(value, dict):
                    raise ConfigError(f"key {key!r} must be an object")
                sections.append((f" in {key!r}", value, _SUB_KEYS[key].split()))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot create --out-dir {str(out_dir)!r}: {exc}") from None
    return runner(config, _output_paths(config, out_dir, outputs))


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
        with warnings.catch_warnings():  # a model warning is one line, not a package source location
            warnings.showwarning = lambda message, *_: print(f"mottbox: warning: {message}", file=sys.stderr)
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
