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
import warnings
from pathlib import Path

import numpy as np

from . import bell, chamber, mott, render
from .numerics import RngStream, ordered_ranges, text_sink, unit

logger = logging.getLogger(__name__)

# most angles scatter accepts: 10^6 rows took 3.0-3.5 s on both CPUs of a 2-vCPU Xeon VM with AVX-512
# (5.5-5.9 s on one), 47 MB max RSS in each process and a 128 MB angular.csv
MAX_ANGLES = 1_000_000
# most angles in a range of a scatter run on numerics.ordered_ranges: from two ranges of 2048 a fork paid
_RANGE_ANGLES = 2**12
SEEDS = (0, 2**64 - 1)  # the documented --seed U64; RngStream would alias a seed outside it


def _need(config: dict, key: str):
    if key not in config:
        raise ValueError(f"key {key!r} is missing")
    return config[key]


def _read(config: dict, key, default=None, kind=(int, float), where: str = "key "):
    # the number rule of a gas.json value, for a key that may fall back to a default
    if default is not None and key not in config:
        return default
    return chamber._json_number(config, key, where, kind)


def _number(config: dict, key: str, default=None) -> float:
    return float(_read(config, key, default))


def _integer(config: dict, key: str, default=None, bounds=None) -> int:
    value = _read(config, key, default, int)
    if bounds is not None and not bounds[0] <= value <= bounds[1]:
        raise ValueError(f"key '{key}' must lie in [{bounds[0]}, {bounds[1]}], got {value}")
    return value


def _vector(config: dict, key: str, default=None) -> np.ndarray:
    value = config.get(key, default) if default is not None else _need(config, key)
    if not isinstance(value, list) or len(value) != 3:
        raise ValueError(f"key '{key}' must be a list of three numbers, got {value!r}")
    items = dict(enumerate(value))
    return np.array([_read(items, i, where=f"key '{key}' item ") for i in range(3)], dtype=float)


def _direction(config: dict, key: str) -> np.ndarray:
    vector = _vector(config, key)
    try:
        return unit(vector)
    except ValueError as exc:
        raise ValueError(f"key '{key}': {exc}") from None


def _csv_rows(start: int, stop: int, columns) -> str:
    # rows [start, stop) of repr cells, formatted 256 at a time: columns(block) gives that slice of each
    # column (arrays or lists, whose .tolist() values format faster than numpy scalars)
    text = []
    for i in range(start, stop, 256):
        cells = (map(repr, np.asarray(c).tolist()) for c in columns(slice(i, min(i + 256, stop))))
        text += [",".join(row) + "\n" for row in zip(*cells)]
    return "".join(text)


def _write_csv(path: Path, header: str, n_rows: int, columns) -> None:
    with text_sink(path, header) as write:
        write(_csv_rows(0, n_rows, columns))


def _run_bell(config: dict, paths: dict[str, Path]) -> str:
    n = _integer(config, "n_trials")
    seed = _integer(config, "seed", bounds=SEEDS)
    a = bell.ApparatusSetting(_direction(config, "a"))
    b = bell.ApparatusSetting(_direction(config, "b"))
    c = bell.ApparatusSetting(_direction(config, "c")) if "c" in config else None
    rng = RngStream(seed)
    stream_ids = itertools.count(1)
    estimates = []

    def correlation(x: bell.ApparatusSetting, y: bell.ApparatusSetting):
        # an n_trials outside [1, MAX_TRIALS] raises before anything is drawn
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
    _write_csv(paths["output"], "ax,ay,az,bx,by,bz,mean,std_error,n", len(estimates), lambda _: zip(*(
        [*x.orientation, *y.orientation, est.mean, est.std_error, est.n_trials] for x, y, est in estimates)))
    return summary


def _species(config: dict, width: str = "width") -> dict:
    # the couplings of an ATOM_DTYPE record; its delta_e is the context's
    return {"width": _number(config, width), "g0": _number(config, "g0"), "g1": _number(config, "g1")}


def _build_context(config: dict) -> mott.ScatteringContext:
    k, delta_e = _number(config, "k"), _number(config, "delta_e", 0.0)
    return mott.ScatteringContext.from_wavenumber(k, delta_e)


def _run_scatter(config: dict, paths: dict[str, Path]) -> str:
    ctx = _build_context(config)
    atom = mott.atom([0.0, 0.0, _number(config, "distance")], **_species(config, "s"), delta_e=ctx.delta_e)
    n_theta = _integer(config, "n_theta", 181, bounds=(2, MAX_ANGLES))
    mott.quadrature_convergence_check(ctx, atom["width"], atom["g0"], atom["g1"])
    c2 = mott.normalization_c2(ctx, atom)  # couplings whose intensity overflows raise
    total = mott.flux_total(ctx, atom)
    thetas = np.linspace(0.0, math.pi, n_theta)

    def columns(block):
        q, i0, i1 = mott._amplitudes(ctx, atom, thetas[block])  # both channels from one q and envelope
        return thetas[block], i0.real, i0.imag, i1.real, i1.imag, q

    n_ranges = -(-n_theta // _RANGE_ANGLES)  # of equal size, so a worker gets at least _RANGE_ANGLES / 2
    edges = [n_theta * j // n_ranges for j in range(n_ranges + 1)]
    with text_sink(paths["output"], "theta,re_I0,im_I0,re_I1,im_I1,q") as write:
        ordered_ranges(list(zip(edges, edges[1:])), lambda span: [_csv_rows(*span, columns)], write,
                       "a scatter worker ended without sending its rows")
    return f"|C|^2={c2:.6f} flux_total={total:.6f} flux_free={mott.flux_free(ctx):.6f}"


def _gas(config: dict, ctx: mott.ScatteringContext) -> tuple:
    # the sampling keys of a gas, in the argument order of sample_gas
    species = chamber.AtomSpecies(**_species(config), delta_e=ctx.delta_e)
    density, inner, outer = (_number(config, key) for key in ("density", "inner_radius", "chamber_radius"))
    return density, inner, outer, species, RngStream(_integer(config, "seed", bounds=SEEDS))


_TRACK_HEADER = "dx,dy,dz,N,flux_ratio"


def _run_track(config: dict, paths: dict[str, Path]) -> str:
    ctx = _build_context(config)
    if "gas_file" in config:
        try:
            gas = chamber.load_configuration(Path(config["gas_file"]))  # open() reads ints as fds
        except (OSError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"cannot load gas_file {config['gas_file']!r}: {exc}") from None
    else:
        gas = chamber.sample_gas(*_gas(config, ctx))
    atoms = gas.atoms
    mott.quadrature_convergence_check(ctx, atoms["width"], atoms["g0"], atoms["g1"])
    # before any file: a gas too narrow for a forward cone, or couplings whose
    # intensity overflows in |C|^2, raise here
    track = chamber.select_track(gas, ctx)
    chamber.save_configuration(gas, paths["gas_output"])
    _write_csv(paths["output"], _TRACK_HEADER, 0 if track is None else 1,
               lambda _: (*track.direction[:, None], [track.chain.n], [track.flux_ratio]))
    if track is None:
        return "no track (empty configuration)"
    if logger.isEnabledFor(logging.INFO):  # one |C|^2 per atom, only for a line someone reads: never fails a run
        try:
            off_chain = chamber.off_chain_c2_product(gas, ctx, track.chain)
            logger.info("off-chain |C|^2 product: %r over %d atoms", off_chain, gas.n_atoms - track.chain.n)
        except ValueError as exc:  # an off-chain coupling whose intensity overflows
            logger.info("off-chain |C|^2 product is not finite: %s", exc)
    return f"track N={track.chain.n} flux_ratio={track.flux_ratio:.4f}"


def _run_isotropy(config: dict, paths: dict[str, Path]) -> str:
    ctx = _build_context(config)
    n_configs = _integer(config, "n_configs")
    density, inner, outer, species, rng = _gas(config, ctx)
    mott.quadrature_convergence_check(ctx, species.width, species.g0, species.g1)
    with text_sink(paths["tracks_output"], _TRACK_HEADER) as write:  # chunk rows, formatted where selected
        result = chamber.isotropy_experiment(
            n_configs, density, inner, outer, species, ctx, rng, write,
            lambda d, n, ratios: _csv_rows(0, len(ratios), lambda b: (*d[b].T, n[b], ratios[b])))
    _write_csv(paths["output"], "bin,count", len(result.counts), lambda _: zip(*enumerate(result.counts)))
    return f"isotropy n={n_configs} chi2={result.chi_square:.2f} p={result.p_value:.4f}"


def _run_render(config: dict, paths: dict[str, Path]) -> str:
    ctx = _build_context(config)
    plane_cfg = _need(config, "plane")  # an object, as run() checked
    plane = render.PlaneSpec(
        origin=_vector(plane_cfg, "origin", [0.0, 0.0, 0.0]),
        u_axis=_direction(plane_cfg, "u_axis"),
        v_axis=_direction(plane_cfg, "v_axis"),
        half_extent=_number(plane_cfg, "half_extent"),
        resolution=_integer(plane_cfg, "resolution"),
    )
    scale = render.check_modulus_scale(_number(config, "modulus_scale"))  # before sampling
    atom = None
    if "obstacle" in config:
        ob = config["obstacle"]
        atom = mott.atom(_vector(ob, "position"), **_species(ob), delta_e=ctx.delta_e)
        mott.quadrature_convergence_check(ctx, atom["width"], atom["g0"], atom["g1"])
        mott.normalization_c2(ctx, atom)  # couplings whose intensity overflows raise
    image = render.render_plane(lambda p: mott.wave_field(ctx, atom, p), plane, scale, paths.get("grid_csv"))
    render.write_ppm(image, paths["output"])
    return f"render wrote {paths['output'].name} {image.width}x{image.height}"


# each experiment's runner, its output keys with their default file names, in
# the order they are checked (None: written only when given), and the other
# keys it reads in each mode: those of the first mode key the config holds,
# else those of None.  Every config may hold a seed: --seed writes one into any
_EXPERIMENTS = {
    "bell": (_run_bell, {"output": "bell.csv"}, {None: "n_trials a b c"}),
    "scatter": (_run_scatter, {"output": "angular.csv"}, {None: "k delta_e distance s g0 g1 n_theta"}),
    "track": (_run_track, {"gas_output": "gas.json", "output": "track.csv"}, {
        "gas_file": "k delta_e gas_file", None: "k delta_e density inner_radius chamber_radius width g0 g1"}),
    "isotropy": (_run_isotropy, {"output": "isotropy.csv", "tracks_output": "tracks.csv"},
                 {None: "k delta_e n_configs density inner_radius chamber_radius width g0 g1"}),
    "render": (_run_render, {"output": "field.ppm", "grid_csv": None},
               {"obstacle": "k delta_e plane modulus_scale obstacle", None: "k plane modulus_scale"}),
}
_SUB_KEYS = {"plane": "origin u_axis v_axis half_extent resolution", "obstacle": "position width g0 g1"}


def _output_paths(config: dict, out_dir: Path, defaults: dict) -> dict[str, Path]:
    # every output of a run, checked before any file is written
    paths, keys, root = {}, {}, out_dir.resolve()
    for key, default in defaults.items():
        if key not in config and default is None:
            continue
        name = config.get(key, default)
        if not isinstance(name, str):
            raise ValueError(f"key '{key}' must be a file name, got {name!r}")
        path = out_dir / name
        try:
            real, is_dir, in_dir = path.resolve(), path.is_dir(), path.parent.is_dir()
        except (OSError, RuntimeError, ValueError) as exc:  # NUL bytes, lone surrogates, too long, loops
            raise ValueError(f"key '{key}': cannot use {name!r} as a file name: {exc}") from None
        if not real.is_relative_to(root):
            raise ValueError(f"key '{key}': {name!r} resolves outside --out-dir {str(out_dir)!r}")
        if is_dir:
            raise ValueError(f"key '{key}': {str(path)!r} is a directory")
        if not in_dir:
            raise ValueError(f"key '{key}': directory {str(path.parent)!r} does not exist")
        if real in keys:
            raise ValueError(f"keys '{keys[real]}' and '{key}' name the same file {str(real)!r}")
        paths[key], keys[real] = path, key
    return paths


def run(config: dict, out_dir: Path) -> str:
    """Dispatch one experiment config; returns the summary line, or raises ValueError for invalid input."""
    experiment = _need(config, "experiment")
    if not isinstance(experiment, str) or experiment not in _EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; valid names: {', '.join(_EXPERIMENTS)}"
        )
    runner, outputs, modes = _EXPERIMENTS[experiment]
    keys = next(keys for mode, keys in modes.items() if mode is None or mode in config)
    sections = [("", config, ["experiment", "seed", *keys.split(), *outputs])]
    for where, section, known in sections:  # the first key that the run would not read exits 2
        for key, value in section.items():
            if key not in known:
                raise ValueError(f"unknown key {key!r}{where}; valid keys: {', '.join(known)}")
            if key in _SUB_KEYS:
                if not isinstance(value, dict):
                    raise ValueError(f"key {key!r} must be an object")
                sections.append((f" in {key!r}", value, _SUB_KEYS[key].split()))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ValueError(f"cannot create --out-dir {str(out_dir)!r}: {exc}") from None
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
            raise ValueError(f"cannot read config {args.config!r}: {exc}") from None
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ValueError(f"config {args.config!r} is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ValueError("config must be a JSON object")
        if args.seed is not None:
            config["seed"] = args.seed
            _integer(config, "seed", bounds=SEEDS)
        with warnings.catch_warnings():  # a model warning is one line, not a package source location
            warnings.showwarning = lambda message, *_: print(f"mottbox: warning: {message}", file=sys.stderr)
            summary = run(config, Path(args.out_dir))
    except ValueError as exc:  # invalid input: the config's, or a model check's
        print(f"mottbox: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface runtime failures as exit 1
        print(f"mottbox: runtime error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
