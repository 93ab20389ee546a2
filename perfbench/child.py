"""One benchmark child process: import mottbox, run its CLI once, report timings.

Usage (from run.py, never by hand):

    python3 perfbench/child.py RESULT.json run   -- <mottbox argv>
    python3 perfbench/child.py RESULT.json trace -- <mottbox argv>
    python3 perfbench/child.py RESULT.json sweep SEED N1 N2 ...
    python3 perfbench/child.py RESULT.json import

``run`` times ``mottbox.cli.main(argv)`` exactly as the ``mottbox`` console
script calls it.  ``trace`` does the same after replacing the public
functions of the package's modules with timing wrappers; no file under
``src/`` changes.  ``sweep`` times ``chamber.build_chains`` directly on gases
of exactly N atoms.  ``import`` only imports the package (a warm-up).

The result file holds monotonic clock readings (import finished, ``main``
entered and left) and the speed-probe samples, so the parent can measure
set-up time from the moment it spawned the process.  The CLI's exit code is
this process's exit code.
"""

import signal
import sys
import time

PROBE_INTERVAL_S = 0.05
PROBE_LOOP = 20_000


class SpeedProbe:
    """Samples how fast this CPU runs Python right now.

    Every ``PROBE_INTERVAL_S``, and once at start and at stop, a SIGALRM
    handler times a fixed pure-Python loop and records (start, duration).  On a shared machine the same code
    runs up to twice as slow for seconds at a time; the parent scales each
    process's times by the probe's speed during that process and subtracts
    the probe's own time.  Handlers run between bytecodes, so a long numpy
    call delays a sample but is never interrupted.
    """

    def __init__(self):
        self.samples = []

    def sample(self, signum=None, frame=None):
        t0 = time.monotonic()
        s = 0
        for i in range(PROBE_LOOP):
            s += i * i
        self.samples.append((t0, time.monotonic() - t0))

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()


_probe = SpeedProbe()
_t_enter = time.monotonic()
_probe.start()

import mottbox.cli  # noqa: E402  (the import is what set-up time measures)

_t_imported = time.monotonic()


class Tracer:
    """Self-time accounting for wrapped functions, kept in memory.

    Each wrapped call pushes a frame; on return its duration is charged to
    the caller's child time, so ``self_s`` is the duration minus the time of
    wrapped callees.  Functions in ``SPAN`` mode also record one span
    (name, start, end, parent span index) per call; the hot ones
    (``AGGREGATE``) keep only a count and summed times.
    """

    SPAN, AGGREGATE = "span", "aggregate"

    def __init__(self):
        self.stack = []
        self.stats = {}  # name -> {"calls", "self_s", "total_s"}
        self.counters = {}
        self.spans = []

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, mode, on_return=None, on_raise=None):
        perf = time.perf_counter
        stack = self.stack
        spans = self.spans
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        record = mode == self.SPAN

        def wrapper(*args, **kwargs):
            # frame: [start, time in wrapped callees, index of the enclosing span]
            enclosing = stack[-1][2] if stack else -1
            if record:
                spans.append([name, 0.0, 0.0, enclosing])
                enclosing = len(spans) - 1
            frame = [perf(), 0.0, enclosing]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[0]
                stat["calls"] += 1
                stat["total_s"] += duration
                stat["self_s"] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record:
                    spans[frame[2]][1:3] = [frame[0], end]
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return wrapper


def _replace_everywhere(original, wrapper):
    # modules bind imported names in their own namespaces (chamber holds its
    # own `normalization_c2`), so every binding of the function is replaced
    for name, module in list(sys.modules.items()):
        if name == "mottbox" or name.startswith("mottbox."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _file_size(path):
    import os

    return os.path.getsize(path)


def install_tracer():
    """Wrap the public functions of every mottbox layer; returns the tracer."""
    from mottbox import bell, chamber, cli, mott, numerics, render

    tracer = Tracer()
    span, agg = Tracer.SPAN, Tracer.AGGREGATE

    def masked(exc):
        if isinstance(exc, mott.SingularPointError):
            tracer.count("render.masked_pixels", 1)

    plan = [
        (numerics, "quad_1d", agg, None, None),
        (mott, "normalization_c2", agg, None, None),
        (mott, "wave_field", agg, None, masked),
        (mott, "quadrature_convergence_check", span, None, None),
        (chamber, "sample_gas", span,
         lambda r, a, k: tracer.count("chamber.atoms_sampled", r.n_atoms), None),
        (chamber, "build_chains", span,
         lambda r, a, k: tracer.count("chamber.chains_built", len(r)), None),
        (chamber, "select_track", span, None, None),
        (chamber, "off_chain_c2_product", span, None, None),
        (chamber, "isotropy_experiment", span,
         lambda r, a, k: tracer.count("chamber.empty_configs", r.n_empty), None),
        (chamber, "save_configuration", span,
         lambda r, a, k: tracer.count("chamber.save_configuration.bytes", _file_size(a[1])), None),
        (chamber, "load_configuration", span, None, None),
        (render, "sample_plane", span, None, None),
        (render, "colorize", span, None, None),
        (render, "write_ppm", span,
         lambda r, a, k: tracer.count("render.write_ppm.bytes", _file_size(a[1])), None),
        (bell, "correlation_mc", span,
         lambda r, a, k: tracer.count("bell.trials", r.n_trials), None),
        (cli, "main", span, None, None),
    ]
    for module, attr, mode, on_return, on_raise in plan:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        _replace_everywhere(original, tracer.wrap(name, original, mode, on_return, on_raise))

    substream = numerics.RngStream.substream
    numerics.RngStream.substream = tracer.wrap(
        "numerics.RngStream.substream", substream, agg
    )
    return tracer


def build_chains_sweep(seed, sizes):
    """Seconds per ``chamber.build_chains`` call on gases of exactly n atoms.

    Each gas is a Poisson sample of the README chamber shell at a density
    giving ~1.1 n atoms, cut to its first n atoms (sampling order is random,
    so the cut is an unbiased subsample).  A sample with fewer than n atoms
    (about one seed in six at n = 100) is drawn again from the next unused
    stream, so every seed gives a sweep.  Small sizes repeat until 0.2 s
    have been spent and report the median.
    """
    import math
    import statistics

    from mottbox import chamber, mott
    from mottbox.numerics import RngStream

    ctx = mott.ScatteringContext.from_wavenumber(10.0, 0.01)
    species = chamber.AtomSpecies(width=1.0, g0=0.5, g1=0.5, delta_e=0.01)
    inner, outer = 12.0, 40.0
    volume = 4.0 * math.pi / 3.0 * (outer**3 - inner**3)
    theta_c = chamber.cone_half_angle(ctx, species.width)
    times = {}
    for i, n in enumerate(sizes):
        stream_id = 1 + i
        gas = chamber.sample_gas(1.1 * n / volume, inner, outer, species, RngStream(seed, stream_id))
        while gas.n_atoms < n:
            stream_id += len(sizes)
            gas = chamber.sample_gas(1.1 * n / volume, inner, outer, species, RngStream(seed, stream_id))
        gas = chamber.GasConfiguration(
            atoms=gas.atoms[:n], chamber_radius=outer, inner_radius=inner, seed=seed, stream_id=stream_id
        )
        samples = []
        spent = 0.0
        while not samples or (spent < 0.2 and len(samples) < 25):
            t0 = time.perf_counter()
            chamber.build_chains(gas, ctx, theta_c)
            samples.append(time.perf_counter() - t0)
            spent += samples[-1]
        times[str(n)] = statistics.median(samples)
    return times


def main():
    import json

    result_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:] if mode in ("run", "trace") else sys.argv[3:]
    result = {
        "t_imported": _t_imported,
        "import_s": _t_imported - _t_enter,
        "module_file": mottbox.cli.__file__,
    }
    code = 0
    if mode in ("run", "trace"):
        tracer = install_tracer() if mode == "trace" else None
        result["t_main"] = time.monotonic()
        code = mottbox.cli.main(argv)
        result["t_main_end"] = time.monotonic()
        if tracer is not None:
            cache = mottbox.mott._intensity_integrals.cache_info()
            result["trace"] = {
                "stats": tracer.stats,
                "counters": tracer.counters,
                "spans": tracer.spans,
                "c2_cache": [cache.hits, cache.misses],
            }
    elif mode == "sweep":
        _probe.stop()
        result["sweep"] = build_chains_sweep(int(argv[0]), [int(n) for n in argv[1:]])
    elif mode != "import":
        raise SystemExit(f"unknown mode {mode!r}")

    _probe.stop()
    result["probe"] = _probe.samples
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
