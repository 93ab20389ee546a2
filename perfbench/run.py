"""mottbox benchmark: fresh CLI processes, output checks, traced layer times.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every operation spawns ``python3 perfbench/child.py``, which imports
``mottbox.cli`` from ``src/`` and calls ``main(argv)`` the way the
``mottbox`` console script does, one process at a time and without threads.
Users pay interpreter start and imports on every ``mottbox <config>``, so each
operation starts cold.  The loop repeats operations until ``--seconds`` have
passed and reports medians.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced operations, checks that both write the same
bytes, reports per-layer metrics (self time, counts) and the tracing
overhead, and times a ``build_chains`` scaling sweep.  Spans are written to
``.bench_build/perfbench/``.

The workload seed is a benchmark argument: mottbox only sees the config
generated from it.  Every operation's output files are hashed; at the
default seed the hashes must equal the ones pinned below, at every seed
repeated operations must give identical bytes, and each workload adds a
physics check.  A failed check counts the operation as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it are a table
of the same metrics with sample counts, the output hashes and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_build" / "perfbench"

DEFAULT_SEED = 1
MIN_OPERATIONS = 2
RUN_DEADLINE_S = 165.0
CHILD_TIMEOUT_S = 150.0
SWEEP_SIZES = (100, 300, 1000, 3000, 10000)
# time of the child's speed-probe loop on an undisturbed 2-vCPU Intel Xeon VM
# under Python 3.11; times are reported as if the CPU ran at that speed
REFERENCE_PROBE_S = 1.3e-3
# below ~1000 atoms per-call overhead hides the quadratic term
SWEEP_FIT_FROM = 1000

# The isotropy p-value is uniform under the null hypothesis, so a threshold
# of 0.01 would fail one seed in a hundred on a correct program.
ISOTROPY_P_MIN = 1e-4

CHAMBER = {"k": 10.0, "delta_e": 0.01, "inner_radius": 12.0, "chamber_radius": 40.0,
           "width": 1.0, "g0": 0.5, "g1": 0.5}
BELL_AXES = {"a": [1, 0, 0], "b": [1, 1, 0], "c": [0, 1, 0]}
RENDER_OBSTACLE = {"position": [12, 0, 0], "width": 1.0, "g0": 50.0, "g1": 0.0}

# SHA-256 of the outputs at DEFAULT_SEED and default sizes, taken before any
# optimisation landed; a change that moves a single byte fails here.
PINNED = {
    "isotropy-ensemble": {
        "isotropy.csv": "f856ac27e645c359438e9e1f88f1e3a61336dc514100afa16b4e80bf794aa9bb",
        "tracks.csv": "1b999a932e1317b1f206719a188bd4ce7addbef04fbb5d034e47998bb0c0d6c4",
    },
    "dense-track": {
        "gas.json": "7622da927b19278bb530fc1792012ed0d1c0685a62386439f65b7b0585014bf4",
        "track.csv": "f5140afbe8fe7cc723d145b511b899508bcf7cf7d540666a2b823f928c4162a9",
    },
    "render-obstacle": {
        "field.ppm": "e697248f30d3caa6a353b772a5615f7093762f5c56f19f85c8363af4057a4b3a",
    },
    "bell-mc": {
        "bell.csv": "fbd0df6e73bf0e8d62cd0caa3217a000d2737de3938595f1b99978abf009c86c",
    },
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build its CLI steps and check them.

    ``steps`` maps (seed, sizes, operation directory) to the configs of the
    CLI processes that make up one operation; step i writes into
    ``op_dir / f"out{i}"``.  ``work`` counts the items one operation
    completes, ``check`` returns a list of problems.
    """

    name: str
    work_unit: str
    sizes: dict
    outputs: tuple
    steps: Callable[[int, dict, Path], list]
    work: Callable[[dict, "Operation"], float]
    check: Callable[["Operation"], list]
    seed_dependent: bool = True


def _isotropy_steps(seed, sizes, op_dir):
    return [{"experiment": "isotropy", **CHAMBER, "n_configs": sizes["n_configs"],
             "density": sizes["density"], "seed": seed}]


def _isotropy_check(op):
    match = re.search(r" p=([0-9.eE+-]+)", op.stdout[0])
    if match is None:
        return [f"no p-value in summary {op.stdout[0]!r}"]
    problems = []
    if not float(match.group(1)) > ISOTROPY_P_MIN:
        problems.append(f"isotropy rejected: p={match.group(1)} <= {ISOTROPY_P_MIN}")
    counts = op.text("out0/isotropy.csv").splitlines()[1:]
    tracks = op.text("out0/tracks.csv").splitlines()[1:]
    if len(counts) != 32 or sum(int(line.split(",")[1]) for line in counts) != len(tracks):
        problems.append("isotropy.csv bin counts do not add up to the rows of tracks.csv")
    return problems


def _track_steps(seed, sizes, op_dir):
    sampled = {"experiment": "track", **CHAMBER, "density": sizes["density"], "seed": seed}
    replay = {"experiment": "track", "k": CHAMBER["k"], "delta_e": CHAMBER["delta_e"],
              "gas_file": str(op_dir / "out0" / "gas.json")}
    return [sampled, replay]


def _track_check(op):
    problems = []
    for name in ("track.csv", "gas.json"):
        if op.hashes.get(f"out0/{name}") != op.hashes.get(f"out1/{name}"):
            problems.append(f"replayed {name} differs from the sampled one")
    if len(op.text("out0/track.csv").splitlines()) != 2:
        problems.append("track.csv does not hold exactly one track")
    return problems


def _track_work(sizes, op):
    return float(len(json.loads(op.text("out0/gas.json"))["atoms"]))


def _render_steps(seed, sizes, op_dir):
    res = sizes["resolution"]
    return [{"experiment": "render", "k": 10.0, "delta_e": 0.01, "obstacle": RENDER_OBSTACLE,
             "plane": {"origin": [0, 0, 0], "u_axis": [1, 0, 0], "v_axis": [0, 1, 0],
                       "half_extent": 20.0, "resolution": res},
             "modulus_scale": 0.08}]


def _render_check(op):
    res = op.sizes["resolution"]
    header = f"P6\n{res} {res}\n255\n".encode("ascii")
    data = (op.dir / "out0" / "field.ppm").read_bytes()
    if not data.startswith(header) or len(data) != len(header) + 3 * res * res:
        return ["field.ppm is not a P6 image of the requested size"]
    return []


def _bell_steps(seed, sizes, op_dir):
    return [{"experiment": "bell", **BELL_AXES, "n_trials": sizes["n_trials"], "seed": seed}]


def _bell_check(op):
    problems = []
    if "violated=true" not in op.stdout[0]:
        problems.append(f"Bell inequality not violated: {op.stdout[0]!r}")
    if len(op.text("out0/bell.csv").splitlines()) != 4:
        problems.append("bell.csv does not hold three correlations")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("isotropy-ensemble", "configs", {"n_configs": 2000, "density": 1e-4},
                 (("isotropy.csv", "tracks.csv"),), _isotropy_steps,
                 lambda sizes, op: float(sizes["n_configs"]), _isotropy_check),
        Workload("dense-track", "atoms", {"density": 2e-2},
                 (("gas.json", "track.csv"), ("gas.json", "track.csv")), _track_steps,
                 _track_work, _track_check),
        Workload("render-obstacle", "pixels", {"resolution": 384},
                 (("field.ppm",),), _render_steps,
                 lambda sizes, op: float(sizes["resolution"] ** 2), _render_check,
                 seed_dependent=False),
        Workload("bell-mc", "trials", {"n_trials": 10_000_000},
                 (("bell.csv",),), _bell_steps,
                 lambda sizes, op: 3.0 * sizes["n_trials"], _bell_check),
    )
}

# wrapped functions whose call count is a per-layer metric besides self time
COUNTED_CALLS = ("numerics.quad_1d", "mott.normalization_c2", "mott.wave_field")
LAYER_COUNTERS = (
    "chamber.atoms_sampled",
    "chamber.chains_built",
    "chamber.empty_configs",
    "chamber.save_configuration.bytes",
    "render.write_ppm.bytes",
    "render.masked_pixels",
    "bell.trials",
)


@dataclass
class Process:
    """One finished child process and its times.

    ``setup_s``, ``run_s`` and ``wall_s`` are at reference speed: the
    probe's own time is taken out and the rest is scaled by the probe's
    reference time over its median time in the same phase (import, main,
    the rest).  ``speed`` is that ratio over the whole process; the
    ``raw_*`` fields are the plain clock differences.
    """

    code: int
    rss_mb: float
    result: Optional[dict]
    speed: float = math.nan
    raw_setup_s: float = math.nan
    raw_run_s: float = math.nan
    raw_wall_s: float = math.nan
    setup_s: float = math.nan
    run_s: float = math.nan
    wall_s: float = math.nan


@dataclass
class Operation:
    """One operation of a workload: its processes, output hashes and verdict."""

    dir: Path
    sizes: dict
    processes: list = field(default_factory=list)
    stdout: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    output_bytes: int = 0
    work: float = 0.0
    problems: list = field(default_factory=list)

    def text(self, relpath: str) -> str:
        return (self.dir / relpath).read_text(encoding="utf-8")

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def run_s(self) -> float:
        return sum(p.run_s for p in self.processes)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.processes)

    @property
    def raw_wall_s(self) -> float:
        return sum(p.raw_wall_s for p in self.processes)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args: list, result_path: Path, stdout_path: Path, timeout: float) -> Process:
    """Run one child to completion; its own max RSS comes from ``os.wait4``."""
    with open(stdout_path, "wb") as out:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(result_path), *args],
            stdout=out, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT,
        )

        def kill(signum, frame):
            proc.kill()

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = None
    process = Process(proc.returncode, usage.ru_maxrss / 1024.0, result)
    if result is not None:
        probe = result["probe"]
        process.speed = REFERENCE_PROBE_S / statistics.median(d for _, d in probe)

        def at_reference_speed(start, end):
            # the CPU's speed changes within seconds, so each phase of the
            # process is scaled by the probe samples taken during it
            inside = [d for t, d in probe if start <= t < end]
            speed = REFERENCE_PROBE_S / statistics.median(inside) if inside else process.speed
            return (end - start - sum(inside)) * speed

        marks = [t_spawn, result["t_imported"], *[result[k] for k in ("t_main", "t_main_end") if k in result], t_exit]
        process.raw_setup_s = result["t_imported"] - t_spawn
        process.raw_wall_s = t_exit - t_spawn
        process.setup_s = at_reference_speed(t_spawn, result["t_imported"])
        process.wall_s = sum(at_reference_speed(a, b) for a, b in zip(marks, marks[1:]))
        if "t_main" in result:
            process.raw_run_s = result["t_main_end"] - result["t_main"]
            process.run_s = at_reference_speed(result["t_main"], result["t_main_end"])
    return process


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_operation(wl: Workload, seed: int, sizes: dict, op_dir: Path, traced: bool,
                  deadline: float, corrupt: Optional[Callable[[Path], None]] = None) -> Operation:
    """Run the CLI steps of one operation and check everything they wrote."""
    op = Operation(dir=op_dir, sizes=sizes)
    op_dir.mkdir(parents=True)
    for i, config in enumerate(wl.steps(seed, sizes, op_dir)):
        config_path = op_dir / f"step{i}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        args = ["trace" if traced else "run", "--", str(config_path), "--out-dir", str(op_dir / f"out{i}")]
        proc = spawn(args, op_dir / f"result{i}.json", op_dir / f"stdout{i}.txt",
                     min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
        op.processes.append(proc)
        op.stdout.append((op_dir / f"stdout{i}.txt").read_text(encoding="utf-8", errors="replace"))
        if proc.code != 0 or proc.result is None:
            op.problems.append(f"step {i} exited with {proc.code}: {op.stdout[-1].strip()[-300:]!r}")
            return op
        if Path(proc.result["module_file"]).resolve().parent != SRC / "mottbox":
            op.problems.append(f"imported mottbox from {proc.result['module_file']}, not {SRC}")
            return op
    if corrupt is not None:
        corrupt(op_dir)
    for i, names in enumerate(wl.outputs):
        for name in names:
            path = op_dir / f"out{i}" / name
            if not path.is_file():
                op.problems.append(f"missing output out{i}/{name}")
                continue
            op.hashes[f"out{i}/{name}"] = _sha256(path)
            op.output_bytes += path.stat().st_size
    if op.problems:
        return op
    pins = PINNED[wl.name] if sizes == wl.sizes and (seed == DEFAULT_SEED or not wl.seed_dependent) else {}
    for key, digest in op.hashes.items():
        pinned = pins.get(key.split("/", 1)[1])
        if pinned is not None and digest != pinned:
            op.problems.append(f"{key} sha256 {digest} differs from the pinned {pinned}")
    op.problems.extend(wl.check(op))
    if op.ok:
        op.work = wl.work(sizes, op)
    return op


def _scaling_exponent(times: dict) -> float:
    points = [(math.log(int(n)), math.log(t)) for n, t in times.items() if int(n) >= SWEEP_FIT_FROM]
    if len(points) < 2:
        points = [(math.log(int(n)), math.log(t)) for n, t in times.items()]
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)


def raw_clock(ops: list) -> dict:
    """Plain clock samples and probe speeds, printed beside the metrics."""
    procs = [p for op in ops if op.ok for p in op.processes]
    return {
        "setup_s": [p.raw_setup_s for p in procs],
        "run_s": [sum(p.raw_run_s for p in op.processes) for op in ops if op.ok],
        "wall_s": [op.raw_wall_s for op in ops if op.ok],
        "speed": [p.speed for p in procs],
    }


def end_to_end_metrics(ops: list) -> dict:
    """Samples of each end-to-end metric over the successful operations."""
    good = [op for op in ops if op.ok]
    return {
        # every process is one set-up: interpreter start plus `import mottbox.cli`
        "setup_s": [p.setup_s for op in good for p in op.processes],
        "run_s": [op.run_s for op in good],
        "wall_s": [op.wall_s for op in good],
        "work_per_s": [op.work / op.run_s for op in good],
        "peak_rss_mb": [max(p.rss_mb for p in op.processes) for op in good],
    }


def _layer_values(op: Operation) -> dict:
    """Per-layer numbers of one traced operation, summed over its processes."""
    traces = [p.result["trace"] for p in op.processes]

    def stat(fname, key):
        return sum(t["stats"][fname][key] for t in traces)

    values = {}
    for fname in traces[0]["stats"]:
        values[f"{fname}.self_s"] = stat(fname, "self_s")
    for fname in COUNTED_CALLS:
        values[f"{fname}.calls"] = stat(fname, "calls")
    values["mott.wave_field.us_per_call"] = (
        1e6 * stat("mott.wave_field", "total_s") / max(1, values["mott.wave_field.calls"])
    )
    values["numerics.RngStream.substreams"] = stat("numerics.RngStream.substream", "calls")
    hits = sum(t["c2_cache"][0] for t in traces)
    lookups = hits + sum(t["c2_cache"][1] for t in traces)
    values["mott.c2_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    for name in LAYER_COUNTERS:
        values[name] = sum(t["counters"].get(name, 0) for t in traces)
    values["cli.output_bytes"] = op.output_bytes
    return values


def layer_metrics(untraced: list, traced: list, sweep: Optional[Process]) -> dict:
    """Samples of each per-layer metric, the tracing overhead and the sweep."""
    plain = [op for op in untraced if op.ok]
    good = [op for op in traced if op.ok]
    per_op = [_layer_values(op) for op in good]
    metrics = {name: [v[name] for v in per_op] for name in (per_op[0] if per_op else ())}
    metrics["cli.import_s"] = [p.result["import_s"] for op in plain + good for p in op.processes]
    if plain and good:
        plain_wall = statistics.median(op.wall_s for op in plain)
        overhead = [op.wall_s - plain_wall for op in good]
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_frac"] = [x / plain_wall for x in overhead]
    if sweep is not None and sweep.code == 0 and sweep.result is not None:
        times = sweep.result["sweep"]
        for n, t in times.items():
            metrics[f"chamber.build_chains.scaling_s_n{n}"] = [t]
        metrics["chamber.build_chains.scaling_exponent"] = [_scaling_exponent(times)]
    return metrics


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(versions: dict) -> dict:
    """Where and on what the numbers were taken; informational, never gated."""
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
    }


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def summarize(rep: dict, specs: list) -> dict:
    """The metrics named in ``specs`` as {name: (median, unit, n)}."""
    return {
        m["name"]: (statistics.median(rep["metrics"][m["name"]]), m["unit"], len(rep["metrics"][m["name"]]))
        for m in specs
        if rep["metrics"].get(m["name"])
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Optional[dict] = None,
                 sweep_sizes: tuple = SWEEP_SIZES,
                 corrupt: Optional[Callable[[Path], None]] = None) -> dict:
    """Run one workload for ``seconds`` and return its report.

    The report holds ``attempted``, ``failed``, ``metrics`` (name -> list
    of samples), ``hashes``, ``problems`` and ``versions``.
    """
    wl = WORKLOADS[name]
    sizes = dict(wl.sizes if sizes is None else sizes)
    t_start = time.monotonic()
    deadline = t_start + RUN_DEADLINE_S
    work_dir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        # compiles bytecode and warms the page cache, as any earlier run would have
        warm = spawn(["import"], work_dir / "warm.json", work_dir / "warm.txt", CHILD_TIMEOUT_S)
        if warm.code != 0:
            raise SystemExit(f"cannot import mottbox from {SRC}: "
                             + (work_dir / "warm.txt").read_text(errors="replace")[-500:])
        untraced, traced = [], []
        t_measure = time.monotonic()
        last = 0.0
        # a traced pair costs two operations and the sweep follows it
        wanted = 1 if trace else MIN_OPERATIONS
        while True:
            done = len(traced) if trace else len(untraced)
            elapsed = time.monotonic() - t_measure
            # stop when another operation would end nearer past the budget
            # than the run now ends before it, so runs last ~seconds on average
            if done >= wanted and elapsed + last / 2 >= seconds:
                break
            if done >= 1 and time.monotonic() + last > deadline:
                break
            t0 = time.monotonic()
            if not trace:
                order = [False]
            elif len(traced) % 2 == 0:
                order = [False, True]
            else:
                # alternate the pair's order so that order effects cancel
                order = [True, False]
            for traced_op in order:
                op = run_operation(wl, seed, sizes, work_dir / f"op{len(untraced) + len(traced)}",
                                   traced_op, deadline, corrupt)
                (traced if traced_op else untraced).append(op)
            last = time.monotonic() - t0
        ops = untraced + traced
        reference = next((op.hashes for op in ops if op.ok), None)
        for op in ops:
            if op.ok and op.hashes != reference:
                op.problems.append("outputs differ from the first operation of the run (traced or not)")
        sweep = None
        if trace:
            sweep = spawn(["sweep", str(seed), *map(str, sweep_sizes)], work_dir / "sweep.json",
                          work_dir / "sweep.txt", min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
        problems = [f"op{i}: {p}" for i, op in enumerate(ops) for p in op.problems]
        attempted = len(ops)
        failed = sum(not op.ok for op in ops)
        if sweep is not None:
            attempted += 1
            if sweep.code != 0 or sweep.result is None:
                failed += 1
                problems.append("build_chains sweep: " + (work_dir / "sweep.txt").read_text(errors="replace")[-300:])
        if trace:
            metrics = layer_metrics(untraced, traced, sweep)
            spans = [
                {"op": i, "process": j, "spans": p.result["trace"]["spans"]}
                for i, op in enumerate(traced) if op.ok for j, p in enumerate(op.processes)
            ]
            spans_path = WORK / f"spans-{name}-seed{seed}.json"
            spans_path.write_text(json.dumps(spans), encoding="utf-8")
        else:
            metrics = end_to_end_metrics(ops)
            spans_path = None
        versions = next((p.result["versions"] for op in ops for p in op.processes if p.result), {})
        return {
            "workload": name, "seed": seed, "sizes": sizes, "trace": trace,
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "hashes": reference or {}, "problems": problems, "versions": versions,
            "spans_path": spans_path, "elapsed_s": time.monotonic() - t_start,
            "raw": raw_clock(untraced),
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def report(rep: dict, specs: list) -> None:
    """Print one workload's metric table, checks and output hashes."""
    wl = WORKLOADS[rep["workload"]]
    print(f"== {rep['workload']} seed={rep['seed']} trace={int(rep['trace'])} sizes={rep['sizes']}")
    print(f"{'metric':44s} {'median':>12s} {'unit':>6s} {'n':>4s} {'min':>12s} {'max':>12s}")
    for name, (value, unit, n) in summarize(rep, specs).items():
        samples = rep["metrics"][name]
        label = f"{name} ({wl.work_unit}_per_s)" if name == "work_per_s" else name
        print(f"{label:44s} {_format(value):>12s} {unit:>6s} {n:>4d} "
              f"{_format(min(samples)):>12s} {_format(max(samples)):>12s}")
    raw = ", ".join(f"{k} {_format(statistics.median(v))}" for k, v in rep["raw"].items() if v)
    print(f"untraced medians by the plain clock, with the probe's speed: {raw}")
    print(f"failed_frac {rep['failed']}/{rep['attempted']} = {rep['failed'] / rep['attempted']:.4g}"
          f"  elapsed {rep['elapsed_s']:.1f} s")
    for key, digest in sorted(rep["hashes"].items()):
        print(f"sha256 {key} {digest}")
    if rep["spans_path"] is not None:
        print(f"spans written to {rep['spans_path'].relative_to(ROOT)}")
    for problem in rep["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "mottbox" / "cli.py").is_file():
        print(f"perfbench: no mottbox sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    reports = [run_workload(name, args.seed, seconds, bool(args.trace)) for name in names]
    print("provenance " + json.dumps(provenance(reports[0]["versions"]), sort_keys=True))
    metrics = {}
    for rep in reports:
        report(rep, specs)
        prefix = "" if len(reports) == 1 else rep["workload"] + "/"
        for name, (value, unit, _) in summarize(rep, specs).items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(rep["attempted"] for rep in reports)
    failed = sum(rep["failed"] for rep in reports)
    correct = failed == 0 and len(metrics) == len(specs) * len(reports)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
