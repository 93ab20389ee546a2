"""Fast self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced at tiny sizes and checks that each
metric of BENCHMARK.json is emitted with its unit and a sample count.  Then
corrupts output files on purpose and checks that each corruption is counted
as a failed operation: a byte flipped between two repeated operations, a
replayed track that no longer matches, and a render that no longer matches
its pinned SHA-256.  Also runs the build_chains sweep at a seed whose first
gas is too small, which must be drawn again.  Exits 0 when every check holds; takes about a minute.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import run

TINY = {
    "isotropy-ensemble": {"n_configs": 100, "density": 1e-4},
    "dense-track": {"density": 2e-4},
    "render-obstacle": {"resolution": 16},
    "bell-mc": {"n_trials": 1000},
}
TINY_SWEEP = (50, 100, 200)
SEED = 7


def _flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def check_metrics(failures: list, spec: dict) -> None:
    scaling = {f"chamber.build_chains.scaling_s_n{n}" for n in run.SWEEP_SIZES}
    declared = {m["name"] for m in spec["per_layer"] if m["name"].startswith("chamber.build_chains.scaling_s_n")}
    if declared != scaling:
        failures.append(f"BENCHMARK.json sweep metrics {sorted(declared)} do not match SWEEP_SIZES")
    tiny_scaling = [{"name": f"chamber.build_chains.scaling_s_n{n}", "unit": "s"} for n in TINY_SWEEP]
    layer_specs = [m for m in spec["per_layer"] if m["name"] not in scaling] + tiny_scaling
    for name, sizes in TINY.items():
        for trace, specs in ((False, spec["end_to_end"]), (True, layer_specs)):
            rep = run.run_workload(name, SEED, 0.0, trace, sizes=sizes, sweep_sizes=TINY_SWEEP)
            label = f"{name} trace={int(trace)}"
            if rep["failed"]:
                failures.append(f"{label}: {rep['failed']} of {rep['attempted']} failed: {rep['problems']}")
            summary = run.summarize(rep, specs)
            for m in specs:
                if m["name"] not in summary:
                    failures.append(f"{label}: metric {m['name']} not emitted")
                    continue
                _, unit, n = summary[m["name"]]
                if unit != m["unit"] or n < 1:
                    failures.append(f"{label}: metric {m['name']} has unit {unit!r} and {n} samples")
            print(f"ok {label}: {len(summary)} metrics, {rep['attempted']} operations")


def check_short_sweep_gas(failures: list, work_dir: Path) -> None:
    # at seed 23 the first 100-atom sweep gas comes out with 95 atoms, so the
    # sweep must draw it again instead of failing the traced run
    work_dir.mkdir(parents=True, exist_ok=True)
    proc = run.spawn(["sweep", "23", "100"], work_dir / "sweep.json", work_dir / "sweep.txt",
                     run.CHILD_TIMEOUT_S)
    if proc.code != 0 or proc.result is None or "100" not in proc.result["sweep"]:
        failures.append("build_chains sweep failed on a short first gas: "
                        + (work_dir / "sweep.txt").read_text(errors="replace")[-300:])
    else:
        print("ok build_chains sweep: a short first gas is drawn again")
    shutil.rmtree(work_dir, ignore_errors=True)


def check_corruption(failures: list) -> None:
    def second_op_only(op_dir: Path) -> None:
        if op_dir.name == "op1":
            _flip_byte(op_dir / "out0" / "bell.csv")

    cases = [
        ("bell-mc", TINY["bell-mc"], second_op_only, "repeated operations differ"),
        ("dense-track", TINY["dense-track"], lambda d: _flip_byte(d / "out1" / "track.csv"),
         "replayed track differs"),
        ("render-obstacle", None, lambda d: _flip_byte(d / "out0" / "field.ppm"),
         "pinned hash differs"),
    ]
    for name, sizes, corrupt, what in cases:
        rep = run.run_workload(name, SEED, 0.0, False, sizes=sizes, corrupt=corrupt)
        if rep["failed"] < 1:
            failures.append(f"{name}: corrupted output ({what}) was not counted as failed")
        else:
            print(f"ok {name}: corrupted output ({what}) counted, {rep['failed']}/{rep['attempted']} failed")


def main() -> int:
    failures: list = []
    check_metrics(failures, run.benchmark_spec())
    check_short_sweep_gas(failures, run.WORK / "selfcheck-sweep")
    check_corruption(failures)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
