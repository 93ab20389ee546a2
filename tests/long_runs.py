"""Long runs at resource-guard scale: pinned output bytes and bounded peak memory.

Each case runs ``python -m mottbox`` from this checkout's src/ in a fresh
process.  It fails if the run exits non-zero, if an output it pins has another
SHA-256, or if the child's max RSS exceeds the case's bound.  An isotropy run
forks a worker per further CPU it may run on; ``os.wait4`` then reports the
largest max RSS of the child and the workers it reaped, not their sum, so
the bound covers the largest single process.  A replay case runs a track on
the gas.json of an earlier case, and must write every file of that case
again, byte for byte.

Usage: python3 tests/long_runs.py   (no arguments; exits 1 if any case fails)
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RENDER = {"experiment": "render", "k": 10.0, "delta_e": 0.01,
          "obstacle": {"position": [12, 0, 0], "width": 1.0, "g0": 50.0, "g1": 0.0},
          "plane": {"origin": [0, 0, 0], "u_axis": [1, 0, 0], "v_axis": [0, 1, 0], "half_extent": 20.0},
          "modulus_scale": 0.08}
ISOTROPY = {"experiment": "isotropy", "k": 10.0, "delta_e": 0.01, "density": 1e-4, "inner_radius": 12.0,
            "chamber_radius": 40.0, "width": 1.0, "g0": 0.5, "g1": 0.5, "seed": 20260810}
TRACK = {"experiment": "track", "k": 10.0, "delta_e": 0.01, "density": 0.38, "inner_radius": 12.0,
         "chamber_radius": 40.0, "width": 1.0, "g0": 0.5, "g1": 0.5, "seed": 7}


def render(resolution: int, **extra) -> dict:
    return {**RENDER, **extra, "plane": {**RENDER["plane"], "resolution": resolution}}


# name: (config, the SHA-256 of each output it pins or, for a replay, the name of
# the case whose outputs it must write again, max-RSS bound in MB)
CASES = {
    # the render streams: the image is its only plane-sized array. The 2048^2 render
    # takes about 52 MB max RSS, and at 1024^2 with grid.csv about 44 MB. The hashes
    # were taken while the whole complex grid was held
    "render 2048^2": (render(2048), {
        "field.ppm": "30a8232c4df884c04665a23bdee866ad68d6327ca889635c1dc12d3f74a89acb"}, 80.0),
    "render 1024^2 with grid.csv": (render(1024, grid_csv="grid.csv"), {
        "field.ppm": "ff64adccca3944dee6220a118f67f53efb90de548d01335a65d588c7a1eda49b",
        "grid.csv": "480fb8850c213f0678013480b94d57318816369cd2bacf7cf04f4a84a882fedf"}, 52.0),
    # the README isotropy config at 10^5 and 10^6 configurations (about 40 MB in each process: the
    # run streams tracks.csv and keeps only the bin counts) and 3*10^5 near-empty ones at density
    # 1e-7 (about 38 MB). The README runs' hashes were taken while the run kept every track
    # until it ended (10^6 then took about 78 MB)
    "isotropy, 100000 configurations at density 1e-4": ({**ISOTROPY, "n_configs": 100_000}, {
        "isotropy.csv": "8e4094bbf6af57e4e7b4f7cd7c300ad1ce8b3f3f1fb0a7094067d5f45b0c7d54",
        "tracks.csv": "70f05201bee478b91a701ff0b5bca8161570f186b9bf8671bf3e287500a381c4"}, 52.0),
    "isotropy, 1000000 configurations at density 1e-4": ({**ISOTROPY, "n_configs": 1_000_000}, {
        "isotropy.csv": "f8119a8bddae3c3f5365de827f3ab20f6d0ee6e52fe7bd144aeba4efc69fb6ca",
        "tracks.csv": "aabc7e8a260d550256f3cf46db203be0835d7d15a94dc6503cb3db77dc034277"}, 52.0),
    "isotropy, 300000 configurations at density 1e-7": (
        {**ISOTROPY, "n_configs": 300_000, "density": 1e-7}, {}, 52.0),
    # the README config at density 1.5e-3, about 94 chunks per range (about 40 MB max RSS). A worker's
    # message of one range was larger than a 64 KiB pipe buffer while it carried each chunk's bin counts
    "isotropy, 10000 configurations at density 1.5e-3": (
        {**ISOTROPY, "n_configs": 10_000, "density": 1.5e-3}, {
        "isotropy.csv": "74f59a0e24bf6da7d57243d0b8cf2e825dc3cd96303a6fce8acdd6b7713ec72b",
        "tracks.csv": "33fb80dcf9dd186a764b397a54723069d157de0f588baf5cc56ce552e24259de"}, 52.0),
    # the README track species at density 0.38, about 99k atoms, sampled and then replayed
    # from its gas.json. A replay peaks where sampling does, at about 87 MB (116 MB while
    # the parse built a dict and seven floats per atom)
    "track at density 0.38": (TRACK, {}, 100.0),
    "replay of that track's gas.json": ({"experiment": "track", "k": 10.0, "delta_e": 0.01},
                                        "track at density 0.38", 100.0),
    # the README track species at k s = 1.94, whose cone lies just inside WIDE_CONE_ANGLE: the
    # widest cone that lists candidates, 20,192 atoms, about 63 MB max RSS. The hashes were
    # taken while the chain search tested steps near the cone edge with BLAS products
    "track at k s = 1.94, density 0.0767": ({**TRACK, "k": 1.94, "density": 0.0767}, {
        "gas.json": "8313a3b022f3a4c47cd104a8f5f0f6218308b532342667b2050e0a267a7f20e9",
        "track.csv": "c81cc977d4fa95b5c7cc183420f21f466d47b4e794380e1b8422eb552116a9e9"}, 80.0),
    # angular.csv keeps the SHA-256 it had when each angle was computed on its own;
    # the run takes about 46 MB max RSS
    "scatter, 10^6 angles": ({"experiment": "scatter", "k": 10.0, "delta_e": 0.01, "s": 1.0, "g0": 0.5,
                              "g1": 0.5, "distance": 10.0, "n_theta": 1_000_000}, {
        "angular.csv": "f6b6483ecb2f8545002197967e7c2cc87df32993b99ffc80ed54f79a0d338832"}, 52.0),
    # the README bell config at 10^8 trials, and its (a, b) pair alone at MAX_TRIALS = 10^9:
    # each about 37 MB max RSS, since a run keeps only the count of -1 products. The 10^9
    # hash was taken while a run kept one bit per trial (then about 156 MB max RSS)
    "bell, 10^8 trials": ({"experiment": "bell", "a": [1, 0, 0], "b": [1, 1, 0], "c": [0, 1, 0],
                           "n_trials": 100_000_000, "seed": 42}, {
        "bell.csv": "904e871148d1f8abdf1da907974b52eb59f68f36360a155b605efd1397a427b8"}, 44.0),
    "bell, 10^9 trials": ({"experiment": "bell", "a": [1, 0, 0], "b": [1, 1, 0],
                           "n_trials": 1_000_000_000, "seed": 42}, {
        "bell.csv": "34abf34202aba07715ca5f25bfd157ade0953bc82e3958be9a80636223be0db6"}, 44.0),
}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main() -> int:
    failed, outs, digests = False, {}, {}
    replayed = {pins for _, pins, _ in CASES.values() if isinstance(pins, str)}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, (config, pins, bound_mb)) in enumerate(CASES.items()):
            if isinstance(pins, str):
                config, pins = {**config, "gas_file": str(outs[pins] / "gas.json")}, digests[pins]
            path, outs[name] = Path(tmp, f"{i}.json"), Path(tmp, str(i))
            path.write_text(json.dumps(config), encoding="utf-8")
            child = subprocess.Popen([sys.executable, "-m", "mottbox", str(path), "--out-dir", str(outs[name])],
                                     cwd=SRC)  # -m finds the package in its working directory
            _, status, usage = os.wait4(child.pid, 0)  # the peak of this child or of one of its workers
            status = os.waitstatus_to_exitcode(status)
            digests[name] = {p.name: sha256(p) for p in outs[name].iterdir()} if status == 0 else {}
            if name not in replayed:  # the outputs of a case that no later case replays can go
                shutil.rmtree(outs[name], ignore_errors=True)
            same = {key: digests[name].get(key) for key in pins} == pins
            max_rss_mb = usage.ru_maxrss / 1024
            print(f"{name}: exit status {status}, max RSS {max_rss_mb:.1f} MB (bound {bound_mb:.0f} MB), "
                  f"SHA-256 of {', '.join(sorted(pins)) or 'no file'} as pinned: {same}", flush=True)
            failed |= status != 0 or not same or max_rss_mb > bound_mb
    return failed


if __name__ == "__main__":
    sys.exit(main())
