"""Every pinned run of the suite: the SHA-256 of each output it must write, in one table.

A case is a README JSON config block with named changes (``readme``), the ``--seed``
it runs with (None: the config's own), and, for each output it pins, that file's
SHA-256 with the commit that first pinned it (``git log -S<digest> --reverse``), or
the earlier commit it was taken on.  A long-run case also holds the max-RSS bound of
its process in MB, and a replay the name of the case whose gas.json it replays and
whose files it must write again, byte for byte.  ``test_pins.py`` runs the ``TIER1``
cases through ``cli.main``; ``long_runs.py`` runs the ``LONG_RUNS`` cases as
``python -m mottbox``.

Every pin holds on an x86-64 host where numpy dispatches its AVX512 paths and OpenBLAS
picks its SkylakeX kernel (``host_features()``).  With the AVX512 paths off, or
OpenBLAS forced to Haswell or Prescott, ten tier-1 cases write other bytes (README,
"Reproducibility").  To re-take a pin, run its case, replace the digest and the
commit, and name each moved output with its reason in CHANGES.md.

Only the standard library and numpy are imported, so the numpy-only CI job runs the
long runs.  ``python3 tests/pins.py`` prints this host's features as JSON.
"""

import ctypes
import hashlib
import json
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np


def _readme_configs() -> dict:
    # every JSON config block of the README, read afresh, by experiment name
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(block.split("```")[0]) for block in text.split("```json\n")[1:]]
    return {block["experiment"]: block for block in blocks}


def _changed(config: dict, changes: dict) -> dict:
    for key, value in changes.items():
        if value is None:  # no pinned config holds a null
            del config[key]
        elif isinstance(value, dict):
            _changed(config[key], value)
        else:
            config[key] = value
    return config


def readme(experiment: str, /, **changes) -> dict:
    """A fresh copy of the README config of ``experiment`` with ``changes``.

    A key given None is removed; a dict changes the keys it names in that
    object, such as ``plane={"resolution": 16}``.
    """
    return _changed(_readme_configs()[experiment], changes)


class Case(NamedTuple):
    experiment: str
    changes: dict  # to its README config, as ``readme`` takes them
    seed: Optional[int]  # --seed, or None to run the config's own
    pins: dict  # output file: (SHA-256, the commit that first pinned it)
    bound_mb: Optional[float] = None  # a long run's max-RSS bound
    replays: Optional[str] = None  # a long run's case whose gas.json it replays

    @property
    def config(self) -> dict:
        return readme(self.experiment, **self.changes)

    @property
    def sha256(self) -> dict:
        return {name: digest for name, (digest, _) in self.pins.items()}

    def argv(self, config_path, out_dir) -> list:
        seed = [] if self.seed is None else ["--seed", str(self.seed)]
        return [str(config_path), *seed, "--out-dir", str(out_dir)]


TIER1 = {
    # the README configs at --seed 1 and 2, bell at 10^5 trials and isotropy at 200
    # configurations, pinned before the |C|^2 quadrature was checked against its closed form.
    # bell at --seed 2 was re-taken when the standard error came from the two outcome counts
    "readme-bell-1": Case("bell", {"n_trials": 100_000}, 1, {
        "bell.csv": ("b872f156d6022d14773908019b2f6bfab5e6f6d1d8350fb61d1ca180e5ad3135", "550578d")}),
    "readme-bell-2": Case("bell", {"n_trials": 100_000}, 2, {
        "bell.csv": ("69eeeaad686b3bda4c8638c333521971f6616b8bdfdc421ab917002ac93e9119", "44b8688")}),
    "readme-scatter-1": Case("scatter", {}, 1, {
        "angular.csv": ("b2c4947d15116edfb8416ee839e7890d189fcd54a9c79bfd4cf4c19264e5cad0", "550578d")}),
    "readme-scatter-2": Case("scatter", {}, 2, {
        "angular.csv": ("b2c4947d15116edfb8416ee839e7890d189fcd54a9c79bfd4cf4c19264e5cad0", "550578d")}),
    "readme-track-1": Case("track", {}, 1, {
        "gas.json": ("5f3fd181d9f4f0b5a80452c6a6221a700f001a0f806048ef04b9c51b380e8f41", "550578d"),
        "track.csv": ("801693b1ed288a20d9ffd647a24e8db2e2665cb819f8114a2959b93f1810f9e6", "550578d")}),
    "readme-track-2": Case("track", {}, 2, {
        "gas.json": ("7de3a63aafa31db49b68c144db6d6e31e67ea10054af65857c6c1dbd57e4e60d", "550578d"),
        "track.csv": ("8455eb640732ab33a64e996522549394d7c0b274cf06d808fa0214b02a0e2f56", "550578d")}),
    "readme-isotropy-1": Case("isotropy", {"n_configs": 200}, 1, {
        "isotropy.csv": ("86a07cc087d786cc8c1be229c54b76804967b21fccc23a0e97187fcefb85a5a7", "550578d"),
        "tracks.csv": ("7cf4fadd34d6824baeff0be785a8d8850d3f3492cd98b69cba764d2c946503d3", "550578d")}),
    "readme-isotropy-2": Case("isotropy", {"n_configs": 200}, 2, {
        "isotropy.csv": ("d3f0ae296598cb997b3b1aa7d4cc58a90d493cf99b11873ecf24a8909dec04f2", "550578d"),
        "tracks.csv": ("3c8cc7ff34328e90106e4750fb31e30919643f72956b98615ecf43a53b9ab7f5", "550578d")}),
    # the README isotropy config at 300 configurations, two ranges, pinned before the
    # configurations were selected in chunks
    "isotropy-300-1": Case("isotropy", {"n_configs": 300}, 1, {
        "isotropy.csv": ("474f63f3a7ef06aa4446c5e2b2941a90281b5215623e62c97ee8654781bf0703", "13924d9"),
        "tracks.csv": ("8c8acc55b8b281cf1f2787c61d98ced227bb87cc225cdaaf15faa5beb907b26a", "13924d9")}),
    "isotropy-300-2": Case("isotropy", {"n_configs": 300}, 2, {
        "isotropy.csv": ("380810fab9bd551df98d4bfb5f36dd3f362e9da2c27a03361a97472abcdcc2e3", "13924d9"),
        "tracks.csv": ("fab7e9260190d2cc7e0095f62323739003445279ff5b9e6d4122e95a96da4d64", "13924d9")}),
    "isotropy-300-3": Case("isotropy", {"n_configs": 300}, 3, {
        "isotropy.csv": ("b2a78d25f10c58294c0be1a0e823e309680d4fc3e0a4a4d836b95fd35bf745f2", "13924d9"),
        "tracks.csv": ("c6f017d3be70ff0d3dfd8cb6a0e6cc3ee5690eea26193604fb675398a305594f", "13924d9")}),
    # pinned while angular.csv was written one scalar angle at a time
    "scatter-1e5": Case("scatter", {"n_theta": 100_000}, None, {
        "angular.csv": ("4b063b57083bd7804e71cd136a0f8611da985e79e9d35fa43b09891235c58df8", "e4c28c1")}),
    # the free field at k = 2, no obstacle: the first verified render
    "render-free-64": Case("render", {"k": 2.0, "delta_e": None, "obstacle": None, "modulus_scale": 0.5,
                                      "plane": {"half_extent": 10.0, "resolution": 64}}, None, {
        "field.ppm": ("881d49d7ab127aad7154bc702a48d7a1f8cfb44acd32b42ac3bead5c2ed34666", "a63b67e")}),
    # field.ppm pinned before the field path was vectorized, grid.csv while the whole
    # complex grid was held and written pixel by pixel
    "render-obstacle-384": Case("render", {"grid_csv": "grid.csv"}, None, {
        "field.ppm": ("e697248f30d3caa6a353b772a5615f7093762f5c56f19f85c8363af4057a4b3a", "ba56ae5"),
        "grid.csv": ("c991dfb974c13e0b652886223b7e4c5e488c24f9415504f6e4a40e65fecda555", "469bf7e")}),
    # the 16^2 render pinned while every run built its quadrature rule with numpy's leggauss;
    # bell.csv re-taken when the standard error came from the two outcome counts
    "bell-1000": Case("bell", {"n_trials": 1000}, 1, {
        "bell.csv": ("1d8e8a0a7cb53b820c76ad0bd7a975ed8aa39f74ed65174920255920f7c98067", "44b8688")}),
    "render-16": Case("render", {"grid_csv": "grid.csv", "plane": {"resolution": 16}}, 1, {
        "field.ppm": ("676ebdf25a41d59f91401694cc882072bfd2e19972babf4e76bfbd3f1b31a2db", "0f94848"),
        "grid.csv": ("a02c4800bb5a236e1b545c44492d17aec64121b9a906948844ed26efa6665eab", "0f94848")}),
    # a cone wider than pi/6, pinned while the warning was a raw UserWarning
    "track-k1.9": Case("track", {"k": 1.9}, None, {
        "gas.json": ("93f35bdea628ccb05ce0441791b4043cb03111bd9fe9e7888e96ba09f68111b9", "e44c141"),
        "track.csv": ("29155e01a9a2c718f182e25fa2952b539616852dcf5be6fd49234cf9a52406f4", "e44c141")}),
    "isotropy-k1.9": Case("isotropy", {"k": 1.9, "n_configs": 200}, None, {
        "isotropy.csv": ("640754a955fca7df6b4c38edd99e7b7aab63eb68ea142eb11776b1e87aa0601c", "e44c141"),
        "tracks.csv": ("edd92caa5603667a01c9dcc7b4d9c7cb7fe349730a489d604436ac44b4aef58f", "e44c141")}),
}

LONG_RUNS = {
    # the render streams, so the image is its only plane-sized array: about 50 MB at 2048^2,
    # and 44 MB at 1024^2 with grid.csv. Pinned while the whole complex grid was held
    "render-2048": Case("render", {"plane": {"resolution": 2048}}, None, {
        "field.ppm": ("30a8232c4df884c04665a23bdee866ad68d6327ca889635c1dc12d3f74a89acb", "469bf7e")}, 80.0),
    "render-1024-grid": Case("render", {"grid_csv": "grid.csv", "plane": {"resolution": 1024}}, None, {
        "field.ppm": ("ff64adccca3944dee6220a118f67f53efb90de548d01335a65d588c7a1eda49b", "469bf7e"),
        "grid.csv": ("480fb8850c213f0678013480b94d57318816369cd2bacf7cf04f4a84a882fedf", "469bf7e")}, 52.0),
    # the README isotropy config streams tracks.csv and keeps only the bin counts: about 40 MB
    # in each process. Pinned while a run kept every track until it ended (10^6 took 78 MB)
    "isotropy-1e5": Case("isotropy", {"n_configs": 100_000}, None, {
        "isotropy.csv": ("8e4094bbf6af57e4e7b4f7cd7c300ad1ce8b3f3f1fb0a7094067d5f45b0c7d54", "f7961a1"),
        "tracks.csv": ("70f05201bee478b91a701ff0b5bca8161570f186b9bf8671bf3e287500a381c4", "f7961a1")}, 52.0),
    "isotropy-1e6": Case("isotropy", {"n_configs": 1_000_000}, None, {
        "isotropy.csv": ("f8119a8bddae3c3f5365de827f3ab20f6d0ee6e52fe7bd144aeba4efc69fb6ca", "f7961a1"),
        "tracks.csv": ("aabc7e8a260d550256f3cf46db203be0835d7d15a94dc6503cb3db77dc034277", "f7961a1")}, 52.0),
    # near-empty configurations, about 38 MB
    "isotropy-3e5-at-1e-7": Case("isotropy", {"n_configs": 300_000, "density": 1e-7}, None, {}, 52.0),
    # 1000 ranges of 10 configurations. A worker's message of one range was larger than a
    # 64 KiB pipe buffer while it carried the bin counts of each of its chunks
    "isotropy-1e4-at-1.5e-3": Case("isotropy", {"n_configs": 10_000, "density": 1.5e-3}, None, {
        "isotropy.csv": ("74f59a0e24bf6da7d57243d0b8cf2e825dc3cd96303a6fce8acdd6b7713ec72b", "d4e10a9"),
        "tracks.csv": ("33fb80dcf9dd186a764b397a54723069d157de0f588baf5cc56ce552e24259de", "d4e10a9")}, 52.0),
    # about 5.2k atoms a gas, so each configuration is a range of its own
    "isotropy-300-at-2e-2": Case("isotropy", {"n_configs": 300, "density": 2e-2}, None, {
        "isotropy.csv": ("7174d7ed7dbd4cae1a38f765a410bc9dcccae109dfa244b1f75edde66226fc5d", "b73868d"),
        "tracks.csv": ("7181de5d31482d4efb017c32b1fdc29985d52d2a0803823648da8f1c05beb44a", "b73868d")}, 52.0),
    # 99,532 atoms, sampled and then replayed from its gas.json; a replay peaks where
    # sampling does, at about 67.5 MB (84 MB while the chain search listed every candidate
    # before any chain grew, 116 MB while the parse built a dict per atom). The replay's
    # config keeps k and delta_e, and long_runs.py adds its gas_file. Taken on 9660af0,
    # while the chain search listed every candidate first
    "track-at-0.38": Case("track", {"density": 0.38}, None, {
        "gas.json": ("0c1d10a5070f4260b238ec8ee8f3ad39b74f8d1e38971d508eabae02044dc62c", "9660af0"),
        "track.csv": ("265f1ea41260b9bc0670987def20c10f1cccfd55e3dd80d0a7e52d12243a630e", "9660af0")}, 81.0),
    "replay-of-track-at-0.38": Case("track", dict.fromkeys(
        ["density", "inner_radius", "chamber_radius", "width", "g0", "g1", "seed"]), None, {
        "gas.json": ("0c1d10a5070f4260b238ec8ee8f3ad39b74f8d1e38971d508eabae02044dc62c", "9660af0"),
        "track.csv": ("265f1ea41260b9bc0670987def20c10f1cccfd55e3dd80d0a7e52d12243a630e", "9660af0")},
        81.0, "track-at-0.38"),
    # the widest cone that lists candidates, 20,192 atoms, about 44 MB (63 MB while every
    # candidate was listed before any chain grew). Pinned while the chain search tested
    # steps near the cone edge with BLAS products
    "track-k1.94-at-0.0767": Case("track", {"k": 1.94, "density": 0.0767}, None, {
        "gas.json": ("8313a3b022f3a4c47cd104a8f5f0f6218308b532342667b2050e0a267a7f20e9", "0c70f08"),
        "track.csv": ("c81cc977d4fa95b5c7cc183420f21f466d47b4e794380e1b8422eb552116a9e9", "0c70f08")}, 53.0),
    # the same gas at k s = 1.9 (about 44 MB), and a cone wider than pi/2 on 5.3k atoms (about
    # 40 MB). Taken on 126c00e, while every cone wider than pi/6 listed every atom farther out
    "track-k1.9-at-0.0767": Case("track", {"k": 1.9, "density": 0.0767}, None, {
        "gas.json": ("8313a3b022f3a4c47cd104a8f5f0f6218308b532342667b2050e0a267a7f20e9", "126c00e"),
        "track.csv": ("9e7aca8c9ff3bbd402c72089883b61b83e1e6c955b1f1cc3c162de47e55c866c", "126c00e")}, 53.0),
    "track-k0.6-at-2e-2": Case("track", {"k": 0.6, "density": 2e-2}, None, {
        "gas.json": ("2138d12f7d70015fe0a9101a133e0d4b81fb28f0f52419391133c32409c7f9e9", "126c00e"),
        "track.csv": ("006f05fd35669ca040d14edef054032b9e24656db937fbd01119ac4a53837abc", "126c00e")}, 48.0),
    # about 47 MB in each process; pinned when each angle was computed on its own
    "scatter-1e6": Case("scatter", {"n_theta": 1_000_000}, None, {
        "angular.csv": ("f6b6483ecb2f8545002197967e7c2cc87df32993b99ffc80ed54f79a0d338832", "e4c28c1")}, 52.0),
    # a run keeps only the count of -1 products: about 37 MB. The 10^9 pin, of the (a, b)
    # pair alone at MAX_TRIALS, was taken while a run kept one bit per trial (156 MB)
    "bell-1e8": Case("bell", {"n_trials": 100_000_000}, None, {
        "bell.csv": ("904e871148d1f8abdf1da907974b52eb59f68f36360a155b605efd1397a427b8", "44b8688")}, 44.0),
    "bell-1e9": Case("bell", {"n_trials": 1_000_000_000, "c": None}, None, {
        "bell.csv": ("34abf34202aba07715ca5f25bfd157ade0953bc82e3958be9a80636223be0db6", "44b8688")}, 44.0),
}


def digests(directory) -> dict:
    """The SHA-256 of each file in ``directory``, by file name."""
    found = {}
    for path in Path(directory).iterdir():
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        found[path.name] = digest.hexdigest()
    return found


def _openblas_core() -> str:
    # the kernel numpy's bundled OpenBLAS picked at load time
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def host_features() -> dict:
    """numpy's version, each SIMD target it dispatches to with whether it is in use, and the OpenBLAS core."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {"numpy": np.__version__,
            "simd": {target: bool(__cpu_features__.get(target)) for target in __cpu_dispatch__},
            "openblas_core": _openblas_core()}


if __name__ == "__main__":
    print(json.dumps(host_features()))
