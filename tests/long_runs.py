"""Long runs at resource-guard scale: pinned output bytes and bounded peak memory.

The cases are ``pins.LONG_RUNS``: each holds its config, the SHA-256 of the
outputs it pins and its max-RSS bound.  The script first prints the host's
features (numpy's SIMD targets and OpenBLAS core, ``pins.host_features``), on
which the pins depend.  Each case runs ``python -m mottbox`` from this
checkout's src/ in a fresh process.  It fails if the run exits non-zero, if
an output it pins has another SHA-256, or if the child's max RSS exceeds the
case's bound.  Each case's line also reports its wall seconds, which bound
nothing.  An isotropy run of two ranges or more, a render of 12 blocks
or more, a scatter above 2^12 angles and a Bell run above 2^20 trials a pair
fork a worker per further CPU they may run on; ``os.wait4`` then reports the
largest max RSS of the child and the workers it reaped, not their sum, so the
bound covers the largest single process.  Every case but a track forks on two
CPUs or more; under ``taskset -c 0`` none does, and the same pins and bounds
hold.  A replay case runs a track on the gas.json of an earlier case, and must
write every file of that case again, byte for byte, as well as its own pins.

Usage: python3 tests/long_runs.py   (no arguments; exits 1 if any case fails)
       taskset -c 0 python3 tests/long_runs.py   (the same cases in one process each)
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pins import LONG_RUNS, digests, host_features

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    print(f"host: {json.dumps(host_features())}", flush=True)
    failed, outs, written = False, {}, {}
    replayed = {case.replays for case in LONG_RUNS.values()}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, case) in enumerate(LONG_RUNS.items()):
            config, pins = case.config, case.sha256
            if case.replays:
                config = {**config, "gas_file": str(outs[case.replays] / "gas.json")}
                pins = {**written[case.replays], **pins}
            path, outs[name] = Path(tmp, f"{i}.json"), Path(tmp, str(i))
            path.write_text(json.dumps(config), encoding="utf-8")
            started = time.perf_counter()
            child = subprocess.Popen([sys.executable, "-m", "mottbox", *case.argv(path, outs[name])],
                                     cwd=SRC)  # -m finds the package in its working directory
            _, status, usage = os.wait4(child.pid, 0)  # the peak of this child or of one of its workers
            status = os.waitstatus_to_exitcode(status)
            wall_s = time.perf_counter() - started
            written[name] = digests(outs[name]) if status == 0 else {}
            if name not in replayed:  # the outputs of a case that no later case replays can go
                shutil.rmtree(outs[name], ignore_errors=True)
            same = {key: written[name].get(key) for key in pins} == pins
            max_rss_mb = usage.ru_maxrss / 1024
            print(f"{name}: exit status {status}, {wall_s:.2f} s, max RSS {max_rss_mb:.1f} MB "
                  f"(bound {case.bound_mb:.0f} MB), "
                  f"SHA-256 of {', '.join(sorted(pins)) or 'no file'} as pinned: {same}", flush=True)
            failed |= status != 0 or not same or max_rss_mb > case.bound_mb
    return failed


if __name__ == "__main__":
    sys.exit(main())
