import json
import logging
import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mottbox
from mottbox import bell, chamber, cli, mott, numerics, render
from mottbox.cli import MAX_ANGLES, main
from mottbox.mott import ScatteringContext
from mottbox.render import MAX_RESOLUTION
from forks import assert_no_child_left, on_cpus
from oracles import write_grid_csv
from pins import TIER1, _readme_configs, digests, readme


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def bell_config(tmp_path, **overrides):
    # the README bell config without its third direction
    return write_config(tmp_path, "bell.json", readme("bell", **{"c": None, **overrides}))


def _readme(experiment, /, **changes):
    # the README config of a pinned README run: bell at 10^5 trials, isotropy at 200 configurations
    return {**TIER1[f"readme-{experiment}-1"].config, **changes}


def track_config(tmp_path, **overrides):
    return write_config(tmp_path, "track.json", _readme("track", **overrides))


def test_unknown_experiment_lists_names(tmp_path, capsys):
    for experiment in ("frobnicate", ["bell"], {"bell": 1}):  # a list or an object cannot be looked up
        config = write_config(tmp_path, "bad.json", {"experiment": experiment})
        assert main([config, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        for name in ("bell", "scatter", "track", "isotropy", "render"):
            assert name in err


def test_missing_key_names_it(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "scatter.json",
        {"experiment": "scatter", "s": 1.0, "g0": 0.5, "g1": 0.5, "distance": 10.0},
    )
    assert main([config, "--out-dir", str(tmp_path)]) == 2
    assert "'k'" in capsys.readouterr().err


def test_oversized_number_is_config_error(tmp_path, capsys):
    config = write_config(tmp_path, "scatter.json", {"experiment": "scatter", "k": 10**400})
    assert main([config, "--out-dir", str(tmp_path)]) == 2
    assert "key 'k' must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    ([1, 0], "key 'a' must be a list of three numbers, got [1, 0]"),
    ([1, 0, "x"], "key 'a' item 2 must be a finite number, got 'x'"),
    ([0, 0, 0], "key 'a': cannot normalize vector with norm 0.0"),
], ids=["two_items", "a_string", "zero"])
def test_direction_error_names_its_key_once(tmp_path, capsys, value, message):
    # only unit()'s message gets the key prefix; the list and number rules name the key themselves
    out = tmp_path / "out"
    assert main([bell_config(tmp_path, a=value), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"mottbox: error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


def test_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main([str(path), "--out-dir", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe" + json.dumps(_readme("bell")).encode("utf-8")
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("text", [NOT_UTF8, TOO_DEEP], ids=["not_utf8", "too_deep"])
def test_unreadable_config_text_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main([str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "runtime error" not in err


@pytest.mark.parametrize("text", [NOT_UTF8, TOO_DEEP], ids=["not_utf8", "too_deep"])
def test_unreadable_gas_file_text_is_config_error(tmp_path, capsys, text):
    gas_path = tmp_path / "gas.json"
    gas_path.write_bytes(text)
    config = write_config(tmp_path, "replay.json",
                          {"experiment": "track", "k": 10.0, "delta_e": 0.01, "gas_file": str(gas_path)})
    assert main([config, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "cannot load gas_file" in err and "runtime error" not in err


def test_missing_config_file(tmp_path, capsys):
    assert main([str(tmp_path / "absent.json"), "--out-dir", str(tmp_path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_threads_flag_is_gone(tmp_path, capsys):
    # the runs are sequential, so a thread cap would be a flag that does nothing
    config = bell_config(tmp_path, n_trials=100)
    with pytest.raises(SystemExit) as exc:
        main([config, "--out-dir", str(tmp_path), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_bell_run_summary_and_csv(tmp_path, capsys):
    config = bell_config(tmp_path)
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("E=-0.7")
    lines = (out / "bell.csv").read_text().splitlines()
    assert lines[0] == "ax,ay,az,bx,by,bz,mean,std_error,n"
    fields = lines[1].split(",")
    mean, std_error, n = float(fields[6]), float(fields[7]), int(fields[8])
    assert n == 1_000_000
    assert abs(mean - (-math.sqrt(2) / 2)) < 4 * std_error
    # directions are stored normalized
    assert float(fields[3]) == pytest.approx(math.sqrt(2) / 2, rel=1e-12)


def test_bell_run_with_three_directions(tmp_path, capsys):
    config = bell_config(tmp_path, c=[0.0, 1.0, 0.0])
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("bell lhs=")
    assert "violated=true" in summary
    lines = (out / "bell.csv").read_text().splitlines()
    assert len(lines) == 4  # header + (a,b), (a,c), (b,c)


def test_bell_run_byte_identical_outputs(tmp_path, capsys):
    config = bell_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main([config, "--out-dir", str(out1)]) == 0
    assert main([config, "--out-dir", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "bell.csv").read_bytes() == (out2 / "bell.csv").read_bytes()


def test_seed_override_changes_results(tmp_path, capsys):
    config = bell_config(tmp_path, n_trials=10_000)
    out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    assert main([config, "--out-dir", str(out1)]) == 0
    assert main([config, "--out-dir", str(out2), "--seed", "43"]) == 0
    assert main([config, "--out-dir", str(out3), "--seed", "42"]) == 0
    capsys.readouterr()
    assert (out1 / "bell.csv").read_bytes() != (out2 / "bell.csv").read_bytes()
    assert (out1 / "bell.csv").read_bytes() == (out3 / "bell.csv").read_bytes()


def test_scatter_run(tmp_path, capsys):
    config = write_config(tmp_path, "scatter.json", readme("scatter", n_theta=61))
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("|C|^2=0.9999")
    assert "flux_total=" in summary and "flux_free=" in summary
    lines = (out / "angular.csv").read_text().splitlines()
    assert lines[0] == "theta,re_I0,im_I0,re_I1,im_I1,q"
    assert len(lines) == 62
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[5] == 0.0  # forward row: theta = q = 0
    assert math.hypot(first[1], first[2]) == pytest.approx(0.12533141373155, rel=1e-10)


def test_readme_configs_run_with_their_keys(tmp_path, capsys):
    configs = _readme_configs()
    assert sorted(configs) == ["bell", "isotropy", "render", "scatter", "track"]
    # smaller sizes, the same keys
    configs["bell"]["n_trials"], configs["isotropy"]["n_configs"] = 1000, 100
    configs["render"]["plane"]["resolution"] = 16
    for experiment, config in configs.items():
        config = write_config(tmp_path, "config.json", config)
        assert main([config, "--out-dir", str(tmp_path / experiment)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("experiment, section, key", [
    ("bell", None, "n_trial"), ("scatter", None, "delta_E"), ("scatter", None, "ntheta"),
    ("track", None, "gasfile"), ("isotropy", None, "n_config"), ("render", None, "gridcsv"),
    ("render", "plane", "orgin"), ("render", "obstacle", "widht"),
])
def test_unknown_key_exits_2_before_any_file(tmp_path, capsys, experiment, section, key):
    # a key the run would not read, misspelled or belonging to another experiment
    config = _small_render() if experiment == "render" else _readme(experiment)
    (config[section] if section else config)[key] = 1
    out = tmp_path / "out"
    assert main([write_config(tmp_path, "config.json", config), "--out-dir", str(out)]) == 2
    where = f" in {section!r}" if section else ""
    assert f"mottbox: error: unknown key {key!r}{where}; valid keys: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("plane", [0, 0, 1]), ("plane", None), ("obstacle", "atom")])
def test_render_object_that_is_no_object_exits_2_before_any_file(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    config = write_config(tmp_path, "config.json", {**_small_render(), key: value})
    assert main([config, "--out-dir", str(out)]) == 2
    assert f"mottbox: error: key {key!r} must be an object" in capsys.readouterr().err
    assert not out.exists()


def test_keys_of_one_experiment_are_unknown_to_another(tmp_path, capsys):
    for experiment, key in (("bell", "k"), ("scatter", "density"), ("track", "n_configs"),
                            ("isotropy", "gas_file"), ("render", "s")):
        config = _small_render() if experiment == "render" else _readme(experiment)
        config = write_config(tmp_path, "config.json", {**config, key: 1})
        assert main([config, "--out-dir", str(tmp_path)]) == 2
        assert f"unknown key {key!r}; valid keys: experiment, seed" in capsys.readouterr().err
    # a seed is read by bell, track and isotropy only, and --seed writes one into any config
    for config in (_readme("scatter"), _small_render()):
        config = write_config(tmp_path, "config.json", {**config, "seed": 5})
        assert main([config, "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["angular.csv", "config.json", "field.ppm"]


def test_readme_scatter_at_1e5_angles_prints_its_c2(tmp_path, capsys):
    # its bytes: pins.TIER1["scatter-1e5"]
    config = write_config(tmp_path, "scatter.json", TIER1["scatter-1e5"].config)
    assert main([config, "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("|C|^2=0.999921 ")


MIXED_WIDTH_GAS = {
    "seed": 3, "stream_id": 0, "inner_radius": 60.0, "chamber_radius": 100.0,
    "atoms": [{"x": 0.0, "y": 0.0, "z": 70.0, "s": 1.0, "g0": 0.5, "g1": 0.5},
              {"x": 0.0, "y": 80.0, "z": 0.0, "s": 5.0, "g0": 0.5, "g1": 0.5}],
}


@pytest.mark.parametrize("experiment", ["scatter", "track", "isotropy", "render", "gas_file"])
def test_unconverged_quadrature_is_config_error(tmp_path, capsys, experiment):
    # at k s = 300 the 128-node scattered integral is off by 2e-4 relative;
    # the gas file's second atom has k s = 150 at k = 30, its first k s = 30
    if experiment == "render":
        payload = readme("render", k=300.0)
    elif experiment == "gas_file":
        gas_path = tmp_path / "gas.json"
        gas_path.write_text(json.dumps(MIXED_WIDTH_GAS), encoding="utf-8")
        payload = {"experiment": "track", "k": 30.0, "delta_e": 0.01, "gas_file": str(gas_path)}
    else:
        payload = _readme(experiment, k=300.0)
    config = write_config(tmp_path, "config.json", payload)
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 2
    ks = 150 if experiment == "gas_file" else 300
    assert f"flux quadrature not converged at n=128 for k*s = {ks}:" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("experiment", ["scatter", "track", "isotropy", "render"])
def test_overflowing_intensity_is_config_error(tmp_path, capsys, experiment):
    # valid finite couplings whose scattered intensity overflows in |C|^2
    if experiment == "render":
        payload = readme("render")
        payload["obstacle"]["g0"] = 1e200
    else:
        payload = _readme(experiment, g0=1e200)
    out = tmp_path / "out"
    assert main([write_config(tmp_path, "config.json", payload), "--out-dir", str(out)]) == 2
    assert "integrand returned non-finite value" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_isotropy_that_fails_after_its_first_tracks_exits_2_and_removes_tracks_csv(tmp_path, capsys, monkeypatch):
    # the README config's 200 configurations make two ranges, run in one process; tracks.csv
    # holds the first range's rows when the second raises, as an overflowing |C|^2 does
    tracks, calls = chamber._tracks, []

    def second_chunk_raises(*args):
        calls.append(args)
        if len(calls) == 2:
            assert (out / "tracks.csv").read_text().startswith("dx,dy,dz,N,flux_ratio\n")
            raise ValueError("integrand returned non-finite value")
        return tracks(*args)

    on_cpus(monkeypatch, 1)
    monkeypatch.setattr(chamber, "_tracks", second_chunk_raises)
    out = tmp_path / "out"
    assert main([write_config(tmp_path, "config.json", _readme("isotropy")), "--out-dir", str(out)]) == 2
    assert "integrand returned non-finite value" in capsys.readouterr().err
    assert len(calls) == 2 and not any(out.iterdir())


def isotropy_on_cpus(monkeypatch, cpus, in_workers=None):
    # isotropy runs as if this process may run on ``cpus`` CPUs; in_workers(i0), when given, runs where
    # a forked worker starts the range from configuration i0
    parent, range_tracks = os.getpid(), chamber._range_tracks

    def ranges(i0, *args):
        if in_workers is not None and os.getpid() != parent:
            in_workers(i0)
        return range_tracks(i0, *args)

    on_cpus(monkeypatch, cpus)
    monkeypatch.setattr(chamber, "_range_tracks", ranges)


def test_isotropy_outputs_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch):
    # 2500 configurations make 17 ranges: one process, or the caller and two workers
    config = write_config(tmp_path, "config.json", _readme("isotropy", n_configs=2500))
    outputs = []
    for cpus in (1, 3):
        isotropy_on_cpus(monkeypatch, cpus)
        assert main([config, "--out-dir", str(tmp_path / str(cpus))]) == 0
        outputs.append({name: (tmp_path / str(cpus) / name).read_bytes() for name in ("isotropy.csv", "tracks.csv")})
        assert_no_child_left()
    assert outputs[0] == outputs[1]
    summaries = capsys.readouterr().out.splitlines()
    assert len(summaries) == 2 and summaries[0] == summaries[1]


def test_isotropy_range_message_fits_a_pipe_buffer(tmp_path, monkeypatch):
    # a worker pickles each range's bin counts and tracks.csv rows down a pipe. A range of the README
    # gas is 151 configurations, about 12 KB: under the 64 KiB a Linux pipe buffers, so a worker
    # does not wait for the run to read it
    messages, ordered = [], chamber.ordered_ranges

    def first_message(ranges, work, *rest):
        messages.append(list(work(ranges[0])))
        return ordered(ranges, work, *rest)

    monkeypatch.setattr(chamber, "ordered_ranges", first_message)
    config = write_config(tmp_path, "config.json", _readme("isotropy", n_configs=2500))
    assert main([config, "--out-dir", str(tmp_path / "out")]) == 0
    (message,) = messages
    assert len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL)) < 64 * 1024
    ((counts, text),) = message  # one chunk: its 32 bin counts and its rows
    assert sum(counts) == text.count("\n") > 140


def test_bell_outputs_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch):
    # 3 * 2^20 + 12345 trials a pair make three spans: one process, or the caller and two workers
    config = write_config(tmp_path, "config.json", _readme("bell", n_trials=3 * 2**20 + 12345))
    forks, fork, outputs = [], os.fork, []
    monkeypatch.setattr(numerics.os, "fork", lambda: forks.append(1) or fork())
    for cpus in (1, 3):
        monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert main([config, "--out-dir", str(tmp_path / str(cpus))]) == 0
        outputs.append((tmp_path / str(cpus) / "bell.csv").read_bytes())
        assert_no_child_left()
    assert outputs[0] == outputs[1] and len(forks) == 3 * 2
    summaries = capsys.readouterr().out.splitlines()
    assert len(summaries) == 2 and summaries[0] == summaries[1]


def test_isotropy_value_error_in_a_worker_exits_2_and_removes_tracks_csv(tmp_path, capsys, monkeypatch):
    def fail(i0):
        raise ValueError(f"integrand returned non-finite value in the range from configuration {i0}")

    isotropy_on_cpus(monkeypatch, 2, fail)
    out = tmp_path / "out"
    payload = _readme("isotropy", n_configs=2500)
    assert main([write_config(tmp_path, "config.json", payload), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "mottbox: error: integrand returned non-finite value in the range from configuration 151\n"
    assert not any(out.iterdir())
    assert_no_child_left()


def test_isotropy_worker_that_exits_without_its_tracks_exits_1(tmp_path, capsys, monkeypatch):
    isotropy_on_cpus(monkeypatch, 2, lambda i0: os._exit(1))
    out = tmp_path / "out"
    payload = _readme("isotropy", n_configs=2500)
    assert main([write_config(tmp_path, "config.json", payload), "--out-dir", str(out)]) == 1
    assert "runtime error: an isotropy worker ended without sending its tracks" in capsys.readouterr().err
    assert not any(out.iterdir())
    assert_no_child_left()


def test_isotropy_worker_exception_exits_1_and_names_it(tmp_path, capsys, monkeypatch):
    def fail(i0):
        raise MemoryError(f"no memory for the range from configuration {i0}")

    isotropy_on_cpus(monkeypatch, 2, fail)
    out = tmp_path / "out"
    payload = _readme("isotropy", n_configs=2500)
    assert main([write_config(tmp_path, "config.json", payload), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == ("mottbox: runtime error: an isotropy worker ended without sending its tracks: "
                                       "MemoryError: no memory for the range from configuration 151\n")
    assert not any(out.iterdir())
    assert_no_child_left()


@pytest.mark.parametrize("range_angles", [7, 300])
def test_scatter_angular_csv_does_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch, range_angles):
    # 1000 angles in one range, then in 143 ranges of 6-7 angles or 4 of 250, in one to three processes
    config = write_config(tmp_path, "config.json", _readme("scatter", n_theta=1000))
    assert main([config, "--out-dir", str(tmp_path / "whole")]) == 0
    expected = (tmp_path / "whole" / "angular.csv").read_bytes()
    monkeypatch.setattr(cli, "_RANGE_ANGLES", range_angles)
    for cpus in (1, 2, 3):
        forks = on_cpus(monkeypatch, cpus)
        assert main([config, "--out-dir", str(tmp_path / str(cpus))]) == 0
        assert (tmp_path / str(cpus) / "angular.csv").read_bytes() == expected
        assert len(forks) == cpus - 1
        assert_no_child_left()
    assert len(set(capsys.readouterr().out.splitlines())) == 1


def test_render_worker_that_ends_part_way_through_a_message_exits_1_and_removes_grid_csv(tmp_path, capsys,
                                                                                         monkeypatch):
    # 384^2 is 19 blocks: the run writes block 0's rows to grid.csv, then reads half of the message of
    # block 1, which the worker ends after sending
    dumps, received, opened = pickle.dumps, numerics._received, []

    def half_then_end(message, pipe, protocol):
        data = dumps(message, protocol)
        pipe.write(data[:len(data) // 2])
        pipe.flush()
        os._exit(0)

    def reading(pipe, lost):
        opened.append((out / "grid.csv").exists())
        return received(pipe, lost)

    on_cpus(monkeypatch, 2)
    monkeypatch.setattr(numerics.pickle, "dump", half_then_end)
    monkeypatch.setattr(numerics, "_received", reading)
    out = tmp_path / "out"
    config = write_config(tmp_path, "render.json", readme("render", grid_csv="grid.csv"))
    assert main([config, "--out-dir", str(out)]) == 1
    assert "runtime error: a render worker ended without sending its block" in capsys.readouterr().err
    assert opened == [True] and not any(out.iterdir())
    assert_no_child_left()


def test_isotropy_without_a_track_exits_2_before_any_file(tmp_path, capsys):
    payload = _readme("isotropy", density=0.0)
    out = tmp_path / "out"
    assert main([write_config(tmp_path, "config.json", payload), "--out-dir", str(out)]) == 2
    assert "no configuration produced a track" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_runs_solve_for_no_quadrature_rule(tmp_path, capsys, monkeypatch):
    # every README experiment with the generic rule and the eigenvalue solve
    # behind it made to fail, all caches empty: |C|^2 reads the stored rule,
    # and every output keeps the bytes it had when the rule was solved for
    def unreachable(*args, **kwargs):
        raise AssertionError("a CLI run solved for a quadrature rule")

    for cache in (numerics.gauss_legendre, mott._node_factors, mott._intensity_integrals):
        cache.cache_clear()
    monkeypatch.setattr(numerics, "gauss_legendre", unreachable)
    monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
    for name in ("bell-1000", "readme-scatter-1", "readme-track-1", "readme-isotropy-1", "render-16"):
        case, out = TIER1[name], tmp_path / name
        config = write_config(tmp_path, "config.json", case.config)
        assert main(case.argv(config, out)) == 0, capsys.readouterr().err
        capsys.readouterr()
        assert digests(out) == case.sha256


def test_cli_render_never_loads_numpy_polynomial(tmp_path):
    # the README obstacle render with grid.csv in a fresh interpreter: the
    # stored |C|^2 rule needs no numpy.polynomial, at import or at run time
    config = write_config(tmp_path, "render.json", readme("render", grid_csv="grid.csv"))
    script = (
        "import sys\n"
        "import mottbox.cli\n"
        "assert mottbox.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    src = str(Path(mottbox.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script, config, "--out-dir", str(tmp_path / "out")],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_cli_import_never_loads_dataclasses():
    # the model types are plain slotted classes, so a cold start runs no
    # dataclass code generation
    script = "import sys\nimport mottbox.cli\nprint('dataclasses' in sys.modules)\n"
    src = str(Path(mottbox.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_track_without_forward_cone_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main([track_config(tmp_path, k=0.4), "--out-dir", str(out)]) == 2
    assert "no forward cone: k*s = 0.4 too small" in capsys.readouterr().err
    assert not any(out.iterdir())
    assert main([track_config(tmp_path, k=1.5), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == "mottbox: warning: wide-cone regime: half-angle 0.680 rad exceeds 0.524\n"


@pytest.mark.parametrize("experiment", ["track", "isotropy"])
def test_underflowing_k_s_has_no_forward_cone(tmp_path, capsys, experiment):
    # 2 k s underflows to 0 for k = 1e-160 and width = 1e-170, valid inputs
    payload = _readme(experiment, k=1e-160, delta_e=0.0, width=1e-170)
    out = tmp_path / "out"
    assert main([write_config(tmp_path, "config.json", payload), "--out-dir", str(out)]) == 2
    assert "no forward cone: k*s = 0 too small" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_track_run_and_replay(tmp_path, capsys):
    config = track_config(tmp_path)
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("track N=")
    track_lines = (out / "track.csv").read_text().splitlines()
    assert track_lines[0] == "dx,dy,dz,N,flux_ratio"
    assert len(track_lines) == 2
    gas = json.loads((out / "gas.json").read_text())
    assert gas["seed"] == 7 and len(gas["atoms"]) > 0

    replay = write_config(
        tmp_path,
        "replay.json",
        {"experiment": "track", "k": 10.0, "delta_e": 0.01, "gas_file": str(out / "gas.json")},
    )
    out2 = tmp_path / "replay_out"
    assert main([replay, "--out-dir", str(out2)]) == 0
    capsys.readouterr()
    assert (out2 / "track.csv").read_bytes() == (out / "track.csv").read_bytes()
    assert (out2 / "gas.json").read_bytes() == (out / "gas.json").read_bytes()


def test_track_logs_off_chain_product_at_info(tmp_path, capsys, caplog):
    caplog.set_level(logging.INFO, logger="mottbox.cli")
    out = tmp_path / "out"
    assert main([track_config(tmp_path), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    (record,) = [r for r in caplog.records if r.msg.startswith("off-chain")]
    gas = chamber.load_configuration(out / "gas.json")
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    track = chamber.select_track(gas, ctx)
    assert record.args == (
        chamber.off_chain_c2_product(gas, ctx, track.chain),
        gas.n_atoms - track.chain.n,
    )


def test_track_skips_off_chain_product_when_info_is_off(tmp_path, capsys, monkeypatch):
    def unexpected(*args):
        raise AssertionError("off-chain product computed for a suppressed log line")

    monkeypatch.setattr(chamber, "off_chain_c2_product", unexpected)
    assert not logging.getLogger("mottbox.cli").isEnabledFor(logging.INFO)
    assert main([track_config(tmp_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("track N=")


def test_off_chain_product_that_overflows_changes_no_exit_code_or_byte(tmp_path, capsys, caplog):
    # the README shell gas on RngStream(0, 0), whose track has N = 2, replayed with g0 = 1e200 on its first
    # atom off the chain: |C|^2 of that atom overflows, and only the INFO diagnostic computes it
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    gas = chamber.sample_gas(1e-3, 12.0, 40.0, chamber.AtomSpecies(1.0, 0.5, 0.5, 0.01), numerics.RngStream(0, 0))
    track = chamber.select_track(gas, ctx)
    assert track.chain.n == 2
    chamber.save_configuration(gas, tmp_path / "gas.json")
    data = json.loads((tmp_path / "gas.json").read_text())
    data["atoms"][min(set(range(gas.n_atoms)) - set(track.chain.indices))]["g0"] = 1e200
    replay = _replay_config(tmp_path, data)
    outputs = []
    for level in (logging.WARNING, logging.INFO):
        caplog.set_level(level, logger="mottbox.cli")
        out = tmp_path / logging.getLevelName(level)
        assert main([replay, "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.startswith("track N=2 ")
        outputs.append([(out / name).read_bytes() for name in ("gas.json", "track.csv")])
    assert outputs[0] == outputs[1]
    (record,) = [r for r in caplog.records if r.msg.startswith("off-chain")]
    assert record.levelno == logging.INFO
    assert record.getMessage().startswith("off-chain |C|^2 product is not finite: integrand returned non-finite")


def test_atom_guard_exits_2_without_sampling(tmp_path, capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a gas was sampled above the atom guard")

    monkeypatch.setattr(numerics.RngStream, "poisson", forbidden)
    volume = 4.0 * math.pi / 3.0 * (40.0**3 - 12.0**3)
    density = chamber.MAX_EXPECTED_ATOMS * (1.0 + 1e-9) / volume
    for experiment, extra in (("track", {}), ("isotropy", {"n_configs": 100})):
        config = track_config(tmp_path, experiment=experiment, density=density, **extra)
        assert main([config, "--out-dir", str(tmp_path / experiment)]) == 2
        assert "exceeds guard" in capsys.readouterr().err


def test_trial_guard_exits_2_without_drawing(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("words were drawn above the trial guard")

    monkeypatch.setattr(numerics.RngStream, "uniform", forbidden)
    monkeypatch.setattr(numerics.RngStream, "raw_words", forbidden)
    for extra in ({}, {"c": [0.0, 1.0, 0.0]}):
        config = bell_config(tmp_path, n_trials=bell.MAX_TRIALS + 1, **extra)
        assert main([config, "--out-dir", str(tmp_path)]) == 2
        assert f"must lie in [1, {bell.MAX_TRIALS}]" in capsys.readouterr().err


def test_config_guard_exits_2_without_sampling(tmp_path, capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a gas was sampled above the configuration guard")

    monkeypatch.setattr(numerics.RngStream, "poisson", forbidden)
    config = track_config(tmp_path, experiment="isotropy", n_configs=chamber.MAX_CONFIGS + 1)
    assert main([config, "--out-dir", str(tmp_path)]) == 2
    assert "exceeds guard" in capsys.readouterr().err


def test_isotropy_run(tmp_path, capsys):
    config = write_config(tmp_path, "iso.json", readme("isotropy", n_configs=120, seed=11))
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("isotropy n=120 chi2=")
    iso_lines = (out / "isotropy.csv").read_text().splitlines()
    assert iso_lines[0] == "bin,count"
    assert len(iso_lines) == 33
    counts = [int(line.split(",")[1]) for line in iso_lines[1:]]
    track_lines = (out / "tracks.csv").read_text().splitlines()
    assert len(track_lines) - 1 == sum(counts)


def test_free_render_run_prints_its_size(tmp_path, capsys):
    # its bytes: pins.TIER1["render-free-64"]
    config = write_config(tmp_path, "render.json", TIER1["render-free-64"].config)
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "render wrote field.ppm 64x64"
    assert (out / "field.ppm").read_bytes().startswith(b"P6\n64 64\n255\n")


def test_render_run_with_obstacle(tmp_path, capsys, caplog):
    # its bytes: pins.TIER1["render-obstacle-384"]
    caplog.set_level(logging.INFO, logger="mottbox.render")
    config = write_config(tmp_path, "render_atom.json", TIER1["render-obstacle-384"].config)
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert len((out / "grid.csv").read_text().splitlines()) == 1 + 384 * 384
    # the emitter sits on the lattice; the obstacle centre (offset 12) does not
    assert [r.getMessage() for r in caplog.records if r.name == "mottbox.render"] == [
        "masked 1 singular pixel(s), first few: [(192, 192)]"]


def _render_whose_third_block_raises(tmp_path, monkeypatch, error):
    # at 256^2 a block is 32 lattice rows: grid.csv holds two blocks' rows when the third raises error;
    # returns the exit status, the wave_field calls and the output directory
    wave_field, calls, out = mott.wave_field, [], tmp_path / "out"

    def third_block_raises(*args):
        calls.append(args)
        if len(calls) == 3:
            assert (out / "grid.csv").read_text().startswith("u,v,re,im\n")
            raise error
        return wave_field(*args)

    monkeypatch.setattr(mott, "wave_field", third_block_raises)
    payload = readme("render", grid_csv="grid.csv")
    payload["plane"]["resolution"] = 256
    return main([write_config(tmp_path, "render.json", payload), "--out-dir", str(out)]), calls, out


def test_render_that_fails_after_grid_csv_opens_exits_1_and_removes_it(tmp_path, capsys, monkeypatch):
    status, calls, out = _render_whose_third_block_raises(tmp_path, monkeypatch, RuntimeError("injected failure"))
    assert status == 1
    assert "injected failure" in capsys.readouterr().err
    assert len(calls) == 3 and not any(out.iterdir())


def test_render_whose_model_check_fails_after_grid_csv_opens_exits_2_and_removes_it(tmp_path, capsys, monkeypatch):
    # a ValueError is invalid input, as a model check's is: exit 2, which leaves no file
    status, calls, out = _render_whose_third_block_raises(tmp_path, monkeypatch, ValueError("injected model check"))
    assert status == 2
    assert capsys.readouterr().err == "mottbox: error: injected model check\n"
    assert len(calls) == 3 and not any(out.iterdir())


@pytest.mark.parametrize("block_rows", [1, 7, None])
def test_streamed_render_writes_what_the_whole_grid_writers_write(tmp_path, capsys, monkeypatch, block_rows):
    # the obstacle centre (offset 12 = -20 + 40 * 32 / 40) and the emitter both lie on this lattice
    payload = readme("render", grid_csv="grid.csv")
    payload["plane"]["resolution"] = 40
    if block_rows is not None:
        monkeypatch.setattr(render, "BLOCK_PIXELS", block_rows * 40)
    out = tmp_path / "out"
    assert main([write_config(tmp_path, "render.json", payload), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
    obstacle = mott.atom(np.array([12.0, 0.0, 0.0]), width=1.0, g0=50.0, g1=0.0, delta_e=0.01)
    plane = render.PlaneSpec(origin=np.zeros(3), u_axis=np.array([1.0, 0.0, 0.0]),
                             v_axis=np.array([0.0, 1.0, 0.0]), half_extent=20.0, resolution=40)
    grid = render.sample_plane(lambda p: mott.wave_field(ctx, obstacle, p), plane)
    assert grid[20, 20] == grid[32, 20] == 0.0
    write_grid_csv(grid, plane, tmp_path / "whole.csv")
    assert (out / "grid.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    render.write_ppm(render.colorize(grid, 0.08), tmp_path / "whole.ppm")
    assert (out / "field.ppm").read_bytes() == (tmp_path / "whole.ppm").read_bytes()


def test_render_logs_masked_pixels_in_whole_grid_order_across_blocks(tmp_path, capsys, caplog, monkeypatch):
    # at 200^2 a block is 40 lattice rows, so rows 39 and 40 straddle the first block
    # boundary; the emitter (100, 100) and the obstacle centre (160, 100) lie in later blocks
    wave_field = mott.wave_field
    offs = -20.0 + 40.0 * np.arange(200) / 200
    rows, cols = offs[[39, 40]], offs[[0, 5, 7, 100, 150]]

    def field_with_holes(ctx, atom, points):
        values = wave_field(ctx, atom, points)
        holes = np.isin(points[..., 0], rows) & np.isin(points[..., 1], cols)
        return np.where(holes, complex("nan+nanj"), values)

    monkeypatch.setattr(mott, "wave_field", field_with_holes)
    caplog.set_level(logging.INFO, logger="mottbox.render")
    payload = readme("render")
    payload["plane"]["resolution"] = 200
    assert render.BLOCK_PIXELS // 200 == 40
    assert main([write_config(tmp_path, "render.json", payload), "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    first = [(39, 0), (39, 5), (39, 7), (39, 100), (39, 150), (40, 0), (40, 5), (40, 7)]
    assert [r.getMessage() for r in caplog.records if r.name == "mottbox.render"] == [
        f"masked 12 singular pixel(s), first few: {first}"]


def test_render_resolution_guard(tmp_path, capsys):
    payload = readme("render")
    payload["plane"]["resolution"] = MAX_RESOLUTION + 1
    config = write_config(tmp_path, "huge.json", payload)
    assert main([config, "--out-dir", str(tmp_path)]) == 2
    assert f"resolution must lie in [16, {MAX_RESOLUTION}]" in capsys.readouterr().err


@pytest.mark.parametrize("n_theta", [1, MAX_ANGLES + 1])
def test_scatter_angle_guard(tmp_path, capsys, n_theta):
    # refused before any file; the guard value itself takes about half a minute, so it is not run
    config = write_config(tmp_path, "angles.json", _readme("scatter", n_theta=n_theta))
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 2
    assert f"key 'n_theta' must lie in [2, {MAX_ANGLES}], got {n_theta}" in capsys.readouterr().err
    assert not any(out.iterdir())


def _scatter():
    return {"experiment": "scatter", "k": 10.0, "s": 1.0, "g0": 0.5, "g1": 0.5, "n_theta": 3, "distance": 12.0}


def _small_render():
    return readme("render", modulus_scale=0.1, plane={"resolution": 16})


def _scaled_directions(experiment):
    # the bell config at 1000 trials and the small render, then each with directions
    # whose squared norms underflow ([1e-200, 0, 0]) or overflow (1e200 times a direction)
    if experiment == "bell":
        plain = _readme("bell", n_trials=1000)
        return plain, {**plain, "a": [1e-200, 0, 0], "b": [1e200, 1e200, 0]}
    plain, scaled = _small_render(), _small_render()
    scaled["plane"].update(u_axis=[1e-200, 0, 0], v_axis=[0, 1e200, 0])
    return plain, scaled


@pytest.mark.parametrize("experiment", ["bell", "render"])
def test_directions_whose_squared_norm_under_or_overflows(tmp_path, capsys, experiment):
    outs = tmp_path / "readme", tmp_path / "scaled"
    for out, payload in zip(outs, _scaled_directions(experiment)):
        assert main([write_config(tmp_path, "config.json", payload), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in outs[1].iterdir()} == {p.name: p.read_bytes() for p in outs[0].iterdir()}


def _render_with_parallel_axes():
    payload = _small_render()
    payload["plane"]["v_axis"] = [1.0, 0.0, 0.0]
    return payload


def _slot(base, path, **changes):
    """A builder of ``base()`` updated by ``changes``, with its value at the dotted ``path``."""
    *outer, key = path.split(".")

    def build(value):
        payload = {**base(), **changes}
        target = payload
        for name in outer:
            target = target[name]
        target[key] = value
        return payload

    build.__name__ = f"{base.__name__}[{path}]"
    return build


def _output_slot(base, key):
    # a name is made relative, so that no file lands outside the run's directory
    build = _slot(base, key)

    def relative(value):
        return build("o" + value if isinstance(value, str) else value)

    relative.__name__ = build.__name__
    return relative


def _wide_render():
    payload = _small_render()
    payload["plane"]["half_extent"] = 5e307  # 2 * half_extent * 15, in the last offset, overflows
    return payload


def _wide_finite_render():
    payload = _small_render()
    payload["plane"]["half_extent"] = 5e306  # every offset finite; an origin near 1.8e308 overflows
    return payload


_scatter_with = _slot(_scatter, "position")
_render_with_origin = _slot(_small_render, "plane.origin")
_render_with_half_extent = _slot(_small_render, "plane.half_extent")
_wide_render_with_origin = _slot(_wide_render, "plane.origin")
_wide_finite_render_with_origin = _slot(_wide_finite_render, "plane.origin")
_render_with_obstacle_at = _slot(_small_render, "obstacle.position")


def _track():
    return _readme("track")


def _isotropy():
    return _readme("isotropy", n_configs=100)


def _bell():
    return _readme("bell", n_trials=1000)


# number, integer and output-name keys, each in a config that runs in
# milliseconds.  Where a valid value can take minutes (10^6 angles or
# configurations, a 2048^2 plane), another key stops the run right after the
# value is read
VALUE_SLOTS = [
    _slot(_scatter, "k"),
    _slot(_scatter, "delta_e"),
    _slot(_scatter, "n_theta", k=200.0),  # k s = 200 fails the quadrature check
    _slot(_track, "density"),
    _slot(_track, "width"),
    _slot(_track, "seed"),
    _slot(_isotropy, "n_configs", inner_radius=5.0),  # inner_radius < 10 * width: no gas is drawn
    _slot(_small_render, "modulus_scale"),
    _render_with_half_extent,
    _slot(_render_with_parallel_axes, "plane.resolution"),
    _output_slot(_bell, "output"),
    _output_slot(_track, "output"),
    _output_slot(_track, "gas_output"),
    _output_slot(_isotropy, "output"),
    _output_slot(_isotropy, "tracks_output"),
    _output_slot(_small_render, "output"),
    _output_slot(_small_render, "grid_csv"),
]


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["nan", "inf", "1e400", "12"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
vector_values = st.lists(json_scalars, min_size=3, max_size=3) | json_values


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([_scatter_with, _render_with_origin, _render_with_obstacle_at, *VALUE_SLOTS]),
       vector_values)
@example(_scatter_with, "abc")
@example(_render_with_origin, [0, 0])
@example(_render_with_origin, [0, 0, "nan"])
@example(_render_with_obstacle_at, [1e308, 1e308, 0.0])
@example(_render_with_origin, [1e308, 1e308, 0.0])
@example(_scatter_with, [10**400, 0, 0])
@example(_render_with_half_extent, 5.992310449541053e+306)
@example(_wide_render_with_origin, [1.7e308, 0.0, 0.0])
@example(_wide_finite_render_with_origin, [1.79e308, 0.0, 0.0])
@example(VALUE_SLOTS[0], True)
@example(VALUE_SLOTS[-1], "\x00")
def test_malformed_vectors_exit_2(build, value):
    # any value of a vector, number, integer or output-name key is either
    # accepted (exit 0) or a config error (exit 2); a runtime error (exit 1)
    # means validation missed it.  An exit 2 leaves no file beside the config
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), "config.json", build(value))
        status = main([config, "--out-dir", tmp])
        assert status in (0, 2)
        assert status == 0 or os.listdir(tmp) == ["config.json"]


@pytest.mark.parametrize("build, value", [
    (_render_with_half_extent, 5.992310449541053e+306),
    (_wide_render_with_origin, [1.7e308, 0.0, 0.0]),
    (_wide_render_with_origin, [0.0, 0.0, 0.0]),
    (_wide_finite_render_with_origin, [1.79e308, 0.0, 0.0]),
    (_wide_finite_render_with_origin, [0.0, -1.79e308, 0.0]),
])
def test_plane_whose_lattice_overflows_exits_2_before_any_file(tmp_path, capsys, build, value):
    config = write_config(tmp_path, "config.json", build(value))
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 2
    assert "overflows the lattice" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["10", True, None, [True, 0, 12], ["1", "0", "0"]])
@pytest.mark.parametrize("build, key", [
    (_slot(_scatter, "k"), "k"),
    (_slot(_track, "seed"), "seed"),
    (_slot(_small_render, "plane.resolution"), "resolution"),
    (_scatter_with, "position"),
])
def test_value_that_is_not_a_number_exits_2_naming_its_key(tmp_path, capsys, build, key, value):
    # strings, booleans and null are not numbers, and a vector holds three numbers
    config = write_config(tmp_path, "config.json", build(value))
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 2
    assert f"key '{key}'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("experiment, changes, message", [
    ("track", {"chamber_radius": 1e300}, "shell volume overflows at chamber_radius 1e+300"),
    ("isotropy", {"chamber_radius": 1e300}, "shell volume overflows at chamber_radius 1e+300"),
    ("scatter", {"k": 1e100, "s": 1e60, "distance": 1e61}, "not converged at n=128 for k*s = 1e+160"),
    ("scatter", {"k": 1e200}, "wavenumber k = 1e+200: k^2/2 overflows"),
    ("track", {"k": 5e-324}, "wavenumber k = 5e-324: k^2/2 underflows to 0"),
])
def test_finite_numbers_whose_squares_or_cubes_overflow_exit_2(tmp_path, capsys, experiment, changes, message):
    config = write_config(tmp_path, "config.json", _readme(experiment, **changes))
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_isotropy_inner_radius_below_ten_widths_exits_2_before_any_draw(tmp_path, capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a gas was sampled inside ten atom widths")

    monkeypatch.setattr(numerics.RngStream, "poisson", forbidden)
    config = write_config(tmp_path, "config.json", _readme("isotropy", width=1.25))
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 2
    assert "inner_radius must be >= 10 * max atom width, got 12.0 < 12.5" in capsys.readouterr().err
    assert list(out.iterdir()) == []


SMALL_GAS = {
    "seed": 3,
    "stream_id": 0,
    "inner_radius": 12.0,
    "chamber_radius": 40.0,
    "atoms": [
        {"x": 0.0, "y": 0.0, "z": 15.0, "s": 1.0, "g0": 0.5, "g1": 0.5, "delta_e": 0.01},
        {"x": 0.0, "y": 0.0, "z": 25.0, "s": 1.0, "g0": 0.5, "g1": 0.5, "delta_e": 0.01},
        {"x": 20.0, "y": 0.0, "z": 0.0, "s": 0.8, "g0": 0.3, "g1": 0.7},
    ],
}


def _gas_with(slot, value):
    """SMALL_GAS with ``value`` at ``slot``; the "document" slot is the whole file."""
    if slot == "document":
        return value
    gas = json.loads(json.dumps(SMALL_GAS))
    if slot == "atom":
        gas["atoms"][1] = value
    elif slot.startswith("atom."):
        gas["atoms"][1][slot[5:]] = value
    else:
        gas[slot] = value
    return gas


def _replay_config(directory: Path, gas) -> str:
    gas_path = directory / "gas.json"
    gas_path.write_text(json.dumps(gas), encoding="utf-8")
    return write_config(
        directory, "replay.json",
        {"experiment": "track", "k": 10.0, "delta_e": 0.01, "gas_file": str(gas_path)},
    )


GAS_SLOTS = ("document", "atoms", "atom", "atom.x", "atom.s", "atom.g1", "atom.delta_e",
             "inner_radius", "chamber_radius", "seed", "stream_id")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GAS_SLOTS), json_values)
def test_malformed_gas_file_exits_2(slot, value):
    # a gas_file value is either replayed (exit 0) or a config error (exit 2)
    with tempfile.TemporaryDirectory() as tmp:
        config = _replay_config(Path(tmp), _gas_with(slot, value))
        assert main([config, "--out-dir", tmp]) in (0, 2)


ATOM_KEYS = ("x", "y", "z", "s", "g0", "g1", "delta_e")
atom_like_values = st.fixed_dictionaries(
    {key: st.floats(-40.0, 40.0) | json_scalars for key in ATOM_KEYS[:-1]},
    optional={"delta_e": st.floats(0.0, 1.0) | json_scalars, "inner": json_values},
)


def _gas_or_message(load, path):
    try:
        gas = load(path)
    except ValueError as exc:
        return str(exc)
    return gas.atoms.tobytes(), repr((gas.chamber_radius, gas.inner_radius, gas.seed, gas.stream_id))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([*GAS_SLOTS, "atom.inner", "extra"]),
       json_values | atom_like_values | st.lists(atom_like_values, max_size=3))
def test_gas_file_loads_as_configuration_from_dict_reads_it(slot, value):
    # load_configuration's parse hook gives the bits, or the message, of the value-by-value path
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gas.json"
        path.write_text(json.dumps(_gas_with(slot, value)), encoding="utf-8")
        slow = _gas_or_message(
            lambda p: chamber.configuration_from_dict(json.loads(p.read_text("utf-8"))), path)
        assert _gas_or_message(chamber.load_configuration, path) == slow


def test_malformed_gas_file_examples_exit_2(tmp_path, capsys):
    assert main([_replay_config(tmp_path, SMALL_GAS), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for slot, value in (("document", None), ("document", []), ("atoms", None),
                        ("atom", [0.0, 0.0, 25.0]), ("inner_radius", "12"), ("seed", "x"),
                        ("seed", 1.5), ("atom.g0", True), ("atom.s", 10**400),
                        ("atom", {"x": 0.0, "y": 0.0, "z": 25.0}), ("document", {"atoms": []})):
        config = _replay_config(tmp_path, _gas_with(slot, value))
        assert main([config, "--out-dir", str(tmp_path)]) == 2, (slot, value)
        assert "cannot load gas_file" in capsys.readouterr().err


@pytest.mark.parametrize("value", [2, True, 1.5, None, ["gas.json"], {"path": "gas.json"}])
def test_gas_file_that_is_not_a_path_exits_2(tmp_path, capsys, value):
    # open() would take an integer for a file descriptor of this process
    config = write_config(tmp_path, "replay.json",
                          {"experiment": "track", "k": 10.0, "delta_e": 0.01, "gas_file": value})
    assert main([config, "--out-dir", str(tmp_path)]) == 2
    assert "cannot load gas_file" in capsys.readouterr().err


def test_gas_file_above_the_replay_guard_exits_2_before_any_file(tmp_path, capsys, monkeypatch):
    # the guard is MAX_EXPECTED_ATOMS + 10 isqrt(MAX_EXPECTED_ATOMS) atoms, here 100 + 10 * 10 = 200
    gas = chamber.sample_gas(1e-3, 12.0, 40.0, chamber.AtomSpecies(1.0, 0.5, 0.5, 0.01), numerics.RngStream(0, 0))
    assert gas.n_atoms > 201
    monkeypatch.setattr(chamber, "MAX_EXPECTED_ATOMS", 100)

    def replay(n_atoms):
        # the gas of the first n_atoms atoms, stored, and the config that replays it
        stored = tmp_path / f"gas-{n_atoms}.json"
        chamber.save_configuration(chamber.GasConfiguration(gas.atoms[:n_atoms], 40.0, 12.0, 0), stored)
        return stored, write_config(tmp_path, f"replay-{n_atoms}.json",
                                    {"experiment": "track", "k": 10.0, "delta_e": 0.01, "gas_file": str(stored)})

    stored, config = replay(200)
    assert main([config, "--out-dir", str(tmp_path / "out-200")]) == 0
    assert capsys.readouterr().out.startswith("track N=")
    assert (tmp_path / "out-200" / "gas.json").read_bytes() == stored.read_bytes()
    stored, config = replay(201)
    out = tmp_path / "out-201"
    assert main([config, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"mottbox: error: cannot load gas_file {str(stored)!r}: atom count 201 exceeds replay guard 200\n")
    assert list(out.iterdir()) == []
    # the value-by-value parse, which a non-number sends the document to, refuses it before any atom's check
    data = json.loads(stored.read_text())
    data["atoms"][0] = "not an atom"
    stored.write_text(json.dumps(data), encoding="utf-8")
    assert main([config, "--out-dir", str(out)]) == 2
    assert "atom count 201 exceeds replay guard 200" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70 - 1])
def test_seed_outside_u64_exits_2(tmp_path, capsys, seed):
    # RngStream reduces a seed mod 2^64, so -1 would alias 2^64 - 1
    for experiment in ("bell", "track", "isotropy"):
        config = write_config(tmp_path, "config.json", _readme(experiment, seed=seed))
        out = tmp_path / "out"
        assert main([config, "--out-dir", str(out)]) == 2
        assert f"'seed' must lie in [0, {2**64 - 1}], got {seed}" in capsys.readouterr().err
        config = write_config(tmp_path, "config.json", _readme(experiment))
        assert main([config, "--seed", str(seed), "--out-dir", str(out)]) == 2
        assert f"'seed' must lie in [0, {2**64 - 1}], got {seed}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


def test_seed_flag_takes_the_whole_u64_range(tmp_path, capsys):
    config = bell_config(tmp_path, n_trials=1000)
    for seed in (0, 2**64 - 1):
        assert main([config, "--seed", str(seed), "--out-dir", str(tmp_path / str(seed))]) == 0
    capsys.readouterr()
    assert (tmp_path / "0" / "bell.csv").read_bytes() != (tmp_path / str(2**64 - 1) / "bell.csv").read_bytes()


@pytest.mark.parametrize("experiment, key", [
    ("bell", "output"), ("track", "output"), ("track", "gas_output"), ("isotropy", "output"),
    ("isotropy", "tracks_output"), ("render", "output"), ("render", "grid_csv"),
])
def test_output_into_a_missing_directory_exits_2_before_any_file(tmp_path, capsys, experiment, key):
    payload = readme("render") if experiment == "render" else _readme(experiment)
    config = write_config(tmp_path, "config.json", {**payload, key: "nodir/x.out"})
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 2
    assert f"key '{key}': directory " in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_output_into_an_existing_subdirectory_is_written(tmp_path, capsys):
    config = write_config(tmp_path, "config.json", _readme("track", gas_output="sub/gas.json"))
    (tmp_path / "out" / "sub").mkdir(parents=True)
    assert main([config, "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "out").rglob("*")) == ["gas.json", "sub", "track.csv"]


@pytest.mark.parametrize("experiment, key, value, message", [
    ("track", "output", 5, "key 'output' must be a file name, got 5"),
    ("track", "output", None, "key 'output' must be a file name, got None"),
    ("track", "gas_output", ["gas.json"], "key 'gas_output' must be a file name, got ['gas.json']"),
    ("track", "output", ".", "is a directory"),
    ("track", "output", "", "is a directory"),
    ("render", "grid_csv", "sub", "is a directory"),
    ("track", "output", "a\x00b", "key 'output': cannot use 'a\\x00b' as a file name"),
    ("track", "output", "x" * 300, "as a file name"),
    ("track", "output", "gas.json", "keys 'gas_output' and 'output' name the same file"),
    ("isotropy", "tracks_output", "./isotropy.csv", "keys 'output' and 'tracks_output' name the same file"),
    ("render", "grid_csv", "sub/../field.ppm", "keys 'output' and 'grid_csv' name the same file"),
])
def test_bad_output_name_exits_2_before_any_file(tmp_path, capsys, experiment, key, value, message):
    payload = _small_render() if experiment == "render" else _readme(experiment)
    config = write_config(tmp_path, "config.json", {**payload, key: value})
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    assert main([config, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and message in err
    assert [p.name for p in out.rglob("*")] == ["sub"]


@pytest.mark.parametrize("name", ["../escaped.csv", "sub/../../escaped.csv", "ABSOLUTE"])
def test_output_name_outside_out_dir_exits_2_before_any_file(tmp_path, capsys, name):
    name = str(tmp_path / "escaped.csv") if name == "ABSOLUTE" else name
    config = write_config(tmp_path, "config.json", _readme("track", output=name))
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    assert main([config, "--out-dir", str(out)]) == 2
    assert f"key 'output': {name!r} resolves outside --out-dir" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "out", "sub"]


def test_output_name_that_leaves_and_reenters_a_subdirectory_is_written(tmp_path, capsys):
    config = write_config(tmp_path, "config.json", _readme("track", output="sub/../x.csv"))
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    assert main([config, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.rglob("*")) == ["gas.json", "sub", "x.csv"]


@pytest.mark.parametrize("scale", [-1, 0.0])
def test_bad_modulus_scale_exits_2_before_the_plane_is_sampled(tmp_path, capsys, monkeypatch, scale):
    def forbidden(*args):
        raise AssertionError("the plane was sampled before modulus_scale was checked")

    monkeypatch.setattr(render, "sample_plane", forbidden)
    monkeypatch.setattr(render, "render_plane", forbidden)
    payload = readme("render", modulus_scale=scale)
    payload["plane"]["resolution"] = MAX_RESOLUTION
    config = write_config(tmp_path, "config.json", payload)
    out = tmp_path / "out"
    assert main([config, "--out-dir", str(out)]) == 2
    assert f"modulus_scale must be positive, got {scale}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
def test_out_dir_that_cannot_be_a_directory_exits_2(tmp_path, capsys, out_dir):
    (tmp_path / "afile").write_text("kept", encoding="utf-8")
    config = bell_config(tmp_path, n_trials=100)
    assert main([config, "--out-dir", str(tmp_path / out_dir)]) == 2
    assert "cannot create --out-dir" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept"


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_obstacle_render_at_1024_stays_under_its_memory_bound(tmp_path):
    # the README obstacle render at 1024^2 streams its row blocks and peaks
    # at 40.6-41.5 MB (VmHWM, three runs, Python 3.11.7 and numpy 2.4.6 on a
    # 2-vCPU Intel Xeon VM); it took 216 MB when the whole lattice was one
    # array computation, and the complex grid held whole would add about
    # 16 MB.  VmHWM is the child's own peak; ru_maxrss would count this
    # process's RSS at the fork
    payload = readme("render")
    payload["plane"]["resolution"] = 1024
    config = write_config(tmp_path, "render.json", payload)
    script = (
        "import sys\n"
        "import mottbox.cli\n"
        "assert mottbox.cli.main(sys.argv[1:]) == 0\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
    )
    src = str(Path(mottbox.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script, config, "--out-dir", str(tmp_path / "out")],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.splitlines()[-1]) / 1024 < 52.0


@pytest.mark.parametrize("experiment", ["isotropy", "track"])
def test_wide_cone_warning_is_one_cli_line(tmp_path, experiment):
    # in a fresh process, with Python's own warning filters; the bytes: pins.TIER1[f"{experiment}-k1.9"]
    config = write_config(tmp_path, "config.json", TIER1[f"{experiment}-k1.9"].config)
    src = str(Path(mottbox.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-m", "mottbox", config, "--out-dir", str(tmp_path / "out")],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stderr == "mottbox: warning: wide-cone regime: half-angle 0.533 rad exceeds 0.524\n"


def test_module_entry_point(tmp_path):
    config = bell_config(tmp_path, n_trials=1000)
    result = subprocess.run(
        [sys.executable, "-m", "mottbox", config, "--out-dir", str(tmp_path / "sub")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip().startswith("E=")


def test_cli_processes_never_import_scipy(tmp_path):
    # the README bell, track, isotropy and render configs at small sizes, in
    # one fresh interpreter; scipy is a test dependency only
    configs = [
        write_config(tmp_path, "bell.json", _readme("bell", n_trials=1000)),
        write_config(tmp_path, "track.json", _readme("track")),
        write_config(tmp_path, "isotropy.json", _readme("isotropy", n_configs=100)),
        write_config(tmp_path, "render.json", readme("render", plane={"resolution": 16})),
    ]
    script = (
        "import sys\n"
        "import mottbox.cli\n"
        "for config in sys.argv[2:]:\n"
        "    assert mottbox.cli.main([config, '--out-dir', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(mottbox.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out"), *configs],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
