"""Helpers for tests of code on ``numerics.ordered_ranges``: a patched CPU count, and the check that no
worker outlives a run."""

import os

import pytest

from mottbox import numerics


def on_cpus(monkeypatch, cpus):
    """Run as if this process may run on ``cpus`` CPUs; returns the forks made."""
    forks, fork = [], os.fork
    monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(numerics.os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
