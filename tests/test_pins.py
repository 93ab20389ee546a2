"""Each tier-1 case of the pin table writes the bytes it was pinned with."""

import json

import pytest

from mottbox.cli import main
from pins import TIER1, digests


@pytest.mark.parametrize("name", TIER1)
def test_pinned_run_keeps_its_bytes(tmp_path, capsys, name):
    case = TIER1[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(case.config), encoding="utf-8")
    assert main(case.argv(config, tmp_path / "out")) == 0
    capsys.readouterr()
    assert digests(tmp_path / "out") == case.sha256
