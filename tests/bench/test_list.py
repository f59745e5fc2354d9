"""``repro-bench list``: the sparse-format registry listing."""

from __future__ import annotations

from repro.bench.cli import main


def test_list_prints_format_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    # the whole registry, own formats and baselines alike
    for name in ("coo", "csf", "b-csf", "hb-csf", "csl",
                 "splatt", "splatt-tiled", "hicoo", "parti", "f-coo"):
        assert name in out, name
    assert "singleton-fibers" in out   # capability flags rendered
    assert "allmode-build" in out
