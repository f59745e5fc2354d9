"""The out-of-core smoke at a small size: phases, artifact, RSS helpers."""

from __future__ import annotations

import json
import sys

import numpy as np

from repro.bench import ooc_smoke


def test_small_run_passes_and_writes_both_cells(tmp_path, capsys):
    code = ooc_smoke.main([
        "--nnz", "20000", "--shard-nnz", "5000", "--skip-inmem-proof",
        "--rlimit-mb", "0", "--max-rss-multiple", "100000",
        "--out-dir", str(tmp_path)])
    assert code == 0
    assert "bit-identity OK" in capsys.readouterr().out

    doc = json.loads((tmp_path / "BENCH_ooc.json").read_text())
    assert doc["config"]["nnz"] == 20000
    assert doc["num_shards"] == 4
    assert doc["peak_rss_scope"] in ("cell", "process")
    assert doc["env"]["numpy"] == np.__version__
    assert set(doc["cells"]) == {"build.ooc.hb-csf", "kernel.ooc.hb-csf"}
    for cell in doc["cells"].values():
        assert cell["seconds"] > 0
        assert cell["peak_rss_bytes"] > 0


def test_cell_peak_rss_without_reset_is_the_process_peak():
    rss, scope = ooc_smoke.cell_peak_rss(False)
    assert scope == "process"
    if sys.platform.startswith(("linux", "darwin")):
        # a running CPython interpreter holds at least a few MB
        assert rss > 4 * 1024 * 1024


def test_factors_are_deterministic_and_rank_major():
    a = ooc_smoke._factors((5, 6, 7), 4)
    b = ooc_smoke._factors((5, 6, 7), 4)
    for x, y in zip(a, b):
        assert x.flags.f_contiguous and x.shape[1] == 4
        np.testing.assert_array_equal(x, y)
