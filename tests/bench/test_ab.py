"""``repro-bench ab``: verdicts on fabricated pairs, and the run loop on a
throwaway git repository whose benchmark prints a fixed result."""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.bench.ab import PAIRS, TRACED_PAIRS, evaluate, run_ab
from repro.bench.cli import main
from repro.util.errors import ReproError

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: end-to-end medians of the ``hypersparse`` workload (index_mb made up)
BASE = {"setup_s": 2.34, "als_iter_s": 2.97, "mttkrp_mnnz_s": 1.48,
        "peak_rss_mb": 1212.0, "index_mb": 96.0}
#: per-pair run-to-run noise, well inside every bound
JITTER = (1.0, 1.01, 0.99, 1.005, 0.995, 1.0, 1.01, 0.99, 1.002, 0.998)
CSL = "core.group_s.csl.m0"


def result(metrics: dict, failed: int = 0, correct: bool = True) -> dict:
    return {"correct": correct, "attempted": 12, "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"}
                        for name, value in metrics.items()}}


def runs(scale: dict | None = None, jitter=JITTER, **kwargs) -> list[dict]:
    scale = scale or {}
    return [result({name: value * scale.get(name, 1.0) * j
                    for name, value in BASE.items()}, **kwargs)
            for j in jitter]


def traced(scale: dict | None = None) -> list[dict]:
    """One result per traced pair, every layer at ``0.5 * scale``."""
    scale = scale or {}
    return [result({m["name"]: 0.5 * scale.get(m["name"], 1.0)
                    for m in BENCHMARK["per_layer"]})
            for _ in range(TRACED_PAIRS)]


def verdicts(report) -> dict:
    return {m.name: m.verdict for m in report.metrics}


def judge(change_runs, change_traced=None, parent_runs=None):
    return evaluate("hypersparse", BENCHMARK,
                    {"parent": parent_runs or runs(), "change": change_runs},
                    {"parent": traced(), "change": change_traced or traced()})


class TestVerdicts:
    def test_identical_sides_are_neutral(self):
        report = judge(runs())
        assert set(verdicts(report).values()) == {"neutral"}
        assert report.ok and not report.problems
        assert all(p == c for _, p, c in report.layers)

    def test_slower_kernel_is_regression_placed_in_csl(self):
        report = judge(runs({"mttkrp_mnnz_s": 1 / 1.5}),
                       change_traced=traced({CSL: 1.5}))
        got = verdicts(report)
        assert got.pop("mttkrp_mnnz_s") == "regression"
        assert set(got.values()) == {"neutral"}
        assert not report.ok
        assert report.layers[0][0] == CSL
        (mttkrp,) = [m for m in report.metrics if m.name == "mttkrp_mnnz_s"]
        assert mttkrp.wins == 0 and mttkrp.pairs == PAIRS

    def test_doubled_peak_rss_is_regression(self):
        report = judge(runs({"peak_rss_mb": 2.0}))
        assert verdicts(report)["peak_rss_mb"] == "regression"
        assert not report.ok

    def test_higher_failed_share_fails(self):
        report = judge(runs(failed=1))
        assert set(verdicts(report).values()) == {"neutral"}
        assert not report.ok
        assert any("operations" in p for p in report.problems)

    def test_incorrect_run_fails(self):
        change = runs()
        change[3]["correct"] = False
        report = judge(change)
        assert not report.ok
        assert report.problems == [
            f"change: 1 of {PAIRS + TRACED_PAIRS} runs not correct"]

    def test_incorrect_traced_run_fails(self):
        change_traced = traced()
        change_traced[-1]["correct"] = False
        report = judge(runs(), change_traced=change_traced)
        assert not report.ok
        assert report.problems == [
            f"change: 1 of {PAIRS + TRACED_PAIRS} runs not correct"]

    def test_layer_moves_are_medians_of_the_traced_pairs(self):
        # one outlying traced run moves nothing; a shift in most runs does
        change_traced = traced()
        change_traced[0]["metrics"][CSL]["value"] = 5.0
        report = judge(runs(), change_traced=change_traced)
        assert all(p == c for _, p, c in report.layers)
        for run, scale in zip(change_traced, (1.0, 1.5, 1.4)):
            run["metrics"][CSL]["value"] = 0.5 * scale
        report = judge(runs(), change_traced=change_traced)
        assert report.layers[0] == (CSL, 0.5, 0.5 * 1.4)
        assert all(p == c for _, p, c in report.layers[1:])

    def test_parent_spread_wider_than_bound_is_unresolved(self):
        noisy = (0.6, 1.4, 0.7, 1.3, 1.0, 0.65, 1.35, 0.75, 1.25, 1.0)
        report = judge(runs(jitter=noisy[::-1]),
                       parent_runs=runs(jitter=noisy))
        assert set(verdicts(report).values()) == {"unresolved"}
        assert report.ok  # unresolved is reported, not failed

    def test_faster_on_every_pair_is_gain(self):
        report = judge(runs({"setup_s": 0.7}))
        got = verdicts(report)
        assert got.pop("setup_s") == "gain"
        assert set(got.values()) == {"neutral"}


FAKE_RUN = '''\
import json, os, sys
SIDE, VALUE = {side!r}, {value!r}
with open({log!r}, "a") as fh:
    fh.write(json.dumps({{"side": SIDE, "argv": sys.argv[1:],
                         "cwd": os.getcwd()}}) + "\\n")
print("m 1.0 s")
print(json.dumps({{"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {{"m": {{"value": VALUE, "unit": "s"}},
                              "layer": {{"value": 0.5, "unit": "s"}}}}}}))
'''


@pytest.fixture
def fake_repo(tmp_path, monkeypatch):
    """A two-commit repository whose benchmark logs each call; snapshots
    land under ``tmp_path/tmp``."""
    repo, log = tmp_path / "repo", tmp_path / "calls.jsonl"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "run_seconds": 3,
        "workloads": [{"name": "w1"}, {"name": "w2"}],
        "end_to_end": [{"name": "m", "unit": "s", "better": "lower",
                        "bound": 0.25}],
        "per_layer": [{"name": "layer", "unit": "s", "better": "lower"}],
    }))

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True, capture_output=True)

    def write(side, value=1.0, commit=True):
        (repo / "perfbench" / "run.py").write_text(
            FAKE_RUN.format(side=side, value=value, log=str(log)))
        if commit:
            git("add", "-A")
            git("commit", "-qm", side)

    git("init", "-q")
    write("parent")
    write("change")
    write("uncommitted", commit=False)
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    return repo, log, tmp, write


def test_loop_snapshots_alternates_parses_and_cleans_up(fake_repo):
    repo, log, tmp, _ = fake_repo
    lines: list[str] = []
    (report,) = run_ab("HEAD~1", "w1", repo=repo, log=lines.append)

    calls = [json.loads(line) for line in log.read_text().splitlines()]
    # the committed trees run, never the working tree
    sides = [c["side"] for c in calls]
    expected = []
    for i in range(PAIRS):
        expected += ["parent", "change"] if i % 2 == 0 else ["change",
                                                            "parent"]
    traced_sides = []
    for i in range(TRACED_PAIRS):
        traced_sides += (["parent", "change"] if i % 2 == 0
                         else ["change", "parent"])
    assert sides == expected + traced_sides
    assert [c["argv"][c["argv"].index("--trace") + 1] for c in calls] \
        == ["0"] * 2 * PAIRS + ["1"] * 2 * TRACED_PAIRS
    assert all(c["argv"][:4] == ["--workload", "w1", "--seconds", "3"]
               for c in calls)
    cwds = {side: {c["cwd"] for c in calls if c["side"] == side}
            for side in ("parent", "change")}
    assert all(len(dirs) == 1 for dirs in cwds.values())
    assert cwds["parent"] != cwds["change"]
    for (cwd,) in cwds.values():
        assert Path(cwd).is_relative_to(tmp)
        assert not Path(cwd).exists()
    assert list(tmp.iterdir()) == []

    assert [(m.name, m.verdict, m.wins, m.pairs) for m in report.metrics] \
        == [("m", "neutral", 0, PAIRS)]
    assert report.layers == [("layer", 0.5, 0.5)]
    assert report.ok
    assert any("== w1" in line for line in lines)


def test_cli_exits_1_on_regression(fake_repo, monkeypatch, capsys):
    repo, log, tmp, write = fake_repo
    write("slow", value=2.0)
    monkeypatch.chdir(repo)
    assert main(["ab", "HEAD~1", "--workload", "w2"]) == 1
    out = capsys.readouterr().out
    assert "== w2" in out and "FAIL: regression in m" in out
    assert list(tmp.iterdir()) == []


def test_bad_workload_is_error_and_leaves_nothing(fake_repo, monkeypatch,
                                                  capsys):
    repo, log, tmp, _ = fake_repo
    with pytest.raises(ReproError, match="unknown workload"):
        run_ab("HEAD~1", "nope", repo=repo)
    monkeypatch.chdir(repo)
    assert main(["ab", "no-such-rev"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not log.exists()
    assert list(tmp.iterdir()) == []
