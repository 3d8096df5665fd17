import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("presentation", ["free1", "cleary"])
def test_qspace_experiments_smoke(presentation, monkeypatch, capsys):
    qx = load_script("qspace_experiments")
    monkeypatch.setattr(sys, "argv", ["qspace_experiments.py", presentation, "--samples", "3"])
    qx.main()
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [d["experiment"] for d in docs] == list(qx.EXPERIMENTS)
    for d in docs:
        assert set(d) == {"experiment", "presentation", "samples", "violations",
                          "unresolved", "bounds"}
        assert (d["presentation"], d["samples"], d["violations"]) == (presentation, 3, 0)


def test_census_smoke(monkeypatch, capsys):
    census = load_script("census")
    monkeypatch.setattr(sys, "argv", ["census.py", "--json", "cleary", "notlc"])
    census.main()
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
    assert set(rows) == {"cleary", "notlc"}
    cleary = rows["cleary"]
    assert (cleary["complemented"], cleary["complete"], cleary["lc"], cleary["ore"],
            cleary["spine"], cleary["spine_stabilized"], cleary["f_infinity"]) == \
        (True, "complete", "yes", "proved", 3, True, "proved")
    notlc = rows["notlc"]
    assert (notlc["complete"], notlc["lc"], notlc["f_infinity"]) == \
        ("incomplete", "no", "unknown")


def test_bench_record_calibration(monkeypatch):
    bench = load_script("bench_record")

    def refuse(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(bench.subprocess, "run", refuse)
    seconds = bench.calibration_s(repeats=3, n=1000)
    assert isinstance(seconds, float) and 0 < seconds < 1


def test_bench_record_src_lines(tmp_path, monkeypatch):
    bench = load_script("bench_record")

    def refuse(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(bench.subprocess, "run", refuse)
    package = tmp_path / "src" / "forestskein"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not source\n")
    assert bench.src_lines(tmp_path) == 3


def test_ab_pairs_smoke(capsys):
    ab = load_script("ab_pairs")
    # the checkout against itself: two tiny census pairs, one led by each side
    ab.main(["--base", str(SCRIPTS.parent), "--workload", "census", "--pairs", "2",
             "--seed", "1", "--seconds", "1", "--tiny"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pair 1 (base first)")
    assert lines[1].startswith("pair 2 (change first)")
    summary = json.loads(lines[-1])
    assert (summary["workload"], summary["seed"], summary["pairs"]) == ("census", 1, 2)
    assert set(summary["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"}
    for m in summary["metrics"].values():
        assert len(m["ratios"]) == 2 and 0 <= m["pairs_favouring_change"] <= 2
        assert m["base_median"] > 0 and m["change_median"] > 0
        assert m["base_iqr_share"] >= 0 and m["change_iqr_share"] >= 0
    assert ab.iqr_share([1, 2, 3, 4, 5]) == 2 / 3 and ab.iqr_share([7]) == 0


def test_ab_inproc_smoke(capsys):
    ab = load_script("ab_inproc")
    # the checkout against itself in one interpreter: two tiny query blocks
    ab.main(["--base", str(SCRIPTS.parent), "--workload", "query", "--blocks", "2",
             "--seed", "1", "--seconds", "0.5", "--tiny"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("block 1 (base first)")
    assert lines[1].startswith("block 2 (change first)")
    summary = json.loads(lines[-1])
    assert (summary["workload"], summary["seed"], summary["blocks"]) == ("query", 1, 2)
    metrics = summary["metrics"]
    assert set(metrics) == {"setup_s", "ops_per_s", "op_p50_ms", "failed"}
    for name in ("setup_s", "ops_per_s", "op_p50_ms"):
        m = metrics[name]
        assert len(m["ratios"]) == 2 and 0 <= m["blocks_favouring_change"] <= 2
        assert 0 < m["q1"] <= m["median_ratio"] <= m["q3"]
    assert metrics["failed"] == {"base": [0, 0], "change": [0, 0]}
    # the p50 ratio of every op kind the query plan runs, beside the metrics
    kinds = summary["kinds"]
    assert {"normalize_point", "compare", "equals", "normal_form"} <= set(kinds)
    for k in kinds.values():
        assert len(k["ratios"]) == 2 and 0 <= k["blocks_favouring_change"] <= 2
        assert 0 < k["q1"] <= k["median_ratio"] <= k["q3"] and k["ops"] >= 1
    assert any(line.startswith("p50 of compare (") for line in lines)
    # both sides are separate packages, each with its own memo
    base, change = sys.modules["forestskein_base"], sys.modules["forestskein_change"]
    assert base is not change
    assert base.presentation.memo is not change.presentation.memo


def test_ab_inproc_reports_a_planted_slowdown(capsys, monkeypatch):
    ab = load_script("ab_inproc")
    load_side = ab.load_side

    def load_slowed(root, alias):
        # the change side only: every compare busy-waits 100 us, several times
        # its own cost on the query workload's warm caches
        fs = load_side(root, alias)
        if alias == "forestskein_change":
            compare = fs.ordered_action.compare

            def slow_compare(*args):
                end = time.perf_counter() + 1e-4
                while time.perf_counter() < end:
                    pass
                return compare(*args)
            monkeypatch.setattr(fs.ordered_action, "compare", slow_compare)
        return fs

    monkeypatch.setattr(ab, "load_side", load_slowed)
    ab.main(["--base", str(SCRIPTS.parent), "--workload", "query", "--blocks", "3",
             "--seed", "1", "--seconds", "0.5", "--tiny"])
    ops = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]["ops_per_s"]
    assert ops["median_ratio"] < 1 and ops["blocks_favouring_change"] == 0
