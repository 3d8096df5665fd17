import importlib.util
import json
import sys
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
