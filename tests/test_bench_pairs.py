"""tools/bench_pairs.py: pair order, summaries and the record, with run.py stubbed."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("_bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


bench_pairs = _load()


def test_seed_lists():
    assert bench_pairs._seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_pairs._pair_spec("query-mix=4") == ("query-mix", [4])
    with pytest.raises(Exception):
        bench_pairs._pair_spec("query-mix")
    # a backwards range would leave the workload with no pairs
    with pytest.raises(bench_pairs.argparse.ArgumentTypeError, match="runs backwards"):
        bench_pairs._pair_spec("query-mix=5-2")
    with pytest.raises(bench_pairs.argparse.ArgumentTypeError, match="runs backwards"):
        bench_pairs._pair_spec("query-mix=1,7-6")


def test_bad_pairs_are_argument_errors(tmp_path, monkeypatch, capsys):
    """A repeated workload would run twice and keep only its last runs; it and
    a backwards seed range stop the tool before any run."""
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")

    def unreached(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_bench", unreached)
    monkeypatch.chdir(tmp_path)
    base = ["--parent", str(parent), "--change", str(change), "--label", "t"]
    for pairs, message in ((["query-mix=1-2", "contract-ladder=1", "query-mix=3"],
                            "more than once in --pairs: query-mix"),
                           (["query-mix=5-2"], "runs backwards")):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(base + [arg for spec in pairs for arg in ("--pairs", spec)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()


def test_summary_quartiles():
    assert bench_pairs._summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert bench_pairs._summary([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}


def _checkout(path: Path) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    (path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 35, "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "ok_ratio", "better": "higher", "bound": 0.001}]}))
    return path


def test_pairs_alternate_and_count_wins(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout == parent else "change"
        calls.append((side, seed, trace, seconds))
        wall = {"parent": 1.0, "change": 0.8 if seed != 3 else 1.2}[side]
        if trace:
            results = checkout / "perfbench" / "results"
            results.mkdir(exist_ok=True)
            (results / f"{workload}-seed{seed}-trace1.json").write_text(
                json.dumps({"span_counts": {"coarsest.coarsest_lattice": 126}}))
            return {"correct": True, "exit": 0,
                    "metrics": {"coarsest.audit_candidates": {"value": 2599, "unit": "count"}}}
        return {"correct": True, "exit": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "ok_ratio": {"value": 1.0, "unit": "ratio"}}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--pairs", "query-mix=1-4"]) == 0
    untraced = [c for c in calls if not c[2]]
    assert [c[0] for c in untraced] == ["parent", "change", "change", "parent",
                                        "parent", "change", "change", "parent"]
    assert {seconds for _, _, _, seconds in calls} == {35}
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    wall = record["untraced"]["workloads"]["query-mix"]["wall_s"]
    assert wall["change_better_pairs"] == 3 and wall["pairs"] == 4
    assert wall["parent"]["median"] == 1.0 and wall["change"]["median"] == 0.8
    # better by more than the parent's spread, but in 3 of 4 pairs only
    assert wall["median_gap"] == -0.2 and wall["parent_iqr"] == 0.0
    assert wall["gain_rule_met"] is False
    ok = record["untraced"]["workloads"]["query-mix"]["ok_ratio"]
    assert ok["change_better_pairs"] == 0
    traced = record["traced_seed1"]["workloads"]["query-mix"]
    for side in ("parent", "change"):
        assert traced[side]["exit"] == 0 and traced[side]["coarsest.audit_candidates"] == 2599
        assert traced[side]["span_counts"] == {"coarsest.coarsest_lattice": 126}


def test_record_counts_source_lines_on_each_side(tmp_path, monkeypatch):
    """src_lines counts the lines of src/ndsys/*.py on each side, as wc -l
    does: a last line without a newline is not counted."""
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    for checkout, files in ((parent, {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}),
                            (change, {"a.py": "x = 1\ny = 2", "notes.txt": "\n" * 9})):
        (checkout / "src" / "ndsys").mkdir(parents=True)
        for name, text in files.items():
            (checkout / "src" / "ndsys" / name).write_text(text)
    monkeypatch.setattr(bench_pairs, "run_bench", _failing_run(set()))
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--pairs", "query-mix=1"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["src_lines"] == {"parent": 3, "change": 1}


def test_traced_passes_alternate_by_workload(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    traced = []

    def fake_run(checkout, workload, seed, seconds, trace):
        if trace:
            traced.append((workload, "parent" if checkout == parent else "change", seed))
        return {"correct": True, "exit": 0,
                "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--pairs", "query-mix=1-2", "--pairs", "contract-ladder=3"]) == 0
    assert traced == [("query-mix", "parent", 1), ("query-mix", "change", 1),
                      ("contract-ladder", "change", 1), ("contract-ladder", "parent", 1)]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())["traced_seed1"]["workloads"]
    assert record["query-mix"]["first"] == "parent"
    assert record["contract-ladder"]["first"] == "change"
    for entry in record.values():
        assert entry["parent"]["wall_s"] == entry["change"]["wall_s"] == 1.0


def _failing_run(fails):
    """A stubbed run.py whose untraced runs fail on the (side, seed) pairs in fails."""
    def fake_run(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout.name == "parent" else "change"
        if not trace and (side, seed) in fails:
            return {"correct": False, "exit": 1, "metrics": {}}
        wall = {"parent": 1.0, "change": 0.8}[side] + seed
        return {"correct": True, "exit": 0, "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    return fake_run


def test_pairs_match_by_seed_when_runs_fail(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    monkeypatch.setattr(bench_pairs, "run_bench", _failing_run({("parent", 2), ("change", 1)}))
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--pairs", "query-mix=1-3"]) == 0
    workload = json.loads((tmp_path / "BENCH_t.json").read_text())["untraced"]["workloads"]
    wall = workload["query-mix"]["wall_s"]
    # only seed 3 ran on both sides
    assert wall["pairs"] == 1 and wall["change_better_pairs"] == 1
    assert wall["values"] == {"parent": [4.0], "change": [3.8]}
    assert "ok_ratio" not in workload["query-mix"]
    assert workload["query-mix"]["correct"] == {"parent": False, "change": False}


def test_record_written_when_both_first_runs_fail(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    monkeypatch.setattr(bench_pairs, "run_bench", _failing_run({("parent", 1), ("change", 1)}))
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--pairs", "query-mix=1-2"]) == 0
    wall = json.loads((tmp_path / "BENCH_t.json").read_text())["untraced"]["workloads"][
        "query-mix"]["wall_s"]
    assert wall["unit"] == "s" and wall["pairs"] == 1
    assert wall["values"] == {"parent": [3.0], "change": [2.8]}


def test_traced_pairs_list_the_counters_that_differ(tmp_path, monkeypatch):
    """Only metrics in unit count are compared: an equal count is not
    listed, a differing one is, and so is one that a side lacks."""
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")

    def fake_run(checkout, workload, seed, seconds, trace):
        if not trace:
            return {"correct": True, "exit": 0,
                    "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        side = "parent" if checkout == parent else "change"
        metrics = {"groebner.spairs": {"value": 40, "unit": "count"},
                   "groebner.basis_peak": {"value": {"parent": 7, "change": 8}[side],
                                           "unit": "count"},
                   "groebner.normal_form_s": {"value": {"parent": 0.1, "change": 0.2}[side],
                                              "unit": "s"}}
        if side == "change":
            metrics["coarsest.audit_candidates"] = {"value": 3, "unit": "count"}
        return {"correct": True, "exit": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--pairs", "query-mix=1", "--pairs", "contract-ladder=1"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())["traced_seed1"]["workloads"]
    for entry in record.values():
        assert entry["counters_differ"] == ["coarsest.audit_candidates", "groebner.basis_peak"]
        assert entry["parent"]["groebner.spairs"] == entry["change"]["groebner.spairs"] == 40


def _gain_record(tmp_path, monkeypatch, parent_walls, change_walls) -> dict:
    """The wall_s and ok_ratio entries of a record whose untraced runs give
    the listed wall_s values, seed by seed, and ok_ratio the same values."""
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")

    def fake_run(checkout, workload, seed, seconds, trace):
        wall = (parent_walls if checkout == parent else change_walls)[seed - 1]
        return {"correct": True, "exit": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "ok_ratio": {"value": wall, "unit": "ratio"}}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--label", "t",
                             "--pairs", f"query-mix=1-{len(parent_walls)}"]) == 0
    return json.loads((tmp_path / "BENCH_t.json").read_text())["untraced"]["workloads"][
        "query-mix"]


def test_gain_rule_needs_nine_of_ten_pairs_and_a_gap_past_the_parent_iqr(tmp_path,
                                                                         monkeypatch):
    """median_gap is change less parent, parent_iqr the parent's q3 less q1,
    and gain_rule_met holds when the change is better in 9 of 10 pairs and
    its median is better by more than parent_iqr, in the metric's direction."""
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    # q1 1.1, median 1.2, q3 1.3: the gap must pass 0.2
    change = [0.8, 0.9, 0.95, 1.0, 1.0, 0.85, 0.9, 0.95, 1.0, 1.5]
    record = _gain_record(tmp_path, monkeypatch, parent, change)
    wall = record["wall_s"]
    assert wall["change_better_pairs"] == 9 and wall["pairs"] == 10
    assert wall["parent_iqr"] == 0.2 and wall["median_gap"] == -0.25
    assert wall["gain_rule_met"] is True
    # the same runs read as a higher-is-better metric: worse, not a gain
    ok = record["ok_ratio"]
    assert ok["change_better_pairs"] == 1 and ok["median_gap"] == -0.25
    assert ok["gain_rule_met"] is False


def test_gain_rule_fails_on_a_gap_inside_the_parent_iqr(tmp_path, monkeypatch):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    change = [p - 0.1 for p in parent]
    wall = _gain_record(tmp_path, monkeypatch, parent, change)["wall_s"]
    assert wall["change_better_pairs"] == 10
    assert wall["median_gap"] == -0.1 and wall["parent_iqr"] == 0.2
    assert wall["gain_rule_met"] is False


def test_worse_by_is_relative_to_the_parent_median_and_checked_against_the_bound(
        tmp_path, monkeypatch):
    """worse_by is the change's median less the parent's, over the parent's,
    in the metric's worse direction; within_bound compares it with the
    metric's bound in BENCHMARK.json."""
    parent = [1.0, 1.0, 1.0]
    record = _gain_record(tmp_path / "a", monkeypatch, parent, [1.2, 1.2, 1.2])
    # wall_s, lower is better: 20% worse, inside its bound of 0.25
    assert record["wall_s"]["worse_by"] == 0.2 and record["wall_s"]["within_bound"] is True
    # ok_ratio, higher is better: 20% better, so within any bound
    assert record["ok_ratio"]["worse_by"] == -0.2 and record["ok_ratio"]["within_bound"] is True
    record = _gain_record(tmp_path / "b", monkeypatch, parent, [1.3, 1.3, 1.3])
    assert record["wall_s"]["worse_by"] == 0.3 and record["wall_s"]["within_bound"] is False
    record = _gain_record(tmp_path / "c", monkeypatch, parent, [0.998, 0.998, 0.998])
    # 0.2% lower: past ok_ratio's bound of 0.001, a gain for wall_s
    assert record["ok_ratio"]["worse_by"] == 0.002
    assert record["ok_ratio"]["within_bound"] is False
    assert record["wall_s"]["worse_by"] == -0.002 and record["wall_s"]["within_bound"] is True
    # no relative change from a parent median of 0; within bound when no worse
    record = _gain_record(tmp_path / "d", monkeypatch, [0.0, 0.0, 0.0], [0.1, 0.0, 0.2])
    assert record["wall_s"]["worse_by"] is None and record["wall_s"]["within_bound"] is False
    assert record["ok_ratio"]["worse_by"] is None and record["ok_ratio"]["within_bound"] is True
