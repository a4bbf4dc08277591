"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import acceptance_log  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered, high_percentile, median, module_totals, self_times, under_roots  # noqa: E402


def _span(sid, start, end, parent=None, module="m", failed=False, name=None):
    return Span(sid, name or f"s{sid}", module, start, end, parent, "run", failed)


class WallPace:
    """Stands in for ``pace.Pace``: the reference speed is the current one."""

    cpu = 0

    def rescale(self, start, end):
        return end - start

    def unpinned(self):
        return nullcontext()


# -- self time ------------------------------------------------------------


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered([(2.0, 3.0), (0.0, 1.0)]) == pytest.approx(2.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),  # grandchild: counts against span 1, not 0
        _span(3, 6.0, 8.0, parent=0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_clips_children_to_parent_and_merges_overlap():
    spans = [
        _span(0, 0.0, 4.0),
        _span(1, -1.0, 1.0, parent=0),  # starts before its parent
        _span(2, 0.5, 2.0, parent=0),  # overlaps its sibling
    ]
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.0)


def test_module_totals_count_calls_failures_and_self_time():
    spans = [
        _span(0, 0.0, 5.0, module="bench"),
        _span(1, 1.0, 3.0, parent=0, module="gest"),
        _span(2, 3.0, 4.0, parent=0, module="gest", failed=True),
    ]
    totals = module_totals(spans, ("gest", "io"))
    assert totals["gest"] == {"self_s": pytest.approx(3.0), "calls": 2, "failed": 1}
    assert totals["io"] == {"self_s": 0.0, "calls": 0, "failed": 0}


def test_module_totals_are_per_block_of_each_root():
    """Two blocks of step1 and one probe group: the step1 blocks are
    averaged, the probe group counts once, so the totals do not grow with
    the number of blocks a run fits."""
    spans = [
        _span(0, 0.0, 2.0, module="bench", name="step1"),
        _span(1, 0.0, 2.0, parent=0, module="gest"),
        _span(2, 2.0, 6.0, module="bench", name="step1"),
        _span(3, 2.0, 6.0, parent=2, module="gest", failed=True),
        _span(4, 6.0, 7.0, module="probe", name="study"),
        _span(5, 6.0, 7.0, parent=4, module="gest"),
    ]
    totals = module_totals(spans, ("gest",))
    assert totals["gest"] == {"self_s": pytest.approx(3.0 + 1.0), "calls": 2, "failed": 0.5}
    assert module_totals(spans[:2] + spans[4:], ("gest",))["gest"]["calls"] == 2


def test_under_roots_keeps_whole_trees():
    spans = [
        _span(0, 0.0, 5.0, module="bench"),
        _span(1, 1.0, 3.0, parent=0, module="gest"),
        _span(2, 1.5, 2.0, parent=1, module="shift"),
        _span(3, 6.0, 9.0, module="probe", name="cli"),
        _span(4, 7.0, 8.0, parent=3, module="io"),
    ]
    assert [s.id for s in under_roots(spans, lambda r: r.module == "bench")] == [0, 1, 2]
    assert [s.id for s in under_roots(spans, lambda r: r.name == "cli")] == [3, 4]


def test_tracer_records_parents_and_failures():
    tracer = Tracer("r")
    with tracer.span("bench", "outer"):
        with tracer.span("gest", "inner"):
            pass
        with pytest.raises(KeyError):
            with tracer.span("io", "bad"):
                raise KeyError("x")
    outer, inner, bad = tracer.spans
    assert (inner.parent, bad.parent, outer.parent) == (outer.id, outer.id, None)
    assert bad.failed and not inner.failed
    assert all(s.end >= s.start and s.run_id == "r" for s in tracer.spans)


def test_disabled_tracer_records_nothing():
    tracer = Tracer("r", enabled=False)
    with tracer.span("gest", "x"):
        pass
    assert tracer.spans == []


# -- reference speed ----------------------------------------------------------


def test_pace_factor_uses_readings_inside_the_interval():
    nominal = pace.NOMINAL_S
    readings = [(t / 10, nominal * (2.0 if 1.0 <= t / 10 <= 2.0 else 1.0)) for t in range(40)]
    assert pace.factor(readings, 1.0, 2.0) == pytest.approx(0.5)
    assert pace.factor(readings, 2.5, 3.5) == pytest.approx(1.0)


def test_pace_factor_borrows_nearest_readings_for_short_intervals():
    nominal = pace.NOMINAL_S
    readings = [(0.0, nominal), (1.0, 2 * nominal), (1.1, 2 * nominal), (1.2, 2 * nominal), (5.0, nominal)]
    assert pace.factor(readings, 1.15, 1.16) == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        pace.factor([], 0.0, 1.0)


def test_pace_sidecar_reads_and_stops():
    p = pace.Pace()
    try:
        assert pace.os.sched_getaffinity(0) == {p.cpu}
        start = pace.clock()
        pace.time.sleep(0.2)
        assert p.rescale(start, pace.clock()) > 0.0
        assert len(p.readings) >= 3
    finally:
        p.stop()
    assert p.proc.returncode is not None
    assert pace.os.sched_getaffinity(0) == p.allowed


# -- percentile rule --------------------------------------------------------


def test_high_percentile_keeps_ten_samples_beyond():
    assert high_percentile(range(10)) is None
    assert high_percentile(range(1, 11)) is None
    assert high_percentile(range(1, 12)) == (pytest.approx(100 / 11), 1)
    pct, value = high_percentile(list(range(100, 0, -1)))
    assert (pct, value) == (90.0, 90)
    assert sum(x > value for x in range(1, 101)) == 10


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        median([])


# -- acceptance log ---------------------------------------------------------


def test_acceptance_log_reads_the_recorded_suite():
    log = ROOT / "test_output.txt"
    if not log.exists():
        pytest.skip("no acceptance log in this tree")
    record = acceptance_log.parse(log.read_text(encoding="utf-8"))
    assert sorted(record) == list(range(1, 11))
    assert record[7]["seconds"] == 259.1
    assert record[6]["seconds"] == 107.2
    assert record[8]["seconds"] == 41.7
    assert record[1]["description"] == "shift-map fixtures and inverse round trips"


def test_acceptance_log_ignores_other_lines():
    text = "\n".join([
        "FAIL criterion 3: x",
        "PASS criterion 2: two words [1.5s]",
        "tests/test_acceptance.py::test_criterion_2 PASSED",
        "PASS criterion 12: brackets [in] text [30s]",
    ])
    assert acceptance_log.parse(text) == {
        2: {"description": "two words", "seconds": 1.5},
        12: {"description": "brackets [in] text", "seconds": 30.0},
    }


# -- workloads ----------------------------------------------------------------


@pytest.fixture
def out_dir():
    (BENCH / "out").mkdir(exist_ok=True)


@pytest.mark.parametrize("name", ["study", "cli", "exact"])
def test_workload_smoke(name, monkeypatch, out_dir):
    """One block of every task, on smaller inputs, with every check passing."""
    monkeypatch.setattr(workloads, "GEST_N", 4_000)
    monkeypatch.setattr(workloads, "CLI_N", 4_000)
    monkeypatch.setattr(workloads, "MC_PATHS", 500)
    monkeypatch.setattr(workloads, "CF_DRAWS", 2_000)
    setup, make_tasks, named, teardown = workloads.WORKLOADS[name]
    state = setup(ROOT, 3)
    ctx = workloads.Context(Tracer("smoke"), WallPace())
    try:
        workloads.run_closed_loop(ctx, make_tasks(state, ROOT), 0.0)
    finally:
        if teardown:
            teardown(state)
    assert ctx.errors == [] and ctx.failed == 0
    samples = ctx.samples()
    assert sorted(samples) == [f"step{i}" for i in range(1, 6)]
    assert all(len(xs) == 1 for xs in samples.values())
    values = named({s: xs[0] for s, xs in samples.items()})
    assert all(v > 0 for v, _ in values.values())
    modules = {s.module for s in ctx.tracer.spans} - {"bench"}
    assert modules == {"study": {"dgp", "gest", "mle"}, "cli": {"cli"},
                       "exact": {"oracle", "gcomp", "cfsim"}}[name]


def test_failed_check_counts_and_drops_the_sample():
    ctx = workloads.Context(Tracer("t"), WallPace())

    def reject(result):
        raise workloads.CheckFailed(f"wrong result {result}")

    def bad(c, i):
        with c.step("step1"):
            c.op("gest", "x", lambda: 1, check=reject)

    workloads.Task("bad", 1.0, bad).run(ctx)
    assert (ctx.attempted, ctx.failed, ctx.samples()) == (1, 1, {})


def test_unreadable_cli_output_fails_its_check(tmp_path):
    checks = workloads.cli_checks(tmp_path)
    with pytest.raises(workloads.CheckFailed, match="FileNotFoundError"):
        checks["gtest"]()
    (tmp_path / "fit.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(workloads.CheckFailed, match="JSONDecodeError"):
        checks["mle"]()


def test_cli_timeout_fails_the_check():
    with pytest.raises(workloads.CheckFailed, match="ran over"):
        workloads.run_cli(workloads.cli_env(ROOT), ["--help"], timeout=0.001)


def test_alternate_trace_splits_blocks():
    ctx = workloads.Context(Tracer("t", enabled=False), WallPace())

    def body(c, i):
        with c.step("step1"):
            c.op("gest", "x", lambda: None)

    workloads.run_closed_loop(ctx, [workloads.Task("t", 1.0, body)] * 4, 0.0, alternate_trace=True)
    assert len(ctx.samples(traced=True)["step1"]) == len(ctx.samples(traced=False)["step1"]) == 2
    assert [s.module for s in ctx.tracer.spans] == ["bench", "gest"] * 2


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_declares_every_probe():
    import probes

    declared = {m["name"]: (m["unit"], m["better"]) for m in _spec()["per_layer"]}
    for name, unit_better in probes.PROBES.items():
        assert declared[name] == unit_better


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_failed_run_still_prints_its_result(monkeypatch, capsys, out_dir):
    """Every oracle report rejected: steps 1-3 have no sample, the other
    steps do, and the result line says what failed."""
    import run

    def reject(reports):
        raise workloads.CheckFailed("rejected")

    monkeypatch.setattr(workloads, "check_reports", reject)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    code = run.main(["--workload", "exact", "--seed", "5", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == 3 and result["attempted"] == 8
    assert sorted(result["metrics"]) == ["peak_rss_mb", "setup_s", "step4_s", "step5_s"]


def test_command_fails_outside_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
