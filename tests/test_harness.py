import os
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trexlab import harness
from trexlab.errors import ConfigError, TrexlabError
from trexlab.harness import (
    CSV_COLUMNS,
    rows_to_csv,
    run_cell,
    run_verification,
    summarize,
    write_reports,
)
from trexlab.serialize import ExperimentConfig


def _config(**kw):
    base = {
        "scenarios": [{"n": 25, "p": 10, "s": 2, "seed": 11},
                      {"n": 25, "p": 10, "s": 2, "seed": 12,
                       "design": {"kind": "orthogonal"}}],
        "estimators": ["trex_constrained"],
        "theorems": ["trex_slow", "l1_ordering", "lasso_slow"],
        "replicates": 2,
    }
    base.update(kw)
    return ExperimentConfig.from_dict(base)


class TestRunCell:
    def test_one_row_per_theorem(self):
        rows = run_cell(_config(), 0, 0)
        assert len(rows) == 3
        assert {r["theorem"] for r in rows} == {"trex_slow", "l1_ordering",
                                               "lasso_slow"}
        for r in rows:
            assert set(CSV_COLUMNS) <= set(r)
            assert r["verdict"] in ("holds", "violated", "not_applicable")

    def test_replicates_get_distinct_seeds(self):
        a = run_cell(_config(), 0, 0)
        b = run_cell(_config(), 0, 1)
        assert a[0]["seed"] != b[0]["seed"]

    def test_deterministic(self):
        a = run_cell(_config(), 0, 0)
        b = run_cell(_config(), 0, 0)
        assert a == b

    def test_compat_theorem_produces_nu(self):
        cfg = _config(theorems=["trex_fast_compat"])
        rows = run_cell(cfg, 1, 0)  # orthogonal scenario: exact nu = 1
        assert len(rows) == 1
        assert rows[0]["nu"] == 1.0


class TestRunVerification:
    def test_zero_compatibility_constant_is_not_applicable(self):
        # a duplicated pair in the support has compatibility constant 0; the
        # fast-rate bounds divide by nu^2 and must fail their nu gate instead
        cfg = ExperimentConfig.from_dict({
            "scenarios": [{"n": 30, "p": 12, "s": 3, "seed": 1,
                           "design": {"kind": "duplicated_columns",
                                      "duplicates": 2}}],
            "theorems": ["trex_slow", "l1_ordering", "lasso_slow", "lasso_fast",
                         "trex_fast_via_lasso", "trex_fast_compat"],
        })
        rows = run_verification(cfg)
        assert len(rows) == 6
        fast = [r for r in rows if r["theorem"] in ("lasso_fast", "trex_fast_compat")]
        assert len(fast) == 2
        for r in fast:
            assert r["nu"] == 0.0
            assert r["verdict"] == "not_applicable"
            assert "nu_positive=0" in r["gates"].split("|")

    def test_row_order_frozen(self):
        cfg = _config()
        rows = run_verification(cfg)
        keys = [(r["scenario"], r["replicate"]) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 2 * 2 * 3

    def test_parallel_matches_serial(self):
        cfg = _config()
        serial = run_verification(cfg, jobs=1)
        parallel = run_verification(cfg, jobs=2)
        assert serial == parallel

    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_report_csv_byte_identical_at_one_and_two_jobs(self, data):
        scenario = st.fixed_dictionaries({
            "n": st.integers(20, 30), "p": st.integers(6, 12),
            "s": st.integers(1, 3), "seed": st.integers(0, 2**31 - 1),
            "design": st.sampled_from([{"kind": "iid_gaussian"},
                                       {"kind": "toeplitz", "rho": 0.6},
                                       {"kind": "duplicated_columns",
                                        "duplicates": 1}])})
        others = ["trex_slow", "l1_ordering", "lasso_slow", "trex_fast_compat"]
        cfg = ExperimentConfig.from_dict({
            "scenarios": data.draw(st.lists(scenario, min_size=1, max_size=2)),
            "estimators": [data.draw(st.sampled_from(["trex", "trex_constrained"]))],
            "theorems": ["lasso_fast"] + data.draw(st.lists(
                st.sampled_from(others), max_size=2, unique=True)),
            "replicates": data.draw(st.integers(1, 2)),
            "compat_samples": data.draw(st.integers(0, 300)),
        })
        reports = []
        for jobs in (1, 2):
            with tempfile.TemporaryDirectory() as out:
                write_reports(run_verification(cfg, jobs=jobs), out, timestamp=False)
                with open(os.path.join(out, "report.csv"), "rb") as fh:
                    reports.append(fh.read())
        assert reports[0] == reports[1]


def _cell_stub(config, scenario_idx, replicate):
    """Stands in for ``run_cell``: one cheap row naming the cell and the
    process that ran it."""
    return [{"scenario": scenario_idx, "replicate": replicate, "pid": os.getpid()}]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _TwoArgError(Exception):
    """An exception that pickles but cannot be unpickled: its constructor
    takes two arguments and its ``args`` hold one."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.fixture
def deadline():
    """Fails a test that still waits on its children after 60 s."""
    def expire(signum, frame):
        raise TimeoutError("run_verification still waiting after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestScheduler:
    def test_uneven_shares_match_serial(self):
        cfg = _config()                      # 2 scenarios x 2 replicates
        assert run_verification(cfg, jobs=3) == run_verification(cfg, jobs=1)

    def test_caller_runs_share_zero_and_children_the_rest(self, monkeypatch):
        monkeypatch.setattr(harness, "run_cell", _cell_stub)
        rows = run_verification(_config(replicates=3), jobs=4)
        assert [(r["scenario"], r["replicate"]) for r in rows] == [
            (i, r) for i in range(2) for r in range(3)]
        pids = [r["pid"] for r in rows]
        assert pids[0] == pids[4] == os.getpid()
        assert len(set(pids)) == 4
        _no_child_left()

    def test_forks_at_most_one_process_per_extra_cell(self, monkeypatch):
        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(harness, "run_cell", _cell_stub)
        monkeypatch.setattr(harness.os, "fork", counting_fork)
        rows = run_verification(_config(replicates=1), jobs=64)   # 2 cells
        assert len(forks) == 1
        assert len(rows) == 2
        _no_child_left()

    def test_payload_larger_than_a_pipe_buffer(self, monkeypatch):
        def big(config, scenario_idx, replicate):
            return [{"cell": (scenario_idx, replicate), "gates": "x" * 200_000}]

        monkeypatch.setattr(harness, "run_cell", big)
        rows = run_verification(_config(), jobs=2)
        assert [r["cell"] for r in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        _no_child_left()

    @pytest.mark.parametrize("where", ["child", "caller"])
    def test_error_keeps_its_type_and_leaves_no_child(self, monkeypatch, where):
        caller = os.getpid()

        def failing(config, scenario_idx, replicate):
            if (os.getpid() == caller) == (where == "caller"):
                raise ConfigError(f"cell {scenario_idx},{replicate} failed")
            return _cell_stub(config, scenario_idx, replicate)

        monkeypatch.setattr(harness, "run_cell", failing)
        with pytest.raises(ConfigError, match="failed"):
            run_verification(_config(), jobs=2)
        _no_child_left()

    def test_child_error_that_cannot_be_unpickled(self, monkeypatch):
        caller = os.getpid()

        def failing(config, scenario_idx, replicate):
            if os.getpid() != caller:
                raise _TwoArgError("first", "second")
            return _cell_stub(config, scenario_idx, replicate)

        monkeypatch.setattr(harness, "run_cell", failing)
        with pytest.raises(TrexlabError, match="_TwoArgError: first and second"):
            run_verification(_config(), jobs=2)
        _no_child_left()

    def test_child_that_dies_without_a_result(self, monkeypatch):
        caller = os.getpid()

        def dying(config, scenario_idx, replicate):
            if os.getpid() != caller:
                os._exit(3)
            return _cell_stub(config, scenario_idx, replicate)

        monkeypatch.setattr(harness, "run_cell", dying)
        with pytest.raises(TrexlabError, match="exited with status 3"):
            run_verification(_config(), jobs=2)
        _no_child_left()

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            run_verification(_config(), jobs=jobs)

    def test_parallel_jobs_need_fork(self, monkeypatch):
        monkeypatch.setattr(harness, "run_cell", _cell_stub)
        monkeypatch.delattr(harness.os, "fork")
        with pytest.raises(ConfigError, match="fork"):
            run_verification(_config(), jobs=2)
        assert len(run_verification(_config(), jobs=1)) == 4


class TestReports:
    def test_summarize_counts(self):
        rows = [
            {"theorem": "trex_slow", "verdict": "holds", "lhs": 1.0, "rhs": 2.0},
            {"theorem": "trex_slow", "verdict": "violated", "lhs": 3.0, "rhs": 2.0},
            {"theorem": "l1_ordering", "verdict": "not_applicable",
             "lhs": 0.0, "rhs": 0.0},
        ]
        s = summarize(rows)
        assert s["trex_slow"]["holds"] == 1
        assert s["trex_slow"]["violated"] == 1
        assert s["trex_slow"]["worst_ratio"] == 0.5
        assert s["l1_ordering"]["not_applicable"] == 1
        assert s["_total"] == {"rows": 3, "violated": 1}

    def test_csv_layout(self):
        rows = run_cell(_config(), 0, 0)
        text = rows_to_csv(rows, timestamp=False)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert len(first) == len(CSV_COLUMNS)

    def test_write_reports_byte_identical(self, tmp_path):
        cfg = _config()
        rows = run_verification(cfg)
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        write_reports(rows, str(d1), timestamp=False)
        write_reports(rows, str(d2), timestamp=False)
        assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()

    def test_floats_round_trip_exactly(self):
        rows = run_cell(_config(), 0, 0)
        text = rows_to_csv(rows, timestamp=False)
        line = text.splitlines()[1].split(",")
        lhs = float(line[CSV_COLUMNS.index("lhs")])
        assert lhs == rows[0]["lhs"]
