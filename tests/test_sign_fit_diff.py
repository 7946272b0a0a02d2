import importlib.util
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "tools"))
_SPEC = importlib.util.spec_from_file_location("sign_fit_diff", _ROOT / "tools" / "sign_fit_diff.py")
sign_fit_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sign_fit_diff)


def fit(objective, winner, gap, converged, cpu=0.5):
    return {"objective": objective, "winner": winner, "gap": gap, "converged": converged,
            "cpu": cpu}


class TestSummarize:
    def test_counts_per_family(self):
        families = ["a", "a", "a", "b"]
        parent = [[fit(1.0, [0, 1], 0.0, True), fit(2.0, [1, -1], 0.5, True),
                   fit(3.0, [2, 1], 0.0, True), {"error": "DomainError", "cpu": 0.1}]]
        change = [[fit(1.0 + 1e-13, [0, 1], 0.0, True), fit(1.9, [3, 1], 0.5, False),
                   fit(3.0, [2, 1], 0.0, True, cpu=0.25), fit(4.0, [0, 1], 0.0, True)]]
        table = sign_fit_diff.summarize(families, parent, change)
        a, b = table["a"], table["b"]
        assert a["fits"] == 3 and b["fits"] == 1
        assert a["converged_parent"] == 3 and a["converged_change"] == 2
        assert a["heuristic_parent"] == a["heuristic_change"] == 0
        # only the third fit is equal to the last bit; a failed fit never is
        assert a["identical"] == 1 and b["identical"] == 0
        # the gap 0.5 on objective 2 is open: falsely converged on the parent
        assert a["uncertified_parent"] == a["false_converged_parent"] == 1
        assert a["uncertified_change"] == 1 and a["false_converged_change"] == 0
        # winners and objectives are compared where both sides certify: the
        # second fit, open on both sides, moved its winner and fell by 5 %
        assert a["winners_differ"] == 0
        assert a["max_rel_objective_change"] == pytest.approx(1e-13)
        # the first fit rose by 1e-13 relative, within 1e-9: not counted; the
        # second fell by 5 %
        assert a["rose"] == a["rose_where_parent_certified"] == 0
        assert a["max_rel_rise"] == 0.0 and a["fell"] == 1
        assert a["cpu_parent"] == [1.5] and a["cpu_change"] == [1.25]
        # a failed fit is uncertified and is left out of the comparisons
        assert b["uncertified_parent"] == 1 and b["uncertified_change"] == 0
        assert b["winners_differ"] == 0 and b["max_rel_objective_change"] == 0.0

    def test_a_rise_where_the_parent_certified_is_named(self):
        parent = [[fit(1.0, [0, 1], 0.0, True), fit(1.0, [0, 1], 0.9, False)]]
        change = [[fit(1.1, [2, 1], 0.0, True), fit(1.1, [0, 1], 0.9, False)]]
        a = sign_fit_diff.summarize(["a", "a"], parent, change)["a"]
        assert a["rose"] == 2 and a["rose_where_parent_certified"] == 1
        assert a["winners_differ"] == 1
        assert a["max_rel_objective_change"] == pytest.approx(0.1)

    def test_falls_are_counted_beside_the_rises(self):
        # an open parent fit may rise or fall by any amount; both are shown
        parent = [[fit(1.0, [0, 1], 0.9, False), fit(2.0, [0, 1], 0.9, False),
                   fit(4.0, [1, 1], 0.9, False), fit(1.0, [0, 1], 0.0, True)]]
        change = [[fit(1.0 + 1e-4, [0, 1], 0.0, True), fit(1.8, [0, 1], 0.0, True),
                   fit(4.0 * (1.0 - 1e-10), [1, 1], 0.9, False),
                   fit(1.0 - 1e-8, [0, 1], 0.0, True)]]
        a = sign_fit_diff.summarize(["a"] * 4, parent, change)["a"]
        assert a["rose"] == 1 and a["rose_where_parent_certified"] == 0
        assert a["max_rel_rise"] == pytest.approx(1e-4)
        # 10 % and 1e-8 relative are falls, 1e-10 relative is not
        assert a["fell"] == 2

    def test_identical_needs_objective_winner_and_gap_equal_to_the_bit(self):
        base = fit(1.0, [0, 1], 1e-15, True)
        # CPU and the convergence label are not compared: the first and the
        # last fit are identical
        changed = [fit(1.0, [0, 1], 1e-15, True, cpu=9.0),
                   fit(1.0 + 2.0 ** -52, [0, 1], 1e-15, True),
                   fit(1.0, [0, -1], 1e-15, True),
                   fit(1.0, [0, 1], 2e-15, True),
                   fit(1.0, [0, 1], 1e-15, False)]
        n = len(changed)
        a = sign_fit_diff.summarize(["a"] * n, [[base] * n], [changed])["a"]
        assert a["fits"] == n and a["identical"] == 2
        # a change of one bit is below every other count's threshold
        assert a["rose"] == a["fell"] == 0 and a["winners_differ"] == 1

    def test_heuristic_fits_are_compared_pair_by_pair(self):
        # a group fit carries no certificate (gap None): it is heuristic,
        # neither uncertified nor falsely converged, and every pair of them
        # enters the winner and objective comparisons
        parent = [[fit(1.0, [0], None, True), fit(2.0, [1], None, False)]]
        change = [[fit(1.0, [0], None, True), fit(2.0 * (1.0 + 1e-13), [2], None, True)]]
        a = sign_fit_diff.summarize(["group"] * 2, parent, change)["group"]
        assert a["heuristic_parent"] == a["heuristic_change"] == 2
        assert a["uncertified_parent"] == a["uncertified_change"] == 0
        assert a["false_converged_parent"] == a["false_converged_change"] == 0
        assert a["converged_parent"] == 1 and a["converged_change"] == 2
        assert a["identical"] == 1 and a["winners_differ"] == 1
        assert a["max_rel_objective_change"] == pytest.approx(1e-13)


    def test_engine_counters_are_summed_per_side(self):
        # the first run's counters of the fits without an error; None where a
        # side lacks a counter (a base older than the counter)
        def counted(iterations, row_iterations, trial_rounds, **kw):
            return dict(fit(1.0, [0, 1], 0.0, True, **kw), iterations=iterations,
                        row_iterations=row_iterations, trial_rounds=trial_rounds)
        parent = [[counted(10, 200, 20), counted(4, 50, 8), {"error": "DomainError", "cpu": 0.1}],
                  [counted(99, 999, 99), counted(99, 999, 99), counted(99, 999, 99)]]
        change = [[counted(9, 230, 13), dict(counted(3, 60, 5), trial_rounds=None),
                   counted(2, 20, 2)]]
        a = sign_fit_diff.summarize(["a"] * 3, parent, change)["a"]
        assert (a["iterations_parent"], a["row_iterations_parent"],
                a["trial_rounds_parent"]) == (14, 250, 28)
        assert (a["iterations_change"], a["row_iterations_change"],
                a["trial_rounds_change"]) == (14, 310, None)


class TestRegressions:
    @staticmethod
    def _row(**changed):
        row = {"uncertified_parent": 2, "uncertified_change": 2,
               "false_converged_parent": 1, "false_converged_change": 1,
               "winners_differ": 0, "rose_where_parent_certified": 0}
        row.update(changed)
        return row

    def test_a_change_no_worse_than_its_base_passes(self):
        # fewer open or falsely converged fits are not faults
        table = {"a": self._row(), "b": self._row(uncertified_change=0,
                                                  false_converged_change=0)}
        assert sign_fit_diff.regressions(table) == []

    @pytest.mark.parametrize("changed", [
        {"uncertified_change": 3},
        {"false_converged_change": 2},
        {"winners_differ": 1},
        {"rose_where_parent_certified": 1},
    ], ids=["uncertified", "false_converged", "winner", "rise"])
    def test_each_fault_is_named(self, changed):
        table = {"a": self._row(), "b": self._row(**changed)}
        faults = sign_fit_diff.regressions(table)
        assert len(faults) == 1 and faults[0].startswith("b: ")

    def test_main_exits_1_on_a_fault(self, monkeypatch, capsys):
        # the comparison itself is stubbed: main turns the table into its exit code
        for rows, code in (({"a": self._row()}, 0),
                           ({"a": self._row(winners_differ=2)}, 1)):
            monkeypatch.setattr(sign_fit_diff, "build_cases", lambda families: [])
            monkeypatch.setattr(sign_fit_diff, "base_checkout", lambda rev: (rev, "."))
            monkeypatch.setattr(sign_fit_diff, "solve_side", lambda *a: [])
            monkeypatch.setattr(sign_fit_diff, "summarize", lambda *a, rows=rows: rows)
            assert sign_fit_diff.main(["--base", "HEAD"]) == code
            assert ("worse: a: 2 winners differ" in capsys.readouterr().out) == bool(code)
