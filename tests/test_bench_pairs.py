import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RATE = {"name": "rate", "better": "higher", "bound": 0.25}
TIME = {"name": "time", "better": "lower", "bound": 0.25}


def runs(parent, change, name):
    """Pair i of hand-made runs: parent[i] against change[i]."""
    out = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        out += [{"seed": seed, "side": "parent", name: p},
                {"seed": seed, "side": "change", name: c}]
    return out


PARENT = [10.0, 11.0, 12.0, 9.0, 10.5, 11.5, 10.0, 9.5, 12.5, 10.0]


class TestSummarize:
    def test_a_clear_gain_meets_the_claim(self):
        change = [v * 1.3 for v in PARENT]
        stats = bench_pairs.summarize(runs(PARENT, change, "rate"), [RATE])["rate"]
        assert stats["pairs"] == 10 and stats["change_wins"] == 10
        assert stats["ratio"] == pytest.approx(1.3)
        assert stats["claim_met"] and stats["within_bound"]

    def test_eight_wins_in_ten_miss_the_claim(self):
        change = [v * 1.3 for v in PARENT[:8]] + PARENT[8:]
        stats = bench_pairs.summarize(runs(PARENT, change, "rate"), [RATE])["rate"]
        assert stats["change_wins"] == 8
        assert not stats["claim_met"] and stats["within_bound"]

    def test_nine_wins_and_a_tie_meet_the_claim(self):
        change = [v * 1.3 for v in PARENT[:9]] + PARENT[9:]
        stats = bench_pairs.summarize(runs(PARENT, change, "rate"), [RATE])["rate"]
        assert stats["change_wins"] == 9 and stats["claim_met"]

    def test_a_gain_within_the_parent_iqr_misses_the_claim(self):
        change = [v + 0.1 for v in PARENT]
        stats = bench_pairs.summarize(runs(PARENT, change, "rate"), [RATE])["rate"]
        assert stats["change_wins"] == 10
        assert stats["parent_iqr"] > 0.1
        assert not stats["claim_met"]

    @pytest.mark.parametrize("factor, within", [(1.2, True), (1.3, False), (0.8, True)])
    def test_lower_is_better_bound(self, factor, within):
        change = [v * factor for v in PARENT]
        stats = bench_pairs.summarize(runs(PARENT, change, "time"), [TIME])["time"]
        assert stats["within_bound"] is within
        assert stats["claim_met"] is (factor < 1.0)

    @pytest.mark.parametrize("factor, within", [(0.8, True), (0.7, False)])
    def test_higher_is_better_bound(self, factor, within):
        change = [v * factor for v in PARENT]
        stats = bench_pairs.summarize(runs(PARENT, change, "rate"), [RATE])["rate"]
        assert stats["within_bound"] is within
        assert not stats["claim_met"]


_DIFF_PATH = _PATH.parent / "verdict_diff.py"
_DIFF_SPEC = importlib.util.spec_from_file_location("verdict_diff", _DIFF_PATH)
verdict_diff = importlib.util.module_from_spec(_DIFF_SPEC)
_DIFF_SPEC.loader.exec_module(verdict_diff)


class TestFieldDiffs:
    HEAD = "scenario,replicate,theorem,verdict,lhs,rhs\n"

    def test_counts_and_largest_relative_difference(self):
        old = (self.HEAD + "a,0,t1,holds,1.0,2.0\na,1,t1,holds,4.0,0\n"
               "a,0,t2,holds,3.0,5.0\n").encode()
        new = (self.HEAD + "a,0,t1,holds,1.0,2.5\na,1,t1,holds,5.0,0.0\n"
               "a,0,t2,not_applicable,3.0,5.0\n").encode()
        same = old
        fields = verdict_diff.field_diffs([(old, new), (same, same)])
        assert fields.keys() == {("t1", "lhs"), ("t1", "rhs"), ("t2", "verdict")}
        assert fields[("t1", "lhs")] == [1, pytest.approx(0.2)]
        # 2.0 -> 2.5 and 0 -> 0.0, which is no difference in value
        assert fields[("t1", "rhs")] == [2, pytest.approx(0.2)]
        assert fields[("t2", "verdict")] == [1, float("inf")]
