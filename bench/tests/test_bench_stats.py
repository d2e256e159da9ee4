import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from fairbench import stats  # noqa: E402


def test_quartiles_match_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, med, q3 = stats.quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert stats.spread([1.0, 1.0, 1.0]) == 0.0


@pytest.mark.parametrize("n", [1, 10, 11, 20])
def test_no_tail_percentile_without_enough_samples_above_the_median(n):
    assert stats.tail([float(v) for v in range(n)]) is None


@pytest.mark.parametrize("n, pct", [(21, 52), (30, 66), (100, 90), (1000, 99), (2000, 99)])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, pct):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input
    found_pct, value = stats.tail(values)
    assert found_pct == pct
    assert sum(v > value for v in values) >= 10
    # one percentile higher would leave fewer than ten beyond it
    rank = -(-(pct + 1) * n // 100)
    assert n - rank < 10


def test_describe_states_the_sample_count():
    assert "n=3" in stats.describe([1.0, 2.0, 3.0], "s")
    assert "p66" in stats.describe([float(v) for v in range(30)], "s")
