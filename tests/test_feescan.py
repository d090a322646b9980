from pathlib import Path

import pytest

from ng_incentives import feescan as fs
from ng_incentives.model import ParameterError

FIXTURE = Path(__file__).parent / "data" / "fees_fixture.csv"


def test_parse_both_line_forms():
    fees = fs.parse_fees("0.0005\n700001,0.001  # whale\n\n# comment\n")
    assert fees.dtype == float and fees.tolist() == [0.0005, 0.001]


def test_parse_collects_all_errors_with_line_numbers():
    text = "0.1\nbogus\n1,2,3\n-0.5\n0.2\n7.5,0.001\n"
    with pytest.raises(fs.FeeDataError) as exc:
        fs.parse_fees(text)
    lines = [n for n, _ in exc.value.errors]
    assert lines == [2, 3, 4, 6]
    assert "line 2" in str(exc.value) and "line 4" in str(exc.value)


def test_fixture_loads_and_hits_cdf_targets():
    fees = fs.load_fees(FIXTURE)
    assert len(fees) == 1000
    dist = fs.distribution(fees, [1e-5, 1e-4, 5e-4, 1e-3])
    assert dist.cdf_at(0.0001) == 0.778
    assert dist.cdf_at(0.0005) == 0.985
    assert dist.cdf_at(0.0) == 0.0
    assert dist.cdf_at(1.0) == 1.0


def test_histogram_buckets_partition_the_data():
    fees = [0.05, 0.1, 0.1, 0.25, 0.9, 2.0]
    dist = fs.distribution(fees, [0.1, 0.5, 1.0])
    # underflow [<0.1), [0.1,0.5), [0.5,1.0), overflow [>=1.0)
    assert dist.bucket_counts == (1, 3, 1, 1)
    assert sum(dist.bucket_counts) == dist.count


def test_distribution_is_permutation_invariant():
    fees = [0.3, 0.05, 0.7, 0.05, 1.4]
    a = fs.distribution(fees, [0.1, 1.0])
    b = fs.distribution(fs.parse_fees("\n".join(map(str, reversed(fees)))), [0.1, 1.0])
    assert a == b
    assert a != fs.distribution(fees[1:], [0.1, 1.0])


def test_distribution_validation():
    fees = [0.1]
    with pytest.raises(ParameterError):
        fs.distribution(fees, [0.5])
    with pytest.raises(ParameterError):
        fs.distribution(fees, [0.5, 0.5])
    with pytest.raises(ValueError):
        fs.distribution([], [0.1, 0.5])
    for edges in ([0.1, float("nan")], [0.1, float("inf")], [float("-inf"), 0.1]):
        with pytest.raises(ParameterError, match="finite"):
            fs.distribution(fees, edges)


def test_classify_splits_on_strict_threshold():
    fees = [0.00005, 0.00005, 0.0001, 0.001]
    cls = fs.classify(fees, whale_threshold=0.0001)
    assert cls.regular_fraction == 0.5
    assert cls.mean_regular_fee == pytest.approx(0.00005)
    assert cls.mean_fee == pytest.approx((0.00005 * 2 + 0.0001 + 0.001) / 4)


def test_classify_validation():
    with pytest.raises(ValueError):
        fs.classify([], 0.1)
    with pytest.raises(ParameterError):
        fs.classify([0.1], 0.0)
    for threshold in (float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="finite"):
            fs.classify([0.1], threshold)
