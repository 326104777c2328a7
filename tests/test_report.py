import math
import statistics
import sys
from fractions import Fraction

import pytest

from drowsebench.report import pstdev


def _check_pstdev(oracle):
    """Run ``oracle(values)`` over lists that cover the whole finite range."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # every finite float: subnormals, zeros of both signs, negatives, up to the largest
    floats = st.floats(allow_nan=False, allow_infinity=False)
    ints = st.integers(-(2**80), 2**80)
    values = st.one_of(floats, ints)
    samples = st.one_of(
        st.lists(floats, min_size=1, max_size=40),
        st.lists(ints, min_size=1, max_size=40),
        st.lists(values, min_size=1, max_size=40),
        st.builds(lambda value, n: [value] * n, values, st.integers(1, 40)),
    )

    @hypothesis.settings(max_examples=1000, deadline=None)
    @hypothesis.given(samples)
    @hypothesis.example([1e300, 1e-300])
    @hypothesis.example([-1e300, 1e-300, 0.0, 5e-324])
    @hypothesis.example([5e-324, 0.0, -5e-324])
    @hypothesis.example([1.7976931348623157e308, -1.7976931348623157e308])
    @hypothesis.example([2**53 + 1, 2**53])
    # ints that a float would round, next to a float with fraction bits
    @hypothesis.example([2**64 + 668, 2**60 + 973, 2**63 - 89, 2**56 + 221, 3.0])
    @hypothesis.example([0.0, -0.0])
    @hypothesis.example([7])
    def check(values):
        got = pstdev(values)
        assert type(got) is float
        oracle(values, got)

    check()


# before 3.11, statistics.pstdev rounds twice (a float variance, then its root)
@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.pstdev rounds twice")
def test_pstdev_equals_statistics_pstdev():
    def oracle(values, got):
        assert got == statistics.pstdev(values)

    _check_pstdev(oracle)


def test_pstdev_is_correctly_rounded():
    def oracle(values, got):
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        variance = sum((x - mean) ** 2 for x in exact) / len(exact)
        # the exact root lies within half a gap of got on either side
        low = (Fraction(got) + Fraction(math.nextafter(got, 0.0))) / 2
        high = Fraction(got) + Fraction(math.ulp(got)) / 2
        assert low * low <= variance <= high * high

    _check_pstdev(oracle)


def test_pstdev_keeps_ints_exact():
    # converting either int to a float first would read 0.0
    assert pstdev([2**53 + 1, 2**53]) == 0.5


def test_pstdev_of_nothing_raises():
    with pytest.raises(ValueError, match="at least one value"):
        pstdev([])
