"""Assignment validation."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

import artifact as af


def test_reference_assignment():
    a = af.build_assignment((1, 2, 1, 3, 2))
    assert a.h == 5
    assert a.k == 3
    assert a.sigma == (1, 2, 1, 3, 2)


def test_adjacent_repeat_rejected():
    with pytest.raises(af.AdjacentRepeat):
        af.build_assignment((1, 1))


def test_gap_in_components_rejected():
    with pytest.raises(af.NotSurjective):
        af.build_assignment((1, 3, 1))


# (True, 2) and the like used to pass as (1, 2): True == int(True) == 1;
# "x", None, [1] and nan raised a bare ValueError or TypeError from int()
@pytest.mark.parametrize("sigma", [(), (0, 1), (1, -2), (1, 2.5), (True, 2),
                                   (2, True), (1, 2, True, 2), (1, "x"),
                                   (1, None), (1, [1]), (1, float("nan"))])
def test_malformed_sigma_rejected(sigma):
    with pytest.raises(af.ConfigError):
        af.build_assignment(sigma)


def test_alternating_two_components():
    a = af.build_assignment((1, 2, 1, 2))
    assert a.k == 2
    assert a.h == 4


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10))
def test_alternating_always_valid(k, extra):
    # cyclic pattern over k components never repeats adjacently and hits all
    sigma = tuple((q % k) + 1 for q in range(k + extra))
    a = af.build_assignment(sigma)
    assert a.k == k
    assert a.h == len(sigma)
