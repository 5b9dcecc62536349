"""The histogram bucket table against the formula that defines a bucket.

``Histogram.bucket_bound`` bisects a shared table of ``base ** k`` and
falls back to the logarithm outside the table and just above a bound.
The reference below is the definition the table replaced; the table
must agree with it on every positive float, and on the hard cases: each
table bound, its float neighbours, and values a hair above it.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry
from repro.obs.metrics import _TABLE_MARGIN, _bucket_table

BASES = (1.25, 2.0, 10.0)


def reference_bound(value: float, base: float) -> float:
    """A value's bucket bound, by definition."""
    return 0.0 if value <= 0 else base ** math.ceil(round(math.log(value, base), 9))


def _outcome(bound_of, value):
    """The bound, or the type of the error it raised (e.g. overflow)."""
    try:
        return bound_of(value)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _check(histogram, value):
    want = _outcome(lambda v: reference_bound(v, histogram.base), value)
    assert _outcome(histogram.bucket_bound, value) == want, (histogram.base, value)


_REGISTRY = MetricsRegistry()
HISTOGRAMS = {base: _REGISTRY.histogram(f"lat_{base}", base=base) for base in BASES}


@pytest.mark.parametrize("base", BASES)
def test_every_table_bound_and_its_neighbours(base):
    histogram = HISTOGRAMS[base]
    bounds, _ = _bucket_table(base)
    assert len(bounds) > 2
    for bound in bounds:
        for value in (
            bound,
            math.nextafter(bound, 0.0),
            math.nextafter(bound, math.inf),
            bound * (1 - 1e-9),
            bound * (1 + 1e-9),
            bound * (1 + _TABLE_MARGIN),
        ):
            _check(histogram, value)


@settings(max_examples=500, deadline=None)
@given(
    base=st.sampled_from(BASES),
    value=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
def test_any_positive_float(base, value):
    _check(HISTOGRAMS[base], value)


@settings(max_examples=500, deadline=None)
@given(
    base=st.sampled_from(BASES),
    exponent=st.integers(min_value=-80, max_value=80),
    scale=st.floats(min_value=1 - 1e-5, max_value=1 + 1e-5),
)
def test_values_near_a_power_of_the_base(base, exponent, scale):
    _check(HISTOGRAMS[base], base ** exponent * scale)


def test_histograms_of_one_base_share_one_table():
    a = MetricsRegistry().histogram("a", base=1.25)
    b = MetricsRegistry().histogram("b", base=1.25)
    assert a._bounds is b._bounds
    assert a._bounds is not MetricsRegistry().histogram("c", base=2.0)._bounds
