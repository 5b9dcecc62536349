"""The request sampler against the sampler it replaced.

``RequestSampler`` prebuilds its KVS keys and per-class flags; the draws
and the expressions that turn them into a request must not move.  The
reference below is the original per-request code.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Kernel
from repro.traffic import RequestClassConfig, RequestSampler, TrafficConfig, build_classes
from repro.traffic.classes import PUT_VALUE_BYTES
from tests.traffic.test_arrivals import ScriptedRandom

pytestmark = pytest.mark.traffic


def _reference_sample(config, classes, rng):
    """(class, key, value) by the original sampler's code."""
    cumulative = []
    total = 0.0
    for cls in classes:
        total += cls.weight
        cumulative.append((total, cls))
    pick = rng.random() * total
    cls = cumulative[-1][1]
    for bound, candidate in cumulative:
        if pick < bound:
            cls = candidate
            break
    uid = int(rng.random() * config.users)
    if cls.kind in ("kvs_put", "kvs_get"):
        index = int(config.key_space * rng.random() ** config.key_skew)
        index = min(index, config.key_space - 1)
        key = b"u:%06d" % index
    else:
        key = b"%s:%08d" % (cls.kind.encode(), uid)
    value = b""
    if cls.kind == "kvs_put":
        value = (b"p%07d" % (uid % 10_000_000)) * (PUT_VALUE_BYTES // 8)
    return cls, key, value


#: Class mixes: every kind, KVS only, accelerators only.
MIXES = [
    (("kvs_put", 1.0), ("kvs_get", 6.0), ("recsys", 2.0), ("gbdt", 1.0)),
    (("kvs_put", 3.0), ("kvs_get", 1.0)),
    (("recsys", 2.0), ("gbdt", 1.0)),
]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mix=st.sampled_from(MIXES),
    users=st.sampled_from([1, 7, 1_000_000]),
    key_space=st.sampled_from([1, 8, 2048]),
    key_skew=st.sampled_from([1.0, 2.0, 3.5]),
    phase=st.sampled_from(["steady", "flash"]),
    n=st.integers(min_value=1, max_value=80),
)
def test_sample_matches_the_reference(seed, mix, users, key_space, key_skew, phase, n):
    config = TrafficConfig(
        users=users,
        key_space=key_space,
        key_skew=key_skew,
        classes=tuple(RequestClassConfig(kind, weight=w) for kind, w in mix),
    )
    classes = build_classes(config)
    sampler = RequestSampler(config, classes)
    kernel = Kernel(seed=seed)
    reference = random.Random(seed)
    for i in range(n):
        kernel.now = 250.0 * i
        request = sampler.sample(kernel, phase)
        want = _reference_sample(config, classes, reference)
        assert (request.cls, request.key, request.value) == want
        assert request.phase == phase
        assert request.submitted_ns == kernel.now
    assert kernel.rng.getstate() == reference.getstate()


def test_a_pick_on_a_class_bound_takes_the_next_class():
    """``pick < bound`` is strict: a pick exactly on the first class's
    cumulative weight selects the second class."""
    config = TrafficConfig(
        classes=(RequestClassConfig("kvs_get", weight=1.0), RequestClassConfig("kvs_put", weight=1.0)),
    )
    classes = build_classes(config)
    script = [0.5, 0.25, 0.75]
    kernel = Kernel()
    kernel.rng = ScriptedRandom(script)
    request = RequestSampler(config, classes).sample(kernel, "steady")
    want = _reference_sample(config, classes, ScriptedRandom(script))
    assert (request.cls, request.key, request.value) == want
    assert request.cls.kind == "kvs_put"
