"""Golden-trace integration test.

Runs the quickstart coherent-traffic workload (write / read-back /
flush through the MOESI protocol) with an event-recording registry
attached to the transport and agents — but NOT the kernel, so the log
contains only protocol-visible events — and compares the JSON-lines
export byte-for-byte against a checked-in golden file.

To regenerate after an intentional protocol or exporter change:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_golden_trace.py
"""

import os
import pathlib

from repro.eci import CacheAgent, HomeAgent, InstantTransport
from repro.obs import MetricsRegistry, events_jsonl, parse_jsonl, snapshot_jsonl
from repro.sim import Kernel

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_quickstart.jsonl"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

PATTERN = bytes(range(128))


def _run_quickstart_traffic() -> MetricsRegistry:
    kernel = Kernel()
    registry = MetricsRegistry(record_events=True)
    registry.use_clock(lambda: kernel.now)
    transport = InstantTransport(kernel, latency_ns=40.0, obs=registry)
    HomeAgent(kernel, 0, transport, name="fpga")
    cpu_cache = CacheAgent(
        kernel, 1, transport, home_for=lambda a: 0, name="cpu-l2"
    )

    def workload():
        yield from cpu_cache.write(0x1000, PATTERN)
        data = yield from cpu_cache.read(0x1000)
        assert data == PATTERN
        yield from cpu_cache.flush(0x1000)

    kernel.run_process(workload())
    return registry


def test_quickstart_trace_matches_golden():
    registry = _run_quickstart_traffic()
    text = events_jsonl(registry)
    if REGEN:
        GOLDEN.write_text(text)
    assert GOLDEN.exists(), (
        "golden file missing; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert text == GOLDEN.read_text(), (
        "event log diverged from golden trace; if the protocol change is "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )


def test_quickstart_trace_is_run_to_run_stable():
    a = _run_quickstart_traffic()
    b = _run_quickstart_traffic()
    assert events_jsonl(a) == events_jsonl(b)
    assert snapshot_jsonl(a) == snapshot_jsonl(b)


def test_golden_trace_content_sanity():
    events = parse_jsonl(GOLDEN.read_text())
    kinds = {e["kind"] for e in events}
    assert "counter" in kinds
    vcs = {e["labels"]["vc"] for e in events if e["name"] == "eci_messages_total"}
    assert {"REQ", "RSP"} <= vcs
    stamps = [e["t"] for e in events]
    assert stamps == sorted(stamps)
    assert stamps[-1] > 0
