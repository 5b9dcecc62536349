"""KVS wire messages: slotted records with a precomputed ``wire_bytes``."""

import pytest

from repro.fleet import KvsRequest, KvsResponse
from repro.fleet.kvs import NO_VERSION, REQUEST_HEADER_BYTES
from repro.net import Frame
from repro.snap.tap import _frame_of, _frame_record, decode_payload, encode_payload

pytestmark = pytest.mark.fleet

REQUESTS = [
    KvsRequest("get", b"k", b"", 1, "client0#kvs"),
    KvsRequest(
        "put", b"key-1", b"value", 7, "client0#kvs",
        epoch=3, replicas=("enzian1", "enzian2"),
    ),
    KvsRequest(
        "replicate", b"key-1", b"", 7, "client0#kvs",
        epoch=3, version=(3, 9), tombstone=True,
    ),
    KvsRequest(
        "hint", b"k", b"v", 0, "client0#kvs", version=(2, 1), hint_for="enzian4",
    ),
]

RESPONSES = [
    KvsResponse(1, True, b"value", "enzian0", epoch=3, version=(3, 9)),
    KvsResponse(2, False, None, "enzian1"),
    KvsResponse(3, False, None, "enzian2", epoch=4, error="stale_epoch"),
]


def test_defaults_keywords_and_wire_bytes():
    request = KvsRequest("put", b"abc", b"defg", 5, "c#kvs")
    assert (request.epoch, request.version, request.replicas) == (0, NO_VERSION, ())
    assert (request.hint_for, request.tombstone) == ("", False)
    assert request.wire_bytes == REQUEST_HEADER_BYTES + 3 + 4
    assert request == KvsRequest(
        op="put", key=b"abc", value=b"defg", txid=5, reply_to="c#kvs"
    )
    response = KvsResponse(5, True, None, "m")
    assert (response.epoch, response.version, response.error) == (0, NO_VERSION, "")
    assert response.wire_bytes == REQUEST_HEADER_BYTES
    assert KvsResponse(5, True, b"xy", "m").wire_bytes == REQUEST_HEADER_BYTES + 2


def test_fieldwise_equality_and_repr():
    a = KvsRequest("put", b"k", b"v", 1, "c#kvs", epoch=2)
    assert a == KvsRequest("put", b"k", b"v", 1, "c#kvs", epoch=2)
    assert a != KvsRequest("put", b"k", b"v", 1, "c#kvs", epoch=3)
    assert hash(a) == hash(KvsRequest("put", b"k", b"v", 1, "c#kvs", epoch=2))
    assert repr(a) == (
        "KvsRequest(op='put', key=b'k', value=b'v', txid=1, reply_to='c#kvs', "
        "epoch=2, version=(0, 0), replicas=(), hint_for='', tombstone=False)"
    )
    assert repr(KvsResponse(4, False, None, "m", error="unknown_op")) == (
        "KvsResponse(txid=4, ok=False, value=None, machine='m', epoch=0, "
        "version=(0, 0), error='unknown_op')"
    )
    assert not hasattr(a, "__dict__")


@pytest.mark.parametrize("message", REQUESTS + RESPONSES, ids=repr)
def test_tap_codec_round_trips(message):
    decoded = decode_payload(encode_payload(message))
    assert decoded == message
    assert type(decoded) is type(message)
    assert decoded.wire_bytes == message.wire_bytes
    frame = Frame("enzian0#kvs", "client0#kvs", message, message.wire_bytes, seq=2)
    assert _frame_of(_frame_record("in", 0.0, frame)) == frame
