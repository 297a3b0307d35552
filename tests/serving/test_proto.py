"""Protocol codec: canonical encoding, decode errors, payload shapes."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import PointSet
from repro.core.store import SortedByF
from repro.serving.proto import (
    ProtocolError,
    decode_payload,
    encode_payload,
    error_payload,
    ok_payload,
    result_payload,
    shed_payload,
)


class TestCanonicalEncoding:
    def test_key_order_does_not_change_bytes(self):
        a = encode_payload({"b": 1, "a": 2})
        b = encode_payload({"a": 2, "b": 1})
        assert a == b

    def test_no_whitespace(self):
        blob = encode_payload({"x": [1, 2], "y": "z"})
        assert b" " not in blob

    @settings(max_examples=50, deadline=None)
    @given(
        payload=st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=8)),
            max_size=5,
        )
    )
    def test_roundtrip_and_determinism(self, payload):
        blob = encode_payload(payload)
        assert decode_payload(blob) == payload
        # shuffled key insertion order yields identical bytes
        assert encode_payload(dict(reversed(list(payload.items())))) == blob


class TestDecodeErrors:
    def test_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_payload(b"\xff\xfe not json")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="expected a JSON object"):
            decode_payload(b"[1,2,3]")

    def test_rejects_invalid_utf8(self):
        with pytest.raises(ProtocolError):
            decode_payload(b'"\xc3"')


class TestPayloads:
    def _store(self):
        values = np.array([[0.1, 0.2], [0.3, 0.1]])
        points = PointSet(values, np.array([7, 9]))
        return SortedByF(points, values.sum(axis=1))

    def test_result_payload_is_json_native(self):
        payload = result_payload(self._store())
        # np.int64 / np.float64 must not leak into the payload
        blob = json.dumps(payload)
        assert json.loads(blob)["ids"] == [7, 9]

    def test_ok_payload_shape(self):
        payload = ok_payload(self._store(), 0.25)
        assert payload["status"] == "ok"
        assert payload["elapsed_seconds"] == 0.25
        assert set(payload["result"]) == {"ids", "values", "f"}

    def test_shed_and_error_payloads(self):
        assert shed_payload("queue_full") == {"status": "shed", "reason": "queue_full"}
        assert error_payload("boom", "backend") == {
            "status": "error",
            "code": "backend",
            "error": "boom",
        }
