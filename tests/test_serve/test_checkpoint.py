"""The checkpoint codec must round-trip numpy state bit-exactly."""

import json

import numpy as np
import pytest

from repro.adapt.checkpoint import (
    decode_array,
    decode_model_state,
    decode_state,
    encode_array,
    encode_model_state,
    encode_state,
)


class TestArrayRoundTrip:
    @pytest.mark.parametrize("array", [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.array([np.nan, np.inf, -np.inf, 0.1], dtype=np.float64),
        np.array([], dtype=np.float32),
        np.arange(5, dtype=np.int64),
        np.array(3.5, dtype=np.float32),            # 0-d
    ])
    def test_bit_exact(self, array):
        decoded = decode_array(encode_array(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        np.testing.assert_array_equal(decoded, array)

    def test_survives_json(self):
        array = np.random.default_rng(0).standard_normal((4, 4)) * 1e-7
        payload = json.loads(json.dumps(encode_array(array)))
        assert decode_array(payload).tobytes() == \
            np.ascontiguousarray(array).tobytes()

    def test_noncontiguous_input(self):
        array = np.arange(16, dtype=np.float32).reshape(4, 4).T
        np.testing.assert_array_equal(decode_array(encode_array(array)),
                                      array)


class TestStateTree:
    def test_nested_round_trip(self):
        state = {"t": 3, "m": [np.ones(2), None], "name": "adam",
                 "nested": {"v": np.zeros((2, 2)), "flag": True}}
        decoded = decode_state(json.loads(json.dumps(encode_state(state))))
        assert decoded["t"] == 3 and decoded["name"] == "adam"
        assert decoded["m"][1] is None
        np.testing.assert_array_equal(decoded["m"][0], np.ones(2))
        np.testing.assert_array_equal(decoded["nested"]["v"],
                                      np.zeros((2, 2)))
        assert decoded["nested"]["flag"] is True

    def test_numpy_scalar(self):
        decoded = decode_state(encode_state(np.float32(1.25)))
        assert decoded == np.float32(1.25)

    def test_unencodable_type_raises(self):
        with pytest.raises(TypeError):
            encode_state(object())


class TestModelState:
    def test_round_trip_with_bn_counters(self):
        state = {"conv.weight": np.random.default_rng(1).standard_normal(
            (4, 3, 3, 3)).astype(np.float32)}
        payload = json.loads(json.dumps(encode_model_state(state, [5, 7])))
        decoded_state, tracked = decode_model_state(payload)
        assert tracked == [5, 7]
        np.testing.assert_array_equal(decoded_state["conv.weight"],
                                      state["conv.weight"])
