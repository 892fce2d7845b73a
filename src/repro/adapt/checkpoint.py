"""Lossless JSON encoding of numpy state for session checkpoints.

Session checkpoints ride inside the serve daemon's run journal (JSONL)
and across the wire protocol, both of which speak JSON — but the state
being checkpointed (model parameters, BN buffers, optimizer moments) is
numpy arrays whose *bytes* must survive the round trip exactly: the
kill-and-resume contract is bit-identity, and a float that went through
``repr`` and back is not the float that was written.  Arrays are
therefore encoded as base64 of their raw little-endian bytes plus dtype
and shape, and nested state containers (dicts, lists, scalars) are
walked recursively with arrays tagged ``{"__ndarray__": ...}``.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Tuple

import numpy as np

#: tag key marking an encoded array inside a state tree
_ARRAY_TAG = "__ndarray__"


def encode_array(array: np.ndarray) -> dict:
    """One array as a JSON-safe dict preserving exact bytes."""
    array = np.asarray(array)
    # shape comes from the original: ascontiguousarray promotes 0-d to 1-d
    contiguous = np.ascontiguousarray(array)
    return {
        "dtype": contiguous.dtype.str,        # includes byte order
        "shape": list(array.shape),
        "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`encode_array` (bit-exact)."""
    raw = base64.b64decode(payload["data"])
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return array.reshape(payload["shape"]).copy()


def encode_state(value: Any) -> Any:
    """Recursively encode a state tree, tagging every ndarray.

    Handles the shapes produced by ``Module.state_dict`` and
    ``Optimizer.state_dict``: dicts, lists/tuples, ndarrays, numpy
    scalars, and plain JSON scalars.  Unknown types raise rather than
    silently degrading to ``repr`` (a checkpoint that cannot round-trip
    must fail at write time, not at resume time).
    """
    if isinstance(value, np.ndarray):
        return {_ARRAY_TAG: encode_array(value)}
    if isinstance(value, np.generic):
        return {_ARRAY_TAG: encode_array(np.asarray(value))}
    if isinstance(value, dict):
        return {str(key): encode_state(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_state(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot checkpoint value of type {type(value).__name__}")


def decode_state(value: Any) -> Any:
    """Inverse of :func:`encode_state`."""
    if isinstance(value, dict):
        if set(value) == {_ARRAY_TAG}:
            return decode_array(value[_ARRAY_TAG])
        return {key: decode_state(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_state(item) for item in value]
    return value


def encode_model_state(state: Dict[str, np.ndarray],
                       batches_tracked: List[int]) -> dict:
    """A model's full restorable state as one JSON-safe document.

    ``state_dict()`` covers parameters and buffers but **not** the BN
    ``batches_tracked`` counters (plain ints on the layer, outside the
    buffer registry), which BN-Norm's running-average momentum depends
    on — so they are carried alongside, in :func:`repro.adapt.base.bn_layers`
    traversal order.
    """
    return {
        "state": {name: encode_array(array) for name, array in state.items()},
        "batches_tracked": [int(n) for n in batches_tracked],
    }


def decode_model_state(payload: dict) -> Tuple[Dict[str, np.ndarray], List[int]]:
    """Inverse of :func:`encode_model_state`."""
    state = {name: decode_array(entry)
             for name, entry in payload["state"].items()}
    return state, [int(n) for n in payload["batches_tracked"]]
