"""Reproducible random streams.

Everything random in this package flows through numpy's Philox bit
generator.  Philox is counter based and takes a 128-bit key, which we
split as (master seed, stream id): any number of non-overlapping
substreams can be derived from a single 64-bit seed without
coordination, and a (seed, stream_id) pair regenerates an identical
sequence on any platform.  Replicates, chains and tuning probes should
each own a distinct stream id.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_stream"]

_U64_MAX = 2**64 - 1


def _check_u64(name: str, value) -> int:
    """``value`` as an int, or a ``ValueError`` naming ``name`` if it does not fit a uint64."""
    value = int(value)
    if not 0 <= value <= _U64_MAX:
        raise ValueError(f"{name} must fit in a uint64, got {value!r}")
    return value


def make_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the generator for substream ``stream_id`` of master ``seed``.

    Both arguments must be non-negative integers that fit in a uint64.
    """
    key = np.array([_check_u64("seed", seed), _check_u64("stream_id", stream_id)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
