"""Seeded random substreams for reproducible parallel simulation."""
from __future__ import annotations

import operator

import numpy as np

# Smallest value a 53-bit uniform can take once the exact zero is clamped away.
_OPEN_LOW = 2.0 ** -53


class RngStream:
    """A stateful random substream keyed by ``(seed, stream_id)``.

    Identical ``(seed, stream_id)`` pairs reproduce the exact same draw
    sequence within one build; distinct ``stream_id`` values give
    statistically independent streams, so per-path substreams can run
    concurrently.  Backed by PCG64 seeded with
    ``SeedSequence([seed, stream_id])``.

    A single stream advances with every draw and must not be shared across
    concurrent callers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        # operator.index refuses floats, which int() would truncate.
        self.seed, self.stream_id = operator.index(seed), operator.index(stream_id)
        if self.seed < 0 or self.stream_id < 0:
            raise ValueError("seed and stream_id must be non-negative")
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id]))
        )

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    def substream(self, offset: int) -> "RngStream":
        """Fresh independent stream with ``stream_id`` shifted by ``offset``."""
        return RngStream(self.seed, self.stream_id + offset)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniforms on the open interval (0, 1), one 53-bit draw each.

        ``Generator.random`` yields dyadic rationals k * 2**-53 on [0, 1);
        the single value 0.0 is clamped up to 2**-53 so downstream
        transforms never see log(0) or an angle of exactly +-pi/2.  Vector
        fills match repeated scalar draws, so consumers may batch draws
        without changing the stream schedule.
        """
        return np.maximum(self._gen.random(n), _OPEN_LOW)

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normal draws."""
        return self._gen.standard_normal(n)
