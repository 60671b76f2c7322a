"""Histograms whose per-chunk counts merge exactly.

A value is binned by an integer key, so the counts of two chunks add
without rounding, and a width one step coarser is `key >> 1`. Two key
maps cover the two histograms a run exports:

* linear, for g: key floor(x / W) with W = 2**shift, so bin k is
  [k W, (k + 1) W);
* log-linear, for the failure deficits: key (int64 bits of x) >> shift.
  Positive doubles order like their bit patterns, so a bin holds 2**shift
  consecutive doubles, and an octave is cut into 2**(52 - shift) equal
  bins once shift is at most 52.

The shift of a range [lo, hi] is the smallest one whose key span
key(hi) - key(lo) is below HISTOGRAM_BINS, so a histogram has at most
HISTOGRAM_BINS bins (about half that at the least). A linear bin is also
never narrower than the float spacing at the range's largest |x|: its
keys then stay within 2**53 and every edge k W is exact. Both rules grow
with the range, so a chunk's own shift never exceeds the shift of a run
that contains it: each chunk is binned at its own shift, and the merge
coarsens both sides to the shift of their union. The counts therefore
depend only on the values and the final shift, not on how the run was
cut into chunks or in which order they merged.

The outer edges are clipped to the smallest and largest value. A last
bin that the clipping leaves with zero width (the largest value sits on
an edge) joins the bin before it. If every value is equal, the histogram
is one bin: [x - 0.5, x + 0.5] on the linear scale, [x / 2, 3 x / 2] on
the log-linear one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["HISTOGRAM_BINS", "Histogram", "Bins", "linear", "log_linear", "merge"]

HISTOGRAM_BINS = 200

_MIN_EXPONENT = -1074  # 2**-1074 is the smallest positive double
# Values per step of a pass over an array whose temporaries are made per
# step: here the bin keys. Each float64 or int64 temporary of a step
# takes 64 KiB, under the 128 KiB above which malloc maps fresh pages for
# every array: 512 KiB steps faulted 256 new pages in per step and took
# twice as long.
_STEP = 1 << 13


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    counts: np.ndarray


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


class _Linear:
    # Dividing by a power of two is exact unless the quotient is
    # subnormal. A subnormal quotient lies in (-1, 1), so its floor is
    # still exact, except that a negative one can round to -0.0, whose
    # floor is 0 instead of -1: both key maps below put that right.

    @staticmethod
    def key(x: float, shift: int) -> int:
        k = math.floor(x / math.ldexp(1.0, shift))
        return -1 if k == 0 and x < 0.0 else k

    @classmethod
    def shift(cls, lo: float, hi: float) -> int:
        big = max(abs(lo), abs(hi))
        # no finer than the float spacing at |x| = big
        shift = max(_MIN_EXPONENT, math.frexp(big)[1] - 53)
        half_spread = hi / 2.0 - lo / 2.0  # hi - lo can overflow
        if half_spread > 0.0:
            # at any smaller shift the span is at least 255 bins, even if
            # half_spread rounded up into the next binade
            shift = max(shift, math.frexp(half_spread)[1] - 8)
        while cls.key(hi, shift) - cls.key(lo, shift) >= HISTOGRAM_BINS:
            shift += 1
        return shift

    @staticmethod
    def offsets(values: np.ndarray, shift: int, first: int) -> np.ndarray:
        q = np.divide(values, math.ldexp(1.0, shift))
        np.floor(q, out=q)
        underflowed = values < 0.0
        underflowed &= q == 0.0
        q -= underflowed
        q -= first
        return q.astype(np.intp)

    @staticmethod
    def edges(keys: np.ndarray, shift: int) -> np.ndarray:
        return keys * math.ldexp(1.0, shift)

    @staticmethod
    def padded(x: float) -> tuple[float, float]:
        return x - 0.5, x + 0.5


class _LogLinear:
    @staticmethod
    def key(x: float, shift: int) -> int:
        return _float_bits(x) >> shift

    @classmethod
    def shift(cls, lo: float, hi: float) -> int:
        a, b = _float_bits(lo), _float_bits(hi)
        # below this shift the span is at least 255 bins
        shift = max(0, (b - a).bit_length() - 8)
        while (b >> shift) - (a >> shift) >= HISTOGRAM_BINS:
            shift += 1
        return shift

    @staticmethod
    def offsets(values: np.ndarray, shift: int, first: int) -> np.ndarray:
        keys = np.right_shift(values.view(np.int64), shift)
        keys -= first
        return keys

    @staticmethod
    def edges(keys: np.ndarray, shift: int) -> np.ndarray:
        return (keys << shift).view(np.float64)

    @staticmethod
    def padded(x: float) -> tuple[float, float]:
        return 0.5 * x, 1.5 * x


@dataclass(frozen=True)
class Bins:
    """Counts of bin keys at one shift: the mergeable form of a Histogram.

    counts[i] holds key key(lo) + i; lo and hi are the smallest and the
    largest value counted.
    """

    scale: type
    lo: float
    hi: float
    shift: int
    counts: np.ndarray

    @classmethod
    def of(cls, scale: type, values: np.ndarray, lo: float, hi: float) -> "Bins":
        """Bin values, whose extrema are lo and hi, at their own shift."""
        shift = scale.shift(lo, hi)
        first = scale.key(lo, shift)
        counts = np.zeros(scale.key(hi, shift) - first + 1, dtype=np.int64)
        # step by step, so the key arrays stay small
        for start in range(0, values.size, _STEP):
            step = values[start : start + _STEP]
            counts += np.bincount(scale.offsets(step, shift, first), minlength=counts.size)
        return cls(scale, lo, hi, shift, counts)

    def _add_coarsened(self, out: np.ndarray, shift: int, first: int) -> None:
        """Add these counts to out, whose keys at `shift` start at first."""
        own_first = self.scale.key(self.lo, self.shift)
        keys = np.arange(own_first, own_first + self.counts.size, dtype=np.int64)
        np.add.at(out, (keys >> (shift - self.shift)) - first, self.counts)

    def merge(self, other: "Bins") -> "Bins":
        """Both sides' counts at the shift of their union; exact."""
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        shift = self.scale.shift(lo, hi)
        first = self.scale.key(lo, shift)
        counts = np.zeros(self.scale.key(hi, shift) - first + 1, dtype=np.int64)
        self._add_coarsened(counts, shift, first)
        other._add_coarsened(counts, shift, first)
        return Bins(self.scale, lo, hi, shift, counts)

    def histogram(self) -> Histogram:
        counts = self.counts.copy()
        if self.lo == self.hi:
            return Histogram(np.array(self.scale.padded(self.lo)), counts)
        first = self.scale.key(self.lo, self.shift)
        inner = self.scale.edges(np.arange(first + 1, first + counts.size, dtype=np.int64), self.shift)
        if inner.size and inner[-1] == self.hi:
            # the largest value sits on an edge: its bin has zero width
            counts = np.append(counts[:-2], counts[-2] + counts[-1])
            inner = inner[:-1]
        return Histogram(np.concatenate(([self.lo], inner, [self.hi])), counts)


def linear(values: np.ndarray, lo: float, hi: float) -> Bins:
    """Linear bins of finite values whose extrema are lo and hi."""
    return Bins.of(_Linear, values, lo, hi)


def log_linear(values: np.ndarray, lo: float, hi: float) -> Bins:
    """Log-linear bins of positive finite values whose extrema are lo and hi."""
    return Bins.of(_LogLinear, values, lo, hi)


def merge(a: Bins | None, b: Bins | None) -> Bins | None:
    """Merge two optional partials; None stands for no values."""
    if a is None:
        return b
    if b is None:
        return a
    return a.merge(b)
