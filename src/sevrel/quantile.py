"""Streamed selection of the k-th smallest value of a sample read in parts.

`Window` keeps, of the parts folded so far, an exact count of the
values below a lower bound and the values between the bounds, and
drops what can no longer be the k-th smallest of the whole sample. Its
caller narrows the bounds as it sees more of the sample, in the manner
of Floyd and Rivest's sample-then-narrow selection (CACM 18(3), 1975),
so the values kept need not grow with the sample. `engine.calibrate_shift`
folds each block of its calibration sample into one window.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Window"]


class Window:
    """The window over the parts of a sample folded so far, for the k-th
    smallest value of the whole sample.

    `below` counts their values under lo exactly; `pieces` holds `kept` of
    their values, every one in [lo, hi) and some at hi. The bounds only
    narrow, so a part filtered with earlier bounds is filtered again as
    it folds. Values past the (k - below)-th smallest of the window
    cannot be the answer: once the window holds more than `slack` times
    that many, it is cut to them, and hi drops to the largest kept.
    Whatever the bounds, the answer is exact or `select` says it missed.
    """

    # joined before this many arrays pile up, as each costs ~100 bytes
    _PIECES = 64

    def __init__(self, lo: float, hi: float, k: int, slack: int):
        self.bounds = (lo, hi)
        self.k, self.slack = k, slack
        self.below, self.kept = 0, 0
        self.pieces: list[np.ndarray] = []

    def fold(self, bounds: tuple[float, float], below: int, values: np.ndarray) -> None:
        """Add the next part: its count below bounds[0] and its values in
        `bounds`, an array that the window keeps, and may reorder, without
        a copy."""
        if bounds != self.bounds:
            lo, hi = self.bounds
            below += int(np.count_nonzero(values < lo))
            values = values[(lo <= values) & (values <= hi)]
        self.below += below
        if values.size:
            self.pieces.append(values)
            self.kept += values.size
        need = self.k - self.below
        if self.kept > self.slack * need:
            self._cut(need)
        elif len(self.pieces) > self._PIECES:
            self._join()

    def _join(self) -> np.ndarray:
        # a lone piece is kept as it is, not copied
        if len(self.pieces) != 1:
            self.pieces = [np.concatenate(self.pieces) if self.pieces else np.empty(0)]
        return self.pieces[0]

    def _cut(self, count: int) -> None:
        values = self._join()
        if count < 1:
            values = values[:0]
        else:
            values.partition(count - 1)
            values = values[:count]
            self.bounds = (self.bounds[0], float(values[-1]))
        self.pieces, self.kept = [values], values.size

    def narrow(self, lo_rank: int, hi_rank: int) -> None:
        """Re-centre on the folded ranks [lo_rank, hi_rank], clipped to the
        window: values under the new lo move into `below`, values over the
        new hi are dropped. A bound whose rank falls outside the window
        stays where it is."""
        values = self._join()
        top = values.size - 1
        i_lo = min(lo_rank - self.below, top)
        i_hi = min(max(hi_rank - self.below, i_lo, 0), top)
        kth = [i for i, used in ((i_lo, i_lo > 0), (i_hi, i_hi < top)) if used]
        if not kth:
            return
        values.partition(kth)
        lo = float(values[i_lo]) if i_lo > 0 else self.bounds[0]
        hi = float(values[i_hi]) if i_hi < top else self.bounds[1]
        self.below += int(np.count_nonzero(values < lo))
        values = values[(lo <= values) & (values <= hi)]
        self.pieces, self.kept, self.bounds = [values], values.size, (lo, hi)

    def select(self) -> float | None:
        """The k-th smallest value of the whole sample, once every part
        has folded, or None when the window missed it."""
        r = self.k - self.below
        if not 1 <= r <= self.kept:
            return None
        values = self._join()
        values.partition(r - 1)
        return float(values[r - 1])
