"""Input random variables for limit state models.

Five families: Normal, Lognormal, Gumbel (largest value), Pareto, and a
finite Mixture of the scalar families. Each is an immutable spec object
exposing analytic moments, quantiles, cdf, and seeded vectorized
sampling. Heavy tails are first-class: moments report infinite variance
(or mean) honestly instead of raising, and downstream code keys off
``MomentReport.variance_finite``.

Sampling conventions, fixed so that streams are reproducible:

* Normal draws come from the generator's own Gaussian method; Lognormal
  exponentiates a Normal draw. The engine does not draw a model's Normal
  terms one by one: it draws their weighted sum, itself a Normal, as
  mean + sd * z from one standard normal per sample (see ``engine``).
* Gumbel and Pareto invert their quantile functions on one uniform each.
* A Mixture consumes exactly two runs of uniforms per batch, in fixed
  order: first every branch selector, then every value fed through the
  selected component's quantile. The consumption pattern never depends
  on which branch was chosen, so the stream a batch reads is fixed by its
  size. The heaviest-weight component's quantile is evaluated in place
  over the value uniforms; the draws of the other branches are computed
  on their own positions first and written over it afterwards. Each draw
  gets the same bits as if every branch had been evaluated on its own
  positions only.

Each family fills an array the caller supplies with one batch of draws
(``_fill``): the engine draws every term of a block of g that is not
Normal as one batch, from the term's own generator, through one reused
block of scratch. ``sample`` draws a batch into a new array. Samplers
and the private ``_inverse_cdf`` make no full-length temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import ndtr, ndtri

__all__ = [
    "MomentReport",
    "Normal",
    "Lognormal",
    "Gumbel",
    "Pareto",
    "Mixture",
    "Distribution",
    "lognormal_from_median_cov",
]

_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class MomentReport:
    """Analytic mean and variance; either may be ``math.inf``."""

    mean: float
    variance: float

    @property
    def variance_finite(self) -> bool:
        return math.isfinite(self.variance)


def _require_finite(spec, *names: str) -> None:
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_probability(p):
    """A float copy of p, which the caller may overwrite; p must lie in (0, 1)."""
    arr = np.array(p, dtype=float)
    if arr.size and (np.any(arr <= 0.0) or np.any(arr >= 1.0)):
        raise ValueError("quantile requires probabilities strictly inside (0, 1)")
    return arr


def _uniform(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with uniforms on [tiny, 1), floored so logs and powers stay finite."""
    rng.random(out=out)
    return np.maximum(out, _TINY, out=out)


class _Sampled:
    """Sampling shared by the families, each of which defines
    ``_fill(rng, out)``: overwrite out with its next out.size draws, as
    one batch, and return it."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws, in a new array."""
        return self._fill(rng, np.empty(n))


def _match(p, values):
    # scalar in, scalar out; arrays pass through
    if np.ndim(p) == 0:
        return float(values)
    return values


@dataclass(frozen=True)
class Normal(_Sampled):
    mean: float
    stddev: float

    def __post_init__(self):
        _require_finite(self, "mean", "stddev")
        if not self.stddev > 0.0:
            raise ValueError(f"stddev must be positive, got {self.stddev!r}")

    def moments(self) -> MomentReport:
        return MomentReport(self.mean, self.stddev**2)

    def quantile(self, p):
        return _match(p, self._inverse_cdf(_check_probability(p)))

    def _inverse_cdf(self, q: np.ndarray) -> np.ndarray:
        # overwrites q, which must lie in (0, 1)
        ndtri(q, out=q)
        q *= self.stddev
        q += self.mean
        return q

    def cdf(self, x):
        return _match(x, ndtr((np.asarray(x, dtype=float) - self.mean) / self.stddev))

    def _fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        # the arithmetic of rng.normal: mean + stddev * z
        rng.standard_normal(out=out)
        out *= self.stddev
        out += self.mean
        return out


@dataclass(frozen=True)
class Lognormal(_Sampled):
    """Lognormal given the mean and stddev of the underlying normal."""

    log_mean: float
    log_std: float

    def __post_init__(self):
        _require_finite(self, "log_mean", "log_std")
        if not self.log_std > 0.0:
            raise ValueError(f"log_std must be positive, got {self.log_std!r}")

    def moments(self) -> MomentReport:
        m, s2 = self.log_mean, self.log_std**2
        return MomentReport(math.exp(m + 0.5 * s2), math.expm1(s2) * math.exp(2.0 * m + s2))

    def quantile(self, p):
        return _match(p, self._inverse_cdf(_check_probability(p)))

    def _inverse_cdf(self, q: np.ndarray) -> np.ndarray:
        # overwrites q, which must lie in (0, 1)
        ndtri(q, out=q)
        q *= self.log_std
        q += self.log_mean
        return np.exp(q, out=q)

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (np.log(arr, where=arr > 0.0, out=np.full(arr.shape, -np.inf)) - self.log_mean) / self.log_std
        return _match(x, np.where(arr > 0.0, ndtr(z), 0.0))

    def _fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        rng.standard_normal(out=out)
        out *= self.log_std
        out += self.log_mean
        return np.exp(out, out=out)


def lognormal_from_median_cov(median: float, cov: float) -> Lognormal:
    """Lognormal from its median and coefficient of variation.

    ``log_mean = ln(median)`` and ``log_std = sqrt(ln(1 + cov**2))``, the
    usual resistance-model parameterization.
    """
    if not median > 0.0:
        raise ValueError(f"median must be positive, got {median!r}")
    if not cov > 0.0:
        raise ValueError(f"cov must be positive, got {cov!r}")
    return Lognormal(math.log(median), math.sqrt(math.log1p(cov * cov)))


@dataclass(frozen=True)
class Gumbel(_Sampled):
    """Largest-value (maximum domain) Gumbel, the loads convention."""

    location: float
    scale: float

    def __post_init__(self):
        _require_finite(self, "location", "scale")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale!r}")

    def moments(self) -> MomentReport:
        return MomentReport(
            self.location + np.euler_gamma * self.scale,
            (math.pi**2 / 6.0) * self.scale**2,
        )

    def quantile(self, p):
        return _match(p, self._inverse_cdf(_check_probability(p)))

    def _inverse_cdf(self, q: np.ndarray) -> np.ndarray:
        # overwrites q, which must lie in (0, 1)
        np.log(q, out=q)
        np.negative(q, out=q)
        np.log(q, out=q)
        q *= self.scale
        return np.subtract(self.location, q, out=q)

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.location) / self.scale
        return _match(x, np.exp(-np.exp(-z)))

    def _fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        return self._inverse_cdf(_uniform(rng, out))


@dataclass(frozen=True)
class Pareto(_Sampled):
    """Type I Pareto on [x_min, inf) with tail exponent alpha.

    Mean is infinite for alpha <= 1, variance infinite for alpha <= 2;
    moments() reports that rather than raising.
    """

    x_min: float
    alpha: float

    def __post_init__(self):
        _require_finite(self, "x_min", "alpha")
        if not self.x_min > 0.0:
            raise ValueError(f"x_min must be positive, got {self.x_min!r}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")

    def moments(self) -> MomentReport:
        a, xm = self.alpha, self.x_min
        mean = a * xm / (a - 1.0) if a > 1.0 else math.inf
        if a > 2.0:
            variance = xm * xm * a / ((a - 1.0) ** 2 * (a - 2.0))
        else:
            variance = math.inf
        return MomentReport(mean, variance)

    def quantile(self, p):
        return _match(p, self._inverse_cdf(_check_probability(p)))

    def _inverse_cdf(self, q: np.ndarray) -> np.ndarray:
        # overwrites q, which must lie in (0, 1)
        np.subtract(1.0, q, out=q)
        np.power(q, -1.0 / self.alpha, out=q)
        q *= self.x_min
        return q

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        ratio = np.where(arr >= self.x_min, self.x_min / np.maximum(arr, self.x_min), 1.0)
        return _match(x, 1.0 - np.power(ratio, self.alpha))

    def _fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        _uniform(rng, out)
        np.power(out, -1.0 / self.alpha, out=out)
        out *= self.x_min
        return out


@dataclass(frozen=True)
class Mixture(_Sampled):
    """Finite mixture of scalar families (no nesting).

    ``components`` is a tuple of (weight, distribution) pairs; weights
    must be positive and sum to 1 within 1e-12.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), d) for w, d in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("mixture needs at least one component")
        for w, d in comps:
            if not 0.0 < w < math.inf:
                raise ValueError(f"mixture weights must be positive and finite, got {w!r}")
            if isinstance(d, Mixture):
                raise ValueError("nested mixtures are not supported")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {total!r}")

    def moments(self) -> MomentReport:
        means = [d.moments().mean for _, d in self.components]
        variances = [d.moments().variance for _, d in self.components]
        if any(not math.isfinite(m) for m in means):
            return MomentReport(math.inf, math.inf)
        mean = math.fsum(w * m for (w, _), m in zip(self.components, means))
        if any(not math.isfinite(v) for v in variances):
            return MomentReport(mean, math.inf)
        # centred law of total variance; E[X^2] - mean^2 cancels far from 0
        variance = math.fsum(
            w * (v + (m - mean) ** 2)
            for (w, _), m, v in zip(self.components, means, variances)
        )
        return MomentReport(mean, variance)

    def quantile(self, p):
        raise NotImplementedError("mixture quantiles are not supported; sample instead")

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        acc = np.zeros(arr.shape)
        for w, d in self.components:
            acc = acc + w * np.asarray(d.cdf(arr))
        return _match(x, acc)

    def _fill(self, rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
        # Two stream consumptions per batch, fixed order: every branch
        # uniform, then every value uniform.
        weights = [w for w, _ in self.components]
        cuts = np.cumsum(weights)[:-1]
        heavy = weights.index(max(weights))
        # A draw is in branch k when cuts[k-1] <= u_branch < cuts[k], as
        # searchsorted(side="right") counts. Only the positions outside the
        # heaviest branch's interval [lower, upper) are kept, with their
        # branch.
        lower = cuts[heavy - 1] if heavy > 0 else -math.inf
        upper = cuts[heavy] if heavy < cuts.size else math.inf
        rng.random(out=u)
        mask = u < lower
        mask |= u >= upper
        pos = np.flatnonzero(mask)
        branch = np.searchsorted(cuts, u[pos], side="right")
        _uniform(rng, u)
        minority = u[pos]
        self.components[heavy][1]._inverse_cdf(u)
        for k, (_, d) in enumerate(self.components):
            sel = branch == k
            if k != heavy and sel.any():
                u[pos[sel]] = d._inverse_cdf(minority[sel])
        return u


class _Blank(ISeedSequence):
    """A seed of zeros, for a bit generator whose state is set at once:
    seeding it from a SeedSequence would hash an entropy pool for
    nothing, and costs several times as much."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype)


def _ahead(rng: np.random.Generator, n: int) -> np.random.Generator:
    """A new generator whose stream starts n doubles past rng's.

    Needs a bit generator whose ``advance`` counts 64-bit draws, one per
    double, as PCG64 (``default_rng``) does.
    """
    bits = type(rng.bit_generator)(_Blank())
    bits.state = rng.bit_generator.state
    bits.advance(n)
    return np.random.Generator(bits)


Distribution = Normal | Lognormal | Gumbel | Pareto | Mixture
