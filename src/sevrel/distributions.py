"""Input random variables for limit state models.

Five families: Normal, Lognormal, Gumbel (largest value), Pareto, and a
finite Mixture of the scalar families. Each is an immutable spec object
exposing analytic moments, quantiles, cdf, sf (1 - cdf), pdf, and seeded
vectorized sampling. ``cdf`` and ``sf`` are each computed directly in
their own tail, never as 1 minus the other, which cancels there. Heavy
tails are first-class: moments report infinite variance (or mean)
honestly instead of raising, and downstream code keys off
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

``scipy.special`` (``ndtr``, ``ndtri``) is imported where the Normal and
Lognormal quantiles and tails first need it, not with this module: a
run whose sampling and metrics never call them does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MomentReport",
    "Normal",
    "Lognormal",
    "Gumbel",
    "Pareto",
    "Mixture",
    "Distribution",
    "KINDS",
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
    """Sampling, quantiles and tail functions shared by the families,
    each of which defines ``_fill(rng, out)``: overwrite out with its next
    out.size draws, as one batch, and return it; ``_tails(x, upper)``:
    the cdf at the float array x, or the sf if ``upper``, and the pdf;
    and, unless it overrides ``quantile``, ``_inverse_cdf(q)``: overwrite
    q, which must lie in (0, 1), with its quantiles, and return it."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws, in a new array."""
        return self._fill(rng, np.empty(n))

    def quantile(self, p):
        return _match(p, self._inverse_cdf(_check_probability(p)))

    def cdf(self, x):
        return _match(x, self._tails(np.asarray(x, dtype=float), upper=False)[0])

    def sf(self, x):
        return _match(x, self._tails(np.asarray(x, dtype=float), upper=True)[0])

    def pdf(self, x):
        return _match(x, self._tails(np.asarray(x, dtype=float), upper=False)[1])


def _phi(z):
    """The standard normal density at z; 0 where z * z overflows."""
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


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

    def _inverse_cdf(self, q: np.ndarray) -> np.ndarray:
        # overwrites q, which must lie in (0, 1)
        from scipy.special import ndtri

        ndtri(q, out=q)
        q *= self.stddev
        q += self.mean
        return q

    def _tails(self, x, upper):
        from scipy.special import ndtr

        z = (x - self.mean) / self.stddev
        return ndtr(-z if upper else z), _phi(z) / self.stddev

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

    def _inverse_cdf(self, q: np.ndarray) -> np.ndarray:
        # overwrites q, which must lie in (0, 1)
        from scipy.special import ndtri

        ndtri(q, out=q)
        q *= self.log_std
        q += self.log_mean
        return np.exp(q, out=q)

    def _tails(self, x, upper):
        from scipy.special import ndtr

        # z = -inf for x <= 0, where the density is 0
        positive = x > 0.0
        z = np.log(x, where=positive, out=np.full(x.shape, -np.inf))
        z -= self.log_mean
        z /= self.log_std
        density = np.divide(_phi(z), x, where=positive, out=np.zeros(x.shape))
        density /= self.log_std
        return ndtr(-z if upper else z), density

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

    def _inverse_cdf(self, q: np.ndarray) -> np.ndarray:
        # overwrites q, which must lie in (0, 1)
        np.log(q, out=q)
        np.negative(q, out=q)
        np.log(q, out=q)
        q *= self.scale
        return np.subtract(self.location, q, out=q)

    def _tails(self, x, upper):
        # exp(-z) overflows to inf far below the location, where every
        # tail function still takes its limit: no warning is due. -z is
        # capped past that point, so that -z - exp(-z) is -inf at x = -inf.
        minus_z = np.minimum((self.location - x) / self.scale, 1000.0)
        with np.errstate(over="ignore"):
            e = np.exp(minus_z)
        tail = -np.expm1(-e) if upper else np.exp(-e)
        density = np.exp(minus_z - e)
        density /= self.scale
        return tail, density

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

    def _inverse_cdf(self, q: np.ndarray) -> np.ndarray:
        # overwrites q, which must lie in (0, 1)
        np.subtract(1.0, q, out=q)
        np.power(q, -1.0 / self.alpha, out=q)
        q *= self.x_min
        return q

    def _tails(self, x, upper):
        # log sf = -alpha * log1p((x - x_min) / x_min), 0 for x <= x_min:
        # x - x_min is exact near x_min, where rounding x_min / x would
        # leave 1e-3 of a 1e-13 cdf. An overflow is to the tails' limits.
        with np.errstate(over="ignore"):
            log_sf = -self.alpha * np.log1p(np.maximum(x - self.x_min, 0.0) / self.x_min)
        sf = np.exp(log_sf)
        density = np.where(x >= self.x_min, sf * self.alpha / np.maximum(x, self.x_min), 0.0)
        return (sf if upper else -np.expm1(log_sf)), density

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

    def _tails(self, x, upper):
        # the weighted sums of the components' tails
        tail, density = np.zeros(x.shape), np.zeros(x.shape)
        for w, d in self.components:
            t, f = d._tails(x, upper)
            tail += w * t
            density += w * f
        return tail, density

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


Distribution = Normal | Lognormal | Gumbel | Pareto | Mixture

# The kind of each family in config files and reports, and its keys
# there, in the order of its dataclass fields: the parameters of a scalar
# family, the (weight, distribution) components of a Mixture. A config
# may also give a Lognormal by its median and cov.
KINDS = {
    "normal": (Normal, ("mean", "stddev")),
    "lognormal": (Lognormal, ("logMean", "logStd")),
    "gumbel": (Gumbel, ("location", "scale")),
    "pareto": (Pareto, ("xMin", "alpha")),
    "mixture": (Mixture, ("components",)),
}
