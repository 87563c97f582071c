"""Gaussian kernel density estimation over the 1440-minute daily grid.

A user's activity profile is the estimated probability density of event
occurrence per minute of the day, evaluated and stored at the 1440 integer
minutes so that classification is a plain array lookup. Densities use the
standard Gaussian kernel; bandwidth defaults to the Silverman rule of
thumb with a one-minute floor.

Samples are integer minutes, so the kernel is only ever evaluated at the
2879 integer offsets -1439..1439: each fit computes that table once. Small
samples sum one table slice per sample, in sample order; large ones bin the
samples per minute and convolve the counts with the table (exact, not an
approximation). The two sums agree to float64 accuracy but not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from astd_monitor.calendar_periods import MinuteOfDay, Period

GRID_MINUTES = 1440
MIN_BANDWIDTH = 1.0

# Largest sample summed slice by slice instead of by convolution. Each path's
# summation order sets the low bits of the densities written to alerts, so
# moving this crossover changes alert bytes even where it would save time.
_DIRECT_PATH_MAX = 256

# |offset| for every grid-to-sample offset -1439..1439 (index 1439 is offset
# 0), and the same folded the shortest way around midnight.
_OFFSETS = np.abs(np.arange(-(GRID_MINUTES - 1), GRID_MINUTES, dtype=np.float64))
_CIRCULAR_OFFSETS = np.minimum(_OFFSETS, GRID_MINUTES - _OFFSETS)
_OFFSETS.setflags(write=False)
_CIRCULAR_OFFSETS.setflags(write=False)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class KdeProfile:
    """Fitted density per grid minute, with the sample (in fit order) and the
    bandwidth that produced it: ``fit_profile(sample, bandwidth, circular)``
    rebuilds the same densities bit for bit.

    Two profiles are equal when their bandwidths, samples (in order) and
    densities are all equal.
    """

    densities: np.ndarray
    bandwidth: float
    sample: np.ndarray

    def __post_init__(self) -> None:
        dens = np.asarray(self.densities, dtype=np.float64)
        if dens.shape != (GRID_MINUTES,):
            raise ValueError(f"profile must hold {GRID_MINUTES} densities, got shape {dens.shape}")
        if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
            raise ValueError("densities must be finite and non-negative")
        if not self.bandwidth > 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        x = np.asarray(self.sample)
        if x.ndim != 1 or x.size < 1 or x.dtype.kind not in "iu":
            raise ValueError(f"sample must be a non-empty 1-D integer array, "
                             f"got dtype {x.dtype} and shape {x.shape}")
        dens.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "densities", dens)
        object.__setattr__(self, "sample", x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KdeProfile):
            return NotImplemented
        return (self.bandwidth == other.bandwidth
                and np.array_equal(self.sample, other.sample)
                and np.array_equal(self.densities, other.densities))

    @property
    def sample_count(self) -> int:
        return self.sample.size


def fuse_samples(
    events_by_week: Mapping[Period, Sequence[MinuteOfDay]],
    used_periods: Iterable[Period],
) -> list[MinuteOfDay]:
    """Concatenate the minute lists of the window periods, in window order.

    Periods missing from the mapping contribute nothing; keys outside the
    window are ignored.
    """
    merged: list[MinuteOfDay] = []
    for period in used_periods:
        merged.extend(events_by_week.get(period, ()))
    return merged


def select_bandwidth(sample: Sequence[MinuteOfDay]) -> float:
    """Silverman rule-of-thumb bandwidth, floored at one minute.

    h = 0.9 * min(sigma, IQR / 1.34) * m**(-1/5). Degenerate samples
    (zero spread, or a single point) clamp to the floor.
    """
    m = len(sample)
    if m == 0:
        raise ValueError("cannot select a bandwidth for an empty sample")
    # The reductions ndarray.std makes, in the same (pairwise) order.
    x = np.asarray(sample, dtype=np.float64)
    dev = x - np.add.reduce(x) / m
    sigma = math.sqrt(np.add.reduce(dev * dev) / m)
    ordered = sorted(sample)
    iqr = _percentile(ordered, 0.75) - _percentile(ordered, 0.25)
    h = 0.9 * min(sigma, iqr / 1.34) * m ** -0.2
    return max(h, MIN_BANDWIDTH)


def _percentile(ordered: Sequence[MinuteOfDay], q: float) -> float:
    """np.percentile's default (linear) method on an already sorted sample,
    with the same float operations, so the result is bit for bit the same."""
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    below = float(ordered[lo])
    above = float(ordered[min(lo + 1, len(ordered) - 1)])
    t = pos - lo
    step = above - below
    return above - step * (1 - t) if t >= 0.5 else below + step * t


def _kernel_over(dist: np.ndarray, bandwidth: float) -> np.ndarray:
    z = dist / bandwidth
    return np.exp(-0.5 * z * z) / _SQRT_TWO_PI


def fit_profile(
    sample: Sequence[MinuteOfDay],
    bandwidth: float | None = None,
    circular: bool = False,
) -> KdeProfile:
    """Fit the Gaussian KDE of ``sample`` on the 1440-minute grid.

    densities[g] = (1 / (m*h)) * sum_i phi((g - x_i) / h) with phi the
    standard normal density. ``bandwidth=None`` selects it by the Silverman
    rule. With ``circular=True`` the kernel sees the wrapped minute
    difference (modulo 1440, shortest way around midnight); the default is
    the plain linear domain, which under-weights activity that straddles
    midnight.
    """
    m = len(sample)
    if m == 0:
        raise ValueError("cannot fit a profile from an empty sample")
    if bandwidth is None:
        bandwidth = select_bandwidth(sample)
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")

    # A copy, never a view of the caller's array: the profile keeps it.
    x = np.array(sample, dtype=np.int64)
    if x.size and (x.min() < 0 or x.max() >= GRID_MINUTES):
        raise ValueError("sample minutes must lie in [0, 1439]")

    kernel = _kernel_over(_CIRCULAR_OFFSETS if circular else _OFFSETS, bandwidth)
    if m <= _DIRECT_PATH_MAX:
        # Row i is the kernel centred on x_i, read off the table. Summing the
        # stacked rows over axis 0 adds the samples in sample order, and the
        # densities' low bits depend on that order.
        last = GRID_MINUTES - 1
        rows = np.array([kernel[last - xi : last - xi + GRID_MINUTES] for xi in x.tolist()])
        dens = rows.sum(axis=0) / (m * bandwidth)
    else:
        counts = np.bincount(x, minlength=GRID_MINUTES).astype(np.float64)
        # Trim exact-zero tails (exp underflow); dropping them cannot change
        # any sum, and it shortens the convolution a lot for small bandwidths.
        nonzero = np.flatnonzero(kernel)
        lo, hi = nonzero[0], nonzero[-1]
        full = np.convolve(counts, kernel[lo : hi + 1])
        start = GRID_MINUTES - 1 - lo
        dens = full[start : start + GRID_MINUTES] / (m * bandwidth)

    return KdeProfile(densities=dens, bandwidth=float(bandwidth), sample=x)


def density_at(profile: KdeProfile, minute: MinuteOfDay) -> float:
    """Density at a grid minute (pure lookup)."""
    if not 0 <= minute < GRID_MINUTES:
        raise ValueError(f"minute must lie in [0, 1439], got {minute}")
    return float(profile.densities[minute])


def classify_minute(profile: KdeProfile, minute: MinuteOfDay, threshold: float) -> bool:
    """True when the minute is anomalous: density at or below the threshold."""
    return density_at(profile, minute) <= threshold
