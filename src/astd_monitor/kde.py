"""Gaussian kernel density estimation over the 1440-minute daily grid.

A user's activity profile is the estimated probability density of event
occurrence per minute of the day, at the 1440 integer minutes. Densities
use the standard Gaussian kernel; bandwidth defaults to the Silverman rule
of thumb with a one-minute floor. Scoring an event needs the density at
its minute only.

Samples are integer minutes, so the kernel is only ever evaluated at the
2879 integer offsets -1439..1439. There are three evaluation paths:

* small samples (m <= _GRID_FREE_MAX) keep no grid: ``density_at``
  evaluates the kernel at the m offsets of the scored minute and adds the
  terms in sample order;
* medium ones (m <= _DIRECT_PATH_MAX) compute the offset table once per
  fit and sum one table slice per sample, in sample order, into the grid;
* large ones bin the samples per minute and convolve the counts with the
  table into the grid (exact, not an approximation).

The first two give the same bits at every minute. The binned sum agrees
with them to float64 accuracy but not bit for bit.
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
# Above _GRID_FREE_MAX these fits build the grid (costs measured below).
_DIRECT_PATH_MAX = 256

# Largest sample fitted without a grid: it keeps the sample and bandwidth, and
# density_at sums the direct path's terms at the one scored minute, in the
# same order, so moving this cut-off moves no bits, only time. Measured
# in-process in three sweeps (2-vCPU Xeon VM, numpy 2.4): a fit with a grid
# costs 64-105 us at m <= 16 and 505-683 us at 256, one without 5-21 us; a
# score costs 0.2-0.3 us from the grid and 5-14 us without. So the grid pays
# off once a refit gets more than about 8-17 scores at m <= 32, 18-29 at 64,
# 26-50 at 128 and 38-80 at 256. The bench's sparse windows (all m <= 32)
# get 2.5 scores per refit; disorder's direct-path windows (all m > 128) get
# 59, and with this cut-off at 256 disorder's median event latency rose
# 4-15% (three paired 5 s bench runs).
_GRID_FREE_MAX = 32

# |offset| for every grid-to-sample offset -1439..1439 (index 1439 is offset
# 0), and the same folded the shortest way around midnight.
_OFFSETS = np.abs(np.arange(-(GRID_MINUTES - 1), GRID_MINUTES, dtype=np.float64))
_CIRCULAR_OFFSETS = np.minimum(_OFFSETS, GRID_MINUTES - _OFFSETS)
_OFFSETS.setflags(write=False)
_CIRCULAR_OFFSETS.setflags(write=False)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class KdeProfile:
    """A fitted profile: the sample (in fit order), the bandwidth and the
    distance rule that produced it, and the density per grid minute when the
    fit built that grid. ``fit_profile(sample, bandwidth, circular)``
    rebuilds the same densities bit for bit.

    A profile fitted without a grid (``grid=None``, small windows) scores
    each minute with the direct sum and computes ``densities`` on demand,
    without keeping them.

    Two profiles are equal when their bandwidths, samples (in order) and
    densities are all equal.
    """

    grid: np.ndarray | None
    bandwidth: float
    sample: np.ndarray
    circular: bool = False

    def __post_init__(self) -> None:
        if not self.bandwidth > 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        x = np.asarray(self.sample)
        if x.ndim != 1 or x.size < 1 or x.dtype.kind not in "iu":
            raise ValueError(f"sample must be a non-empty 1-D integer array, "
                             f"got dtype {x.dtype} and shape {x.shape}")
        x.setflags(write=False)
        object.__setattr__(self, "sample", x)
        if self.grid is None:
            return
        dens = np.asarray(self.grid, dtype=np.float64)
        if dens.shape != (GRID_MINUTES,):
            raise ValueError(f"profile must hold {GRID_MINUTES} densities, got shape {dens.shape}")
        if np.any(dens < 0.0) or not np.all(np.isfinite(dens)):
            raise ValueError("densities must be finite and non-negative")
        dens.setflags(write=False)
        object.__setattr__(self, "grid", dens)

    @property
    def densities(self) -> np.ndarray:
        """The density at every grid minute, read-only. A grid-free profile
        computes them on each access."""
        if self.grid is not None:
            return self.grid
        dens = _direct_grid(self.sample, self.bandwidth, self.circular)
        dens.setflags(write=False)
        return dens

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


def _direct_grid(x: np.ndarray, bandwidth: float, circular: bool) -> np.ndarray:
    """The direct sum at every grid minute, from one kernel table."""
    kernel = _kernel_over(_CIRCULAR_OFFSETS if circular else _OFFSETS, bandwidth)
    # Row i is the kernel centred on x_i, read off the table. Summing the
    # stacked rows over axis 0 adds the samples in sample order, and the
    # densities' low bits depend on that order.
    last = GRID_MINUTES - 1
    rows = np.array([kernel[last - xi : last - xi + GRID_MINUTES] for xi in x.tolist()])
    return rows.sum(axis=0) / (x.size * bandwidth)


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

    if m <= _GRID_FREE_MAX:
        return KdeProfile(None, float(bandwidth), x, circular)
    if m <= _DIRECT_PATH_MAX:
        dens = _direct_grid(x, bandwidth, circular)
    else:
        kernel = _kernel_over(_CIRCULAR_OFFSETS if circular else _OFFSETS, bandwidth)
        counts = np.bincount(x, minlength=GRID_MINUTES).astype(np.float64)
        # Trim exact-zero tails (exp underflow); dropping them cannot change
        # any sum, and it shortens the convolution a lot for small bandwidths.
        nonzero = np.flatnonzero(kernel)
        lo, hi = nonzero[0], nonzero[-1]
        full = np.convolve(counts, kernel[lo : hi + 1])
        start = GRID_MINUTES - 1 - lo
        dens = full[start : start + GRID_MINUTES] / (m * bandwidth)

    return KdeProfile(dens, float(bandwidth), x, circular)


def density_at(profile: KdeProfile, minute: MinuteOfDay) -> float:
    """Density at a grid minute: a lookup in the profile's grid, or else the
    direct sum at that one minute, bit for bit the grid value it replaces."""
    if not 0 <= minute < GRID_MINUTES:
        raise ValueError(f"minute must lie in [0, 1439], got {minute}")
    grid = profile.grid
    if grid is not None:
        return float(grid[minute])
    x = profile.sample
    dist = np.abs(x - minute)
    if profile.circular:
        dist = np.minimum(dist, GRID_MINUTES - dist)
    # np.add.accumulate adds left to right, in sample order, as the stacked
    # rows of _direct_grid are summed; np.sum would add pairwise.
    total = np.add.accumulate(_kernel_over(dist, profile.bandwidth))[-1]
    return float(total / (x.size * profile.bandwidth))
