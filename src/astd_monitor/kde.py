"""Gaussian kernel density estimation over the 1440-minute daily grid.

A user's activity profile is the estimated probability density of event
occurrence per minute of the day, at the 1440 integer minutes. Densities
use the standard Gaussian kernel; bandwidth defaults to the Silverman rule
of thumb with a one-minute floor. Scoring an event needs the density at
its minute only.

Samples are integer minutes, so the kernel is only ever evaluated at the
1440 distances 0..1439, folded around midnight on the circular day. A score
adds its m terms in sample order: evaluated afresh for m <= _TABLE_FREE_MAX,
else looked up in a table of every distance, built at the first score. Past
_DIRECT_PATH_MAX samples, a first score fills a grid by convolving the
per-minute counts with that table mirrored to offsets -1439..1439 (exact, but
with low bits other than the direct sum's), times 2^64: the same bits, without
subnormal arithmetic. numpy computes each convolution output with the same
dot product whichever outputs a call asks for, so a kernel that spans the day
fills only the _BLOCK minutes around a score, sharing one table across fills.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from astd_monitor.calendar_periods import MinuteOfDay

GRID_MINUTES = 1440
MIN_BANDWIDTH = 1.0

# Largest sample scored with no table. Sparse scores its windows of <= 31
# samples about 2.5 times each: an 11.5 KB table per user would save nothing.
_TABLE_FREE_MAX = 32

# Largest sample scored by the direct sum instead of a convolved grid. Each
# path's summation order sets the low bits of the densities written to alerts,
# so moving this crossover changes alert bytes even where it would save time.
# In-process (2-vCPU Xeon VM, numpy 2.4) a table-lookup score costs 2.2-3.4 us
# at m = 33-256, where a whole grid of slice adds cost 44-233 us.
_DIRECT_PATH_MAX = 256

# Minutes per block of a day-spanning grid, each filled at its first score.
# bench/run.py disorder seed 1, 2-vCPU Xeon VM: 180 cut event_p99_us 222 -> 111
# us for 4.5% of events_per_s (10 alternating pairs); in 4 rounds against 180,
# 90 cut p99 13% more for 6% of events_per_s, 240 won 4% back for 4% more p99.
# Over 1, or a block's table slice is no longer than the counts: numpy would
# then swap no operands and sum in the other order.
_BLOCK = 180

# Every grid-to-sample distance 0..1439, the same folded the shortest way
# around midnight, and the distance of each offset -1439..1439.
_DISTANCES = np.arange(GRID_MINUTES)
_FOLDED = np.minimum(_DISTANCES, GRID_MINUTES - _DISTANCES)
_OFFSETS = np.abs(np.arange(1 - GRID_MINUTES, GRID_MINUTES))
_DISTANCES.setflags(write=False)
_FOLDED.setflags(write=False)
_MINUTES = _DISTANCES[:, np.newaxis]  # every grid minute, as a column

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_SCALE = 2.0 ** 64


@dataclass(frozen=True, eq=False)
class KdeProfile:
    """A fitted profile: the sample (in fit order), the bandwidth and the
    distance rule that produced it. ``fit_profile(sample, bandwidth, circular)``
    rebuilds the same densities bit for bit, so profiles are equal when those
    three fields are.

    A fit or restore builds nothing else (the module docstring says which
    profiles build what). ``table``, the kernel at each distance 0..1439, is
    built at the first score or read of ``densities`` that uses it, and kept
    unless a whole grid was filled from it. ``grid``, the density at each
    minute (NaN where a block is not filled yet), is filled at scores of a
    binned fit; without one, ``densities`` are computed on demand.
    """

    bandwidth: float
    sample: np.ndarray
    circular: bool = False
    table: np.ndarray | None = field(default=None, init=False, repr=False)
    grid: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.bandwidth > 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        # A read-only array that owns its data is kept; anything else, a
        # caller's array in particular, is copied, never frozen in place.
        x = np.asarray(self.sample)
        if x.flags.writeable or not x.flags.owndata:
            x = x.copy()
            x.setflags(write=False)
        if x.ndim != 1 or x.size < 1 or x.dtype.kind not in "iu":
            raise ValueError(f"sample must be a non-empty 1-D integer array, "
                             f"got dtype {x.dtype} and shape {x.shape}")
        object.__setattr__(self, "sample", x)

    @property
    def densities(self) -> np.ndarray:
        """The density at every grid minute, read-only. A grid-free profile
        computes them on each access; another fills what its grid lacks."""
        if self.sample.size <= _DIRECT_PATH_MAX:
            dens = _direct_sum(self, _MINUTES)
            dens.setflags(write=False)
            return dens
        for minute in range(0, GRID_MINUTES, _BLOCK):
            density_at(self, minute)
        return self.grid

    def _table(self, keep: bool = True) -> np.ndarray:
        if self.table is not None:
            return self.table
        table = _kernel_over(_FOLDED if self.circular else _DISTANCES, self.bandwidth)
        table.setflags(write=False)
        if keep:
            object.__setattr__(self, "table", table)
        return table

    def _fill(self, minute: int) -> float:
        # A pure function of the frozen fields: any engine fills the same bits.
        table = self._table(keep=False)
        block = minute - minute % _BLOCK
        grid = dens = _grid_part(self.sample, self.bandwidth, table, block)
        if dens.size < GRID_MINUTES:  # one block: the next block's fill reuses the table
            object.__setattr__(self, "table", table)
            grid = np.full(GRID_MINUTES, math.nan) if self.grid is None else self.grid
            grid.setflags(write=True)
            grid[block : block + _BLOCK] = dens
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        return grid.item(minute)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KdeProfile):
            return NotImplemented
        return (self.bandwidth == other.bandwidth and self.circular == other.circular
                and np.array_equal(self.sample, other.sample))


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
    ordered = np.sort(x)
    iqr = _percentile(ordered, 0.75) - _percentile(ordered, 0.25)
    h = 0.9 * min(sigma, iqr / 1.34) * m ** -0.2
    return max(h, MIN_BANDWIDTH)


def _percentile(ordered: np.ndarray, q: float) -> float:
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


def _scaled_table(table: np.ndarray) -> np.ndarray:
    """The kernel ``table`` mirrored to offsets -1439..1439 (index 1439 is
    offset 0), times 2^64. Its sums and dot products with integer counts are
    2^64 times the unscaled ones, bit for bit: a result subnormal unscaled is
    exact (a multiple of 2^-1074); the scale commutes with any other."""
    return table[_OFFSETS] * _SCALE


def _direct_sum(profile: KdeProfile, minutes: int | np.ndarray) -> np.ndarray:
    """The density at ``minutes``, an int or a column of them. The kernel's
    terms (from the table past _TABLE_FREE_MAX samples) are added left to
    right in sample order, as summing an m x 1440 stack over its first axis
    does; np.sum of one minute's m terms would add them pairwise: other bits."""
    x = profile.sample
    dist = np.abs(x - minutes)
    if x.size > _TABLE_FREE_MAX:
        terms = profile._table()[dist]
    else:
        terms = _kernel_over(_FOLDED[dist] if profile.circular else dist, profile.bandwidth)
    total = np.add.accumulate(terms.T)[-1]  # axis=-1 would cost 0.5 us a score
    return total / (x.size * profile.bandwidth)


def _grid_part(x: np.ndarray, h: float, table: np.ndarray, block: int) -> np.ndarray:
    """The densities a score in the _BLOCK minutes from ``block`` fills: the
    whole grid, or only those minutes' if the kernel spans the day.

    Minute g is output r + g of np.convolve(counts, k), k the scaled table
    less its exact-zero tails (L = 2r + 1). numpy computes each output with
    one dot product, over the same slices, whichever outputs a call asks for."""
    kernel = _scaled_table(table)
    counts = np.bincount(x, minlength=GRID_MINUTES).astype(np.float64)
    lo = 0 if kernel[0] != 0.0 else int((kernel != 0.0).argmax())
    k = kernel[lo : kernel.size - lo]
    if lo == 0:  # L = 2879: "valid" over the block's slice of k
        acc = np.convolve(counts, k[block : block + _BLOCK + GRID_MINUTES - 1], "valid")
    else:  # "same" starts at output min(r, 719); the grid's are r .. r + 1439
        at = max(0, (k.size + 1 - GRID_MINUTES) // 2)
        acc = np.convolve(counts, k, "same")[at : at + GRID_MINUTES]
    acc /= _SCALE
    return acc / (x.size * h)


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
    # A copy, never a view of the caller's array, made read-only here so the
    # profile keeps it without copying it again.
    x = np.array(sample, dtype=np.int64)
    if x.size == 0:
        raise ValueError("cannot fit a profile from an empty sample")
    if bandwidth is None:
        bandwidth = select_bandwidth(x)
    if x.min() < 0 or x.max() >= GRID_MINUTES:
        raise ValueError("sample minutes must lie in [0, 1439]")
    x.setflags(write=False)
    return KdeProfile(float(bandwidth), x, circular)


def density_at(profile: KdeProfile, minute: MinuteOfDay) -> float:
    """Density at a grid minute: the direct sum there, or for a binned fit a
    lookup in the profile's grid (filled where it lacks the minute)."""
    if (type(minute) is not int and not isinstance(minute, np.integer)
            or not 0 <= minute < GRID_MINUTES):
        raise ValueError(f"minute must be an integer in [0, 1439], got {minute!r}")
    minute = int(minute)  # x - np.uint64 would be float64, no table index
    grid = profile.grid
    if grid is not None:
        density = grid.item(minute)
        if density == density:  # NaN: a block not filled yet
            return density
    if profile.sample.size > _DIRECT_PATH_MAX:
        return profile._fill(minute)
    return float(_direct_sum(profile, minute))
