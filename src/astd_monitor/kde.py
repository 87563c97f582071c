"""Gaussian kernel density estimation over the 1440-minute daily grid.

A user's activity profile is the estimated probability density of event
occurrence per minute of the day, at the 1440 integer minutes. Densities
use the standard Gaussian kernel; bandwidth defaults to the Silverman rule
of thumb with a one-minute floor. Scoring an event needs the density at
its minute only.

Samples are integer minutes, so the kernel is only ever evaluated at the
2879 integer offsets -1439..1439, out to h*sqrt(1520), beyond which it is
+0.0. A profile of m <= _GRID_FREE_MAX samples keeps no grid: a score adds
the kernel at the m offsets in sample order. A larger one fills a grid at
its first score: up to _DIRECT_PATH_MAX by adding one table slice per
sample in sample order (the same bits), beyond by convolving the per-minute
counts with the table (exact, but with other low bits). numpy computes each
convolution output with the same dot product whichever outputs a call asks
for, so a kernel that spans the day fills only the _BLOCK minutes around a
score, at that block's first score, with the whole grid's bits. Grid paths
sum the table times 2^64: the same bits, without subnormal arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from astd_monitor.calendar_periods import MinuteOfDay

GRID_MINUTES = 1440
MIN_BANDWIDTH = 1.0

# Largest sample summed slice by slice instead of by convolution. Each path's
# summation order sets the low bits of the densities written to alerts, so
# moving this crossover changes alert bytes even where it would save time.
_DIRECT_PATH_MAX = 256

# Largest sample scored without a grid: density_at sums the direct path's terms
# at the scored minute in the same order, so this cut-off moves time, not bits.
# In-process (2-vCPU Xeon VM, numpy 2.4, Silverman h) a grid fit costs 29-44 us
# at m <= 32 against 8-9 us without, and a score 0.1 against 3.3 us: the grid
# pays after 7-11 scores per refit, 16 at m = 64, 25 at 128 and 37 at 256.
# Sparse windows (m <= 32) get 2.5; disorder's direct-path ones (m > 128) 59.
_GRID_FREE_MAX = 32

# Minutes per block of a day-spanning grid, each filled at its first score.
# bench/run.py disorder seed 1, 2-vCPU Xeon VM: 180 cut event_p99_us 222 -> 111
# us for 4.5% of events_per_s (10 alternating pairs); in 4 rounds against 180,
# 90 cut p99 13% more for 6% of events_per_s, 240 won 4% back for 4% more p99.
# Over 1, or a block's table slice is no longer than the counts: numpy would
# then swap no operands and sum in the other order.
_BLOCK = 180

# Every grid-to-sample distance 0..1439, and the distance of each offset
# -1439..1439 folded the shortest way around midnight (index 1439 is offset 0).
_DISTANCES = np.arange(GRID_MINUTES, dtype=np.float64)
_OFFSETS = np.abs(np.arange(1 - GRID_MINUTES, GRID_MINUTES))
_CIRCULAR_OFFSETS = np.minimum(_OFFSETS, GRID_MINUTES - _OFFSETS)
_DISTANCES.setflags(write=False)
_CIRCULAR_OFFSETS.setflags(write=False)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
# exp(-0.5 * z * z) is an exact zero once z * z > 1491 (it underflows below
# -745.2), so beyond z = sqrt(1520) every table entry is the +0.0 it would be.
_REACH_Z = math.sqrt(1520.0)
_SCALE = 2.0 ** 64


@dataclass(frozen=True, eq=False)
class KdeProfile:
    """A fitted profile: the sample (in fit order), the bandwidth and the
    distance rule that produced it. ``fit_profile(sample, bandwidth, circular)``
    rebuilds the same densities bit for bit.

    A profile of more than _GRID_FREE_MAX samples keeps its density per grid
    minute in ``grid``, None until its first score (or read of ``densities``).
    That score fills the whole grid; if the kernel spans the day, each score
    fills only the _BLOCK minutes that hold its minute, where NaN marks them
    unfilled. A smaller profile keeps no grid: it scores each minute with the
    direct sum and computes ``densities`` on demand.

    Two profiles are equal when their bandwidths, samples (in order) and
    densities are all equal.
    """

    bandwidth: float
    sample: np.ndarray
    circular: bool = False
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
        if self.sample.size <= _GRID_FREE_MAX:
            dens = _grid_part(self.sample, self.bandwidth, self.circular, 0)
            dens.setflags(write=False)
            return dens
        for minute in range(0, GRID_MINUTES, _BLOCK):
            density_at(self, minute)
        return self.grid

    def _fill(self, minute: int) -> float:
        # A pure function of the frozen fields: any engine fills the same bits.
        block = minute - minute % _BLOCK
        grid = dens = _grid_part(self.sample, self.bandwidth, self.circular, block)
        if dens.size < GRID_MINUTES:
            grid = np.full(GRID_MINUTES, math.nan) if self.grid is None else self.grid
            grid.setflags(write=True)
            grid[block : block + _BLOCK] = dens
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        return grid.item(minute)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KdeProfile):
            return NotImplemented
        return (self.bandwidth == other.bandwidth
                and np.array_equal(self.sample, other.sample)
                and np.array_equal(self.densities, other.densities))


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


def _scaled_table(bandwidth: float, circular: bool) -> np.ndarray:
    """The kernel at offsets -1439..1439 (index 1439 is offset 0) times 2^64,
    out to where it underflows. Its sums and dot products with integer counts
    are 2^64 times the unscaled ones, bit for bit: a result subnormal unscaled
    is exact (a multiple of 2^-1074); the scale commutes with any other."""
    limit = GRID_MINUTES // 2 if circular else GRID_MINUTES - 1
    span = bandwidth * _REACH_Z  # inf when the bandwidth is near float max
    reach = limit if span >= limit else int(span)
    table = np.zeros(2 * GRID_MINUTES - 1)
    half = table[GRID_MINUTES - 1 : GRID_MINUTES + reach]  # offsets 0..reach
    np.multiply(_kernel_over(_DISTANCES[: reach + 1], bandwidth), _SCALE, out=half)
    if circular:
        return table[GRID_MINUTES - 1 :][_CIRCULAR_OFFSETS]
    table[GRID_MINUTES - 1 - reach : GRID_MINUTES - 1] = half[:0:-1]
    return table


def _grid_part(x: np.ndarray, h: float, circular: bool, block: int) -> np.ndarray:
    """The densities a score in the _BLOCK minutes from ``block`` fills: the
    whole grid, or only those minutes' if a binned fit's kernel spans the day."""
    kernel = _scaled_table(h, circular)
    if x.size <= _DIRECT_PATH_MAX:
        # Table slices (the kernel centred on x_i starts at 1439 - x_i) added
        # left to right in sample order, as summing their m x 1440 stack over
        # axis 0 would: the densities' low bits depend on that order.
        first, *rest = (GRID_MINUTES - 1 - x).tolist()
        acc = kernel[first : first + GRID_MINUTES].copy()
        for i in rest:
            np.add(acc, kernel[i : i + GRID_MINUTES], out=acc)
    else:
        # Minute g is output r + g of np.convolve(counts, k), k the table less
        # its exact-zero tails (L = 2r + 1). numpy computes each output with one
        # dot product, over the same slices, whichever outputs a call asks for.
        counts = np.bincount(x, minlength=GRID_MINUTES).astype(np.float64)
        lo = 0 if kernel[0] != 0.0 else int((kernel != 0.0).argmax())
        k = kernel[lo : kernel.size - lo]
        if lo == 0:  # L = 2879: "valid" over the block's slice of k
            acc = np.convolve(counts, k[block : block + _BLOCK + GRID_MINUTES - 1], "valid")
        elif k.size <= GRID_MINUTES:  # "same" gives outputs r .. r + 1439
            acc = np.convolve(counts, k, "same")
        else:  # "same" gives outputs 719 .. 718 + L, sliced to the grid's
            at = k.size // 2 - (GRID_MINUTES // 2 - 1)
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
    """Density at a grid minute: a lookup in the profile's grid (filled where it
    lacks the minute), or else the direct sum there, bit for bit the same."""
    if (type(minute) is not int and not isinstance(minute, np.integer)
            or not 0 <= minute < GRID_MINUTES):
        raise ValueError(f"minute must be an integer in [0, 1439], got {minute!r}")
    grid = profile.grid
    if grid is not None:
        density = grid.item(minute)
        if density == density:  # NaN: a block not filled yet
            return density
    x = profile.sample
    if x.size > _GRID_FREE_MAX:
        return profile._fill(minute)
    dist = np.abs(x - minute)
    if profile.circular:
        dist = np.minimum(dist, GRID_MINUTES - dist)
    # np.add.accumulate adds left to right, in sample order, as _grid_part
    # adds its table slices; np.sum would add pairwise.
    total = np.add.accumulate(_kernel_over(dist, profile.bandwidth))[-1]
    return float(total / (x.size * profile.bandwidth))
