"""Gaussian kernel density estimation over the 1440-minute daily grid.

A user's activity profile is the estimated probability density of event
occurrence per minute of the day, at the 1440 integer minutes. Densities
use the standard Gaussian kernel; bandwidth defaults to the Silverman rule
of thumb with a one-minute floor. Scoring an event needs the density at
its minute only.

Samples are integer minutes, so the kernel is only ever evaluated at the
2879 integer offsets -1439..1439, and only out to the distance h*sqrt(1520)
beyond which it underflows to +0.0. There are three evaluation paths:

* small samples (m <= _GRID_FREE_MAX) keep no grid: ``density_at``
  evaluates the kernel at the m offsets of the scored minute and adds the
  terms in sample order;
* medium ones (m <= _DIRECT_PATH_MAX) compute the offset table once per
  grid and add one table slice per sample, in sample order, into a
  1440-float accumulator;
* large ones bin the samples per minute and convolve the counts with the
  table (exact, not an approximation), asking ``np.convolve`` for only the
  1440 outputs that fall on the grid.

The first two give the same bits at every minute. The binned sum agrees
with them to float64 accuracy but not bit for bit; it has the bits of the
full convolution, because numpy computes each output with the same dot
product whichever outputs it is asked for. Grid paths sum the table times
2^64: the same bits, without subnormal arithmetic (see ``_scaled_table``).
A grid is built at a profile's first score: a fit never scored builds none.
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

    A profile of more than _GRID_FREE_MAX samples builds the density per grid
    minute at its first score (or read of ``densities``) and keeps it as
    ``grid``, which is None until then. A smaller one keeps no grid: it scores
    each minute with the direct sum and computes ``densities`` on demand.

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
        computes them on each access."""
        if self.sample.size > _GRID_FREE_MAX:
            return self.grid if self.grid is not None else self._build_grid()
        dens = _direct_grid(self.sample, self.bandwidth, self.circular)
        dens.setflags(write=False)
        return dens

    def _build_grid(self) -> np.ndarray:
        # A pure function of the frozen fields: a profile shared by two
        # engines gives the same grid whichever builds it.
        grid_of = _direct_grid if self.sample.size <= _DIRECT_PATH_MAX else _binned_grid
        grid = grid_of(self.sample, self.bandwidth, self.circular)
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        return grid

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


def _direct_grid(x: np.ndarray, bandwidth: float, circular: bool) -> np.ndarray:
    """The direct sum at every grid minute, from one kernel table."""
    kernel = _scaled_table(bandwidth, circular)
    # The kernel centred on x_i is the table slice starting at 1439 - x_i.
    # The slices are added into one accumulator left to right, in sample
    # order, as summing their m x 1440 stack over axis 0 would: the
    # densities' low bits depend on that order.
    first, *rest = (GRID_MINUTES - 1 - x).tolist()
    acc = kernel[first : first + GRID_MINUTES].copy()
    for start in rest:
        np.add(acc, kernel[start : start + GRID_MINUTES], out=acc)
    acc /= _SCALE
    return acc / (x.size * bandwidth)


def _binned_grid(x: np.ndarray, bandwidth: float, circular: bool) -> np.ndarray:
    """The per-minute counts convolved with the kernel table, at every grid
    minute: the outputs full[r : r + 1440] of ``np.convolve(counts, k)``,
    where k is the table with its exact-zero tails trimmed, L = 2r + 1 long."""
    kernel = _scaled_table(bandwidth, circular)
    counts = np.bincount(x, minlength=GRID_MINUTES).astype(np.float64)
    # Trimming the symmetric exact-zero tails changes no sum and shortens it.
    lo = int((kernel != 0.0).argmax())
    k = kernel[lo : kernel.size - lo]
    # Each mode computes an output with the same dot product as "full", so the
    # grid's outputs alone keep their bits: "valid" gives full[1439 : 2879]
    # (L = 2879), "same" the len(longer) outputs centred on the shorter one,
    # full[r : r + 1440] when L <= 1440 and full[719 : 719 + L] otherwise.
    if k.size == 2 * GRID_MINUTES - 1:
        dens = np.convolve(counts, k, "valid")
    elif k.size <= GRID_MINUTES:
        dens = np.convolve(counts, k, "same")
    else:
        start = k.size // 2 - (GRID_MINUTES // 2 - 1)
        dens = np.convolve(counts, k, "same")[start : start + GRID_MINUTES]
    dens /= _SCALE
    return dens / (x.size * bandwidth)


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
    """Density at a grid minute: a lookup in the profile's grid, or else the
    direct sum at that one minute, bit for bit the grid value it replaces."""
    if not 0 <= minute < GRID_MINUTES:
        raise ValueError(f"minute must lie in [0, 1439], got {minute}")
    grid = profile.grid
    if grid is not None:
        return float(grid[minute])
    x = profile.sample
    if x.size > _GRID_FREE_MAX:
        return float(profile._build_grid()[minute])
    dist = np.abs(x - minute)
    if profile.circular:
        dist = np.minimum(dist, GRID_MINUTES - dist)
    # np.add.accumulate adds left to right, in sample order, as _direct_grid
    # adds its table slices; np.sum would add pairwise.
    total = np.add.accumulate(_kernel_over(dist, profile.bandwidth))[-1]
    return float(total / (x.size * profile.bandwidth))
