"""Density estimation: bandwidth selection, fitting, scoring one minute."""

from __future__ import annotations

import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from astd_monitor.detector import (
    MIN_FIXED_BANDWIDTH,
    DetectorConfig,
    EntityState,
    MonitorEngine,
)
from astd_monitor import kde
from astd_monitor.kde import (
    _DIRECT_PATH_MAX,
    _GRID_FREE_MAX,
    _REACH_Z,
    GRID_MINUTES,
    KdeProfile,
    _kernel_over,
    _scaled_table,
    density_at,
    fit_profile,
    select_bandwidth,
)
from astd_monitor.stream import dump_state, restore_state

from oracles import (
    broadcast_kde,
    convolve_kde,
    naive_kde,
    naive_kde_pure,
    silverman_numpy,
    silverman_reference,
)

rng = np.random.default_rng(20220625)


# --------------------------------------------------------------------------
# select_bandwidth
# --------------------------------------------------------------------------

def test_bandwidth_clamps_degenerate_samples():
    assert select_bandwidth([720] * 50) == 1.0
    assert select_bandwidth([600]) == 1.0


def test_bandwidth_empty_sample_rejected():
    with pytest.raises(ValueError):
        select_bandwidth([])


def test_bandwidth_formula_spot_check():
    sample = [500, 520, 540, 560, 580, 600, 620, 640, 660, 680]
    h = select_bandwidth(sample)
    assert h == pytest.approx(silverman_reference(sample), rel=1e-9)


def test_bandwidth_matches_reference_on_random_samples():
    for _ in range(50):
        m = int(rng.integers(2, 3000))
        sample = rng.integers(0, GRID_MINUTES, size=m).tolist()
        assert select_bandwidth(sample) == pytest.approx(
            silverman_reference(sample), rel=1e-9)


# Alert records carry the density, so the bandwidth rule must keep every bit
# of the former ndarray.std / np.percentile computation, not just agree
# to a tolerance.

@st.composite
def shaped_samples(draw, max_size, min_size=1):
    """Samples of ``min_size`` to ``max_size`` minutes, drawn from numpy by
    seed so large sizes stay cheap, in shapes from uniform to a few repeated
    minutes."""
    m = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "normal", "few"]))
    if shape == "uniform":
        x = rng.integers(0, GRID_MINUTES, size=m)
    elif shape == "normal":
        x = rng.normal(rng.uniform(0, GRID_MINUTES), rng.uniform(0.3, 300.0), size=m)
        x = np.clip(x.round(), 0, GRID_MINUTES - 1)
    else:
        x = rng.choice(rng.integers(0, GRID_MINUTES, size=3), size=m)
    return x.astype(int).tolist()


@settings(deadline=None, max_examples=200)
@given(st.one_of(shaped_samples(6000),
                 st.lists(st.integers(0, GRID_MINUTES - 1), min_size=1, max_size=40)))
def test_bandwidth_is_bit_exact_with_numpy_std_and_percentile(sample):
    assert select_bandwidth(sample) == silverman_numpy(sample)


@pytest.mark.parametrize("sample", [
    [600],                                  # one point
    [720] * 6000,                           # all points equal
    [0] * 40 + [1439] * 2,                  # zero IQR, sigma > 0
    [300] * 5 + [301] * 90 + [1200] * 5,    # zero IQR in the middle
    list(range(0, GRID_MINUTES, 7)),        # sigma term is the smaller
    [600, 700] * 20 + [0, 1439],            # IQR term is the smaller
])
def test_bandwidth_is_bit_exact_on_degenerate_samples(sample):
    assert select_bandwidth(sample) == silverman_numpy(sample)


# --------------------------------------------------------------------------
# fit_profile: correctness against the naive oracles
# --------------------------------------------------------------------------

def test_fit_peak_sits_on_the_sample_point():
    profile = fit_profile([720] * 7, 5.0)
    assert int(np.argmax(profile.densities)) == 720
    assert profile.sample.size == 7
    assert profile.bandwidth == 5.0


@pytest.mark.parametrize("circular", [False, True])
def test_fit_matches_pure_python_oracle(circular):
    sample = [3, 180, 180, 715, 716, 1024, 1439]
    h = 4.25
    profile = fit_profile(sample, h, circular=circular)
    expected = naive_kde_pure(sample, h, circular=circular)
    assert np.max(np.abs(profile.densities - np.asarray(expected))) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 400, 2048])
@pytest.mark.parametrize("circular", [False, True])
def test_fit_matches_oracle_across_both_code_paths(m, circular):
    # 256 is the crossover between the direct and the binned evaluation
    sample = rng.integers(0, GRID_MINUTES, size=m).tolist()
    h = float(rng.uniform(1.0, 40.0))
    profile = fit_profile(sample, h, circular=circular)
    expected = naive_kde(sample, h, circular=circular)
    assert np.max(np.abs(profile.densities - expected)) <= 1e-12


# The direct path (m <= 256) must reproduce the former broadcast bit for bit,
# for Silverman bandwidths and for fixed ones below the one-minute floor, at
# it, and wider than the whole day.
bandwidths = st.one_of(st.none(), st.sampled_from([0.5, 1.0]),
                       st.floats(1.0, 200.0), st.floats(1441.0, 1e9))

# Dense's case: a clustered window with h near 12, whose kernel table has
# subnormal entries. Fixed edge bandwidths below: 36.9 and 37.0 straddle
# 1439 / sqrt(1520), where the table stops being cut short; 38.9 and 39.1
# straddle sqrt(1520); float max must not overflow the reach.
CLUSTERED = np.clip(np.random.default_rng(12).normal(600, 60, 450).round(),
                    0, GRID_MINUTES - 1).astype(int).tolist()


@settings(deadline=None, max_examples=150)
@given(shaped_samples(256), bandwidths, st.booleans())
@example([0] * 256, 0.5, True)
@example(list(range(0, 1280, 5)), None, False)
@example([1439], 2000.0, True)
@example(CLUSTERED[:250], 12.0, False)
@example(CLUSTERED[:250], 36.9, False)
@example(CLUSTERED[:250], 37.0, False)
@example(CLUSTERED[:250], 38.9, False)
@example(CLUSTERED[:250], 39.1, False)
@example(CLUSTERED[:250], sys.float_info.max, False)
@example(CLUSTERED[:250], sys.float_info.max, True)
def test_fit_direct_path_is_bit_exact_with_broadcast(sample, bandwidth, circular):
    h = silverman_numpy(sample) if bandwidth is None else bandwidth
    profile = fit_profile(sample, bandwidth, circular=circular)
    assert profile.bandwidth == h
    assert np.array_equal(profile.densities, broadcast_kde(sample, h, circular))


# The binned path (m > 256) asks numpy for the grid's outputs only; they
# must keep the bits of the former full convolution. The trimmed kernel's
# length L picks the convolve mode: h = 5 gives L <= 1440, h = 25 gives
# 1440 < L < 2879 and h = 60, or any circular fit, the untrimmed L = 2879,
# whose grid is filled one block at a time, at each block's first score. So
# a fresh profile is scored in a drawn order (a few minutes, or some or all
# of the day), and then its densities are read.
EVERY_MINUTE_BACKWARDS = list(range(GRID_MINUTES - 1, -1, -1))
BLOCK_EDGES = [kde._BLOCK, kde._BLOCK - 1, 0, GRID_MINUTES - 1, kde._BLOCK]


@st.composite
def scoring_orders(draw):
    """A few minutes, repeats allowed, or the first n of a permutation of the
    day, drawn from numpy by seed so a whole day stays cheap."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, GRID_MINUTES - 1), max_size=12))
    n = draw(st.integers(0, GRID_MINUTES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.permutation(GRID_MINUTES)[:n].tolist()


@settings(deadline=None, max_examples=150)
@given(shaped_samples(3000, min_size=_DIRECT_PATH_MAX + 1),
       st.one_of(st.none(), st.floats(0.3, 2000.0)), st.booleans(), scoring_orders())
@example(list(range(0, 1440, 3)), 5.0, False, EVERY_MINUTE_BACKWARDS)
@example(list(range(0, 1440, 3)), 25.0, False, BLOCK_EDGES)
@example(list(range(0, 1440, 3)), 60.0, False, EVERY_MINUTE_BACKWARDS)
@example(list(range(0, 1440, 3)), 60.0, False, BLOCK_EDGES)
@example(list(range(0, 1440, 3)), 60.0, True, [])
@example([0] * 300 + [1439] * 300, 5.0, True, BLOCK_EDGES)
@example(CLUSTERED, 12.0, False, EVERY_MINUTE_BACKWARDS)
@example(CLUSTERED, 36.9, False, BLOCK_EDGES)
@example(CLUSTERED, 37.0, False, BLOCK_EDGES)
@example(CLUSTERED, 38.9, False, EVERY_MINUTE_BACKWARDS)
@example(CLUSTERED, 39.1, False, [600])
@example(CLUSTERED, sys.float_info.max, False, BLOCK_EDGES)
@example(CLUSTERED, sys.float_info.max, True, EVERY_MINUTE_BACKWARDS)
def test_fit_binned_path_is_bit_exact_with_full_convolution(sample, bandwidth, circular,
                                                            order):
    h = silverman_numpy(sample) if bandwidth is None else bandwidth
    expected = convolve_kde(sample, h, circular)
    profile = fit_profile(sample, bandwidth, circular=circular)
    assert profile.bandwidth == h
    scored = np.array([density_at(profile, g) for g in order], dtype=np.float64)
    assert np.array_equal(scored, expected[order])
    assert profile.grid is None or not profile.grid.flags.writeable
    densities = profile.densities
    assert np.array_equal(densities, expected)
    assert not densities.flags.writeable


# Both grid paths sum the table scaled by 2^64, so no operation meets a
# subnormal; that is exact only if the scaled table holds no subnormal and is
# the full table to the bit. Every quarter octave of the accepted bandwidths,
# and every tenth of a minute up to 60, where the tails turn subnormal.
TABLE_BANDWIDTHS = sorted({math.ldexp(MIN_FIXED_BANDWIDTH * 2.0 ** (q % 4 / 4), q // 4)
                           for q in range(6100)}
                          | {t / 10 for t in range(1, 601)}
                          | {(GRID_MINUTES - 1) / _REACH_Z, sys.float_info.max})


@pytest.mark.parametrize("circular", [False, True])
def test_scaled_kernel_table_is_the_full_table_without_subnormals(circular):
    offsets = np.abs(np.arange(1 - GRID_MINUTES, GRID_MINUTES, dtype=np.float64))
    if circular:
        offsets = np.minimum(offsets, GRID_MINUTES - offsets)
    def subnormal(a):
        return (a != 0.0) & (a < sys.float_info.min)

    with_subnormals = []
    for h in TABLE_BANDWIDTHS:
        table, full = _scaled_table(h, circular), _kernel_over(offsets, h)
        assert not np.any(subnormal(table)), h
        assert np.array_equal(table / 2.0 ** 64, full), h
        if np.any(subnormal(full)):
            with_subnormals.append(h)
    # The premise: unscaled, dense's h = 12 has subnormal entries.
    assert 12.0 in with_subnormals


def test_fit_uniform_sample_is_flat_away_from_edges():
    profile = fit_profile(list(range(GRID_MINUTES)), None)
    uniform = 1.0 / GRID_MINUTES
    body = profile.densities[200:1240]
    assert np.all(np.abs(body - uniform) <= 0.10 * uniform)


def test_fit_uniform_sample_circular_is_flat_everywhere():
    profile = fit_profile(list(range(GRID_MINUTES)), None, circular=True)
    uniform = 1.0 / GRID_MINUTES
    assert np.all(np.abs(profile.densities - uniform) <= 0.01 * uniform)


def test_fit_circular_wraps_symmetrically():
    profile = fit_profile([0], 10.0, circular=True)
    assert profile.densities[1] == pytest.approx(profile.densities[1439], abs=1e-18)
    assert profile.densities[100] == pytest.approx(profile.densities[1340], abs=1e-18)


def test_fit_default_bandwidth_is_silverman():
    sample = [400, 450, 500, 700, 800, 900]
    profile = fit_profile(sample, None)
    assert profile.bandwidth == select_bandwidth(sample)


def test_fit_is_deterministic_bitwise():
    sample = rng.integers(0, GRID_MINUTES, size=500).tolist()
    a = fit_profile(sample, 7.3)
    b = fit_profile(sample, 7.3)
    assert np.array_equal(a.densities, b.densities)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_profile([], 5.0)
    with pytest.raises(ValueError):
        fit_profile([1440], 5.0)
    with pytest.raises(ValueError):
        fit_profile([-1], 5.0)
    with pytest.raises(ValueError):
        fit_profile([600], 0.0)


# --------------------------------------------------------------------------
# Normalization and non-negativity
# --------------------------------------------------------------------------

minutes_lists = st.lists(st.integers(0, GRID_MINUTES - 1), min_size=1, max_size=300)


@settings(deadline=None, max_examples=60)
@given(minutes_lists)
def test_fit_profile_grid_sum_bounded_above(sample):
    # With unit grid spacing the densities sum to at most the lattice sum of
    # one Gaussian kernel. At the bandwidth floor h=1 that sum is
    # 1 + 2*sum_j exp(-2*pi^2*j^2) = 1 + 5.36e-9, shrinking fast as h grows,
    # so 1 + 6e-9 bounds every reachable fit.
    profile = fit_profile(sample, None)
    total = float(np.sum(profile.densities))
    assert total <= 1.0 + 6e-9
    assert np.all(profile.densities >= 0.0)


@settings(deadline=None, max_examples=60)
@given(minutes_lists)
def test_fit_profile_grid_sum_bounded_with_floor_bandwidth(sample):
    profile = fit_profile(sample, 1.0)
    assert float(np.sum(profile.densities)) <= 1.0 + 6e-9


def test_interior_samples_conserve_mass():
    for _ in range(20):
        m = int(rng.integers(30, 2000))
        center = float(rng.uniform(350, 1100))
        spread = float(rng.uniform(10, 40))
        sample = np.clip(rng.normal(center, spread, size=m).round(), 200, 1239)
        sample = sample.astype(int).tolist()
        h = select_bandwidth(sample)
        assert h <= 30.0
        total = float(np.sum(fit_profile(sample, h).densities))
        assert 0.98 <= total <= 1.02


# --------------------------------------------------------------------------
# density_at
# --------------------------------------------------------------------------

def test_density_at_equals_the_profile_densities():
    # one profile per evaluation path: grid-free, direct grid, binned grid
    for m in (3, 40, 300):
        sample = rng.integers(0, GRID_MINUTES, size=m).tolist()
        for circular in (False, True):
            profile = fit_profile(sample, 6.0, circular=circular)
            assert profile.grid is None  # the fit builds no grid
            densities = fit_profile(sample, 6.0, circular=circular).densities
            assert density_at(profile, sample[0]) == densities[sample[0]]
            grid = profile.grid
            assert (grid is None) == (m <= _GRID_FREE_MAX)  # the first score builds it
            for g in (0, 720, GRID_MINUTES - 1):
                assert density_at(profile, g) == densities[g]
            assert profile.grid is grid  # and later scores keep it


# m = 300 with Silverman's bandwidth (about 120 minutes) is a binned fit
# whose kernel spans the day: it fills one block per score.
@pytest.mark.parametrize("m", [40, 300])  # direct grid, day-spanning binned grid
@pytest.mark.parametrize("circular", [False, True])
def test_unscored_densities_are_the_grid_the_first_score_builds(m, circular):
    sample = rng.integers(0, GRID_MINUTES, size=m).tolist()
    unscored = fit_profile(sample, None, circular=circular).densities
    scored = fit_profile(sample, None, circular=circular)
    density_at(scored, sample[-1])
    filled = ~np.isnan(scored.grid)
    if m <= _DIRECT_PATH_MAX:
        assert filled.all()  # the whole grid at the first score
    else:  # only the block that holds the scored minute
        assert _scaled_table(scored.bandwidth, circular)[0] != 0.0
        block = np.arange(GRID_MINUTES) // kde._BLOCK == sample[-1] // kde._BLOCK
        assert np.array_equal(filled, block)
    assert np.array_equal(unscored[filled], scored.grid[filled])
    assert scored.densities is scored.grid  # densities fills the rest in place
    assert np.array_equal(unscored, scored.grid)
    oracle = broadcast_kde if m <= _DIRECT_PATH_MAX else convolve_kde
    assert np.array_equal(unscored, oracle(sample, scored.bandwidth, circular))


@pytest.mark.parametrize("m", [40, 300])  # direct grid, day-spanning binned grid
def test_restore_builds_no_grid_and_the_first_score_builds_one(monkeypatch, m):
    sample = rng.integers(0, GRID_MINUTES, size=m).tolist()
    engine = MonitorEngine(DetectorConfig())
    engine.adopt_user("u", EntityState(
        events_by_week={202225: sample}, used_periods=[202225],
        accumulated_periods=[], profile=fit_profile(sample), alerts=[]))
    text = json.dumps(dump_state(engine))
    calls = []
    def counted(*args, _grid_part=kde._grid_part):
        calls.append(args)
        return _grid_part(*args)
    monkeypatch.setattr(kde, "_grid_part", counted)
    restored = restore_state(text)
    profile = restored.entity_state("u").profile
    assert calls == [] and profile.grid is None
    restored.process("e1", "u", 202225, sample[0])
    restored.process("e2", "u", 202225, sample[1])
    if m <= _DIRECT_PATH_MAX:
        assert len(calls) == 1 and profile.grid is not None  # the restored profile's
        blocks = 1
    else:  # one fill per block scored, of that block's minutes only
        blocks = GRID_MINUTES // kde._BLOCK
        assert len(calls) == len({sample[0] // kde._BLOCK, sample[1] // kde._BLOCK})
        assert np.isnan(profile.grid).sum() == GRID_MINUTES - len(calls) * kde._BLOCK
    profile.densities  # fills the blocks no score filled
    assert len(calls) == blocks and not np.isnan(profile.grid).any()


def test_density_at_rejects_out_of_range():
    profile = fit_profile([720], 5.0)
    with pytest.raises(ValueError):
        density_at(profile, -1)
    with pytest.raises(ValueError):
        density_at(profile, 1440)


# A minute is an int (a numpy integer too) in [0, 1439], whichever path
# scores it: a bool or a float is refused before any lookup.
# Grid-free, direct, binned with a short kernel, binned with a day-spanning one.
@pytest.mark.parametrize("m, bandwidth", [(3, None), (40, None), (300, 5.0), (300, 60.0)])
def test_density_at_refuses_a_bool_or_non_integer_minute(m, bandwidth):
    sample = rng.integers(0, GRID_MINUTES, size=m).tolist()
    profile = fit_profile(sample, bandwidth)
    for bad in (True, False, np.True_, 3.5, 600.0, np.float64(600.0), "600", None):
        with pytest.raises(ValueError, match="minute must be an integer"):
            density_at(profile, bad)
    assert profile.grid is None
    assert density_at(profile, np.int64(600)) == density_at(profile, 600)
    assert density_at(profile, np.uint16(0)) == profile.densities[0]


# Scoring without a grid must give the direct path's bits at every minute,
# for every m the direct path covers, so _GRID_FREE_MAX can move freely: the
# cut-off is raised to the direct path's for the test.
@settings(deadline=None, max_examples=120)
@given(shaped_samples(256), bandwidths, st.booleans())
@example([0] * 256, 0.5, True)
@example(list(range(0, 1280, 5)), None, False)
@example([1439], 2000.0, True)
def test_grid_free_density_at_is_bit_exact_with_broadcast(sample, bandwidth, circular):
    h = silverman_numpy(sample) if bandwidth is None else bandwidth
    profile = KdeProfile(h, np.array(sample), circular)
    expected = broadcast_kde(sample, h, circular)
    with mock.patch.object(kde, "_GRID_FREE_MAX", _DIRECT_PATH_MAX):
        scored = np.array([density_at(profile, g) for g in range(GRID_MINUTES)])
        assert np.array_equal(profile.densities, expected)
    assert profile.grid is None
    assert np.array_equal(scored, expected)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, GRID_MINUTES - 1), min_size=1, max_size=_GRID_FREE_MAX),
       st.booleans())
def test_small_window_profile_holds_no_grid(sample, circular):
    profile = fit_profile(sample, None, circular=circular)
    assert profile.grid is None
    assert profile.densities.shape == (GRID_MINUTES,)
    density_at(profile, sample[0])
    # neither reading the densities nor scoring leaves a grid behind
    for value in vars(profile).values():
        assert not (isinstance(value, np.ndarray) and value.size >= GRID_MINUTES)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, GRID_MINUTES - 1), min_size=1, max_size=_GRID_FREE_MAX),
       st.booleans(), st.one_of(st.none(), st.floats(0.5, 2000.0)))
def test_grid_free_profiles_restore_bit_for_bit(sample, circular, fixed):
    if fixed is None:
        config = DetectorConfig(circular=circular)
    else:
        config = DetectorConfig(bandwidth_method="fixed", bandwidth_value=fixed,
                                circular=circular)
    profile = fit_profile(sample, fixed, circular=circular)
    engine = MonitorEngine(config)
    engine.adopt_user("u", EntityState(
        events_by_week={202225: list(sample)}, used_periods=[202225],
        accumulated_periods=[], profile=profile, alerts=[]))
    text = json.dumps(dump_state(engine))
    restored = restore_state(text).entity_state("u").profile
    assert restored.grid is None
    assert restored == profile
    assert np.array_equal(restored.densities, profile.densities)
    assert json.dumps(dump_state(restore_state(text))) == text


# --------------------------------------------------------------------------
# KdeProfile validation
# --------------------------------------------------------------------------

def test_profile_validation():
    three = np.array([1, 2, 3])
    with pytest.raises(ValueError):
        KdeProfile(0.0, three)                           # non-positive bandwidth
    with pytest.raises(ValueError):
        KdeProfile(float("nan"), three)                  # NaN bandwidth
    with pytest.raises(ValueError):
        KdeProfile(5.0, np.array([], dtype=np.int64))    # zero samples
    with pytest.raises(ValueError):
        KdeProfile(5.0, np.array([1.0, 2.0]))            # non-integer sample
    with pytest.raises(ValueError):
        KdeProfile(5.0, np.array([[1, 2]]))              # not one-dimensional
    with pytest.raises(TypeError):
        KdeProfile(None, 5.0, three, False)              # no grid argument
    profile = KdeProfile(5.0, three)
    assert profile.grid is None
    with pytest.raises(AttributeError):
        profile.grid = np.zeros(GRID_MINUTES)            # the profile builds its own


def test_profile_leaves_the_callers_arrays_writeable():
    sample = np.array([1, 2, 3])
    frozen_view = sample.view()
    frozen_view.setflags(write=False)
    profiles = [KdeProfile(5.0, sample), KdeProfile(5.0, frozen_view)]
    assert sample.flags.writeable
    for profile in profiles:
        assert not profile.sample.flags.writeable
    # the caller's later writes do not reach the profiles
    sample[0] = 7
    for profile in profiles:
        assert profile.sample.tolist() == [1, 2, 3]


def test_profile_densities_are_read_only():
    for m in (1, 40, 300):  # grid-free, direct grid, binned grid
        profile = fit_profile([720] * m, 5.0)
        with pytest.raises(ValueError):
            profile.densities[0] = 1.0
        density_at(profile, 720)  # before and after the first score
        with pytest.raises(ValueError):
            profile.densities[0] = 1.0


def test_profile_keeps_its_sample_in_fit_order_read_only():
    sample = np.array([900, 30, 720, 30])
    profile = fit_profile(sample, 5.0)
    assert profile.sample.tolist() == [900, 30, 720, 30]
    assert profile.sample.size == 4
    with pytest.raises(ValueError):
        profile.sample[0] = 1
    assert sample.flags.writeable  # the caller's array is copied, not frozen


def test_profiles_compare_by_bandwidth_sample_and_densities():
    profile = fit_profile([1, 2, 3], 5.0)
    assert profile == fit_profile([1, 2, 3], 5.0)
    assert not profile != fit_profile([1, 2, 3], 5.0)
    assert profile != fit_profile([1, 2, 3], 6.0)         # bandwidth
    assert profile != fit_profile([3, 2, 1], 5.0)         # sample order
    assert profile != KdeProfile(5.0, profile.sample, circular=True)  # densities
    assert profile == KdeProfile(5.0, profile.sample)
    sample = list(range(600, 640))
    scored = fit_profile(sample, 5.0)
    density_at(scored, 600)
    assert scored == fit_profile(sample, 5.0)             # grid built or not
    assert profile != "profile"
    with pytest.raises(TypeError):
        hash(profile)
