"""Tests for the cell model, :mod:`repro.phys.kernels`.

The die model, the population and the MLC die all run these operations,
so comparing those simulators with one another cannot test them.  Here
each operation is compared with :class:`~repro.phys.cell.FloatingGateCell`,
an independent scalar statement of the same physics: one object per
matrix element, one operation and one scalar draw at a time.  The scalar
cells of row *i* share one generator, seeded like the operation's
``rngs[i]``, so running them in row order replays the documented draw
order.  Hypothesis drives wear, threshold voltages and pulse lengths;
every comparison is exact equality, never ``allclose``.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phys import (
    FloatingGateCell,
    NoiseParams,
    PhysicalParams,
    apply_erase_transient,
    crossing_time_us,
)
from repro.phys.kernels import (
    CellViews,
    erase_pulse,
    majority_read,
    program_targets,
    tau_us,
)
from repro.phys.wear import effective_cycles, tau_wear_multiplier

PARAMS = PhysicalParams()
QUIET = PARAMS.with_overrides(
    noise=NoiseParams(
        read_sigma_v=0.0, erase_jitter_sigma=0.0, program_sigma_v=0.0
    )
)

finite = st.floats(
    min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False
)
seeds = st.integers(0, 2**31 - 1)


def _scalar_grid(seed, n_dies, n_cells, params=PARAMS, n_pe=0):
    """``n_dies x n_cells`` scalar cells with uneven wear.

    Every cell of a row draws its operation noise from one shared
    generator; odd cells are left programmed.
    """
    grid = []
    for i in range(n_dies):
        shared = np.random.default_rng([seed, i])
        row = []
        for j in range(n_cells):
            cell = FloatingGateCell(
                params, np.random.default_rng([seed, i, j])
            )
            cell.program_cycles = n_pe + 7 * j
            cell.erase_only_cycles = j % 3
            if j % 2:
                cell.vth = cell._vth_programmed
                cell._programmed_since_erase = True
            cell.rng = shared
            row.append(cell)
        grid.append(row)
    return grid


def _views(grid, temperature_c=None):
    """The grid's state as kernel views, with twin generators."""
    params = grid[0][0].params
    if temperature_c is None:
        temperature_c = params.cell.nominal_temperature_c

    def field(get, dtype=np.float64):
        return np.array([[get(c) for c in row] for row in grid], dtype=dtype)

    return CellViews(
        params=params,
        rngs=[copy.deepcopy(row[0].rng) for row in grid],
        temperature_c=[temperature_c] * len(grid),
        vth=field(lambda c: c.vth),
        program_cycles=field(lambda c: c.program_cycles),
        erase_only_cycles=field(lambda c: c.erase_only_cycles),
        programmed_since_erase=field(
            lambda c: c._programmed_since_erase, bool
        ),
        tau0_us=field(lambda c: c._tau0_us),
        susceptibility=field(lambda c: c._susceptibility),
        vth_programmed=field(lambda c: c._vth_programmed),
        vth_erased=field(lambda c: c._vth_erased),
    )


def _uniform_views(n_cells, params, vth, rng_seed=0):
    """One die of ``n_cells`` identical fresh cells at ``vth``."""
    cell = params.cell

    def full(value):
        return np.full((1, n_cells), value, dtype=np.float64)

    return CellViews(
        params=params,
        rngs=[np.random.default_rng(rng_seed)],
        temperature_c=[cell.nominal_temperature_c],
        vth=full(vth),
        program_cycles=full(0.0),
        erase_only_cycles=full(0.0),
        programmed_since_erase=np.ones((1, n_cells), dtype=bool),
        tau0_us=full(cell.erase_tau_us),
        susceptibility=full(1.0),
        vth_programmed=full(6.0),
        vth_erased=full(1.5),
    )


def _assert_matches(views, grid, draws=True):
    """Kernel state equals the scalar cells', element for element."""
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            assert views.vth[i, j] == cell.vth
            assert views.program_cycles[i, j] == cell.program_cycles
            assert views.erase_only_cycles[i, j] == cell.erase_only_cycles
            assert (
                views.programmed_since_erase[i, j]
                == cell._programmed_since_erase
            )
        if draws:
            assert (
                views.rngs[i].bit_generator.state
                == row[0].rng.bit_generator.state
            )


def _state(rng):
    return rng.bit_generator.state


class TestEffectiveCycles:
    @given(
        pc=st.lists(finite, min_size=1, max_size=6),
        eo=st.lists(finite, min_size=1, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_1d_rows(self, pc, eo):
        n = min(len(pc), len(eo))
        pcm = np.array([pc[:n], pc[:n][::-1]])
        eom = np.array([eo[:n], eo[:n]])
        out = effective_cycles(pcm, eom, PARAMS.wear)
        cell = FloatingGateCell(PARAMS, np.random.default_rng(0))
        for row in range(2):
            for k in range(n):
                cell.program_cycles = pcm[row, k]
                cell.erase_only_cycles = eom[row, k]
                assert out[row, k] == cell.n_effective


class TestTau:
    @given(seed=seeds, temp=st.floats(-40.0, 125.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_array_current_tau(self, seed, temp):
        """The die model's tau equals the scalar cell's, Arrhenius-scaled.

        The scalar reference has no temperature, so the hot/cold factor
        is stated here: ``exp(-k (T - T_nominal))``.
        """
        from repro.device import make_mcu

        chip = make_mcu(seed=seed, n_segments=1)
        sl = chip.geometry.segment_bit_slice(0)
        stripes = ((np.arange(sl.stop - sl.start) // 8) % 2).astype(np.uint8)
        chip.flash.bulk_pe_cycles(0, stripes, 3_000)
        chip.set_temperature(temp)
        out = chip.array.current_tau_us(sl)
        cellp = PARAMS.cell
        factor = np.exp(
            -cellp.erase_temp_coefficient_per_k
            * (temp - cellp.nominal_temperature_c)
        )
        cell = FloatingGateCell(PARAMS, np.random.default_rng(0))
        for k in range(0, 64, 3):
            cell._tau0_us = chip.array.static.tau0_us[k]
            cell._susceptibility = chip.array.static.wear_susceptibility[k]
            cell.program_cycles = chip.array.program_cycles[k]
            cell.erase_only_cycles = chip.array.erase_only_cycles[k]
            assert out[k] == cell.tau_us * factor


class TestCrossingTimes:
    @given(seed=seeds, n_pe=st.integers(0, 120_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_cell(self, seed, n_pe):
        """Kernel tau and crossing times vs the scalar FloatingGateCell.

        At the nominal temperature the kernel's extra ``* temp_factor``
        is ``* 1.0`` (exact in IEEE arithmetic), so equality must be
        bit-exact.
        """
        grid = _scalar_grid(seed, 4, 3, n_pe=n_pe)
        views = _views(grid)
        tau = tau_us(views)
        out = crossing_time_us(
            views.vth,
            PARAMS.cell.v_ref,
            tau,
            PARAMS.cell.erase_slope_v_per_decade,
        )
        for i, row in enumerate(grid):
            for j, cell in enumerate(row):
                assert tau[i, j] == cell.tau_us
                assert out[i, j] == cell.erase_crossing_time_us()

    def test_already_crossed_is_zero(self):
        vth = np.full((2, 3), PARAMS.cell.v_ref - 1.0)
        tau = np.ones((2, 3))
        out = crossing_time_us(
            vth, PARAMS.cell.v_ref, tau, PARAMS.cell.erase_slope_v_per_decade
        )
        assert np.array_equal(out, np.zeros((2, 3)))


class TestEraseTransient:
    @given(
        seed=seeds,
        t_us=st.floats(0.0, 1e6, allow_nan=False),
        n_pe=st.integers(0, 120_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_1d_rows(self, seed, t_us, n_pe):
        """Each row equals its scalar cells erased one by one, in order.

        Covers the jittered transient, the erased floor, erase-only wear
        on cells that held no charge and the per-row jitter draws.
        """
        grid = _scalar_grid(seed, 2, 6, n_pe=n_pe)
        views = _views(grid)
        erase_pulse(views, t_us)
        for row in grid:
            for cell in row:
                cell.erase_partial(t_us)
        _assert_matches(views, grid)

    def test_zero_jitter_draws_nothing(self):
        """Without jitter the pulse draws nothing and lands where the
        scalar cell's unit jitter does."""
        grid = _scalar_grid(3, 2, 5, params=QUIET, n_pe=2_000)
        views = _views(grid)
        before = [_state(rng) for rng in views.rngs]
        erase_pulse(views, 25.0)
        for row in grid:
            for cell in row:
                cell.erase_partial(25.0)
        _assert_matches(views, grid, draws=False)
        assert [_state(rng) for rng in views.rngs] == before

    def test_jitter_positive_and_median_one(self):
        """Lognormal jitter: every pulse still erases (tau stays
        positive) and the median cell lands where no jitter would."""
        views = _uniform_views(200_001, PARAMS, vth=6.0)
        cell = PARAMS.cell
        erase_pulse(views, cell.erase_tau_us)
        expect = apply_erase_transient(
            6.0, cell.erase_tau_us, cell.erase_tau_us, 1.5,
            cell.erase_slope_v_per_decade,
        )
        assert np.all(np.isfinite(views.vth))
        assert np.all(views.vth < 6.0)
        assert np.median(views.vth) == pytest.approx(expect, abs=1e-4)


class TestProgramTargets:
    @given(seed=seeds, n_pe=st.integers(1, 120_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_wear_formula(self, seed, n_pe):
        """Charged cells land where the scalar cell's program puts them:
        the wear bump, the wear-shifted level and the program noise."""
        grid = _scalar_grid(seed, 2, 6, n_pe=n_pe)
        views = _views(grid)
        mask = np.array(
            [[j % 3 != 1 for j in range(6)], [j < 4 for j in range(6)]]
        )
        views.vth[mask] = program_targets(views, mask)
        for i, row in enumerate(grid):
            for j, cell in enumerate(row):
                if mask[i, j]:
                    cell.program()
        _assert_matches(views, grid)

    def test_no_noise_matches_scalar_zero(self):
        """Every cell (``mask=...``) at zero noise: the target is the
        scalar's level + shift + 0.0, shaped ``(n_dies, n_cells)``."""
        grid = _scalar_grid(5, 2, 4, params=QUIET, n_pe=9_000)
        views = _views(grid)
        target = program_targets(views)
        assert target.shape == (2, 4)
        views.vth[...] = target
        for row in grid:
            for cell in row:
                cell.program()
        _assert_matches(views, grid, draws=False)

    def test_zero_sigma_draws_nothing(self):
        grid = _scalar_grid(6, 2, 4, params=QUIET)
        views = _views(grid)
        before = [_state(rng) for rng in views.rngs]
        program_targets(views, np.ones((2, 4), dtype=bool))
        assert [_state(rng) for rng in views.rngs] == before


class TestMajorityRead:
    @given(seed=seeds, n_reads=st.sampled_from([1, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_matches_1d_vote(self, seed, n_reads):
        """The vote equals reading every scalar cell once per pass, pass
        after pass (how AnalyzeSegment senses a segment N times)."""
        grid = _scalar_grid(seed, 3, 16)
        offsets = np.random.default_rng(seed).normal(0.0, 0.05, (3, 16))
        for row, row_offsets in zip(grid, offsets):
            for cell, offset in zip(row, row_offsets):
                cell.vth = PARAMS.cell.v_ref + offset
        views = _views(grid)
        out = majority_read(views, n_reads=n_reads)
        ones = np.zeros((3, 16), dtype=int)
        for _ in range(n_reads):
            for i, row in enumerate(grid):
                for j, cell in enumerate(row):
                    ones[i, j] += cell.read()
        assert out.dtype == np.uint8
        assert np.array_equal(out, (ones > n_reads // 2).astype(np.uint8))
        _assert_matches(views, grid)

    def test_noiseless_threshold(self):
        views = _uniform_views(2, QUIET, vth=0.0)
        views.vth[0] = [1.0, 9.0]
        out = majority_read(views, n_reads=1)
        assert out.dtype == np.uint8
        assert np.array_equal(out, [[1, 0]])

    def test_even_reads_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            majority_read(_uniform_views(2, QUIET, vth=1.0), n_reads=2)

    def test_zero_sigma_draws_nothing(self):
        views = _uniform_views(8, QUIET, vth=QUIET.cell.v_ref)
        before = _state(views.rngs[0])
        majority_read(views, n_reads=5)
        assert _state(views.rngs[0]) == before

    def test_read_noise_scale(self):
        """A cell one sigma above the reference reads erased with
        probability Phi(-1) ~ 0.1587 on a single read."""
        sigma = PARAMS.noise.read_sigma_v
        views = _uniform_views(
            200_000, PARAMS, vth=PARAMS.cell.v_ref + sigma
        )
        ones = majority_read(views, n_reads=1).mean()
        assert ones == pytest.approx(0.1587, abs=0.004)

    def test_read_disturb_creeps_to_programmed_level(self):
        disturb = PARAMS.with_overrides(
            noise=NoiseParams(read_disturb_v_per_read=0.01)
        )
        views = _uniform_views(2, disturb, vth=0.0)
        views.vth[0] = [3.0, 5.995]
        majority_read(views, n_reads=3)
        assert np.array_equal(views.vth, [[3.0 + 0.01 * 3, 6.0]])


class TestDrawOrder:
    def test_draw_shapes(self):
        """Each row draws from its own generator, once per operation,
        with the documented calls and shapes; a row with no charged
        cell draws nothing for the program."""
        grid = _scalar_grid(9, 2, 7)
        views = _views(grid)
        twins = [copy.deepcopy(rng) for rng in views.rngs]
        noise = PARAMS.noise
        mask = np.zeros((2, 7), dtype=bool)
        mask[0, [1, 4, 5]] = True
        erase_pulse(views, 30.0)
        program_targets(views, mask)
        majority_read(views, n_reads=3)
        for twin, k in zip(twins, (3, 0)):
            twin.lognormal(0.0, noise.erase_jitter_sigma, size=7)
            if k:
                twin.normal(0.0, noise.program_sigma_v, size=k)
            twin.normal(0.0, noise.read_sigma_v, size=(3, 7))
        assert [_state(r) for r in views.rngs] == [_state(r) for r in twins]


class TestWearMultiplier2D:
    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_rowwise_identity(self, seed):
        rng = np.random.default_rng(seed)
        n_eff = np.abs(rng.normal(2e4, 1e4, size=(3, 8)))
        sus = np.abs(rng.normal(1.0, 0.3, size=(3, 8)))
        out = tau_wear_multiplier(n_eff, sus, PARAMS.wear)
        for row in range(3):
            assert np.array_equal(
                out[row], tau_wear_multiplier(n_eff[row], sus[row], PARAMS.wear)
            )
