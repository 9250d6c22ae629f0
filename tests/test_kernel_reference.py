"""The complex step of ``evolve_ensemble`` against its real quaternion
reference, and a realization's independence of the width of its block."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulselab import build_time_grid, evolve_ensemble, harness
from pulselab.propagator import P_SERIES_MAX
from reference import evolve_quaternions

NAMES = ["RECT", "CORPSE", "SCORPSE", "CLASS2ND", "SYM2ND", "ASYM2ND"]


class TestAgainstQuaternionReference:
    # columns of one block at scales 10^-9 to 10^2: the small ones take the
    # p-series on every step, the large ones the exact branch on some or all
    @given(name=st.sampled_from(NAMES), tau_p=st.floats(1e-3, 3.0),
           n_steps=st.integers(6, 300),
           log_scales=st.lists(st.floats(-9.0, 2.0), min_size=1, max_size=17),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_within_round_off(self, catalog, name, tau_p, n_steps,
                                      log_scales, seed):
        p = catalog[name].with_duration(tau_p)
        grid = build_time_grid(p, n_steps)
        block = (10.0 ** np.array(log_scales)
                 * np.random.default_rng(seed).normal(size=(grid.n_steps, len(log_scales))))
        got = evolve_ensemble(p, grid, block)
        want = evolve_quaternions(p, grid, block)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_both_branches_are_reached(self, catalog):
        # at the strategy's ends, one block holds a column on the p-series at
        # every step and a column on the exact branch at every step
        p = catalog["CORPSE"].with_duration(1.0)
        grid = build_time_grid(p, 300)
        eta = np.array([1e-9, 100.0])
        phases = (eta**2 + p.amplitudes_on(grid.midpoints)[:, None] ** 2) * (
            grid.widths**2)[:, None]
        assert (phases[:, 0] <= P_SERIES_MAX).all()
        assert (phases[:, 1] > P_SERIES_MAX).all()


class TestColumnAlone:
    @pytest.mark.parametrize("width", range(1, 18))
    def test_column_alone_equals_its_block_column(self, catalog, width):
        # each lone column is a one-element block, where an in-place complex
        # product would take numpy's scalar path and round differently from
        # the vector loop that the wider block takes
        p = catalog["CORPSE"].with_duration(0.5)
        grid = build_time_grid(p, 64)
        rng = np.random.default_rng(width)
        # every other column is large enough to take the exact branch
        block = rng.normal(size=(grid.n_steps, width)) * np.where(
            np.arange(width) % 2, 30.0, 0.3)
        whole = evolve_ensemble(p, grid, block)
        for k in range(width):
            alone = evolve_ensemble(p, grid, block[:, k:k + 1])
            assert all(np.array_equal(a[0], b[k]) for a, b in zip(alone, whole))

    @pytest.mark.parametrize("width", [1, 2, 5, 17])
    def test_chunk_group_column_equals_its_column_alone(self, catalog, width):
        # a group as harness._draws yields it: three chunks and a one-column
        # remainder side by side, read row by row from tiles of uneven height
        p = catalog["SYM2ND"].with_duration(0.5)
        grid = build_time_grid(p, 64)
        block = 0.5 * np.random.default_rng(width).normal(size=(grid.n_steps, 3 * width + 1))
        group = evolve_ensemble(p, grid, harness._Rows(block.shape,
                                                       iter(np.array_split(block, 3))))
        for k in range(block.shape[1]):
            alone = evolve_ensemble(p, grid, block[:, k:k + 1])
            assert all(np.array_equal(a[0], b[k]) for a, b in zip(alone, group))
