import dataclasses
import math

import numpy as np
import pytest

from oracles import coarsen_noise
from rbdsde.forward import flow_continuity_test, simulate_forward
from rbdsde.generators import builtin_problem
from rbdsde.paths import build_grid, sample_noise


class TestSimulate:
    def test_frozen_coefficients_identity(self, small_grid, small_noise):
        p = builtin_problem("lipschitz-linear")
        frozen = dataclasses.replace(
            p, diffusion=lambda x: np.zeros((len(x), 1, 1)))
        fwd = simulate_forward(frozen, 0.0, [0.7], small_noise)
        assert np.all(fwd.paths.values == 0.7)

    def test_brownian_identity(self, small_grid, small_noise):
        p = builtin_problem("lipschitz-linear")
        fwd = simulate_forward(p, 0.0, [0.0], small_noise)
        w = np.concatenate([np.zeros((small_noise.num_paths, 1, 1)),
                            np.cumsum(small_noise.w_increments, axis=1)], axis=1)
        assert np.array_equal(fwd.paths.values, w)

    def test_start_state_exact_and_frozen_before(self, small_noise):
        p = builtin_problem("lipschitz-linear")
        t = small_noise.grid.nodes[10]
        fwd = simulate_forward(p, t, [1.5], small_noise)
        assert np.all(fwd.paths.values[:, :11] == 1.5)
        assert fwd.start_index == 10

    def test_non_node_start_rejected(self, small_noise):
        p = builtin_problem("lipschitz-linear")
        with pytest.raises(ValueError):
            simulate_forward(p, 0.0123, [0.0], small_noise)

    def test_gbm_mean(self):
        p = builtin_problem("american-put-like", rate=0.1, vol=0.2, horizon=1.0)
        grid = build_grid(1.0, 100)
        noise = sample_noise(grid, 100_000, seed=42)
        fwd = simulate_forward(p, 0.0, [100.0], noise)
        x_t = fwd.paths.values[:, -1, 0]
        exact = 100.0 * math.exp(0.1)
        stderr = float(np.std(x_t)) / math.sqrt(len(x_t))
        assert abs(float(np.mean(x_t)) - exact) <= 3.0 * stderr


class TestFlow:
    def test_identical_starts(self, small_noise):
        p = builtin_problem("lipschitz-linear")
        rep = flow_continuity_test(p, (0.0, [0.0]), (0.0, [0.0]), 2, small_noise)
        assert np.all(rep.estimates == 0.0)
        assert rep.stable

    def test_spatial_shift_constant_coefficients(self, small_noise):
        # constant drift/diffusion translate exactly: the ratio is exactly 1
        p = builtin_problem("lipschitz-linear")
        rep = flow_continuity_test(p, (0.0, [0.0]), (0.0, [1.0]), 2, small_noise)
        assert np.allclose(rep.ratios, 1.0)
        assert rep.stable
        assert rep.slope == pytest.approx(2.0, abs=1e-6)

    def test_temporal_shift_scaling(self):
        p = builtin_problem("lipschitz-linear")
        grid = build_grid(1.0, 256)
        noise = sample_noise(grid, 20_000, seed=7)
        rep = flow_continuity_test(p, (0.0, [0.0]), (0.5, [0.0]), 4, noise)
        assert abs(rep.slope - 2.0) <= 0.15  # p/2 with p = 4

    def test_odd_p_rejected(self, small_noise):
        p = builtin_problem("lipschitz-linear")
        with pytest.raises(ValueError):
            flow_continuity_test(p, (0.0, [0.0]), (0.0, [1.0]), 3, small_noise)


class TestStrongOrder:
    def test_additive_noise_error_halves(self):
        # Lipschitz drift with unit diffusion: first-order strong error, so
        # doubling the step count halves the gap to the nested reference
        base = builtin_problem("lipschitz-linear")
        p = dataclasses.replace(base, drift=lambda x: np.sin(x))
        fine = sample_noise(build_grid(1.0, 1024), 20_000, seed=11)
        ref = simulate_forward(p, 0.0, [0.3], fine).paths.values[:, -1, 0]
        errs = {}
        for fac in (16, 8):
            coarse = coarsen_noise(fine, fac)
            x = simulate_forward(p, 0.0, [0.3], coarse).paths.values[:, -1, 0]
            errs[1024 // fac] = float(np.sqrt(np.mean((x - ref) ** 2)))
        ratio = errs[64] / errs[128]
        assert 1.6 <= ratio <= 2.4

    def test_multiplicative_noise_half_order_slope(self):
        p = builtin_problem("american-put-like", rate=0.05, vol=0.2, horizon=1.0)
        fine = sample_noise(build_grid(1.0, 1024), 20_000, seed=11)
        ref = simulate_forward(p, 0.0, [100.0], fine).paths.values[:, -1, 0]
        errs = {}
        for fac in (16, 8, 4):
            coarse = coarsen_noise(fine, fac)
            x = simulate_forward(p, 0.0, [100.0], coarse).paths.values[:, -1, 0]
            errs[1024 // fac] = float(np.sqrt(np.mean((x - ref) ** 2)))
        ns = sorted(errs)
        slope = -np.polyfit(np.log([float(n) for n in ns]),
                            np.log([errs[n] for n in ns]), 1)[0]
        assert 0.3 <= slope <= 0.7
