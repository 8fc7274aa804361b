import numpy as np
import pytest

from oracles import coarsen_noise
from rbdsde.paths import (NoiseEnsemble, ProcessSample, TimeGrid, build_grid, empirical_norm,
                          sample_noise)

# E sup_{[0,1]} |W|^2 from the fine-grid ensemble (N=4096, M=2e4, seed=555)
FINE_SUP_SQ = 1.838363189345244


def brownian_sample(grid, noise):
    m = noise.num_paths
    w = np.concatenate([np.zeros((m, 1, 1)), np.cumsum(noise.w_increments, axis=1)], axis=1)
    return ProcessSample(grid=grid, values=w)


class TestGrid:
    def test_two_point(self):
        g = build_grid(1.0, 1)
        assert np.array_equal(g.nodes, [0.0, 1.0])

    def test_uniform_spacing(self):
        g = build_grid(1.0, 4)
        assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(g.dt, 0.25)

    def test_degenerate_horizon(self):
        with pytest.raises(ValueError):
            build_grid(0.0, 4)
        with pytest.raises(ValueError):
            build_grid(1.0, 0)

    def test_index_of(self):
        g = build_grid(2.0, 8)
        assert g.index_of(0.5) == 2
        with pytest.raises(ValueError):
            g.index_of(0.3)

    def test_custom_mesh_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.7, 0.5]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.1, 0.5, 1.0]))

    def test_custom_mesh_derives_horizon_and_steps(self):
        g = TimeGrid(np.array([0.0, 0.1, 0.4, 1.5]))
        assert g.horizon == 1.5 and g.num_steps == 3
        assert np.allclose(g.dt, [0.1, 0.3, 1.1])

    def test_built_grid_derives_its_inputs(self):
        for T in (0.3, 0.5, 1.0, 7.0):
            for N in (1, 7, 50, 100):
                g = TimeGrid(build_grid(T, N).nodes)
                assert (g.horizon, g.num_steps) == (T, N)


class TestNoise:
    def test_same_seed_reproduces(self):
        g = build_grid(1.0, 20)
        a = sample_noise(g, 50, d=2, ell=1, seed=99)
        b = sample_noise(g, 50, d=2, ell=1, seed=99)
        assert np.array_equal(a.w_increments, b.w_increments)
        assert np.array_equal(a.b_increments, b.b_increments)

    def test_path_streams_independent_of_count(self):
        g = build_grid(1.0, 20)
        a = sample_noise(g, 10, seed=5)
        b = sample_noise(g, 40, seed=5)
        assert np.array_equal(a.w_increments, b.w_increments[:10])
        assert np.array_equal(a.b_increments, b.b_increments)

    def test_ensemble_from_arrays_derives_path_count(self):
        g = build_grid(0.5, 6)
        noise = sample_noise(g, 9, d=2, ell=3, seed=4)
        assert (noise.num_paths, noise.d, noise.ell) == (9, 2, 3)
        rebuilt = NoiseEnsemble(g, noise.w_increments, noise.b_increments)
        assert (rebuilt.num_paths, rebuilt.d, rebuilt.ell) == (9, 2, 3)
        coarse = coarsen_noise(noise, 3)
        assert coarse.num_paths == 9 and coarse.grid.horizon == 0.5
        with pytest.raises(ValueError):
            NoiseEnsemble(g, np.zeros((9, 5, 2)), noise.b_increments)

    @pytest.mark.parametrize("seed", [0, 99, -1, 2**63 + 5])
    def test_path_k_is_its_philox_stream(self, seed):
        g = build_grid(1.0, 12)
        m, n = 20, g.num_steps
        noise = sample_noise(g, m, d=2, seed=seed)
        for k in (0, 7, m - 1):
            bits = np.random.Philox(key=[seed & (2**64 - 1), k])
            ref = np.random.Generator(bits).standard_normal((n, 2)) * np.sqrt(g.dt)[:, None]
            assert np.array_equal(noise.w_increments[k], ref)

    def test_b_streams_differ(self):
        g = build_grid(1.0, 20)
        a = sample_noise(g, 5, seed=5, b_stream=0)
        b = sample_noise(g, 5, seed=5, b_stream=1)
        assert np.array_equal(a.w_increments, b.w_increments)
        assert not np.array_equal(a.b_increments, b.b_increments)

    def test_moments(self):
        g = build_grid(1.0, 10)
        ens = sample_noise(g, 10_000, seed=11)
        dt = 0.1
        means = np.mean(ens.w_increments[:, :, 0], axis=0)
        assert np.all(np.abs(means) <= 5.0 * np.sqrt(dt / 10_000))
        var = np.var(ens.w_increments[:, :, 0], axis=0)
        assert np.all(np.abs(var - dt) <= 5.0 * dt * np.sqrt(2.0 / (10_000 - 1)))

    def test_per_step_variance_five_percent(self):
        # chi-square spread at M = 1e5 is ~0.45%, far inside the 5% band
        g = build_grid(1.0, 100)
        ens = sample_noise(g, 100_000, seed=777)
        var = np.var(ens.w_increments[:, :, 0], axis=0)
        assert np.max(np.abs(var / g.dt - 1.0)) < 0.05

    def test_w_b_uncorrelated(self):
        g = build_grid(1.0, 100)
        ens = sample_noise(g, 100_000, seed=777)
        prod = ens.w_increments[:, :, 0] * ens.b_increments[None, :, 0]
        corr = np.mean(prod) / (np.std(ens.w_increments) * np.std(ens.b_increments))
        assert abs(corr) < 5.0 / np.sqrt(100_000 * 100)

    def test_argument_validation(self):
        g = build_grid(1.0, 4)
        with pytest.raises(ValueError):
            sample_noise(g, 0)
        with pytest.raises(ValueError):
            sample_noise(g, 5, d=0)

    def test_coarsen(self):
        g = build_grid(1.0, 16)
        ens = sample_noise(g, 7, d=2, ell=1, seed=42)
        coarse = coarsen_noise(ens, 4)
        assert coarse.grid.num_steps == 4
        assert np.allclose(coarse.w_increments.sum(axis=1), ens.w_increments.sum(axis=1))
        assert np.allclose(coarse.b_path()[-1], ens.b_path()[-1])
        with pytest.raises(ValueError):
            coarsen_noise(ens, 3)


class TestNorms:
    def test_constant_process(self, small_grid):
        vals = np.full((5, small_grid.num_steps + 1, 1), 3.0)
        p = ProcessSample(grid=small_grid, values=vals)
        assert empirical_norm(p, "S2") == pytest.approx(9.0)
        assert empirical_norm(p, "M2") == pytest.approx(9.0 * small_grid.horizon)
        assert empirical_norm(p, "A2") == pytest.approx(9.0)

    def test_zero_process(self, small_grid):
        p = ProcessSample(grid=small_grid,
                          values=np.zeros((4, small_grid.num_steps + 1, 2)))
        for kind in ("S2", "M2", "A2"):
            assert empirical_norm(p, kind) == 0.0

    def test_brownian_sup_against_fine_oracle(self):
        g = build_grid(1.0, 256)
        noise = sample_noise(g, 20_000, seed=556)
        p = brownian_sample(g, noise)
        # coarse discrete sup is biased low by O(sqrt(dt)); 6% covers it at N=256
        assert empirical_norm(p, "S2") == pytest.approx(FINE_SUP_SQ, rel=0.06)

    def test_unknown_kind(self, small_grid):
        p = ProcessSample(grid=small_grid,
                          values=np.zeros((1, small_grid.num_steps + 1, 1)))
        with pytest.raises(ValueError):
            empirical_norm(p, "L7")

