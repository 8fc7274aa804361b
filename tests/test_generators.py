import dataclasses
import math

import numpy as np
import pytest

from oracles import brute_force_envelope
from rbdsde.generators import (EnvelopeRangeError, GeneratorSpec, builtin_problem,
                               catalog_names, check_h4_witness, compile_expression,
                               envelope_property_check, expression_generator,
                               lipschitz_envelope, shifted_problem, validate_problem)
from rbdsde.modulus import lipschitz_modulus


def at(gen_f, t, y, z=0.0, x=0.0):
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    m = len(yv)
    return gen_f(t, np.full((m, 1), x), yv, np.full((m, 1), z))


class TestCatalog:
    def test_names(self):
        assert set(catalog_names()) == {"paper-1-4", "lipschitz-linear",
                                        "american-put-like", "log-modulus"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_problem("no-such-entry")

    def test_paper_entry_point_value(self):
        p = builtin_problem("paper-1-4", C=2.0, alpha=0.5, horizon=1.0)
        assert at(p.generators.f, 0.0, 0.0)[0] == pytest.approx(1.0)
        # z coefficients sqrt(C/2) and sqrt(alpha/2)
        assert at(p.generators.f, 0.0, 0.0, z=1.0)[0] == pytest.approx(2.0)
        g = p.generators.g(0.0, np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)))
        assert g[0, 0] == pytest.approx(1.0 + math.sqrt(0.25))

    def test_linear_entry_degenerate(self):
        p = builtin_problem("lipschitz-linear", a=0.0, b_coef=0.0)
        assert np.all(at(p.generators.f, 0.3, [0.0, 1.0, -2.0], z=3.0) == 0.0)

    def test_put_payoffs_match_at_terminal(self):
        p = builtin_problem("american-put-like")
        xs = np.linspace(60.0, 140.0, 33)[:, None]
        assert np.array_equal(p.obstacle(p.horizon, xs), p.terminal(xs))

    def test_problem_invariants_on_catalog(self):
        for name in catalog_names():
            rep = validate_problem(builtin_problem(name))
            assert rep.all_pass, f"{name}: {rep}"

    def test_h4_witness_on_catalog(self):
        for name in catalog_names():
            p = builtin_problem(name)
            rep = check_h4_witness(p.generators, p.horizon)
            assert rep.all_pass, f"{name}: {rep}"

    def test_paper_entry_z_free_variant(self):
        p = builtin_problem("paper-1-4", g_z_free=True)
        assert not p.generators.g_depends_on_z
        g = p.generators.g(0.0, np.zeros((2, 1)), np.zeros(2), np.ones((2, 1)))
        assert np.all(g == g[0])


class TestGeneratorSpec:
    @pytest.mark.parametrize("constants", [{"z_fraction": 1.0}, {"z_fraction": 0.0},
                                           {"z_lipschitz": 0.0}])
    def test_z_constants_checked(self, constants):
        with pytest.raises(ValueError):
            GeneratorSpec(f=lambda t, x, y, z: y, g=lambda t, x, y, z: np.zeros((len(y), 1)),
                          modulus=lipschitz_modulus(1.0), **constants)

    def test_envelope_generator_keeps_z_constants(self):
        p = builtin_problem("paper-1-4", C=3.0, alpha=0.25)
        gen = lipschitz_envelope(p.generators, 4, "lower", u_range=5.0).as_generator()
        assert (gen.z_lipschitz, gen.z_fraction) == (3.0, 0.25)
        assert gen.modulus == lipschitz_modulus(32.0)


class TestShifts:
    def test_terminal_shift(self):
        p = builtin_problem("lipschitz-linear")
        q = shifted_problem(p, "terminal", 1.0)
        xs = np.array([[0.3]])
        assert q.terminal(xs)[0] == pytest.approx(p.terminal(xs)[0] + 1.0)

    def test_obstacle_shift(self):
        p = builtin_problem("lipschitz-linear")
        q = shifted_problem(p, "obstacle", 0.5)
        xs = np.array([[0.3]])
        assert q.obstacle(0.1, xs)[0] == pytest.approx(p.obstacle(0.1, xs)[0] + 0.5)

    def test_generator_shift(self):
        p = builtin_problem("lipschitz-linear")
        q = shifted_problem(p, "generator", 0.25)
        assert at(q.generators.f, 0.0, 1.0)[0] == pytest.approx(
            at(p.generators.f, 0.0, 1.0)[0] + 0.25)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            shifted_problem(builtin_problem("lipschitz-linear"), "drift", 1.0)

    def test_obstacle_shift_requires_obstacle(self):
        p = builtin_problem("lipschitz-linear", with_obstacle=False)
        with pytest.raises(ValueError):
            shifted_problem(p, "obstacle", 0.5)


class TestEnvelope:
    def test_lower_equals_f_when_already_lipschitz(self):
        p = builtin_problem("lipschitz-linear", a=0.25, b_coef=0.0)
        env = lipschitz_envelope(p.generators, 2, "lower", u_range=8.0, u_step=1e-3)
        ys = np.arange(-3.0, 3.0 + 1e-12, 0.5)  # grid points of the u mesh
        m = len(ys)
        vals = env.evaluate(0.0, np.zeros((m, 1)), ys, np.zeros((m, 1)))
        assert np.max(np.abs(vals - 0.25 * ys)) < 1e-12

    def test_abs_profile_at_zero(self):
        base = GeneratorSpec(
            f=lambda t, x, y, z: np.abs(y),
            g=lambda t, x, y, z: np.zeros((len(y), 1)),
            modulus=lipschitz_modulus(2.0),
            f_y_profile=lambda y: np.abs(y),
            f_rest=lambda t, x, z: np.zeros(len(z)))
        env = lipschitz_envelope(base, 1, "lower", u_range=5.0, u_step=1e-3)
        val = env.evaluate(0.0, np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)))
        assert val[0] == 0.0

    def test_exponential_profile_vs_brute_force(self):
        p = builtin_problem("paper-1-4")
        env = lipschitz_envelope(p.generators, 2, "lower", u_range=50.0, u_step=1e-3)
        x = np.zeros((1, 1))
        z = np.zeros((1, 1))
        val = env.evaluate(0.0, x, np.array([1.0]), z)
        ref = brute_force_envelope(p.generators.f, 0.0, x, np.array([1.0]), z,
                                   env.u_nodes, 2, "lower")
        assert val[0] == pytest.approx(ref[0], abs=1e-12)

    def test_scan_route_matches_profile_route(self):
        p = builtin_problem("paper-1-4")
        scan_base = dataclasses.replace(p.generators, f_y_profile=None, f_rest=None)
        fast = lipschitz_envelope(p.generators, 4, "upper", u_range=5.0, u_step=1e-2)
        slow = lipschitz_envelope(scan_base, 4, "upper", u_range=5.0, u_step=1e-2)
        rng = np.random.default_rng(8)
        ys = rng.uniform(-3, 3, 40)
        xs = rng.normal(size=(40, 1))
        zs = rng.normal(size=(40, 1))
        a = fast.evaluate(0.2, xs, ys, zs)
        b = slow.evaluate(0.2, xs, ys, zs)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_grid_tol_uses_the_nominal_spacing(self):
        p = builtin_problem("paper-1-4")
        for u_range, u_step, n in ((20.0, 1e-3, 4), (50.0, 1e-3, 8), (6.0, 1e-2, 4)):
            env = lipschitz_envelope(p.generators, n, "lower", u_range=u_range, u_step=u_step)
            assert env.grid_tol == (n + 1) * (2 * u_range / (len(env.u_nodes) - 1))

    def test_range_error(self):
        p = builtin_problem("paper-1-4")
        env = lipschitz_envelope(p.generators, 2, "lower", u_range=2.0, u_step=1e-2)
        with pytest.raises(EnvelopeRangeError):
            env.evaluate(0.0, np.zeros((1, 1)), np.array([3.0]), np.zeros((1, 1)))

    def test_n_below_minimum(self):
        p = builtin_problem("paper-1-4")
        with pytest.raises(ValueError):
            lipschitz_envelope(p.generators, 0, "lower")

    def test_sandwich_and_monotone_on_samples(self, rng):
        p = builtin_problem("paper-1-4")
        ys = rng.uniform(-3.0, 3.0, 200)
        xs = rng.normal(size=(200, 1))
        zs = rng.normal(size=(200, 1))
        f_vals = p.generators.f(0.1, xs, ys, zs)
        prev_lo = None
        for n in (4, 8, 16):
            lo = lipschitz_envelope(p.generators, n, "lower", u_range=20.0, u_step=1e-3)
            up = lipschitz_envelope(p.generators, n, "upper", u_range=20.0, u_step=1e-3)
            lo_vals = lo.evaluate(0.1, xs, ys, zs)
            up_vals = up.evaluate(0.1, xs, ys, zs)
            assert np.all(lo_vals <= f_vals + lo.grid_tol)
            assert np.all(f_vals <= up_vals + up.grid_tol)
            if prev_lo is not None:
                assert np.all(prev_lo <= lo_vals + 2.0 * lo.grid_tol)
            prev_lo = lo_vals

    def test_property_report_all_pass(self):
        p = builtin_problem("paper-1-4")
        rep = envelope_property_check(p.generators, [4, 8], num_points=2000,
                                      u_range=20.0, u_step=1e-3)
        assert rep.all_pass
        assert rep.boundary_flagged == 0

    def test_property_check_builds_each_envelope_once(self, monkeypatch):
        built = []

        def counting(base, n, direction, **kwargs):
            built.append((n, direction))
            return lipschitz_envelope(base, n, direction, **kwargs)

        monkeypatch.setattr("rbdsde.generators.lipschitz_envelope", counting)
        p = builtin_problem("paper-1-4")
        envelope_property_check(p.generators, [4, 8, 16], num_points=200, u_range=10.0)
        assert sorted(built) == sorted((n, d) for n in (4, 8, 16) for d in ("lower", "upper"))

    def test_truncation_flagged_not_failed(self):
        # an unbounded-below profile drives the optimizer to the grid edge;
        # the report must flag range truncation instead of failing properties
        base = GeneratorSpec(
            f=lambda t, x, y, z: -y ** 2 / 3.0,
            g=lambda t, x, y, z: np.zeros((len(y), 1)),
            modulus=lipschitz_modulus(2.0),
            f_y_profile=lambda y: -y ** 2 / 3.0,
            f_rest=lambda t, x, z: np.zeros(len(z)))
        rep = envelope_property_check(base, [4, 8], num_points=500,
                                      u_range=8.0, u_step=1e-2)
        assert rep.boundary_flagged > 0
        assert rep.all_pass

    def test_as_generator_used_downstream(self):
        p = builtin_problem("paper-1-4")
        env = lipschitz_envelope(p.generators, 4, "lower", u_range=10.0, u_step=1e-3)
        gen = env.as_generator()
        ys = np.array([0.0, 0.5])
        out = gen.f(0.0, np.zeros((2, 1)), ys, np.zeros((2, 1)))
        ref = env.evaluate(0.0, np.zeros((2, 1)), ys, np.zeros((2, 1)))
        assert np.array_equal(out, ref)
        assert gen.g is p.generators.g


class TestExpressions:
    def test_arithmetic(self):
        f = compile_expression("2*y + x - z/2 + 1")
        out = f(0.0, np.array([[1.0]]), np.array([2.0]), np.array([[4.0]]))
        assert out[0] == pytest.approx(2 * 2 + 1 - 2 + 1)

    def test_functions_and_powers(self):
        f = compile_expression("exp(-abs(y)) + sqrt(x) + y**2")
        out = f(0.0, np.array([[4.0]]), np.array([-1.0]), np.zeros((1, 1)))
        assert out[0] == pytest.approx(math.exp(-1) + 2.0 + 1.0)

    def test_max_min(self):
        f = compile_expression("max(1 - x, 0) + min(y, 0)")
        out = f(0.0, np.array([[0.25], [2.0]]), np.array([-1.0, 3.0]), np.zeros((2, 1)))
        assert np.allclose(out, [0.75 - 1.0, 0.0])

    def test_constant_broadcasts(self):
        f = compile_expression("1.5")
        assert np.array_equal(f(0.0, np.zeros((3, 1)), np.zeros(3), np.zeros((3, 1))),
                              [1.5, 1.5, 1.5])

    def test_uses_z_flag(self):
        gen = expression_generator("y + z", "exp(-y)", lipschitz_modulus(2.0))
        assert not gen.g_depends_on_z
        gen2 = expression_generator("y", "z", lipschitz_modulus(2.0))
        assert gen2.g_depends_on_z

    def test_rejects_unknown_names_and_calls(self):
        with pytest.raises(ValueError):
            compile_expression("__import__('os')")
        with pytest.raises(ValueError):
            compile_expression("q + 1")
        with pytest.raises(ValueError):
            compile_expression("exp(y, 2)")

    @pytest.mark.parametrize("src", ["exp(y, k=z)", "max(x, y, key=q)"])
    def test_rejects_keyword_arguments(self, src):
        with pytest.raises(ValueError, match="keyword arguments"):
            compile_expression(src)

    def test_dim_guard(self):
        f = compile_expression("x")
        with pytest.raises(ValueError):
            f(0.0, np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)))
