"""Independent reference implementations used only to cross-check the solver.

These deliberately take different numerical routes from the package code:
the binomial tree prices optimal stopping on a lattice, the plain backward
scheme below runs its regressions through an SVD least-squares solve, the
dense design matrix spells out every basis column, and the envelope oracle
scans the grid point by point.  Noise coarsening for refinement studies
lives here too, since only the tests refine a grid.  The package's
``NoiseEnsemble`` and ``TimeGrid`` are imported as containers only: no
package routine runs inside an oracle.
"""

import itertools

import numpy as np

from rbdsde.paths import NoiseEnsemble, TimeGrid


def binomial_american_put(spot, strike, rate, vol, horizon, steps=2000):
    """Cox-Ross-Rubinstein American put value."""
    dt = horizon / steps
    up = np.exp(vol * np.sqrt(dt))
    down = 1.0 / up
    q = (np.exp(rate * dt) - down) / (up - down)
    disc = np.exp(-rate * dt)
    values = np.maximum(strike - spot * up ** np.arange(steps, -1, -1)
                        * down ** np.arange(0, steps + 1), 0.0)
    for i in range(steps - 1, -1, -1):
        stock = spot * up ** np.arange(i, -1, -1) * down ** np.arange(0, i + 1)
        values = np.maximum(disc * (q * values[:-1] + (1 - q) * values[1:]),
                            np.maximum(strike - stock, 0.0))
    return float(values[0])


def coarsen_noise(ens, factor):
    """Aggregate increments onto a grid that is ``factor`` times coarser.

    The coarse ensemble realizes the same Brownian paths, which makes nested
    refinement studies (strong error, self-convergence) possible.
    """
    N = ens.grid.num_steps
    if factor < 1 or N % factor != 0:
        raise ValueError(f"factor {factor} must divide the step count {N}")
    grid = TimeGrid(ens.grid.nodes[::factor].copy())
    w = ens.w_increments.reshape(ens.num_paths, N // factor, factor, ens.d).sum(axis=2)
    b = ens.b_increments.reshape(N // factor, factor, ens.ell).sum(axis=1)
    return NoiseEnsemble(grid, w, b)


def _lstsq_fit(state, degree, values):
    # raw-moment design solved by SVD; independent of the package's
    # standardized normal-equation route
    cols = [state[:, 0] ** k for k in range(degree + 1)]
    phi = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(phi, values, rcond=None)
    return phi @ coef


def design_matrix(basis, state):
    """Dense design matrix of a regression basis at the sampled states, (M, K).

    The solver never forms it (binned bases are solved bin by bin); this is
    the reference for normal-equation cross-checks.  Bins follow the sample
    quantiles.
    """
    state = np.asarray(state, dtype=float)
    m, d = state.shape
    sd = state.std(axis=0)
    s = (state - state.mean(axis=0)) / np.where(sd > 0, sd, 1.0)
    powers = [p for p in itertools.product(range(basis.degree + 1), repeat=d)
              if sum(p) <= basis.degree]
    mono = np.column_stack([np.prod(s ** np.array(p), axis=1) for p in powers])
    if basis.kind == "polynomial":
        return mono
    ids = np.zeros(m, dtype=int)
    for j in range(d):
        edges = np.quantile(state[:, j], np.linspace(0.0, 1.0, basis.bins + 1)[1:-1])
        ids = ids * basis.bins + np.digitize(state[:, j], edges)
    local = np.ones((m, 1)) if basis.kind == "piecewise-constant" else mono
    return np.hstack([(ids == b)[:, None] * local for b in np.unique(ids)])


def plain_bsde_reference(problem, forward, noise, degree):
    """Textbook regression scheme for the unreflected equation with g = 0.

    Returns the Y values array (M, N+1).  Only valid for problems whose g
    vanishes and whose obstacle is absent; used to certify that the full
    solver's g and reflection branches are exactly inert in that regime.
    """
    grid = noise.grid
    xs = forward.paths.values
    dw = noise.w_increments
    dt = grid.dt
    m = noise.num_paths
    y = np.empty((m, grid.num_steps + 1))
    y[:, -1] = problem.terminal(xs[:, -1])
    gen = problem.generators
    for i in range(grid.num_steps - 1, -1, -1):
        state = xs[:, i]
        z = np.column_stack([
            _lstsq_fit(state, degree, y[:, i + 1] * dw[:, i, j]) / dt[i]
            for j in range(problem.dim)])
        f_i = gen.f(float(grid.nodes[i]), state, y[:, i + 1] * 0.0, z)
        y[:, i] = _lstsq_fit(state, degree, y[:, i + 1] + f_i * dt[i])
    return y


def implicit_linear_reference(problem, forward, noise, degree, a, b_coef):
    """Direct (non-Picard) solve for f = a y + b z with the y term implicit.

    Each step solves y_i (1 - a dt) = E[y_{i+1} + b z dt | X_i] in closed
    form, so no outer iteration is involved.
    """
    grid = noise.grid
    xs = forward.paths.values
    dw = noise.w_increments
    dt = grid.dt
    m = noise.num_paths
    y = np.empty((m, grid.num_steps + 1))
    y[:, -1] = problem.terminal(xs[:, -1])
    for i in range(grid.num_steps - 1, -1, -1):
        state = xs[:, i]
        z = _lstsq_fit(state, degree, y[:, i + 1] * dw[:, i, 0]) / dt[i]
        cont = _lstsq_fit(state, degree, y[:, i + 1] + b_coef * z * dt[i])
        y_i = cont / (1.0 - a * dt[i])
        if problem.obstacle is not None:
            y_i = np.maximum(y_i, problem.obstacle(float(grid.nodes[i]), state))
        y[:, i] = y_i
    return y


def linear_doubly_reference(a, b, c, grid, b_increments):
    """Discrete limit Y_0 of the scheme for f = a y + b z, g = c y, terminal
    X_T on a Brownian forward from 0, without an obstacle.

    With Y_i = alpha_i X_i + beta_i the regression is exact: Z_i = alpha_{i+1}
    and the implicit y term divides by 1 - a dt, so
    alpha_i = (1 + c dB_i) alpha_{i+1} / (1 - a dt) and
    beta_i = ((1 + c dB_i) beta_{i+1} + b alpha_{i+1} dt) / (1 - a dt),
    from alpha_N = 1, beta_N = 0.  Returns beta_0 = Y_0.  As the grid is
    refined it tends to b T e^{aT} exp(c B_T - c^2 T / 2).
    """
    db = np.ravel(b_increments)
    alpha, beta = 1.0, 0.0
    for i in range(grid.num_steps - 1, -1, -1):
        dt = grid.dt[i]
        alpha, beta = ((1.0 + c * db[i]) * alpha / (1.0 - a * dt),
                       ((1.0 + c * db[i]) * beta + b * alpha * dt) / (1.0 - a * dt))
    return float(beta)


def brute_force_envelope(f, t, x, y, z, u_nodes, n, direction):
    """Point-by-point scan of the envelope over the full u grid."""
    out = np.empty(len(y))
    for i in range(len(y)):
        xi = np.repeat(x[i:i + 1], len(u_nodes), axis=0)
        zi = np.repeat(z[i:i + 1], len(u_nodes), axis=0)
        vals = f(t, xi, u_nodes, zi)
        if direction == "lower":
            out[i] = np.min(vals + n * np.abs(y[i] - u_nodes))
        else:
            out[i] = np.max(vals - n * np.abs(y[i] - u_nodes))
    return out
