"""Shared test helpers: independent oracles kept deliberately dumb."""

import numpy as np
import pytest

from elastica.assembly import (ElasticityProblem, _sine_factor,
                               _sine_matrix, _stencils_1d, class_orbits,
                               sine_transform)

#: α values of the random small boxes
BOX_ALPHAS = (0.0, 0.5, 2.0, 10.0, 100.0)
#: largest order of a random small box at double resolution, so the dense
#: oracle fits both Richardson meshes
BOX_MAX_ORDER = 1600


def dense_generalized_eigs(K, M):
    """All eigenvalues of K x = s M x by Cholesky reduction, ascending.

    Independent of the package solvers: numpy dense factorisations only.
    """
    K = K.to_dense() if hasattr(K, "to_dense") else np.asarray(K)
    M = M.to_dense() if hasattr(M, "to_dense") else np.asarray(M)
    L = np.linalg.cholesky(M)
    Y = np.linalg.solve(L, K)
    B = np.linalg.solve(L, Y.T).T
    return np.linalg.eigvalsh(0.5 * (B + B.T))


def nodal_vectors(problem, result):
    """The nodal eigenvectors of a ``solve_problem`` result: each column
    carried onto its class, then out of class-major sine coordinates."""
    X = class_orbits(problem).expand(result.vectors, result.classes)
    return sine_transform(problem, X, inverse=True)


def sine_factors(problem):
    """Each axis's 1D factors in the sine basis, the table that
    ``box_operators`` builds, for tests that lay terms out with
    ``assembly._operator`` themselves (on every parity class, or with the
    mass added)."""
    table = []
    for n, h in zip(problem.interior, problem.spacings):
        S = _sine_matrix(n)
        table.append({kind: _sine_factor(S, *stencil)
                      for kind, stencil in _stencils_1d(h).items()})
    return table


def random_small_box(rng, max_cells):
    """(problem, m, seed) of one random box drawn from ``rng``.

    2D or 3D, edges in [0.3, 3.5], 2 to ``max_cells`` cells per axis, α
    from BOX_ALPHAS, m from 1 to min(order/4, 16) and a solver seed.  A
    box whose order at double resolution exceeds BOX_MAX_ORDER is drawn
    again.
    """
    while True:
        dim = int(rng.integers(2, 4))
        cells = tuple(int(c) for c in rng.integers(2, max_cells + 1, dim))
        edges = tuple(float(e) for e in rng.uniform(0.3, 3.5, dim))
        alpha = float(rng.choice(BOX_ALPHAS))
        order = dim * int(np.prod([c - 1 for c in cells]))
        fine = dim * int(np.prod([2 * c - 1 for c in cells]))
        if order >= 4 and fine <= BOX_MAX_ORDER:
            m = int(rng.integers(1, min(order // 4, 16) + 1))
            return (ElasticityProblem(edges, alpha, cells), m,
                    int(rng.integers(2 ** 31)))


def bisect(f, lo, hi, iters=200):
    """Plain bisection for oracle root-finding; assumes a sign change."""
    flo = f(lo)
    assert flo * f(hi) < 0, "no sign change"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
