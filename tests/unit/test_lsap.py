"""The in-repo assignment solver against SciPy and brute force.

RTL embedding breaks ties the way ``scipy.optimize.linear_sum_assignment``
does, so the port must return SciPy's exact ``(rows, cols)`` — not just
an optimal assignment — on the tie-heavy integer-plus-0.01 scores the
embedder builds.  SciPy is a test-only reference.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.rtl.embedding import linear_sum_assignment


def _tie_heavy(rng: random.Random, nr: int, nc: int) -> list[list[float]]:
    """Negated integer+0.01 scores, as ``_match_class`` hands them over."""
    hi = rng.choice((0, 1, 2, 3, 8))
    return [[-(rng.randint(0, hi) + 0.01) for _ in range(nc)] for _ in range(nr)]


def _cases():
    rng = random.Random(20261017)
    for _ in range(6000):
        yield _tie_heavy(rng, rng.randint(1, 12), rng.randint(1, 12))
    for nr, nc in itertools.product((1, 3, 7, 12), repeat=2):
        yield [[-1.01] * nc for _ in range(nr)]
        yield [[0.0] * nc for _ in range(nr)]


def test_matches_scipy_exactly():
    np = pytest.importorskip("numpy")
    scipy_optimize = pytest.importorskip("scipy.optimize")
    for cost in _cases():
        rows, cols = scipy_optimize.linear_sum_assignment(np.array(cost))
        assert linear_sum_assignment(cost) == (rows.tolist(), cols.tolist()), cost


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (3, 0)])
def test_empty_matrices(shape):
    nr, nc = shape
    assert linear_sum_assignment([[0.0] * nc for _ in range(nr)]) == ([], [])
    np = pytest.importorskip("numpy")
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rows, cols = scipy_optimize.linear_sum_assignment(np.zeros(shape))
    assert (rows.tolist(), cols.tolist()) == ([], [])


def test_optimal_against_brute_force():
    rng = random.Random(7)
    for _ in range(400):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        cost = [[rng.choice((-3.01, -2.01, -1.01, -0.01, 0.5, 4.0)) for _ in range(nc)]
                for _ in range(nr)]
        rows, cols = linear_sum_assignment(cost)
        k = min(nr, nc)
        assert len(rows) == len(cols) == k
        assert rows == sorted(rows)
        assert len(set(rows)) == len(set(cols)) == k
        got = sum(cost[r][c] for r, c in zip(rows, cols))
        if nr <= nc:
            best = min(
                sum(cost[r][c] for r, c in enumerate(perm))
                for perm in itertools.permutations(range(nc), nr)
            )
        else:
            best = min(
                sum(cost[r][c] for c, r in enumerate(perm))
                for perm in itertools.permutations(range(nr), nc)
            )
        assert got == pytest.approx(best, abs=1e-9)
