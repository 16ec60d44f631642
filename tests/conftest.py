"""Shared test chains.

Everything here is finite and small enough for the dense stationary oracle,
so truncation output can always be compared against ground truth.
"""

import numpy as np
import pytest
from hypothesis import settings

from stattrunc import exact_stationary_finite, matrix_chain
from stattrunc.chain import reward_values

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


def reflecting_walk_matrix(n: int, up: float) -> np.ndarray:
    """Birth-death walk on {0..n-1}: reflects at 0, sticks with prob `up` at n-1."""
    P = np.zeros((n, n))
    P[0, 1] = 1.0
    for x in range(1, n - 1):
        P[x, x + 1] = up
        P[x, x - 1] = 1.0 - up
    P[n - 1, n - 2] = 1.0 - up
    P[n - 1, n - 1] = up
    return P


def expected_g(certificate, targets: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """(sum_y P(x, y) g1(y), sum_y P(x, y) g2(y)) over one row's entries.

    The per-row reference for ``solver.expected_g_rows``: scalar sums, left
    to right in the order given.
    """
    g1 = reward_values(certificate.g1, targets, "g1")
    g2 = reward_values(certificate.g2, targets, "g2")
    acc1 = acc2 = 0.0
    for pr, g1y, g2y in zip(probs.tolist(), g1.tolist(), g2.tolist()):
        acc1 += pr * g1y
        acc2 += pr * g2y
    return acc1, acc2


def dirichlet_chain(seed: int, n: int, conc: float = 1.0):
    """Random dense irreducible chain plus its exact stationary vector."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.full(n, conc), size=n)
    chain = matrix_chain(P, description=f"dirichlet chain seed={seed} n={n}")
    return chain, P, exact_stationary_finite(chain, n)


# Five-state chain with repeatable outside excursions.  With A={0,1,2} and
# K={0,1}, state 4 is the only exit target and it re-enters K at 1, so a
# single cycle can make several escape rounds.  beta = delta = 4/7 exactly.
EXCURSION_P = np.zeros((5, 5))
EXCURSION_P[0, 1] = 1.0
EXCURSION_P[1, 0], EXCURSION_P[1, 2], EXCURSION_P[1, 4] = 0.4, 0.3, 0.3
EXCURSION_P[2, 1] = 1.0
EXCURSION_P[3, 0] = 1.0
EXCURSION_P[4, 1] = 1.0


@pytest.fixture(scope="session")
def two_state():
    """P(0,0)=P(0,1)=1/2, P(1,0)=1: pi = (2/3, 1/3), E_0 tau(0) = 3/2."""
    P = np.array([[0.5, 0.5], [1.0, 0.0]])
    chain = matrix_chain(P, description="two-state sanity chain")
    return {
        "P": P,
        "chain": chain,
        "pi": np.array([2.0 / 3.0, 1.0 / 3.0]),
        "r": lambda x: float(x == 1),
        "pir": 1.0 / 3.0,
    }


@pytest.fixture(scope="session")
def uniform4():
    """Doubly stochastic 4-state chain; stationary law is uniform."""
    P = np.array([
        [0.1, 0.4, 0.3, 0.2],
        [0.4, 0.1, 0.2, 0.3],
        [0.3, 0.2, 0.1, 0.4],
        [0.2, 0.3, 0.4, 0.1],
    ])
    return {"P": P, "chain": matrix_chain(P, description="doubly stochastic 4-state"),
            "pi": np.full(4, 0.25)}


@pytest.fixture(scope="session")
def excursion_chain():
    chain = matrix_chain(EXCURSION_P, description="multi-round excursion chain")
    return {"P": EXCURSION_P, "chain": chain,
            "pi": exact_stationary_finite(chain, 5),
            "A": [0, 1, 2], "K": [0, 1], "z": 0,
            "beta": 4.0 / 7.0, "delta": 4.0 / 7.0}


@pytest.fixture(scope="session")
def walk200():
    """200-state reflecting walk with mild downward drift (up 0.48)."""
    P = reflecting_walk_matrix(200, 0.48)
    chain = matrix_chain(P, description="200-state reflecting walk")
    return {"P": P, "chain": chain, "pi": exact_stationary_finite(chain, 200)}
