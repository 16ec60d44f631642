"""Shared test chains.

Everything here is finite and small enough for the dense stationary oracle,
so truncation output can always be compared against ground truth.
"""

import numpy as np
import pytest
from hypothesis import settings

from stattrunc import ChainModel, SparseRow, exact_stationary_finite, matrix_chain
from stattrunc.chain import reward_values
from stattrunc.models import _beta_table

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


def gm1_row_reference(x: int, c: float = 2.01) -> SparseRow:
    """Per-state reference for the G/M/1 rows: one row from the beta table.

    P(x, y) = beta_{x+1-y} for 1 <= y <= x+1, and P(x, 0) is the tail
    sum_{i > x} beta_i, listed first when positive.  Zero entries dropped.
    """
    betas, tail = _beta_table(c)
    kmax = min(x, betas.size - 1)
    ys = np.arange(x + 1 - kmax, x + 2, dtype=np.int64)
    ps = betas[x + 1 - ys]
    p0 = tail[x + 1] if x + 1 < tail.size else 0.0
    if p0 > 0.0:
        ys = np.concatenate(([0], ys))
        ps = np.concatenate(([p0], ps))
    keep = ps > 0.0
    return SparseRow(ys[keep], ps[keep])


def walk_row_reference(x: int) -> SparseRow:
    """Per-state reference for the reflected walk: up 1/3, down 2/3, 0 -> 1."""
    if x == 0:
        return SparseRow(np.array([1]), np.array([1.0]))
    return SparseRow(np.array([x - 1, x + 1]), np.array([2.0 / 3.0, 1.0 / 3.0]))


def stacked_rows(row_of, xs):
    """CSR form ``(indptr, targets, probs)`` of ``row_of(x)`` for each x in xs."""
    rows = [row_of(int(x)) for x in xs]
    indptr = np.concatenate(([0], np.cumsum([r.targets.size for r in rows], dtype=np.int64)))
    return (indptr, np.concatenate([r.targets for r in rows] + [np.zeros(0, np.int64)]),
            np.concatenate([r.probs for r in rows] + [np.zeros(0)]))


#: one row of the reflected walk broken, by fault: (state, targets, probs)
BROKEN_WALK_ROWS = {
    "negative": (50, [49, 51, 52], [0.68, 0.33, -0.01]),
    "repeated": (0, [1, 1], [0.5, 0.5]),
    "nan": (50, [49, 51], [2.0 / 3.0, float("nan")]),
}


def broken_walk(fault: str, form: str) -> ChainModel:
    """The reflected walk with the row ``BROKEN_WALK_ROWS[fault]`` in place.

    ``form`` is ``"rows_fn"`` (a batch function) or ``"row_fn"`` (per state).
    """
    bad_x, targets, probs = BROKEN_WALK_ROWS[fault]

    def row_of(x):
        if x == bad_x:
            return SparseRow(np.array(targets), np.array(probs))
        return walk_row_reference(x)

    description = f"walk with a {fault} row at {bad_x}"
    if form == "row_fn":
        return ChainModel(row_fn=row_of, description=description)
    return ChainModel(rows_fn=lambda xs: stacked_rows(row_of, xs), description=description)


#: per-state formulas of the built-in drift functions (g1, g2), by model
CERT_REFERENCES = {
    "gm1": (lambda x: 300.0 * (float(x) * float(x)), lambda x: 300.0 * float(x)),
    "walk": (lambda x: float(x) * float(x), lambda x: float(x) * float(x)),
}

#: per-state formulas of the config rewards ``identity`` and ``half``
REWARD_REFERENCES = {"identity": lambda x: float(x), "half": lambda x: float(x) / 2.0}


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
