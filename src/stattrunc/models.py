"""Benchmark chains and their Lyapunov certificates.

Two built-in models are provided:

* ``gm1_chain`` -- the embedded G/M/1 queue-length chain seen by arrivals.
  Downward jumps are governed by the number of unit-rate exponential
  services completed during one interarrival time, which is uniform on
  (0, c).  The jump coefficients are

      beta_i = integral_0^c exp(-t) t^i / (c i!) dt
             = P(Poisson(c) >= i + 1) / c,

  i.e. a regularized lower incomplete gamma evaluation.  The row of state
  x is P(x, y) = beta_{x+1-y} for 1 <= y <= x+1 and P(x, 0) = sum of the
  remaining coefficient tail, so every row sums to one by construction.

* ``random_walk_chain`` -- reflected walk on {0, 1, ...}: from x >= 1 it
  moves up with probability 1/3 and down with probability 2/3; state 0
  moves to 1 with probability one.

Arbitrary finite chains can be loaded from a plain-text coordinate file
via ``load_chain_from_file``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainModel, Reward, RewardFn, RowBatch, csr_chain


class ChainFileError(ValueError):
    """Raised for malformed or inconsistent chain files."""


@dataclass(frozen=True)
class Gm1Params:
    """Parameters of the embedded G/M/1 chain.

    ``c`` is the endpoint of the uniform interarrival support (2.01 in the
    benchmark configuration).  The chain tabulates the beta coefficients
    until they underflow to zero, so rows are exact for every state.
    """

    c: float = 2.01

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("interarrival endpoint c must be positive")


@dataclass(frozen=True)
class LyapunovCertificate:
    """Drift functions g1, g2 (finite and non-negative).

    ``g1`` controls reward accumulated on excursions outside K, ``g2``
    excursion length.  Each is a function of states like the reward: a
    plain callable or a ``Reward``, evaluated through ``reward_values``.
    The exit bounds h_i(x) = sum_{y not in A} P(x, y) g_i(y) are computed
    exactly from the finite-support rows during system assembly.
    """

    g1: RewardFn | Reward
    g2: RewardFn | Reward


@lru_cache(maxsize=8)
def _beta_table(c: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients beta_i until underflow, plus tail sums.

    Returns ``(betas, tail)`` where ``tail[k] = sum_{i >= k} betas[i]``;
    ``tail[x + 1]`` is the exact mass P(x, 0) of a row (the analytic tail
    beyond the underflow point is below the double-precision floor, so
    dropping it leaves row sums within ~1e-14 of one).  ``scipy.special``
    is imported here, so only a G/M/1 chain loads it.
    """
    from scipy import special

    n = 64
    while True:
        i = np.arange(n)
        betas = special.gammainc(i + 1.0, c) / c
        if betas[-1] == 0.0:
            break
        n *= 2
    cut = int(np.nonzero(betas)[0][-1]) + 1
    betas = betas[:cut]
    tail = np.zeros(cut + 1)
    tail[:cut] = np.cumsum(betas[::-1])[::-1]
    return betas, tail


def gm1_beta_coeffs(params: Gm1Params) -> np.ndarray:
    """Downward-jump coefficients of the G/M/1 chain, up to their underflow.

    Evaluated through the regularized incomplete gamma function, which is
    stable for all i (the naive 1 - exp(-c) * sum_k c^k/k! form cancels
    catastrophically once the partial sum approaches exp(c)).  The
    returned array is a copy of the table the chain's rows use; the
    coefficients are checked where they are used, as entries of those
    rows, by ``ChainModel.rows``.
    """
    return _beta_table(params.c)[0].copy()


def gm1_rows(xs: np.ndarray, params: Gm1Params = Gm1Params()) -> RowBatch:
    """Rows of the embedded G/M/1 chain at the states ``xs``, in CSR form.

    Row x holds the coefficient tail ``tail[x+1]`` = sum_{i > x} beta_i
    at y = 0 first (when positive; accumulated directly, never as 1 -
    partial sum, so it is non-negative by construction), then the
    Toeplitz band beta_{x+1-y} for y = x+1-kmax, ..., x+1.

    From x = nb - 1 on (nb coefficients) the tail is 0 and every row is
    the whole band, beta_{nb-1}, ..., beta_0 at y = x+2-nb, ..., x+1, so a
    batch of such states is one broadcast.
    """
    betas, tail = _beta_table(params.c)
    nb = betas.size
    if xs.size and xs.min() >= nb - 1:
        targets = (xs[:, None] + np.arange(2 - nb, 2)).ravel()
        probs = np.tile(betas[::-1], xs.size)
        return np.arange(0, (xs.size + 1) * nb, nb, dtype=np.int64), targets, probs
    kmax = np.minimum(xs, nb - 1)
    p0 = tail[np.minimum(xs + 1, tail.size - 1)]   # tail[-1] == 0
    has0 = (p0 > 0.0).astype(np.int64)
    band = kmax + 1
    n_row = band + has0
    indptr = np.zeros(xs.size + 1, dtype=np.int64)
    np.cumsum(n_row, out=indptr[1:])
    targets = np.zeros(indptr[-1], dtype=np.int64)
    probs = p0[np.repeat(np.arange(xs.size), n_row)]
    # every entry starts as its row's tail mass and the band overwrites all
    # but the leading y = 0 one; band entry j of a row is y = x+1-kmax+j
    # with coefficient index kmax-j
    row = np.repeat(np.arange(xs.size), band)
    j = np.arange(row.size) - np.repeat(np.cumsum(band) - band, band)
    pos = indptr[:-1][row] + has0[row] + j
    targets[pos] = xs[row] + 1 - kmax[row] + j
    probs[pos] = betas[kmax[row] - j]
    return indptr, targets, probs


def gm1_chain(params: Gm1Params = Gm1Params()) -> ChainModel:
    """The embedded G/M/1 chain on {0, 1, 2, ...}.

    Its beta table is computed here, so building the chain is its set-up.
    """
    _beta_table(params.c)
    return ChainModel(
        description=f"G/M/1 embedded chain, uniform interarrival on (0, {params.c})",
        rows_fn=lambda xs: gm1_rows(xs, params),
    )


def _squares(xs: np.ndarray) -> np.ndarray:
    x = xs.astype(np.float64)
    return x * x


def gm1_certificate() -> LyapunovCertificate:
    """Quadratic/linear Lyapunov pair for the G/M/1 chain.

    g1(x) = 300 x^2 and g2(x) = 300 x.  On A = {0..a} only x = a escapes
    in one step (to a+1, mass beta_0), so the exact exit bounds are
    300 * beta_0 * (a+1)^(3-i) at x = a and zero elsewhere: the magnitudes
    reported for the published sweep.
    """
    return LyapunovCertificate(g1=Reward(lambda xs: 300.0 * _squares(xs)),
                               g2=Reward(lambda xs: 300.0 * xs.astype(np.float64)))


def random_walk_rows(xs: np.ndarray) -> RowBatch:
    """Rows of the reflected random walk at the states ``xs``, in CSR form.

    Up 1/3 and down 2/3; state 0 moves to 1 with probability one.
    """
    at0 = xs == 0
    targets = np.stack([xs - 1, xs + 1], axis=1)
    probs = np.tile([2.0 / 3.0, 1.0 / 3.0], (xs.size, 1))
    probs[at0, 1] = 1.0
    keep = np.ones(targets.shape, dtype=bool)
    keep[at0, 0] = False
    indptr = np.zeros(xs.size + 1, dtype=np.int64)
    np.cumsum(2 - at0, out=indptr[1:])
    return indptr, targets[keep], probs[keep]


def random_walk_chain() -> ChainModel:
    """Reflected random walk on {0, 1, 2, ...} with downward drift."""
    return ChainModel(description="reflected random walk, up 1/3 / down 2/3",
                      rows_fn=random_walk_rows)


def random_walk_certificate() -> LyapunovCertificate:
    """Quadratic Lyapunov pair g1 = g2 = x^2 for the random walk.

    On A = {0..a} only x = a escapes in one step (to a+1 with probability
    1/3), so the exact exit bounds are (a+1)^2 / 3 at x = a and zero
    elsewhere.
    """
    g = Reward(_squares)
    return LyapunovCertificate(g1=g, g2=g)


def load_chain_from_file(path) -> ChainModel:
    """Load a finite chain from a coordinate-format text file.

    Format: optional comment lines starting with '#', one header line
    ``states N``, then one ``src dst prob`` triple per line (whitespace
    separated).  A missing or unreadable file, a malformed line, an index
    outside the declared dimension and a probability outside (0, 1] raise
    ``ChainFileError``, and so does a row that breaks the row contract of
    ``ChainModel`` (``ChainModel.rows`` checks every row once, on load): an
    empty row, a repeated (src, dst) pair, or a row whose sum is off by
    more than ``chain.ROW_SUM_TOL``.
    """
    n = None
    triples: list[tuple[int, int, float]] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ChainFileError(f"cannot read chain file {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 2 or parts[0].lower() != "states":
                    raise ChainFileError(f"{path}:{lineno}: expected header 'states N'")
                try:
                    n = int(parts[1])
                except ValueError as exc:
                    raise ChainFileError(f"{path}:{lineno}: bad state count {parts[1]!r}") from exc
                if n <= 0:
                    raise ChainFileError(f"{path}:{lineno}: state count must be positive")
                continue
            if len(parts) != 3:
                raise ChainFileError(f"{path}:{lineno}: expected 'src dst prob', got {line!r}")
            try:
                src, dst, prob = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ChainFileError(f"{path}:{lineno}: unparsable entry {line!r}") from exc
            if not (0 <= src < n and 0 <= dst < n):
                raise ChainFileError(
                    f"{path}:{lineno}: state outside declared dimension {n}: {line!r}")
            if not 0.0 < prob <= 1.0:
                raise ChainFileError(f"{path}:{lineno}: probability must be in (0, 1]: {line!r}")
            triples.append((src, dst, prob))
    if n is None:
        raise ChainFileError(f"{path}: missing 'states N' header")

    src, dst, prob = (np.array([t[k] for t in triples], dtype=dtype)
                      for k, dtype in enumerate((np.int64, np.int64, np.float64)))
    order = np.lexsort((dst, src))
    src, dst, prob = src[order], dst[order], prob[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    chain = csr_chain(indptr, dst, prob, description=f"file chain ({path})")
    try:
        chain.rows(np.arange(n))
    except ValueError as exc:
        raise ChainFileError(f"{path}: {exc}") from exc
    return chain
