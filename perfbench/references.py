"""Independent references for the stationary expectation of each workload.

None of these share code with `stattrunc`: they are computed in decimal
arithmetic with `PRECISION` significant digits, so their own numerical
error is negligible next to double precision.

Each reference carries a band.  The walk's value 3/4 is exact and gets
none.  For the G/M/1 chain and the generated finite chain the band is the
resolution at which double-precision chain data fix the value: how far the
exact stationary expectation can move when every transition probability
moves by one unit roundoff.  A program that stores its chain in doubles
cannot be held to less, and at large a the program's interval collapses to
width 0 around a result that is correct only to that resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Sequence

PRECISION = 50
UNIT_ROUNDOFF = Decimal(2) ** -53


@dataclass(frozen=True)
class Reference:
    """True stationary expectation `value`, known to within `band`."""

    value: Decimal
    band: Decimal

    def contains(self, lower: float, upper: float) -> bool:
        """Whether [lower - band, upper + band] holds the value (exact comparison)."""
        if not (math.isfinite(lower) and math.isfinite(upper)):
            return False
        with localcontext() as ctx:
            ctx.prec = PRECISION
            return Decimal(lower) - self.band <= self.value <= Decimal(upper) + self.band


def walk_reference() -> Reference:
    """Reflected walk, up 1/3, down 2/3, r(x) = x/2: the mean is exactly 3/4."""
    return Reference(Decimal(3) / Decimal(4), Decimal(0))


def gm1_reference(c: float) -> Reference:
    """sigma/(1 - sigma) for the G/M/1 chain with uniform(0, c) interarrivals.

    sigma solves sigma = A*(1 - sigma) with A*(s) = (1 - e^{-cs})/(cs).  In
    u = 1 - sigma this is c * sum_k (-c u)^k / (k+2)! = 1, an alternating
    series with ratio ~c*u, evaluated without cancellation.

    Band: with F(s) = sum_i beta_i s^i - s, a relative change of one unit
    roundoff in every beta_i moves F(sigma) by at most u*sigma, hence sigma
    by u*sigma/|F'(sigma)| and the mean by that over (1 - sigma)^2; plus
    the bisection's last bracket, propagated the same way.
    """
    with localcontext() as ctx:
        ctx.prec = PRECISION
        C = Decimal(c)
        tiny = Decimal(10) ** -(PRECISION + 5)

        def g(u: Decimal) -> Decimal:
            term = total = Decimal(1) / 2
            k = 0
            while abs(term) > tiny:
                term *= -C * u / (k + 3)
                total += term
                k += 1
            return C * total - 1

        lo, hi = Decimal("1e-4"), Decimal("0.1")     # g decreasing, g(lo) > 0 > g(hi)
        for _ in range(200):
            mid = (lo + hi) / 2
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        u = (lo + hi) / 2
        sigma = 1 - u

        # A*'(s) = sum_{k>=1} k (-c)^k s^{k-1} / (k+1)!, and F'(sigma) = -A*'(u) - 1
        term = -C / 2       # k = 1
        d_astar = term
        k = 1
        while abs(term) > tiny:
            term *= -C * u * (k + 1) / (k * (k + 2))
            d_astar += term
            k += 1
        f_prime = -d_astar - 1
        band = (UNIT_ROUNDOFF * sigma / abs(f_prime) + (hi - lo)) / (u * u)
        return Reference(sigma / u, band)


def gth_stationary(rows: Sequence[tuple[Sequence[int], Sequence[float]]]) -> list[Decimal]:
    """Stationary vector of a finite irreducible chain by GTH elimination.

    Grassmann-Taksar-Heyman: eliminate states from the highest index down,
    taking each pivot as the sum of the remaining off-diagonal row mass, so
    no subtraction ever occurs.  Works on a sparse row map and keeps fill
    sparse (banded chains stay banded).  Call inside a decimal context.
    """
    n = len(rows)
    P: list[dict[int, Decimal]] = [dict() for _ in range(n)]
    into: list[set[int]] = [set() for _ in range(n)]     # into[j] = {i : P[i][j] > 0}
    for i, (targets, probs) in enumerate(rows):
        for j, p in zip(targets, probs):
            if j != i and p > 0.0:
                P[i][j] = Decimal(p)
                into[j].add(i)
    pivot = [Decimal(0)] * n
    for k in range(n - 1, 0, -1):
        below = {j: v for j, v in P[k].items() if j < k}
        pivot[k] = sum(below.values(), Decimal(0))
        if pivot[k] == 0:
            raise ValueError(f"state {k} cannot reach lower states; chain is reducible")
        for i in into[k]:
            if i >= k:
                continue
            f = P[i][k] / pivot[k]
            for j, v in below.items():
                if j != i:
                    P[i][j] = P[i].get(j, Decimal(0)) + f * v
                    into[j].add(i)
    pi = [Decimal(0)] * n
    pi[0] = Decimal(1)
    for k in range(1, n):
        pi[k] = sum((pi[i] * P[i][k] for i in into[k] if i < k), Decimal(0)) / pivot[k]
    total = sum(pi, Decimal(0))
    return [p / total for p in pi]


def gth_reference(rows, reward: Callable[[int], float]) -> Reference:
    """sum_x pi(x) r(x) for a finite chain given as (targets, probs) rows.

    Band: by the Markov chain tree theorem each pi(x) is a ratio of sums of
    products of n-1 off-diagonal probabilities, so a relative change of at
    most u in each probability changes every pi(x), and hence pi.r for
    r >= 0, by a factor within ((1+u)/(1-u))^{n-1}.  The decimal
    elimination adds at most ~n^2 roundings of 10^(1-PRECISION).
    """
    n = len(rows)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        pi = gth_stationary(rows)
        value = sum((p * Decimal(reward(x)) for x, p in enumerate(pi)), Decimal(0))
        u = UNIT_ROUNDOFF
        rel = ((1 + u) / (1 - u)) ** (n - 1) - 1 + n * n * Decimal(10) ** (1 - PRECISION)
        return Reference(value, rel * value)
