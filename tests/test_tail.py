"""A chain with a declared tail against the same chain without one.

The tail only changes how B is stored and read: the rows of the tail run
stay out of B's CSR part and every consumer adds them itself.  So each
system must hold the arrays the untailed chain gives, ``full_B`` its B,
and every report must be bit for bit the untailed chain's (0 ulp apart).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stattrunc import (
    ChainModel,
    LyapunovCertificate,
    SparseRow,
    TruncationProblem,
    assemble_truncated_system,
    gm1_certificate,
    gm1_chain,
    random_walk_certificate,
    random_walk_chain,
    run_pipeline,
    run_sweep,
)
from stattrunc.bounds import DegenerateDeltaError, PipelineError
from stattrunc.chain import Reward, one_step_fringe
from stattrunc.solver import prefix_system

from conftest import gm1_row_reference, stacked_rows

ARRAYS = ("Aprime", "nu", "p", "q", "r_vec", "h1", "h2", "A_full", "z", "P_zz", "r_z",
          "h1_z", "h2_z")


def walk_rows_all(xs):
    """Every row of the reflected walk, from its formula: up 1/3, down 2/3,
    and 0 -> 1."""
    targets = np.stack([xs - 1, xs + 1], axis=1)
    probs = np.tile([2.0 / 3.0, 1.0 / 3.0], (xs.size, 1))
    keep = np.ones(targets.shape, dtype=bool)
    keep[xs == 0, 0] = False
    probs[xs == 0, 1] = 1.0
    return np.concatenate(([0], np.cumsum(keep.sum(axis=1)))), targets[keep], probs[keep]


def builtin(model):
    """(tailed chain, the same chain without a tail, certificate, K, r)."""
    if model == "gm1":
        untailed = ChainModel(description="G/M/1 without a tail",
                              rows_fn=lambda xs: stacked_rows(gm1_row_reference, xs))
        return (gm1_chain(), untailed, gm1_certificate(), np.arange(201),
                Reward(lambda xs: xs.astype(np.float64)))
    untailed = ChainModel(description="walk without a tail", rows_fn=walk_rows_all)
    return (random_walk_chain(), untailed, random_walk_certificate(), np.arange(301),
            Reward(lambda xs: xs / 2.0))


def assert_same_system(tailed, untailed):
    for key in ARRAYS:
        got, want = np.asarray(getattr(tailed, key)), np.asarray(getattr(untailed, key))
        assert got.dtype == want.dtype and np.array_equal(got, want), key
    assert untailed.run.size == 0 and untailed.full_B().nnz == untailed.B.nnz
    full = tailed.full_B()
    for key in ("data", "indices", "indptr"):
        got, want = getattr(full, key), getattr(untailed.B, key)
        assert got.dtype == want.dtype and np.array_equal(got, want), key


@pytest.mark.parametrize("model,a", [("gm1", 1000), ("gm1", 10_000),
                                     ("walk", 1000), ("walk", 100_000)])
@pytest.mark.parametrize("top", ["a-1", "a"])
def test_tail_gives_the_untailed_system_and_report(model, a, top):
    chain, untailed, cert, K, r = builtin(model)
    A = np.arange(a + (top == "a"))
    problems = [TruncationProblem(chain=c, A=A, z=0, K=K, r=r) for c in (chain, untailed)]
    tailed_sys, plain_sys = (assemble_truncated_system(p, cert) for p in problems)
    assert_same_system(tailed_sys, plain_sys)
    # the run: every row from the first tail state whose row misses z = 0,
    # up to the last whose row stays in A, at positions one below the states
    first = max(chain.tail.x0, 1 - int(chain.tail.jumps[0]))
    assert (tailed_sys.run.start, tailed_sys.run.stop) == (first - 1, A.size - 2)
    assert tailed_sys.B.nnz == plain_sys.B.nnz - tailed_sys.run.nnz
    reports = [run_pipeline(p, cert) for p in problems]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("model,sizes", [("gm1", [1000, 10_000]), ("walk", [1000, 100_000])])
def test_sweep_rows_equal_the_untailed_pipeline(model, sizes):
    chain, untailed, cert, K, r = builtin(model)
    problems = [TruncationProblem(chain=chain, A=np.arange(a), z=0, K=K, r=r) for a in sizes]
    for a, (report, _) in zip(sizes, run_sweep(problems, cert)):
        want = run_pipeline(TruncationProblem(chain=untailed, A=np.arange(a), z=0, K=K, r=r),
                            cert)
        assert report == want, a


def outcome(problem, certificate):
    try:
        return repr(run_pipeline(problem, certificate))
    except (DegenerateDeltaError, PipelineError) as exc:
        return repr(exc)


@settings(max_examples=60)
@given(st.integers(0, 2**31 - 1), st.data())
def test_random_tails_give_the_untailed_systems_and_reports(seed, data):
    """Random tails (jumps within +-3), random head rows, and random prefix
    truncations A = {0..a-1} with z anywhere in the smallest: every system,
    its prefixes and every report, failures included, are the untailed
    chain's."""
    rng = np.random.default_rng(seed)
    jumps = np.array(sorted(data.draw(st.sets(st.integers(-3, 3), min_size=1, max_size=5))))
    probs = rng.dirichlet(np.ones(jumps.size))
    probs /= probs.sum()
    x0 = data.draw(st.integers(max(0, -int(jumps[0])), 12))
    heads = {}
    for x in range(x0):
        targets = np.unique(rng.integers(0, x0 + 4, size=rng.integers(1, 5)))
        heads[x] = SparseRow(targets, rng.dirichlet(np.ones(targets.size)))

    def row_of(x):
        return heads[x] if x < x0 else SparseRow(x + jumps, probs)

    tailed = ChainModel(description="random tail", tail=(x0, jumps, probs),
                        rows_fn=lambda xs: stacked_rows(row_of, xs))
    untailed = ChainModel(description="random rows", rows_fn=lambda xs: stacked_rows(row_of, xs))
    sizes = sorted(data.draw(st.sets(st.integers(2, 60), min_size=1, max_size=3)))
    z = data.draw(st.integers(0, sizes[0] - 1))
    K = sorted({z} | data.draw(st.sets(st.integers(0, sizes[0] - 1), max_size=2)))
    r = Reward(lambda xs: (xs % 5) * 0.75 + 0.5)
    cert = LyapunovCertificate(g1=Reward(lambda xs: 1.0 + xs.astype(np.float64) ** 2),
                               g2=Reward(lambda xs: 2.0 + xs.astype(np.float64)))
    problems = [[TruncationProblem(chain=c, A=np.arange(a), z=z, K=K, r=r) for a in sizes]
                for c in (tailed, untailed)]
    full = assemble_truncated_system(problems[0][-1], cert)
    for tailed_p, plain_p in zip(*problems):
        own = assemble_truncated_system(tailed_p, cert)
        plain = assemble_truncated_system(plain_p, cert)
        assert_same_system(own, plain)
        assert_same_system(prefix_system(full, tailed_p, cert), plain)
        assert outcome(tailed_p, cert) == outcome(plain_p, cert)
    swept = [repr(rep) for rep, _ in run_sweep(problems[0], cert)]
    assert swept == [outcome(p, cert) for p in problems[1]]


@pytest.mark.parametrize("model", ["gm1", "walk"])
def test_fringe_of_a_range_reads_only_the_head_rows(model, monkeypatch):
    """``one_step_fringe`` takes the fringe of a range's tail rows from the
    jumps: the same states as the untailed chain's, which reads every row,
    on ranges below, across and above x0, of one state or many, and on an
    A with a hole (which reads every row).  For a range no tail row is
    read."""
    tailed, untailed = builtin(model)[:2]
    x0 = tailed.tail.x0
    read = []
    rows = ChainModel.rows

    def counted(self, xs):
        if self is tailed:
            read.append(np.asarray(xs, dtype=np.int64).max(initial=-1))
        return rows(self, xs)

    monkeypatch.setattr(ChainModel, "rows", counted)
    ranges = [(0, 9999), (0, 49), (0, x0), (x0, 399), (max(x0 - 6, 0), 600), (300, 300),
              (5000, 5002), (1, 1), (0, 0)]
    for lo, hi in ranges:
        A = np.arange(lo, hi + 1)
        read.clear()
        assert np.array_equal(one_step_fringe(tailed, A), one_step_fringe(untailed, A)), (lo, hi)
        assert max(read, default=-1) < x0, (lo, hi)
    A = np.delete(np.arange(500), 250)
    assert np.array_equal(one_step_fringe(tailed, A), one_step_fringe(untailed, A))
