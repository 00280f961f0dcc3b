import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import strategies as st

from spmvsim import CollectiveEngine, CsrMatrix, DenseVector, reference_fixture

# non-integer floats, so a wrong placement or order cannot hide behind
# exactly representable integers
NON_INTEGER = st.floats(-1e3, 1e3, allow_nan=False).filter(
    lambda v: not v.is_integer())


@st.composite
def csr_matrices(draw, canonical, values=NON_INTEGER):
    """Small sequential matrices; rows may be empty. If canonical, each
    row's columns strictly increase, as validate_csr requires; otherwise a
    row may store its columns in any order and repeat one."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 6))
    cols = st.lists(st.integers(0, n - 1), unique=canonical,
                    max_size=n if canonical else n + 2)
    if canonical:
        cols = cols.map(sorted)
    rows = [draw(cols) for _ in range(m)]
    col_idx = [j for row in rows for j in row]
    values = draw(st.lists(values, min_size=len(col_idx),
                           max_size=len(col_idx)))
    row_ptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    return CsrMatrix.sequential(row_ptr.astype(np.int64), col_idx, values, n=n)


def order_sensitive_row(n, seed):
    """One full canonical row of n entries, with values whose sum depends
    on the order they are added in."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    return (CsrMatrix.sequential([0, n], np.arange(n), values, n=n),
            DenseVector.sequential(rng.normal(size=n)))


def spmv_by_row_loop(mat, x):
    """One Python add per stored entry, each row from 0.0 in storage order:
    the reference spmv_seq must equal bit for bit."""
    rp = mat.row_ptr.tolist()
    cj = mat.col_idx.tolist()
    av = mat.values.tolist()
    xs = x.values.tolist()
    out = np.zeros(mat.m, dtype=np.float64)
    for i in range(mat.m):
        acc = 0.0
        for p in range(rp[i], rp[i + 1]):
            acc += av[p] * xs[cj[p]]
        out[i] = acc
    return out


def two_products(a, b):
    """Each product a[i] * b[i] as p[i] + e[i] exactly, p the rounded
    product: Dekker's TwoProduct over Veltkamp's split, vectorised. Exact
    while no product, split part or error term overflows or underflows."""
    p = a * b
    (ah, al), (bh, bl) = _veltkamp_split(a), _veltkamp_split(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _veltkamp_split(a):
    """a as hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def spmv_exact(mat, x):
    """Each row of the real-number product A x rounded once to nearest:
    math.fsum of the row's exact products, given as their p and e parts,
    within the scope of two_products."""
    p, e = two_products(mat.values, x.values[mat.col_idx])
    rp = mat.row_ptr.tolist()
    return np.array([math.fsum([*p[lo:hi], *e[lo:hi]])
                     for lo, hi in zip(rp[:-1], rp[1:])], dtype=np.float64)


@pytest.fixture
def ref():
    return reference_fixture()


def assert_fixture_equal(a, b, *, include_metadata=True):
    assert a.M == b.M
    assert a.N == b.N
    for name in ("row_ptr", "col_idx", "values", "x", "z"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    if include_metadata:
        assert a.metadata == b.metadata


# every order in which 2, 3 or 4 ranks can arrive: 2 + 6 + 24 = 32
ARRIVAL_ORDERS = [order for size in (2, 3, 4)
                  for order in itertools.permutations(range(size))]


@pytest.fixture
def arrival_order(monkeypatch):
    """Returns a setter for the order in which the ranks of every later
    parallel run arrive: at each collective, a rank joins it, or returns,
    only once every rank ahead of it in that order has joined it or
    returned. Serial runs are left alone, since their baton fixes the
    order."""
    order = []
    joined = {}  # engine -> collectives each rank has joined
    stalled = []
    join, finish = CollectiveEngine._collective, CollectiveEngine._finish_rank

    def wait_turn(engine, rank):
        # under engine._cond; a join that leaves the collective open wakes
        # nobody, so this polls
        counts = joined.setdefault(engine, [0] * engine.size)
        ahead = order[:order.index(rank)]
        deadline = time.monotonic() + 10
        while any(counts[r] <= counts[rank] and not engine._finished[r]
                  for r in ahead):
            if time.monotonic() > deadline:
                stalled.append((order[:], rank))
                break
            engine._cond.wait(0.0005)
        return counts

    def ordered_join(engine, rank, *args):
        if engine.mode == "serial":
            return join(engine, rank, *args)
        # the condition's lock is reentrant, so the join happens under the
        # same hold as the wait, before any rank behind can see the count
        with engine._cond:
            wait_turn(engine, rank)[rank] += 1
            return join(engine, rank, *args)

    def ordered_finish(engine, rank):
        if engine.mode == "serial":
            return finish(engine, rank)
        with engine._cond:
            wait_turn(engine, rank)
            return finish(engine, rank)

    monkeypatch.setattr(CollectiveEngine, "_collective", ordered_join)
    monkeypatch.setattr(CollectiveEngine, "_finish_rank", ordered_finish)

    def arrive(ranks):
        order[:] = ranks

    yield arrive
    assert not stalled, f"(order, rank) pairs that waited 10 s: {stalled}"
