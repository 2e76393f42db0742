"""Orthogonal polynomial recurrences against their hypergeometric definitions."""

import math
import tracemalloc
from unittest.mock import patch

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from polykernel import orthopoly as op
from polykernel import specfun as sf
from polykernel.errors import ZeroParameterError

mp.mp.dps = 40


def jacobi_via_series(n, a, b, x):
    """Oracle: terminating 2F1 definition of P_n^{(a,b)} at 40 digits.

    The alternating terminating sum cancels catastrophically in doubles for
    small lower parameters, so the reference is summed in high precision.
    """
    val = (mp.rf(mp.mpf(a) + 1, n) / mp.factorial(n)
           * mp.hyp2f1(-n, n + mp.mpf(a) + mp.mpf(b) + 1, mp.mpf(a) + 1,
                       (1 - mp.mpf(x)) / 2))
    return float(val)


class TestJacobiP:
    def test_degree_zero(self):
        assert op.jacobi_p(0, 0.7, -0.3, 0.123) == 1.0

    def test_value_at_one(self):
        # P_n^{(a,b)}(1) = (a+1)_n / n!
        assert op.jacobi_p(3, 0.5, -0.2, 1.0) == pytest.approx(2.1875, rel=1e-14)

    def test_reference_value(self):
        # three-term hand summation of the terminating series
        assert op.jacobi_p(2, 1.0, 1.0, 0.3) == pytest.approx(-0.4125, rel=1e-14)

    def test_recurrence_matches_series(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(0, 11))
            a = float(rng.uniform(-0.9, 2.5))
            b = float(rng.uniform(-0.9, 2.5))
            if -1 < a < 0 and -1 < b < 0 and abs(a + b + 1.0) < 1e-6:
                continue
            x = float(rng.uniform(-1.0, 1.0))
            got = op.jacobi_p(n, a, b, x)
            want = jacobi_via_series(n, a, b, x)
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    def test_array_argument(self):
        xs = np.linspace(-1.0, 1.0, 9)
        got = op.jacobi_p(4, 0.3, 1.2, xs)
        want = [op.jacobi_p(4, 0.3, 1.2, float(x)) for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            op.jacobi_p(2, -1.0, 0.0, 0.5)


JACOBI_PARAMS = ((0.0, 0.0), (0.7, -0.3), (-0.5, -0.4), (2.5, 1.0), (3.0, 7.0))


class TestJacobiPAll:
    @pytest.mark.parametrize("nmax", [0, 1, 2, 40])
    def test_rows_match_per_degree(self, nmax):
        # one pass runs the per-degree recurrence once, so every row is exact
        xs = np.linspace(-1.0, 1.0, 7)
        for a, b in JACOBI_PARAMS:
            table = op.jacobi_p_all(nmax, a, b, xs)
            assert table.shape == (nmax + 1, xs.size)
            column = op.jacobi_p_all(nmax, a, b, 0.37)
            assert column.shape == (nmax + 1,)
            for n in range(nmax + 1):
                np.testing.assert_allclose(table[n], op.jacobi_p(n, a, b, xs),
                                           rtol=1e-13, atol=0.0)
                assert column[n] == pytest.approx(op.jacobi_p(n, a, b, 0.37),
                                                  rel=1e-13, abs=0.0)

    def test_matches_mpmath(self):
        # scaled by the column's largest value so far: near a zero of P_n the
        # pointwise relative error of any recurrence is unbounded
        rng = np.random.default_rng(53)
        for _ in range(12):
            a, b = float(rng.uniform(-0.9, 3.0)), float(rng.uniform(-0.9, 3.0))
            xs = rng.uniform(-1.0, 1.0, 3)
            table = op.jacobi_p_all(40, a, b, xs)
            for i, x in enumerate(xs):
                for n in range(41):
                    want = float(mp.jacobi(n, a, b, float(x)))
                    scale = float(np.max(np.abs(table[:n + 1, i])))
                    assert abs(table[n, i] - want) <= 1e-13 * scale

    def test_array_parameters_match_scalar_columns(self):
        # one pass over many (alpha, beta) pairs: each column is the scalar
        # call at its own parameters, bit for bit
        alphas = np.array([a for a, _ in JACOBI_PARAMS])
        betas = np.array([b for _, b in JACOBI_PARAMS])
        xs = np.array([[-0.8], [0.37]])
        table = op.jacobi_p_all(25, alphas, betas, xs)
        assert table.shape == (26, 2, len(alphas))
        for k, (a, b) in enumerate(JACOBI_PARAMS):
            np.testing.assert_array_equal(table[:, :, k], op.jacobi_p_all(25, a, b, xs[:, 0]))
            for n in (0, 1, 7, 25):
                assert table[n, 1, k] == op.jacobi_p(n, a, b, 0.37)
        # alpha alone an array, beta and x scalars
        col = op.jacobi_p_all(10, alphas, 0.5, 0.2)
        for k, a in enumerate(alphas.tolist()):
            np.testing.assert_array_equal(col[:, k], op.jacobi_p_all(10, a, 0.5, 0.2))

    @pytest.mark.parametrize("alpha, beta, bad, message", [
        ([0.5, -1.0], 0.5, (-1.0, 0.5), "must exceed -1"),
        (0.5, [0.2, 1.0, -1.5], (0.5, -1.5), "must exceed -1"),
        ([0.3, -0.25], [0.1, -0.75], (-0.25, -0.75), r"alpha \+ beta \+ 1 = 0"),
    ])
    def test_array_parameters_validated_entrywise(self, alpha, beta, bad, message):
        # one invalid entry raises what the scalar call raises at that entry
        with pytest.raises(ValueError, match=message):
            op.jacobi_p(3, *bad, 0.3)
        with pytest.raises(ValueError, match=message):
            op.jacobi_p_all(3, alpha, beta, 0.3)

    @pytest.mark.parametrize("kind", ["jacobi", "gegenbauer"])
    @pytest.mark.parametrize("tiled", [False, True])
    @given(data=st.data())
    def test_columns_equal_per_degree(self, kind, tiled, data):
        nmax, params, x = data.draw(_column_draw(kind, nmax_max=30))
        reps = op._NARROW // len(x) + 1 if tiled else 1
        params, x = [p * reps for p in params], x * reps
        table = _table(kind, nmax, params, x)
        for k, xk in enumerate(x):
            pk = [p[k] for p in params]
            got = [float(v) for v in table[:, k]]
            assert got == [_per_degree(kind, n, pk, xk) for n in range(nmax + 1)]

    @pytest.mark.parametrize("kind", ["jacobi", "gegenbauer"])
    @given(data=st.data())
    def test_columns_match_mpmath(self, kind, data):
        nmax, params, x = data.draw(_column_draw(kind, nmax_max=40))
        table = _table(kind, nmax, params, x)
        with mp.workdps(30):
            for k, xk in enumerate(x):
                pk = [mp.mpf(p[k]) for p in params]
                running = 0.0
                for n in range(nmax + 1):
                    if kind == "jacobi":
                        want = _jacobi_explicit(n, pk[0], pk[1], xk)
                    else:
                        # zeroprec: an exact zero (odd degree at x = 0) is a value
                        want = mp.gegenbauer(n, pk[0], xk, zeroprec=200)
                    running = max(running, abs(float(want)))
                    assert abs(table[n, k] - want) <= 1e-12 * running

    @pytest.mark.parametrize("column, single, good, bad", [
        (op.jacobi_p_all, op.jacobi_p, (0.5, 0.5), (-1.0, 0.5)),
        (op.jacobi_p_all, op.jacobi_p, (0.5, 0.5), (0.5, -1.5)),
        (op.jacobi_p_all, op.jacobi_p, (0.5, 0.5), (-0.25, -0.75)),
        (op.gegenbauer_c_all, op.gegenbauer_c, (1.5,), (0.0,)),
        (op.gegenbauer_c_all, op.gegenbauer_c, (1.5,), (-0.7,)),
    ])
    @given(width=st.integers(1, 3 * op._NARROW))
    def test_invalid_parameters_raise_alike(self, column, single, good, bad, width):
        # one bad entry in a table of either width raises what the
        # per-degree call raises at that entry
        params = [np.full(width, g) for g in good]
        for p, b in zip(params, bad):
            p[-1] = b
        with pytest.raises(Exception) as want:
            single(5, *bad, 0.3)
        with pytest.raises(Exception) as got:
            column(5, *params, np.linspace(-0.9, 0.9, width))
        assert type(got.value) is type(want.value)


@pytest.mark.parametrize("column, single, args, exc", [
    (op.jacobi_p_all, op.jacobi_p, (-1, 0.5, 0.5, 0.3), ValueError),
    (op.jacobi_p_all, op.jacobi_p, (3, -1.0, 0.5, 0.3), ValueError),
    (op.jacobi_p_all, op.jacobi_p, (3, -0.25, -0.75, 0.3), ValueError),
    (op.gegenbauer_c_all, op.gegenbauer_c, (-1, 0.5, 0.3), ValueError),
    (op.gegenbauer_c_all, op.gegenbauer_c, (3, -0.7, 0.3), ValueError),
    (op.gegenbauer_c_all, op.gegenbauer_c, (3, 0.0, 0.3), ZeroParameterError),
])
def test_column_validation_matches_per_degree(column, single, args, exc):
    with pytest.raises(exc):
        single(*args)
    with pytest.raises(exc):
        column(*args)


# Property tests of the recurrence kernel under the orthonormal Jacobi pass
# that builds the node pair tables (orthonormal_recurrence, then
# recurrence_table): a table of at most op._NARROW entries per row runs on
# Python floats, a wider one on numpy, and both must give the same bits.
# On entry the table holds a row -1 of zeros, row 0 and, from row 1 on, the
# multipliers a'_k = (x - B_{k-1}) / A'_k that recurrence_table wrote there.
# The whole-column evaluators jacobi_p_all and gegenbauer_c_all run their
# own loops, not this kernel; the tests that draw them from the strategies
# below (in TestJacobiPAll and TestColumnsAtPairShape) check each column
# against the per-degree call.

_JACOBI_PARAM = st.floats(-0.95, 12.0)
_GEGENBAUER_ORDER = st.floats(-0.45, 12.0).filter(lambda mu: abs(mu) > 1e-3)


@st.composite
def _column_draw(draw, kind, x_bound=1.0, nmax_max=40, width_max=op._NARROW, width_min=1):
    """(nmax, params, x): params and x are lists of one width, narrow by default."""
    width = draw(st.integers(width_min, width_max))
    entries = st.lists(_JACOBI_PARAM if kind == "jacobi" else _GEGENBAUER_ORDER,
                       min_size=width, max_size=width)
    params = [draw(entries) for _ in range(2 if kind == "jacobi" else 1)]
    if kind == "jacobi":
        assume(not any(-1 < a < 0 and -1 < b < 0 and a + b + 1 == 0 for a, b in zip(*params)))
    x = draw(st.lists(st.floats(-x_bound, x_bound), min_size=width, max_size=width))
    return draw(st.integers(0, nmax_max)), params, x


def _table(kind, nmax, params, x):
    args = [np.asarray(p) for p in params] + [np.asarray(x)]
    if kind == "jacobi":
        return op.jacobi_p_all(nmax, *args)
    return op.gegenbauer_c_all(nmax, *args)


def _row0(width):
    """Row 0 entries of one row of a table: positive, as 1 / sqrt(h_0)
    times an envelope."""
    return st.lists(st.floats(1e-3, 1e3), min_size=width, max_size=width)


def _orthonormal(nmax, params, x, row0):
    """The orthonormal pass at x from row0, its recurrence built at x's
    shape under the current _NARROW."""
    x = np.asarray(x)
    rec = op.orthonormal_recurrence(nmax, *[np.asarray(p) for p in params], x.shape)
    return op.recurrence_table(rec, x, row0)


def _prefilled(nmax, params, x, row0):
    """The table as recurrence_table hands it to the kernel."""
    calls = []
    with patch.object(op, "_three_term", lambda *args: calls.append(args)):
        _orthonormal(nmax, params, x, row0)
    (out,), = calls
    return out


def _per_degree(kind, n, params, x):
    if kind == "jacobi":
        return op.jacobi_p(n, params[0], params[1], x)
    return op.gegenbauer_c(n, params[0], x)


def _jacobi_explicit(n, a, b, x):
    """P_n^{(a,b)}(x) from the explicit finite sum (DLMF 18.5.8),
    sum_l C(n+a, l) C(n+b, n-l) ((x-1)/2)^(n-l) ((x+1)/2)^l, at the working
    precision plus the digits its alternating terms can cancel, at most
    log10 C(2n+a+b, n) (29 for n <= 40 and a, b <= 12).  mpmath's own
    `jacobi` detects zeros instead, and at a subnormal b its
    P_2^{(0,b)}(0) reads 0.0 where the value is -0.5.
    """
    a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
    with mp.extradps(int(mp.log10(mp.binomial(2 * n + a + b, n))) + 2):
        lo, hi = (x - 1) / 2, (x + 1) / 2
        ca, cb = mp.mpf(1), mp.binomial(n + b, n)   # C(n+a, l), C(n+b, n-l) at l = 0
        total = mp.mpf(0)
        for l in range(n + 1):
            total += ca * cb * lo ** (n - l) * hi ** l
            ca *= (n + a - l) / (l + 1)
            cb *= mp.mpf(n - l) / (b + l + 1)
        return +total


@pytest.mark.parity
class TestThreeTermKernel:
    @given(data=st.data())
    def test_narrow_and_numpy_paths_agree(self, data):
        # one pass through each path, its recurrence built for that path;
        # large |x| and high degrees overflow to inf (and inf - inf to NaN):
        # the paths must still agree bit for bit
        nmax, params, x = data.draw(_column_draw("jacobi", x_bound=1e3, nmax_max=150,
                                                 width_max=3 * op._NARROW))
        row0 = data.draw(_row0(len(x)))
        tables = []
        with np.errstate(over="ignore", invalid="ignore"):
            for narrow in (len(x), len(x) - 1):
                with patch.object(op, "_NARROW", narrow):
                    tables.append(_orthonormal(nmax, params, x, row0))
        assert tables[0].tobytes() == tables[1].tobytes()

    @given(data=st.data())
    def test_pair_table_shape(self, data):
        # x and row 0 of shape (2, w) against parameters of shape (w,), as
        # polyspherical._pair_tables passes them, so down and div reach the
        # kernel broadcast along the first row axis.  Each column, run alone
        # on the narrow path, has its bits.
        nmax, params, x = data.draw(_column_draw("jacobi", nmax_max=40,
                                                 width_min=op._NARROW // 2 + 1,
                                                 width_max=2 * op._NARROW))
        xp = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(x), max_size=len(x)))
        x2 = np.array([x, xp])
        row0 = np.reshape(data.draw(_row0(x2.size)), x2.shape)
        table = _orthonormal(nmax, params, x2, row0)
        with patch.object(op, "_NARROW", x2.size):
            narrow = _orthonormal(nmax, params, x2, row0)
        assert table.shape == (nmax + 1,) + x2.shape
        assert table.tobytes() == narrow.tobytes()
        for k in range(len(x)):
            column = _orthonormal(nmax, [p[k] for p in params], x2[:, k], row0[:, k])
            assert table[:, :, k].tobytes() == column.tobytes()

    def test_wide_rows(self):
        # rows of 2 x 300 entries: the numpy path gives the bits of the
        # narrow path and of each column run alone
        rng = np.random.default_rng(31)
        nmax, width = 41, 300
        params = [rng.uniform(0.05, 6.0, width) for _ in range(2)]
        x2 = rng.uniform(-1.0, 1.0, (2, width))
        row0 = rng.uniform(0.1, 2.0, (2, width))
        table = _orthonormal(nmax, params, x2, row0)
        with patch.object(op, "_NARROW", x2.size):
            assert table.tobytes() == _orthonormal(nmax, params, x2, row0).tobytes()
        for k in range(0, width, 37):
            column = _orthonormal(nmax, [float(p[k]) for p in params], x2[:, k], row0[:, k])
            assert table[:, :, k].tobytes() == column.tobytes()

    @pytest.mark.parametrize("width", [op._NARROW + 1, 100, 3000])
    def test_numpy_path_allocates_no_buffer(self, width):
        # two in-place calls per row on the table's own rows: the row views
        # the loop holds take well under 1 KiB at any width, where one row
        # of the widest table alone would take 47 KiB
        rng = np.random.default_rng(width)
        params = [rng.uniform(0.05, 6.0, width) for _ in range(2)]
        out = _prefilled(60, params, rng.uniform(-1.0, 1.0, (2, width)), 1.0)
        tracemalloc.start()
        try:
            op._three_term(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2048


@pytest.mark.parity
class TestColumnsAtPairShape:
    # jacobi_p_all and gegenbauer_c_all at x of shape (2, w) against
    # parameters of shape (w,), which their loops broadcast along the first
    # row axis: every entry is the per-degree call's, bit for bit
    @pytest.mark.parametrize("kind", ["jacobi", "gegenbauer"])
    @given(data=st.data())
    def test_pair_shape_equals_per_degree(self, kind, data):
        nmax, params, x = data.draw(_column_draw(kind, nmax_max=40, width_max=2 * op._NARROW))
        xp = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(x), max_size=len(x)))
        x2 = np.array([x, xp])
        table = _table(kind, nmax, params, x2)
        assert table.shape == (nmax + 1,) + x2.shape
        for k in range(len(x)):
            pk = [p[k] for p in params]
            for n in range(nmax + 1):
                want = np.asarray(_per_degree(kind, n, pk, x2[:, k]))
                assert table[n, :, k].tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["jacobi", "gegenbauer"])
    def test_wide_pair_rows_equal_per_degree(self, kind):
        # rows of 2 x 300 entries, the width of a large fold plan's tables
        rng = np.random.default_rng(31)
        nmax, width = 41, 300
        params = [rng.uniform(0.05, 6.0, width) for _ in range(2 if kind == "jacobi" else 1)]
        x2 = rng.uniform(-1.0, 1.0, (2, width))
        table = _table(kind, nmax, params, x2)
        for k in range(0, width, 37):
            pk = [float(p[k]) for p in params]
            for n in (0, 1, 2, 3, nmax):
                want = np.asarray(_per_degree(kind, n, pk, x2[:, k]))
                assert table[n, :, k].tobytes() == want.tobytes()


@pytest.mark.parity
class TestReusableRecurrence:
    # a fold plan builds its orthonormal recurrence once and runs it at
    # every angle pair: each run must give a fresh build's table, bit for bit
    @pytest.mark.parametrize("nmax", [0, 1, 2, 23])
    @given(data=st.data())
    def test_reused_equals_fresh(self, nmax, data):
        # x of shape (2, w), as a pair table passes it: 2w entries per row,
        # on either side of _NARROW.  Two angle pairs, the first run again
        # after the second.
        _, params, x = data.draw(_column_draw("jacobi", nmax_max=0))
        pairs = [np.array([x, data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(x),
                                                 max_size=len(x)))]) for _ in range(2)]
        row0 = np.reshape(data.draw(_row0(2 * len(x))), (2, len(x)))
        rec = op.orthonormal_recurrence(nmax, *[np.asarray(p) for p in params], (2, len(x)))
        for x2 in pairs + pairs[:1]:
            reused = op.recurrence_table(rec, x2, row0)
            assert reused.tobytes() == _orthonormal(nmax, params, x2, row0).tobytes()

    # widths 4 and 5 put 2 * width on either side of _NARROW = 8
    @pytest.mark.parametrize("width", [1, 3, 4, 5, 900])
    def test_held_bytes_per_entry(self, width):
        # a fold-plan cache bounds what its plans hold by their table
        # entries (verify.PLAN_CACHE_ENTRIES): the recurrence of a pair
        # table, x of shape (2, width), keeps its B, A' and scale arrays at
        # 8 bytes per column and degree each, 12 per entry, whatever the
        # path; measured, that is all it holds but 0.6-2.5 KiB of headers
        rng, nmax = np.random.default_rng(width), 60
        params = [rng.integers(1, 40, width) * 0.5 for _ in range(2)]
        tracemalloc.start()
        try:
            rec = op.orthonormal_recurrence(nmax, *params, (2, width))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rec.scale.shape == rec.a.shape == rec.b.shape == (nmax, 1, width)
        assert held <= 12 * nmax * 2 * width + 4096


class TestOrthonormalRecurrence:
    @given(data=st.data())
    def test_scaled_jacobi_columns(self, data):
        # run from row 0 = 1 / sqrt(h_0), the orthonormal pass is each
        # Jacobi column times 1 / sqrt(h_n), to 1e-12 of the column's
        # largest entry, at parameters in (-1, 12] and on either path
        nmax, (a, b), x = data.draw(_column_draw("jacobi", nmax_max=40,
                                                 width_max=3 * op._NARROW))
        scale = np.exp([[0.5 * op.jacobi_norm_log(n, ak, bk) for ak, bk in zip(a, b)]
                        for n in range(nmax + 1)])
        want = op.jacobi_p_all(nmax, np.array(a), np.array(b), np.array(x)) * scale
        rec = op.orthonormal_recurrence(nmax, np.array(a), np.array(b), (len(x),))
        got = op.recurrence_table(rec, x, scale[0])
        assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), axis=0))

    @pytest.mark.parametrize("width", [1, 2 * op._NARROW])
    def test_row_one_at_negative_zero(self, width):
        # at alpha = beta, row 1 at x = -0.0 is +0.0 on either path, the
        # sign of jacobi_p(1, a, a, -0.0)
        rec = op.orthonormal_recurrence(3, 1.5, 1.5, (width,))
        table = op.recurrence_table(rec, np.full(width, -0.0), 1.0)
        assert not np.signbit(table[1]).any() and not np.signbit(op.jacobi_p(1, 1.5, 1.5, -0.0))

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            op.orthonormal_recurrence(3, -0.25, -0.75)
        with pytest.raises(ValueError):
            op.orthonormal_recurrence(-1, 0.5, 0.5)


_HALF_INTEGER = st.integers(-1, 1000).map(lambda k: 0.5 * k)


@pytest.mark.parity
class TestUnitRatioScale:
    # the pass runs on q_k = p_k / c_k.  Over the parameters of the node
    # tables, alpha and beta in {-1/2, 0, 1/2, ...}, up to 500 and nmax up
    # to 400, c stays in [0.05, 1.2] (measured over the whole grid: 0.0598
    # at (500, -1/2), 1.1733 at (0, -1/2)), so the rescaled rows keep the
    # range of the orthonormal ones
    @given(data=st.data())
    def test_scale_band_and_columns(self, data):
        width = data.draw(st.integers(1, 2 * op._NARROW))
        pairs = data.draw(st.lists(st.tuples(_HALF_INTEGER, _HALF_INTEGER),
                                   min_size=width, max_size=width))
        assume((-0.5, -0.5) not in pairs)
        a, b = np.array(pairs).T
        nmax = data.draw(st.integers(0, 400))
        x = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=width, max_size=width)))
        rec = op.orthonormal_recurrence(nmax, a, b, (width,))
        assert np.all((0.05 <= rec.scale) & (rec.scale <= 1.2))
        row0 = np.exp([0.5 * op.jacobi_norm_log(0, ak, bk) for ak, bk in pairs])
        table = op.recurrence_table(rec, x, row0)
        # per-degree jacobi_p times the norm from jacobi_norm_log, whose
        # lgamma values near 900 carry about 1e-13 each
        for k in sorted({0, width // 2, width - 1}):
            scale = np.max(np.abs(table[:, k]))
            for n in sorted({0, min(1, nmax), nmax // 2, nmax}):
                want = (op.jacobi_p(n, a[k], b[k], x[k])
                        * math.exp(0.5 * op.jacobi_norm_log(n, a[k], b[k])))
                assert abs(table[n, k] - want) <= 1e-11 * scale


class TestJacobiNorm:
    def test_legendre_norms(self):
        assert op.jacobi_norm(0, 0.0, 0.0) == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert op.jacobi_norm(1, 0.0, 0.0) == pytest.approx(math.sqrt(1.5), rel=1e-14)

    @staticmethod
    def _weighted_integral(f, a, b, npts):
        # Gauss-Legendre after x = cos t: the endpoint-singular weight becomes
        # analytic (here a trig polynomial), so the rule is machine-exact.
        t, wt = np.polynomial.legendre.leggauss(npts)
        t = 0.5 * math.pi * (t + 1.0)
        wt = wt * 0.5 * math.pi
        x = np.cos(t)
        w = (2.0 * np.sin(0.5 * t) ** 2) ** a * (2.0 * np.cos(0.5 * t) ** 2) ** b
        return float(np.sum(wt * f(x) * w * np.sin(t)))

    def test_quadrature_normalization(self):
        # 64-point Gauss-Legendre: integral of (N P_n)^2 w over [-1, 1] is 1
        n, a, b = 2, 0.5, 1.5
        norm = op.jacobi_norm(n, a, b)
        integral = self._weighted_integral(
            lambda x: (norm * op.jacobi_p(n, a, b, x)) ** 2, a, b, 64)
        assert abs(integral - 1.0) < 1e-12

    def test_negative_parameter_sum(self):
        # n = 0 with alpha + beta + 1 < 0 stays finite and positive
        val = op.jacobi_norm(0, -0.75, -0.75)
        want = math.sqrt(math.gamma(0.5) / (2.0 ** -0.5
                                            * math.gamma(0.25) ** 2))
        assert val == pytest.approx(want, rel=1e-12)

    @staticmethod
    def _norm0_log_mpmath(a, b):
        A, B = mp.mpf(a), mp.mpf(b)
        return mp.log(mp.gamma(A + B + 2) / (2 ** (A + B + 1) * mp.gamma(A + 1) * mp.gamma(B + 1)))

    def test_norm0_log_exact_at_half_integers(self):
        # the exact route, up to floor(alpha + beta + 1) = 640: at most
        # 1.3e-14 over these draws (median 3.7e-16), where the lgamma form
        # of jacobi_norm_log(0, ...) reaches 6.1e-13 (median 9.7e-14)
        rng = np.random.default_rng(3)
        pairs = [(-0.5, -0.5), (-0.5, 0.0), (0.5, 0.5), (319.5, 320.0), (-0.5, 640.0)] + [
            tuple((rng.integers(-1, 641, 2) / 2).tolist()) for _ in range(200)]
        for a, b in pairs:
            got = op.jacobi_norm0_log(a, b)
            assert abs(float(mp.exp(got - self._norm0_log_mpmath(a, b))) - 1.0) < 2e-14, (a, b)

    @pytest.mark.parametrize("a, b", [(320.0, 320.0), (100000.5, 0.0), (1999999.5, 1.0)])
    def test_norm0_log_past_640_is_the_lgamma_form(self, a, b):
        # the integers' cost grows as the square of alpha + beta, which a
        # certificate takes to about m: past 640 no factorial is formed
        assert op.jacobi_norm0_log(a, b) == op.jacobi_norm_log(0, a, b)

    def test_orthogonality_grid(self):
        # 128-point rule, m, n <= 8
        a, b = 0.5, 1.5
        t, wt = np.polynomial.legendre.leggauss(128)
        t = 0.5 * math.pi * (t + 1.0)
        wt = wt * 0.5 * math.pi
        x = np.cos(t)
        w = ((2.0 * np.sin(0.5 * t) ** 2) ** a * (2.0 * np.cos(0.5 * t) ** 2) ** b
             * np.sin(t))
        vals = [op.jacobi_norm(n, a, b) * op.jacobi_p(n, a, b, x)
                for n in range(9)]
        for i in range(9):
            for j in range(9):
                integral = float(np.sum(wt * vals[i] * vals[j] * w))
                assert abs(integral - (1.0 if i == j else 0.0)) < 1e-10


class TestGegenbauer:
    def test_degree_one(self):
        assert op.gegenbauer_c(1, 0.75, 0.4) == pytest.approx(0.6, rel=1e-14)

    def test_degree_zero(self):
        assert op.gegenbauer_c(0, 1.3, -0.2) == 1.0

    def test_jacobi_relation(self):
        # C_n^nu = (2nu)_n / (nu+1/2)_n P_n^{(nu-1/2, nu-1/2)}
        n, nu, x = 4, 1.2, -0.3
        lhs = op.gegenbauer_c(n, nu, x)
        rhs = (sf.pochhammer(2.0 * nu, n) / sf.pochhammer(nu + 0.5, n)
               * op.jacobi_p(n, nu - 0.5, nu - 0.5, x))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_jacobi_relation_grid(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(0, 12))
            nu = float(rng.uniform(-0.45, 3.0)) or 0.1
            if abs(nu) < 1e-3:
                continue
            x = float(rng.uniform(-1.0, 1.0))
            lhs = op.gegenbauer_c(n, nu, x)
            rhs = (sf.pochhammer(2.0 * nu, n) / sf.pochhammer(nu + 0.5, n)
                   * op.jacobi_p(n, nu - 0.5, nu - 0.5, x))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_zero_parameter(self):
        with pytest.raises(ZeroParameterError):
            op.gegenbauer_c(2, 0.0, 0.5)

    def test_all_degrees_pass(self):
        xs = np.array([-0.7, 0.1, 0.9])
        table = op.gegenbauer_c_all(6, 0.8, xs)
        for n in range(7):
            np.testing.assert_allclose(table[n], op.gegenbauer_c(n, 0.8, xs),
                                       rtol=1e-13)
        # an array of orders broadcasts against the arguments
        mus = np.array([0.8, 1.5, 3.0])
        table = op.gegenbauer_c_all(6, mus, xs[:, None])
        assert table.shape == (7, 3, 3)
        for n in range(7):
            for k, mu in enumerate(mus):
                np.testing.assert_allclose(table[n, :, k], op.gegenbauer_c(n, mu, xs),
                                           rtol=1e-13)

    def test_generating_function(self):
        # sum rho^n C_n^nu(x) = (1 + rho^2 - 2 rho x)^{-nu}
        for rho in (0.1, 0.3, 0.5):
            for nu in (0.6, 1.0, 2.5):
                for x in (-0.9, 0.0, 0.7):
                    want = (1.0 + rho * rho - 2.0 * rho * x) ** (-nu)
                    total = 0.0
                    n = 0
                    small = 0
                    while True:
                        term = rho ** n * op.gegenbauer_c(n, nu, x)
                        total += term
                        n += 1
                        small = small + 1 if abs(term) < 1e-14 * abs(total) else 0
                        if n > 30 and small >= 3:
                            break
                        assert n < 500
                    assert abs(total - want) < 1e-10 * abs(want)


class TestChebyshev:
    def test_seeds(self):
        assert op.chebyshev_t(0, 0.37) == 1.0
        assert op.chebyshev_t(1, 0.37) == 0.37

    def test_cosine_form(self):
        assert op.chebyshev_t(5, 0.9) == pytest.approx(-0.63216, rel=1e-12)
        xs = np.linspace(-1.0, 1.0, 41)
        for n in (2, 3, 7, 12):
            got = op.chebyshev_t(n, xs)
            want = np.cos(n * np.arccos(xs))
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gegenbauer_limit(self):
        # ((n+mu)/mu) C_n^mu -> eps_n T_n as mu -> 0
        n, x = 3, 0.2
        mu = 1e-7
        lhs = (n + mu) / mu * op.gegenbauer_c(n, mu, x)
        rhs = 2.0 * op.chebyshev_t(n, x)
        assert abs(lhs - rhs) < 1e-5 * max(1.0, abs(rhs))


class TestConnection:
    def test_identity_connection(self):
        table = op.connection_coeffs(4, 0.7, -0.2, 0.7, -0.2)
        for k, c in enumerate(table.coefficients):
            assert c == pytest.approx(1.0 if k == 4 else 0.0, abs=1e-12)

    def test_degree_zero(self):
        table = op.connection_coeffs(0, 1.0, 0.5, 0.2, 0.2)
        assert table.coefficients == (1.0,)

    def test_pointwise_reconstruction(self):
        table = op.connection_coeffs(3, 1.0, 0.5, 0.2, 0.2)
        xs = np.cos((2 * np.arange(20) + 1) * math.pi / 40.0)  # Chebyshev points
        for x in xs:
            got = table.reconstruct(float(x))
            want = op.jacobi_p(3, 1.0, 0.5, float(x))
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_reconstruction_random_params(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(0, 7))
            g, d_ = float(rng.uniform(-0.5, 2.0)), float(rng.uniform(-0.5, 2.0))
            a, b = float(rng.uniform(-0.5, 2.0)), float(rng.uniform(0.0, 2.0))
            table = op.connection_coeffs(n, g, d_, a, b)
            for x in (-0.8, 0.05, 0.9):
                got = table.reconstruct(x)
                want = op.jacobi_p(n, g, d_, x)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_cache_returns_same_table(self):
        t1 = op.connection_coeffs(2, 0.5, 0.5, 0.1, 0.1)
        t2 = op.connection_coeffs(2, 0.5, 0.5, 0.1, 0.1)
        assert t1 is t2

    def test_cache_concurrent_access(self):
        import threading

        results = []
        errors = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed % 4)  # force key collisions
                for _ in range(25):
                    n = int(rng.integers(0, 5))
                    g = round(float(rng.uniform(0.0, 1.0)), 2)
                    table = op.connection_coeffs(n, g, 0.5, 0.2, 0.2)
                    results.append(abs(table.reconstruct(0.3)
                                       - op.jacobi_p(n, g, 0.5, 0.3)))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert max(results) < 1e-10
