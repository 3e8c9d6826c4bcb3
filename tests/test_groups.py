import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import add, char_eval, dft_oracle, idft_oracle, memo_bytes, neg, oracle_close, scalar_mul
from hsketch import groups
from hsketch.errors import GroupMismatchError, InvalidGroupError
from hsketch.groups import (
    FunctionTable,
    SpectrumTable,
    dft,
    idft,
    make_group,
)


def test_make_group_examples():
    g = make_group([7])
    assert g.orders == (7,) and g.total_size == 7
    g2 = make_group([7, 7])
    assert g2.orders == (7, 7) and g2.total_size == 49
    with pytest.raises(InvalidGroupError):
        make_group([1])
    with pytest.raises(InvalidGroupError):
        make_group([])
    with pytest.raises(InvalidGroupError):
        make_group([2] * 40)  # 2^40 elements
    for orders in ([2.9], [7.5], [7.0], [7, 3.0], ["7"]):
        with pytest.raises(InvalidGroupError):
            make_group(orders)
    assert make_group([np.int64(7)]).orders == (7,)


def test_cyclic_descriptors_are_shared_and_their_tables_read_only():
    g = groups._cyclic_group(7)
    assert groups._cyclic_group(np.int64(7)) is g and g == make_group([7])
    with pytest.raises(ValueError):
        g.roots[0] = 0  # a write would reach every later query on Z_7
    for bad in (7.0, 2.9, "7", 1):
        with pytest.raises(InvalidGroupError):
            groups._cyclic_group(bad)


def test_roots_of_unity_are_tabulated_for_a_cyclic_group_only():
    assert make_group([128]).roots[32] == pytest.approx(1j, abs=1e-15)
    with pytest.raises(InvalidGroupError):
        make_group([2, 3]).roots


def test_enumeration_order_first_factor_most_significant():
    g = make_group([2, 3])
    order = [g.element_at(i) for i in range(6)]
    assert order == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for i, x in enumerate(order):
        assert g.index_of(x) == i


def test_element_arithmetic_examples():
    g = make_group([7])
    assert add(g, (3,), (5,)) == (1,)
    assert neg(g, (3,)) == (4,)
    assert scalar_mul(g, 10, (3,)) == (2,)
    with pytest.raises(GroupMismatchError):
        add(g, (3,), (1, 2))


def test_char_eval_examples():
    g = make_group([7])
    assert char_eval(g, (3,), (2,)) == pytest.approx(np.exp(2j * np.pi * 6 / 7), abs=1e-12)
    assert char_eval(g, (0,), (4,)) == pytest.approx(1.0, abs=1e-12)
    assert char_eval(g, (5,), (0,)) == pytest.approx(1.0, abs=1e-12)
    g55 = make_group([5, 5])
    got = char_eval(g55, (1, 2), (3, 4))
    assert got == pytest.approx(np.exp(2j * np.pi * 11 / 5), abs=1e-12)
    assert got == pytest.approx(np.exp(2j * np.pi / 5), abs=1e-12)


@pytest.mark.parametrize("orders", [[7], [6], [2, 3, 5], [128]])
def test_character_homomorphism_properties(orders):
    g = make_group(orders)
    rng = np.random.default_rng(7)
    n = g.total_size
    for _ in range(10_000 // 4):
        xi, yi, gi, hi = rng.integers(0, n, 4)
        x, y = g.element_at(int(xi)), g.element_at(int(yi))
        gam, gam2 = g.element_at(int(gi)), g.element_at(int(hi))
        lhs = char_eval(g, add(g, x, y), gam)
        rhs = char_eval(g, x, gam) * char_eval(g, y, gam)
        assert abs(lhs - rhs) <= 1e-10
        lhs2 = char_eval(g, x, add(g, gam, gam2))
        rhs2 = char_eval(g, x, gam) * char_eval(g, x, gam2)
        assert abs(lhs2 - rhs2) <= 1e-10
        assert abs(char_eval(g, neg(g, x), gam) - np.conj(char_eval(g, x, gam))) <= 1e-12
        assert abs(abs(char_eval(g, x, gam)) - 1.0) <= 1e-12


def test_dft_indicator_example():
    # transform of the point mass at j is the pure phase e^{-2 pi i j gamma / p}
    p, j = 7, 3
    g = make_group([p])
    f = FunctionTable.from_function(g, lambda x: 1.0 if x[0] == j else 0.0)
    s = dft(g, f)
    for gamma in range(p):
        assert s[(gamma,)] == pytest.approx(np.exp(-2j * np.pi * j * gamma / p), abs=1e-12)


def test_dft_constant_example():
    p = 7
    g = make_group([p])
    f = FunctionTable(g, np.ones(p))
    s = dft(g, f)
    expect = np.zeros(p, dtype=complex)
    expect[0] = p
    assert np.allclose(s.values, expect, atol=1e-9)


def test_dft_intersection_indicator_example():
    # f(x, y) = 1{x != 0 and y != 0} transforms to the product of
    # (p 1{gamma=0} - 1) factors
    p = 7
    g = make_group([p, p])
    f = FunctionTable.from_function(g, lambda x: 1.0 if x[0] != 0 and x[1] != 0 else 0.0)
    s = dft(g, f)
    for g1 in range(p):
        for g2 in range(p):
            expect = (p * (g1 == 0) - 1) * (p * (g2 == 0) - 1)
            assert s[(g1, g2)] == pytest.approx(expect, abs=1e-9)


@pytest.mark.parametrize("orders", [[7], [6], [2, 3, 5], [128], [7, 7], [10, 10, 10]])
def test_dft_round_trip_random_tables(orders):
    g = make_group(orders)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(g.total_size) + 1j * rng.standard_normal(g.total_size)
    f = FunctionTable(g, vals)
    back = idft(g, dft(g, f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-9


@pytest.mark.parametrize("orders", [(2,) * 12, (7,) * 4], ids=["Z2^12", "Z7^4"])
def test_large_group_round_trip_and_parseval(orders):
    g = make_group(list(orders))
    rng = np.random.default_rng(12)
    vals = rng.standard_normal(g.total_size) + 1j * rng.standard_normal(g.total_size)
    s = dft(g, FunctionTable(g, vals))
    back = idft(g, s).values
    assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))
    energy = np.sum(np.abs(vals) ** 2)
    assert np.sum(np.abs(s.values) ** 2) / g.total_size == pytest.approx(energy, rel=1e-12)


def test_table_lookup_rejects_non_integer_residues():
    # int() read (2.9,) as element 2 and ("3",) as 3
    g = make_group([7, 2])
    f = FunctionTable(g, np.arange(14.0))
    for x in ((2.9, 0), ("3", 1), (1, np.float64(1.0)), (None, 0)):
        with pytest.raises(GroupMismatchError):
            f[x]
    assert f[(np.int64(9), np.True_)] == f[(2, 1)] == f[(-5, True)] == 5.0


def test_table_lookup_rejects_a_bare_scalar_key():
    # a scalar has no len(): the key error is the package's, not a bare TypeError
    g = make_group([7])
    f = FunctionTable(g, np.arange(7) + 0j)
    for x in (3, np.int64(3), 3.0, None):
        with pytest.raises(GroupMismatchError, match="not a sequence of residues"):
            f[x]
        with pytest.raises(GroupMismatchError, match="not a sequence of residues"):
            g.index_of(x)
    assert f[(3,)] == f[[np.int64(3)]] == f[np.array([10])] == 3.0


def test_idft_examples():
    p = 7
    g = make_group([p])
    s = SpectrumTable(g, np.array([p] + [0] * (p - 1), dtype=complex))
    f = idft(g, s)
    assert np.allclose(f.values, np.ones(p), atol=1e-12)
    zero = idft(g, SpectrumTable(g, np.zeros(p)))
    assert np.allclose(zero.values, 0.0)


def test_table_csv_round_trip(tmp_path):
    g = make_group([2, 3])
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    f = FunctionTable(g, vals)
    path = tmp_path / "table.csv"
    f.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "index,re,im"
    back = FunctionTable.read_csv(path, g)
    assert np.array_equal(back.values, f.values)

    s = SpectrumTable(g, vals)
    s.write_csv(path)
    assert np.array_equal(SpectrumTable.read_csv(path, g).values, s.values)


@pytest.mark.parametrize(
    "indices",
    [[0, 0, 1], [0, 0, -1], [0, 1, 3], [0, 2, 1], [0, 2]],
    ids=["duplicate", "negative", "out-of-range", "out-of-order", "missing"],
)
def test_table_csv_rejects_bad_index_column(tmp_path, indices):
    g = make_group([3])
    path = tmp_path / "table.csv"
    path.write_text("index,re,im\n" + "".join(f"{i},1.0,0.0\n" for i in indices))
    with pytest.raises(InvalidGroupError):
        FunctionTable.read_csv(path, g)


@pytest.mark.parametrize(
    "text",
    [
        "index,re,im\n0,1.0,0.0\n1,1.0\n2,1.0,0.0\n",
        "index,re,im\n0,1.0,0.0\n1,1.0,0.0,0.0\n2,1.0,0.0\n",
        "index,re,im\n0,1.0,0.0\n1,one,0.0\n2,1.0,0.0\n",
        "index,re,im\n0,1.0,0.0\n1,1.0,0.0j\n2,1.0,0.0\n",
        "index,re,im\n0,1.0,0.0\n1.0,1.0,0.0\n2,1.0,0.0\n",
        "",
    ],
    ids=["two-fields", "four-fields", "non-numeric-re", "non-numeric-im", "non-integer-index", "empty"],
)
def test_table_csv_rejects_malformed_rows(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(InvalidGroupError):
        FunctionTable.read_csv(path, make_group([3]))


def test_table_csv_round_trip_keeps_signed_zeros(tmp_path):
    g = make_group([2, 2])
    vals = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.5 - 0.0j])
    path = tmp_path / "table.csv"
    FunctionTable(g, vals).write_csv(path)
    back = FunctionTable.read_csv(path, g).values
    assert back.tobytes() == vals.tobytes()


def test_table_size_validation():
    g = make_group([7])
    with pytest.raises(GroupMismatchError):
        FunctionTable(g, np.zeros(6))
    with pytest.raises(GroupMismatchError):
        SpectrumTable(g, np.zeros(8))


@pytest.mark.parametrize(
    "orders",
    [(2,), (7,), (128,), (7, 7), (2,) * 8, (10, 10, 10), (2,) * 11, (3, 5, 7, 2)],
)
def test_blocked_transforms_equal_per_character_oracle(orders):
    g = make_group(list(orders))
    rng = np.random.default_rng(g.total_size)
    vals = rng.normal(size=g.total_size) + 1j * rng.normal(size=g.total_size)
    f = FunctionTable(g, vals)
    s = SpectrumTable(g, vals)
    assert oracle_close(dft(g, f).values, dft_oracle(g, f).values)
    assert oracle_close(idft(g, s).values, idft_oracle(g, s).values)


def test_strided_values_transform_as_their_contiguous_copy(transform_memo):
    # a strided BLAS dot can differ in the last bit, and the memo keys on content alone
    g = make_group([128])
    rng = np.random.default_rng(3)
    wide = rng.normal(size=256) + 1j * rng.normal(size=256)
    f = FunctionTable(g, wide[::2])
    assert f.values.flags.c_contiguous
    assert dft(g, f).values.tobytes() == _uncached(g, wide[::2].copy(), "dft").tobytes()


# -- the transform memo ----------------------------------------------------------


@pytest.fixture
def transform_memo():
    groups._MEMO.clear()
    yield groups._MEMO
    groups._MEMO.clear()


def _uncached(g, values, direction):
    transform = np.fft.fftn if direction == "dft" else np.fft.ifftn
    return transform(values.reshape(g.orders)).ravel()


def _oracle(g, values, direction):
    if direction == "dft":
        return dft_oracle(g, FunctionTable(g, values)).values
    return idft_oracle(g, SpectrumTable(g, values)).values


MEMO_GROUPS = [make_group([128]), make_group([7, 7, 7]), make_group([2] * 8)]
WRITES = [0.0, -0.0, 1.0, -2.5, 1j, -0.0j, 3.0 - 4.0j]

TRANSFORM_OPS = st.lists(
    st.tuples(
        st.sampled_from(["dft", "idft", "write"]),
        st.integers(0, len(MEMO_GROUPS) - 1),
        st.integers(0, 1),  # which of two tables over the group
        st.integers(0, 2**32 - 1),  # entry written
        st.integers(0, len(WRITES) - 1),  # value written
    ),
    max_size=25,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=TRANSFORM_OPS)
def test_transform_memo_equals_the_uncached_computation(monkeypatch, ops):
    groups._MEMO.clear()
    budget = 2 * 32 * 343  # room for two Z_7^3 entries (a table and its transform each), so transforms evict
    monkeypatch.setattr(groups._MEMO, "budget", budget)
    rng = np.random.default_rng(0)
    tables = [
        [rng.normal(size=g.total_size) + 1j * rng.normal(size=g.total_size) for _ in range(2)]
        for g in MEMO_GROUPS
    ]
    for op, gi, ti, x, w in ops:
        g, values = MEMO_GROUPS[gi], tables[gi][ti]
        if op == "write":
            values[x % g.total_size] = WRITES[w]
            continue
        table = (FunctionTable if op == "dft" else SpectrumTable)(g, values)
        assert table.values is values  # a table holds the caller's array, written in place
        got = (dft if op == "dft" else idft)(g, table).values
        assert got.tobytes() == _uncached(g, values, op).tobytes()  # the same bits, zero signs too
        assert oracle_close(got, _oracle(g, values, op))
        assert memo_bytes(groups._MEMO) <= budget
    groups._MEMO.clear()


@pytest.mark.parametrize("direction", ["dft", "idft"])
def test_transform_memo_hit_is_not_changed_by_a_write_into_a_result(transform_memo, direction):
    g = make_group([7, 7])
    rng = np.random.default_rng(5)
    values = rng.normal(size=49) + 1j * rng.normal(size=49)
    transform = dft if direction == "dft" else idft
    table = (FunctionTable if direction == "dft" else SpectrumTable)(g, values)
    want = _uncached(g, values, direction)
    transform(g, table).values[:] = 0  # written into a miss's result
    transform(g, table).values[:] = 0  # and into a hit's
    assert len(transform_memo) == 1
    assert np.array_equal(transform(g, table).values, want)
    assert np.array_equal(transform_memo[0][-1], want) and np.array_equal(transform_memo[0][-2], values)
    assert oracle_close(want, _oracle(g, values, direction))


def test_transform_memo_tells_dft_and_idft_of_one_array_apart(transform_memo):
    g = make_group([128])
    values = np.random.default_rng(6).normal(size=128) + 0j
    forward = dft(g, FunctionTable(g, values)).values
    inverse = idft(g, SpectrumTable(g, values)).values
    assert len(transform_memo) == 2
    assert np.array_equal(forward, _uncached(g, values, "dft"))
    assert np.array_equal(inverse, _uncached(g, values, "idft"))
    assert oracle_close(forward, _oracle(g, values, "dft")) and oracle_close(inverse, _oracle(g, values, "idft"))
    assert not np.array_equal(forward, inverse)
    for _ in range(2):  # hits keep them apart too
        assert np.array_equal(dft(g, FunctionTable(g, values)).values, forward)
        assert np.array_equal(idft(g, SpectrumTable(g, values)).values, inverse)
    assert len(transform_memo) == 2


def test_transform_memo_evicts_least_recently_used_past_its_budget(transform_memo, monkeypatch):
    g = make_group([7])
    tables = [FunctionTable(g, np.full(7, float(k))) for k in range(12)]
    monkeypatch.setattr(transform_memo, "budget", 8 * 2 * 16 * 7)  # 8 entries of two 7-entry tables
    for f in tables[:8]:
        dft(g, f)
    dft(g, tables[0])  # a hit makes table 0 the most recent entry
    for f in tables[8:]:
        dft(g, f)
        assert memo_bytes(transform_memo) <= transform_memo.budget
    assert [snap[0].real for *_, snap, _ in transform_memo] == [5, 6, 7, 0, 8, 9, 10, 11]
    for f in tables:
        assert np.array_equal(dft(g, f).values, _uncached(g, f.values, "dft"))
        assert oracle_close(dft(g, f).values, _oracle(g, f.values, "dft"))
    assert len(transform_memo) == 8


# -- the memo's compare ----------------------------------------------------------


def _words(*words):
    """float64 values with exactly these bit patterns."""
    return np.array(words, dtype=np.uint64).view(np.float64)


QNAN, NAN_1, NAN_2 = 0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000002


@pytest.mark.parametrize(
    "a,b,same",
    [
        (np.array([0.0, 1.0]), np.array([-0.0, 1.0]), False),
        (np.array([complex(0.0, 1.0)]), np.array([complex(-0.0, 1.0)]), False),
        (np.array([complex(1.0, 0.0)]), np.array([complex(1.0, -0.0)]), False),
        (_words(QNAN, NAN_1), _words(QNAN, NAN_1), True),
        (_words(QNAN, NAN_1), _words(QNAN, NAN_2), False),
        (_words(NAN_1).astype(np.complex128), _words(NAN_1).astype(np.complex128), True),
        (np.arange(4, dtype=np.int64), np.arange(4, dtype=np.int64).view(np.float64), False),
        (np.arange(4, dtype=np.int64), np.arange(4, dtype=np.int64).view(np.uint64), False),
        (np.arange(4, dtype=np.int64), np.arange(4, dtype=np.int64).reshape(2, 2), False),
        (np.arange(4, dtype=np.int64), np.arange(4, dtype=np.int64).view(np.complex128), False),
        (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), True),
        (np.zeros((0, 3), dtype=np.complex128), np.zeros((0, 3), dtype=np.complex128), True),
        (np.zeros((0, 3), dtype=np.int64), np.zeros((3, 0), dtype=np.int64), False),
        (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64), False),
        (np.arange(6, dtype=np.int64).reshape(2, 3), np.arange(6, dtype=np.int64).reshape(2, 3), True),
    ],
    ids=[
        "zero-vs-negative-zero", "complex-zero-vs-negative-zero", "imaginary-zero-signs",
        "equal-nan-payloads", "other-nan-payload", "complex-nan-payloads",
        "same-bytes-as-float64", "same-bytes-as-uint64", "same-bytes-other-shape", "same-bytes-as-complex",
        "empty", "empty-2d", "empty-other-shape", "empty-other-dtype", "equal-2d",
    ],
)
def test_same_bits_compares_shape_dtype_and_every_bit(a, b, same):
    assert groups._same_bits(a, b) is same and groups._same_bits(b, a) is same
