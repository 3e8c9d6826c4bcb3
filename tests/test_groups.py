import numpy as np
import pytest

from _oracles import char_eval, dft_oracle, idft_oracle
from hsketch.errors import GroupMismatchError, InvalidGroupError
from hsketch.groups import (
    FunctionTable,
    SpectrumTable,
    dft,
    idft,
    make_group,
    norms,
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


def test_enumeration_order_first_factor_most_significant():
    g = make_group([2, 3])
    order = [g.element_at(i) for i in range(6)]
    assert order == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for i, x in enumerate(order):
        assert g.index_of(x) == i


def test_element_arithmetic_examples():
    g = make_group([7])
    assert g.add((3,), (5,)) == (1,)
    assert g.neg((3,)) == (4,)
    assert g.scalar_mul(10, (3,)) == (2,)
    with pytest.raises(GroupMismatchError):
        g.add((3,), (1, 2))


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
        lhs = char_eval(g, g.add(x, y), gam)
        rhs = char_eval(g, x, gam) * char_eval(g, y, gam)
        assert abs(lhs - rhs) <= 1e-10
        lhs2 = char_eval(g, x, g.add(gam, gam2))
        rhs2 = char_eval(g, x, gam) * char_eval(g, x, gam2)
        assert abs(lhs2 - rhs2) <= 1e-10
        assert abs(char_eval(g, g.neg(x), gam) - np.conj(char_eval(g, x, gam))) <= 1e-12
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


def test_idft_examples():
    p = 7
    g = make_group([p])
    s = SpectrumTable(g, np.array([p] + [0] * (p - 1), dtype=complex))
    f = idft(g, s)
    assert np.allclose(f.values, np.ones(p), atol=1e-12)
    zero = idft(g, SpectrumTable(g, np.zeros(p)))
    assert np.allclose(zero.values, 0.0)


def test_norms_examples():
    p = 7
    g = make_group([p])
    f = FunctionTable.from_function(g, lambda x: 1.0 if x[0] == 3 else 0.0)
    got = norms(f, dft(g, f))
    assert got == pytest.approx((1.0, 1.0), abs=1e-12)

    zero = FunctionTable(g, np.zeros(p))
    assert norms(zero, dft(g, zero)) == (0.0, 0.0)

    g2 = make_group([p, p])
    f_cap = FunctionTable.from_function(g2, lambda x: 1.0 if x[0] != 0 and x[1] != 0 else 0.0)
    inf_n, hat1 = norms(f_cap, dft(g2, f_cap))
    assert inf_n == pytest.approx(1.0, abs=1e-12)
    assert hat1 == pytest.approx(4 * (p - 1) ** 2 / p**2, abs=1e-9)
    assert hat1 < 4.0


def test_norms_inequality_random_tables():
    rng = np.random.default_rng(3)
    for orders in ([7], [6], [2, 3, 5], [128]):
        g = make_group(orders)
        for _ in range(5):
            vals = rng.standard_normal(g.total_size) + 1j * rng.standard_normal(g.total_size)
            f = FunctionTable(g, vals)
            inf_n, hat1 = norms(f, dft(g, f))  # raises if the inequality fails
            assert inf_n <= hat1 + 1e-9


def test_norms_rejects_non_transform_pair():
    g = make_group([7])
    f = FunctionTable(g, np.full(7, 5.0))
    s = SpectrumTable(g, np.zeros(7))
    with pytest.raises(AssertionError):
        norms(f, s)


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
    assert np.array_equal(dft(g, f).values, dft_oracle(g, f).values)
    assert np.array_equal(idft(g, s).values, idft_oracle(g, s).values)
