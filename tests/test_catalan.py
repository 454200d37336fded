import importlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permpat.catalan import (
    TABLE_CAP,
    _noonan_closed_stream,
    binomial,
    catalan,
    catalan_table,
    noonan_catalan_form,
    noonan_closed,
    noonan_convolution,
)
from permpat.errors import CapExceeded, InvalidRange

CATALAN_PREFIX = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900, 2674440)
ONE_321_COUNTS = {3: 1, 4: 6, 5: 27, 6: 110, 7: 429, 8: 1638, 9: 6188, 10: 23256}


def test_binomial_examples():
    assert binomial(6, 6) == 1
    assert binomial(8, 7) == 8
    assert binomial(4, 5) == 0
    assert binomial(10, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_rejects_negative_n():
    with pytest.raises(InvalidRange):
        binomial(-1, 0)


@given(st.integers(1, 200), st.integers(-2, 202))
def test_binomial_pascal_rule(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_catalan_prefix():
    assert tuple(catalan(n) for n in range(15)) == CATALAN_PREFIX
    assert catalan(0) == 1
    assert catalan(5) == 42
    assert catalan(10) == 16796


def test_catalan_table_matches_closed_form():
    assert catalan_table(0) == (1,)
    assert catalan_table(5) == (1, 1, 2, 5, 14, 42)
    table = catalan_table(2000)
    assert len(table) == 2001
    assert all(table[n] == catalan(n) for n in range(2001))


def test_half_sums_match_the_full_sums():
    # The plain recurrence C_m = sum C_i C_{m-1-i} checks the triangle-built
    # table, and the plain sum over every term checks the convolution's
    # half-sum, odd and even lengths alike.
    full = [1]
    for m in range(1, 301):
        full.append(sum(full[i] * full[m - 1 - i] for i in range(m)))
    assert catalan_table(300) == tuple(full)
    for n in range(3, 300):
        assert noonan_convolution(n) == sum(
            (full[b] - full[b - 1]) * (full[n - b + 1] - full[n - b]) for b in range(2, n)
        )


def test_table_grown_in_steps_equals_the_table_built_at_once(monkeypatch):
    module = importlib.import_module("permpat.catalan")

    def fresh():
        monkeypatch.setattr(module, "_table", [1])
        monkeypatch.setattr(module, "_row", [1])

    fresh()
    steps = [catalan_table(n) for n in (0, 10, 500)]
    stepped_row = module._row
    fresh()
    at_once = catalan_table(500)
    assert steps[-1] == at_once
    assert steps[:2] == [at_once[:1], at_once[:11]]
    # The kept row is row 500 of the triangle, ending in C_500, either way.
    assert stepped_row == module._row
    assert len(stepped_row) == 501 and stepped_row[-1] == at_once[-1]


def test_table_routes_refuse_sizes_past_the_cap():
    # The cap is checked before any row is built.
    with pytest.raises(CapExceeded):
        catalan_table(TABLE_CAP + 1)
    with pytest.raises(CapExceeded):
        noonan_catalan_form(TABLE_CAP - 1)  # needs C_{n+2}
    with pytest.raises(CapExceeded):
        noonan_convolution(TABLE_CAP + 2)  # needs C_{n-1}


def test_streamed_closed_form_equals_noonan_closed_to_2000():
    assert list(_noonan_closed_stream(0)) == []
    assert list(_noonan_closed_stream(3)) == [0, 0, 1]
    assert list(_noonan_closed_stream(2000)) == [noonan_closed(n) for n in range(1, 2001)]


def test_negative_arguments_rejected():
    for fn in (catalan, catalan_table):
        with pytest.raises(InvalidRange):
            fn(-1)
    for fn in (noonan_closed, noonan_catalan_form, noonan_convolution):
        with pytest.raises(InvalidRange):
            fn(0)


def test_catalan_ratio_identity():
    # C_n / C_{n-1} = (4n-2)/(n+1), cross-multiplied to stay in integers
    for n in range(1, 201):
        assert catalan(n) * (n + 1) == catalan(n - 1) * (4 * n - 2)


def test_one_321_count_values():
    for n, want in ONE_321_COUNTS.items():
        assert noonan_closed(n) == want
    assert noonan_closed(1) == 0
    assert noonan_closed(2) == 0


def test_catalan_form_values():
    assert noonan_catalan_form(4) == 132 - 4 * 42 + 3 * 14 == 6
    assert noonan_catalan_form(3) == 42 - 4 * 14 + 3 * 5 == 1
    assert noonan_catalan_form(1) == 5 - 4 * 2 + 3 * 1 == 0


def test_convolution_values():
    assert noonan_convolution(3) == 1  # single term (C2-C1)^2
    assert noonan_convolution(4) == 6  # 1*3 + 3*1
    assert noonan_convolution(5) == 27  # 1*9 + 3*3 + 9*1
    assert noonan_convolution(1) == 0
    assert noonan_convolution(2) == 0


def test_identity_chain_small():
    for n in range(3, 120):
        assert noonan_convolution(n) == noonan_catalan_form(n) == noonan_closed(n)


def test_summation_range_extension_is_free():
    # Widening the convolution to b = 1..n adds only vanishing terms,
    # because C_1 - C_0 = 0.
    t = catalan_table(501)
    for n in range(3, 501):
        full = sum(
            (t[b] - t[b - 1]) * (t[n - b + 1] - t[n - b]) for b in range(1, n + 1)
        )
        assert full == noonan_convolution(n)


def test_three_divides_exactly():
    for n in range(1, 501):
        assert (3 * binomial(2 * n, n + 3)) % n == 0
