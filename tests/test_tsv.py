import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmhkit.tsv import TSV_CHUNK_ROWS, tsv_chunks


def tsv_rows(columns) -> str:
    return b"".join(tsv_chunks(columns)).decode("ascii")


def per_row(*columns) -> str:
    """The reference: one Python format call per value."""
    return "".join("\t".join(format(float(v), ".9g") for v in row) + "\n" for row in zip(*columns))


def powers_of_ten_and_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-6, 11)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


EDGES = [
    0.9999999995, 999999999.5, 0.00009999999995, 9.999999995e-5, 99999999.95,
    # exact nine-digit ties: the digits are rint of an exact .5
    100000000.5, 123456788.5, 123456789.5, 12345678.25, 12345678.75, 1234567.125,
    # decimal ties whose scaled product x·10**k rounds onto .5 from the other side
    0.005258698285, 7.796507575, 779650.7575, 0.009554173265, 229.7436515, 0.9537845025,
    # digits that strip to "1" and to "0.1"
    1.0, 10.0, 100.0, 1e8, 0.1, 0.01, 0.001, 0.0001, 0.10000000001, 0.099999999999,
    # integers and fractions with inner zeros
    100000001.0, 1000.5, 10.05, 0.000100000001, 0.5, 0.25, 1 / 3, 2 / 3,
    # the fixed-notation limits and what lies past them
    1e-4, 1e-5, 9.99e-5, 1e9, 5e8, 2.0**29, np.nextafter(2.0**29, 0), 2.0**-14,
    np.nextafter(2.0**-14, 0),
    0.0, -0.0, -1.0, -0.5, float("nan"), float("inf"), float("-inf"), 5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308,
]


@pytest.mark.parametrize("values", [EDGES, powers_of_ten_and_neighbours()], ids=["edges", "powers"])
def test_edge_values_match_python_format(values):
    values = np.asarray(values, dtype=np.float64)
    assert tsv_rows([values]) == per_row(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_double_matches_python_format(values):
    assert tsv_rows([np.array(values, dtype=np.float64)]) == per_row(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-4, max_value=1e9), min_size=1, max_size=64))
def test_fixed_notation_range_matches_python_format(values):
    assert tsv_rows([np.array(values)]) == per_row(values)


def test_random_decades_match_python_format():
    rng = np.random.default_rng(7)
    values = np.concatenate([
        10.0 ** rng.uniform(-6, 10, 20000),
        rng.random(20000).astype(np.float32).astype(np.float64),
        rng.integers(1, 10**6, 20000) / rng.integers(1, 10**6, 20000),
    ])
    assert tsv_rows([values]) == per_row(values)


def test_columns_are_tab_separated_rows():
    assert tsv_rows([np.array([1.0, 0.5]), np.array([2.0, math.nan])]) == "1\t2\n0.5\tnan\n"
    assert tsv_rows([np.array([]), np.array([])]) == ""


def test_chunk_boundary_on_fallback_rows():
    n = TSV_CHUNK_ROWS + 5
    rng = np.random.default_rng(3)
    a, b, c = rng.random(n), rng.random(n), np.linspace(0.0, 1.0, n)
    # the last row of the first chunk and the first of the second need Python
    a[TSV_CHUNK_ROWS - 1 : TSV_CHUNK_ROWS + 1] = (123456789.5, float("nan"))
    b[TSV_CHUNK_ROWS - 1 : TSV_CHUNK_ROWS + 1] = (-0.0, 1e-5)
    c[TSV_CHUNK_ROWS] = 1e12
    text = tsv_rows([a, b, c])
    assert text == per_row(a, b, c)
    lines = text.splitlines()
    assert lines[TSV_CHUNK_ROWS - 1] == f"123456790\t-0\t{c[TSV_CHUNK_ROWS - 1]:.9g}"
    assert lines[TSV_CHUNK_ROWS] == "nan\t1e-05\t1e+12"


def test_sixteen_character_values_leave_no_room_for_a_separator():
    values = np.array([0.5, -3.194756905e140, -1.23456789e-308, 2.0])
    assert len(format(values[1], ".9g")) == 16
    assert tsv_rows([values, values[::-1]]) == per_row(values, values[::-1])


def assert_rows_match_python_format(*columns):
    """``tsv_chunks`` against ``per_row``, line by line, so that a failure
    names its rows instead of diffing two long texts."""
    got, want = tsv_rows(columns).splitlines(), per_row(*columns).splitlines()
    assert len(got) == len(want)
    assert [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w] == []


def test_runs_of_equal_values_match_python_format():
    # Columns made of long runs, so each chunk formats a run's first value
    # only. Runs are told apart by their bits: 0.0 and -0.0 must not merge.
    n = TSV_CHUNK_ROWS + 600
    rng = np.random.default_rng(11)
    run_values = {
        "signed zeros": [0.0, -0.0, 0.0, -0.0, 0.5, -0.0],
        "nan and inf": [math.nan, math.inf, -math.inf, math.nan, 0.125, math.inf, -math.nan],
        "decimals": [0.3, 0.30000000000000004, 123456789.5, 1e-5, 0.3],
    }
    columns = []
    for values in run_values.values():
        lengths = rng.integers(1, 200, size=n)
        column = np.repeat(np.resize(np.array(values), n), lengths)[:n]
        columns.append(column)
    # one run across the chunk boundary
    across = np.repeat(np.array([0.75, 2.5, 0.75]), [TSV_CHUNK_ROWS - 100, 200, n - TSV_CHUNK_ROWS - 100])
    columns.append(across)
    assert_rows_match_python_format(*columns)
    # a run of a 16-character value: its chunk is formatted value by value
    sixteen = np.repeat(np.array([0.5, -3.194756905e140, 2.0]), [5, 300, 5])
    assert_rows_match_python_format(sixteen)
    assert_rows_match_python_format(sixteen, np.zeros(sixteen.size))
