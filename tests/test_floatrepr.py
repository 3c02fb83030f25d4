"""The vectorized float kernel against repr, cell by cell."""

import numpy as np
import pytest

from thermoqfi import QubitInit, Scenario
from thermoqfi._floatrepr import fast_cells, render
from thermoqfi.cli import TRACE_COLUMNS
from thermoqfi.qfi import trace_blocks


def rendered(values, nonfinite=None) -> list[str]:
    """The text of each cell of render(values), its NUL slots dropped."""
    cells = render(values, nonfinite)
    ends = np.full((len(cells), 1), ord("\n"), dtype=np.uint8)
    text = np.concatenate([cells, ends], axis=1).tobytes().translate(None, b"\0")
    return text.decode().split("\n")[:-1]


def assert_matches_repr(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [repr(v) for v in values.tolist()]
    got = rendered(values)
    assert len(got) == len(expected)
    mismatches = [(e, g) for e, g in zip(expected, got) if e != g]
    assert mismatches[:5] == [], f"{len(mismatches)} of {len(expected)} cells differ"


def neighbours(values, ulps=1):
    """values and their nearest doubles, up to ulps steps away on each side."""
    values = np.asarray(values, dtype=np.float64)
    out, up, down = [values], values, values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


class TestMatchesRepr:
    def test_random_bit_patterns(self):
        # every exponent, subnormals and nan payloads included
        bits = np.random.default_rng(20240).integers(0, 2**64, 1_000_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert np.isnan(values).any() and (np.abs(values) < 2.0**-1022).any()
        assert_matches_repr(values)

    def test_powers_of_two_and_their_neighbours(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        values = neighbours(powers)
        assert_matches_repr(np.concatenate([values, -values]))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = neighbours(powers, ulps=2)
        assert_matches_repr(np.concatenate([values, -values]))

    def test_zeros_infinities_and_integers(self):
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308]
        around = np.arange(2**53 - 3000, 2**53 + 3000, dtype=np.int64).astype(np.float64)
        assert_matches_repr(np.concatenate([specials, around, np.arange(-3000.0, 3000.0)]))

    @pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e15, 1e16, 1e17])
    def test_both_sides_of_the_layout_switches(self, edge):
        # repr switches between fixed point and exponent form at 1e-4 and 1e16
        values = neighbours([edge, edge * (1 - 2**-20), edge * (1 + 2**-20)], ulps=40)
        assert_matches_repr(np.concatenate([values, -values]))

    def test_short_decimals_and_grids(self):
        rng = np.random.default_rng(7)
        short = [np.round(rng.random(2_000) * 10.0**k, d) for k in range(-4, 8) for d in (1, 3, 6)]
        assert_matches_repr(np.concatenate(short))
        assert_matches_repr(rng.standard_normal(50_000) * 10.0 ** rng.integers(-12, 12, 50_000))
        assert_matches_repr(np.linspace(0.0, 123.456, 50_000))


class TestNonfinite:
    VALUES = np.array([np.nan, 1.5, np.inf, -np.inf, -0.0])

    def test_csv_layout_keeps_repr(self):
        assert rendered(self.VALUES) == ["nan", "1.5", "inf", "-inf", "-0.0"]

    def test_json_layout_writes_its_text(self):
        assert rendered(self.VALUES, "null") == ["null", "1.5", "null", "null", "-0.0"]


def test_fast_path_covers_a_dense_trace():
    # A kernel that sends every cell to repr is still correct, only slow:
    # this bounds the share of cells it may leave to repr on a real trace.
    scenario = Scenario.qubit(
        omega12=1.0, beta=1.0986122886681098, gamma=1.0, a=0.3, r=0.5, phi=0.7
    )
    init = QubitInit(a=0.3, r=0.5, phi=0.7)
    times = np.linspace(0.0, scenario.default_t_max, 200_000)
    [cols] = trace_blocks(init, scenario.spectrum, scenario.bath, times, len(times))
    cells = slow = 0
    for name in TRACE_COLUMNS:
        column = np.asarray(cols[name], dtype=np.float64)
        cells += column.size
        slow += fast_cells(column)[1].size
    assert cells == 1_600_000
    assert slow <= 1e-4 * cells, slow
