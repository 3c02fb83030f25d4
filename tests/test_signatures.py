"""Every public qubit entry names the thermometer in one order: (init, spectrum, bath, ...).

A qubit thermometer is set by its initial state, its gap and its bath; the
entries that take one take those three first, in that order, so a call can
pass the same triple to each of them.
"""

import inspect

import pytest

from thermoqfi import (
    beta_derivative_qubit,
    cramer_rao_report,
    maximize_qfi_over_time,
    qfi_values,
)
from thermoqfi.qfi import trace_blocks


@pytest.mark.parametrize(
    "entry",
    [qfi_values, beta_derivative_qubit, trace_blocks, maximize_qfi_over_time, cramer_rao_report],
    ids=lambda entry: entry.__name__,
)
def test_qubit_entries_take_init_spectrum_bath_first(entry):
    assert list(inspect.signature(entry).parameters)[:3] == ["init", "spectrum", "bath"]
