"""Invariant-check framework: full run, selection, injection, determinism."""

import dataclasses

import pytest

from thermoqfi import CheckResult, DomainError, check_names, run_checks
from thermoqfi import validate
from thermoqfi.validate import INJECTABLE_CHECKS


class TestCheckCatalog:
    def test_sixteen_named_checks(self):
        names = check_names()
        assert len(names) == 16
        assert len(set(names)) == 16
        assert "column-sums" in names
        assert "decomposition-identity" in names
        assert "coherence-advantage" in names

    def test_injectable_subset(self):
        assert INJECTABLE_CHECKS <= set(check_names())


class TestRunChecks:
    def test_all_pass(self):
        results = run_checks()
        assert len(results) == 16
        assert all(isinstance(res, CheckResult) for res in results)
        failed = [res.name for res in results if not res.passed]
        assert failed == []
        assert all(res.detail for res in results)

    def test_selection_preserves_catalog_order(self):
        results = run_checks(names=("detailed-balance", "column-sums"))
        assert [res.name for res in results] == ["column-sums", "detailed-balance"]

    def test_deterministic_details(self):
        r1 = run_checks(names=("derivative-oracle",))
        r2 = run_checks(names=("derivative-oracle",))
        assert r1 == r2

    def test_decomposition_row_checks_the_population_part(self, monkeypatch):
        # F_d off by 1e-6 relative, F and the gain untouched: only the F_d comparison sees it
        decompose = validate.qfi_decomposition

        def skewed(rho, drho):
            result = decompose(rho, drho)
            return dataclasses.replace(result, diagonal_part=result.diagonal_part * (1.0 + 1e-6))

        monkeypatch.setattr(validate, "qfi_decomposition", skewed)
        (result,) = run_checks(names=("decomposition-identity",))
        assert not result.passed
        assert result.detail.endswith("rel (tol 1e-9), worst F_d mismatch 1.000e-06 rel (tol 1e-9)")

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError, match="unknown checks"):
            run_checks(names=("no-such-check",))

    def test_empty_selection_rejected(self):
        with pytest.raises(DomainError, match="no checks selected"):
            run_checks(names=())


class TestFaultInjection:
    def test_each_injectable_check_detects_its_fault(self):
        for name in sorted(INJECTABLE_CHECKS):
            results = run_checks(names=(name,), inject_fault=name)
            assert len(results) == 1
            assert not results[0].passed, f"{name} missed its injected fault"

    def test_injection_does_not_disturb_other_checks(self):
        results = run_checks(
            names=("column-sums", "detailed-balance"), inject_fault="column-sums"
        )
        by_name = {res.name: res for res in results}
        assert not by_name["column-sums"].passed
        assert by_name["detailed-balance"].passed

    def test_injection_outside_the_selection_rejected(self):
        with pytest.raises(DomainError, match="injectable selected checks: column-sums$"):
            run_checks(names=("column-sums",), inject_fault="detailed-balance")
        with pytest.raises(DomainError, match="injectable selected checks: none$"):
            run_checks(names=("zero-time-qfi",), inject_fault="column-sums")

    def test_noninjectable_check_rejected(self):
        with pytest.raises(DomainError, match="cannot inject"):
            run_checks(inject_fault="zero-time-qfi")
        with pytest.raises(DomainError, match="cannot inject"):
            run_checks(inject_fault="bogus")
