"""The built-in self checks must all pass on a healthy install."""
from dataclasses import replace

import numpy as np
import pytest

from qec_cadence import exact, faultsim, model, selfcheck, steane
from qec_cadence.ancilla import default_circuit, single_fault_audit, strip_verification
from qec_cadence.faultsim import PlEstimate, estimate_many
from qec_cadence.selfcheck import CheckResult, run_self_checks


def test_all_checks_pass():
    results = run_self_checks()
    assert len(results) == 7
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.passed, f"{r.name}: {r.detail}"


def test_check_names_are_unique_and_descriptive():
    results = run_self_checks()
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
    for r in results:
        assert r.name
        assert r.detail


def _simulates(transform):
    """A faulty sampler that in effect simulates transform(cfg)."""
    def install(monkeypatch):
        def faulty(cfgs, **kwargs):
            return estimate_many([transform(cfg) for cfg in cfgs], **kwargs)
        monkeypatch.setattr(selfcheck, "estimate_many", faulty)
    return install


# sampler faults the sampler-vs-exact check must catch
SAMPLER_FAULTS = {
    "ignores skips": _simulates(lambda cfg: replace(cfg, eps_a=0.0)),
    # a block of one gate has no m - 1 variant to run
    "m - 1 gates per block": _simulates(lambda cfg: replace(
        cfg, m=cfg.m - 1, n_gates=cfg.blocks * (cfg.m - 1)) if cfg.m > 1 else cfg),
}


@pytest.mark.parametrize("fault", sorted(SAMPLER_FAULTS))
def test_sampler_vs_exact_rejects_a_faulty_sampler(monkeypatch, fault):
    SAMPLER_FAULTS[fault](monkeypatch)
    result = selfcheck._check_sampler_vs_exact()
    assert not result.passed, result.detail


def test_sampler_configs_draw_independently(monkeypatch):
    # the chi-square adds the four z-scores as independent, and configs
    # that differ in eps_a alone would share their draws
    seen = []

    def capture(cfgs, **kwargs):
        seen.extend(cfgs)
        return [PlEstimate.from_counts(0, cfg.shots) for cfg in cfgs]
    monkeypatch.setattr(selfcheck, "estimate_many", capture)
    selfcheck._check_sampler_vs_exact()
    assert len(seen) == len(selfcheck.SAMPLER_CONFIGS) == 4
    assert [len(g) for g in faultsim._groups(seen)] == [1, 1, 1, 1]


def test_exact_lumping_rejects_a_round_that_breaks_the_symmetry(monkeypatch):
    def skewed(noise):
        # move one row's mass between two columns; the row still sums to 1
        t = exact.syndrome_extraction_transfer(noise)
        t[5, 9] += t[5, 5]
        t[5, 5] = 0.0
        return t
    monkeypatch.setattr(selfcheck, "syndrome_extraction_transfer", skewed)
    result = selfcheck._check_exact_lumping()
    assert not result.passed, result.detail


def test_approx_limit_rejects_a_slipped_coefficient(monkeypatch):
    # c1 is 85% of P_L / N at eps_a 0.7, m 16: 0.1% on it reads ~8.5e-4
    exact_limit = model.approx_coefficients
    def slipped(rates, scale):
        coeffs = exact_limit(rates, scale)
        return replace(coeffs, c1=coeffs.c1 * 1.001)
    monkeypatch.setattr(model, "approx_coefficients", slipped)
    result = selfcheck._check_approx_limit()
    assert not result.passed, result.detail


def _syndrome_with_rows_0_and_1_swapped():
    rows = (steane.PARITY_ROWS[1], steane.PARITY_ROWS[0], steane.PARITY_ROWS[2])
    return np.array(
        [sum(((e & row).bit_count() & 1) << k for k, row in enumerate(rows))
         for e in range(128)],
        dtype=np.uint8,
    )


@pytest.mark.parametrize("table,mutant", [
    ("DECODE", np.zeros(8, dtype=np.uint8)),
    ("SYNDROME", _syndrome_with_rows_0_and_1_swapped()),
], ids=["decode-zeros", "syndrome-rows-0-1-swapped"])
def test_code_tables_reject_a_decoder_that_corrects_nothing(monkeypatch, table,
                                                           mutant):
    # pattern 1 (qubit 1 alone) is the first each mutant leaves uncorrected:
    # zeros flip nothing, and the swapped rows read its syndrome as 2 and
    # flip qubit 2 instead
    monkeypatch.setattr(steane, table, mutant)
    result = selfcheck._check_code_tables()
    assert not result.passed
    assert result.detail == "weight-1 pattern 1 not corrected"


def _syndrome_with_pattern_127_flipped():
    mutant = steane.SYNDROME.copy()
    mutant[127] ^= 1
    return mutant


# one mutant per later property, each clean on the properties before it
@pytest.mark.parametrize("table,mutant,detail", [
    ("RESIDUAL_LOGICAL", np.zeros(128, dtype=bool),
     "weight-2 pattern 3 not logical"),
    # weights 0 and 1 read clean, weight 2 logical, but stabilizer 30
    # (weight 4) moves pattern 0 into the logical verdict
    ("RESIDUAL_LOGICAL", steane.WEIGHT >= 2,
     "verdict not stabilizer-invariant at 0^30"),
    # only pairs that XOR to 127 see the flip; row 0 never does, as
    # SYNDROME[0] == 0
    ("SYNDROME", _syndrome_with_pattern_127_flipped(),
     "syndrome not linear at 1,126"),
], ids=["verdict-never-logical", "verdict-by-weight", "syndrome-127-flipped"])
def test_code_tables_name_the_first_failing_property(monkeypatch, table, mutant,
                                                     detail):
    monkeypatch.setattr(steane, table, mutant)
    result = selfcheck._check_code_tables()
    assert not result.passed
    assert result.detail == detail


def test_ancilla_audit_fails_on_a_harmful_accepted_fault(monkeypatch):
    # the unverified circuit's first finding, reported for every circuit
    first = single_fault_audit(strip_verification(default_circuit()))[:1]
    monkeypatch.setattr(selfcheck, "single_fault_audit", lambda circuit: first)
    result = selfcheck._check_ancilla_audit()
    assert not result.passed
    assert result.detail.startswith("1 harmful accepted fault(s), first: ")


def test_ancilla_audit_fails_when_the_audit_flags_nothing(monkeypatch):
    # an audit blind even to an unverified circuit has no teeth
    monkeypatch.setattr(selfcheck, "single_fault_audit", lambda circuit: [])
    result = selfcheck._check_ancilla_audit()
    assert not result.passed
    assert result.detail == "audit reported nothing even for an unverified circuit"
