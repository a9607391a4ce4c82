"""The built-in self checks must all pass on a healthy install."""
from dataclasses import replace

import numpy as np
import pytest

from qec_cadence import exact, faultsim, selfcheck
from qec_cadence.faultsim import estimate_pl_mc
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
        def faulty(cfg, **kwargs):
            return estimate_pl_mc(transform(cfg), **kwargs)
        monkeypatch.setattr(selfcheck, "estimate_pl_mc", faulty)
    return install


def _redraws_skipped_faulty_rounds(monkeypatch):
    # forgets which faulty rounds were skipped, so a dirty shot draws the
    # skip of that round a second time, as if the round were fault-free
    skip_faulty_rounds = faultsim._skip_faulty_rounds

    def faulty(rng, faults, eps_a):
        performed, _ = skip_faulty_rounds(rng, faults, eps_a)
        return performed, np.empty(0, dtype=np.int64)
    monkeypatch.setattr(faultsim, "_skip_faulty_rounds", faulty)


# sampler faults the sampler-vs-exact check must catch
SAMPLER_FAULTS = {
    "ignores skips": _simulates(lambda cfg: replace(cfg, eps_a=0.0)),
    # a block of one gate has no m - 1 variant to run
    "m - 1 gates per block": _simulates(lambda cfg: replace(
        cfg, m=cfg.m - 1, n_gates=cfg.blocks * (cfg.m - 1)) if cfg.m > 1 else cfg),
    "re-draws a skipped faulty round": _redraws_skipped_faulty_rounds,
}


@pytest.mark.parametrize("fault", sorted(SAMPLER_FAULTS))
def test_sampler_vs_exact_rejects_a_faulty_sampler(monkeypatch, fault):
    SAMPLER_FAULTS[fault](monkeypatch)
    result = selfcheck._check_sampler_vs_exact()
    assert not result.passed, result.detail


def test_exact_lumping_rejects_a_round_that_breaks_the_symmetry(monkeypatch):
    def skewed(noise, circuit=None):
        # move one row's mass between two columns; the row still sums to 1
        t = exact.syndrome_extraction_transfer(noise, circuit)
        t[5, 9] += t[5, 5]
        t[5, 5] = 0.0
        return t
    monkeypatch.setattr(selfcheck, "syndrome_extraction_transfer", skewed)
    result = selfcheck._check_exact_lumping()
    assert not result.passed, result.detail
