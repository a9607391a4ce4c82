"""The built-in self checks must all pass on a healthy install."""
from qec_cadence.selfcheck import CheckResult, run_self_checks


def test_all_checks_pass():
    results = run_self_checks()
    assert len(results) == 6
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
