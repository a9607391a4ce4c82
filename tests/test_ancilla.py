"""Verified ancilla preparation: schedule shape, sampling, exhaustive audit.

The single-fault audit is the safety net for the whole simulator: any
accepted single-fault outcome that looks like two independent data errors
would silently break the second-order model.  The default schedule must
audit clean, and removing its verification gates must make the audit fire
(proving the audit has teeth, not just that the circuit is lucky).
"""
import numpy as np
import pytest

from qec_cadence import steane
from qec_cadence.ancilla import (
    AncillaCircuit,
    Op,
    RetryLimitError,
    _fault_sites,
    _run_with_fault,
    accepted_distribution,
    build_verified_plus_circuit,
    default_circuit,
    prepare_verified_ancilla,
    simulate_once,
    single_fault_audit,
    strip_verification,
)
from qec_cadence.noise import NoiseParams


def op_by_op_distribution(circuit, noise):
    """(probs, p_accept) by carrying the 2^n flip-pattern law through each op.

    The reference for accepted_distribution: one full pass over the state
    vector per op, faults applied after each op's ideal action.
    """
    idx = np.arange(1 << circuit.n_qubits)
    dist = (idx == 0).astype(float)
    p_cx = noise.cnot_flip
    rate = {"prep_zero": noise.init_flip, "prep_plus": noise.init_flip,
            "wait": noise.wait_flip, "measure": noise.meas_flip}
    for op in circuit.ops:
        if op.kind == "cx":
            c, t = op.qubits
            dist = dist[idx ^ (((idx >> c) & 1) << t)]  # an involution
            d0 = (1.0 - 3.0 * p_cx) * dist
            d0 += p_cx * dist[idx ^ (1 << c)]
            d0 += p_cx * dist[idx ^ (1 << t)]
            d0 += p_cx * dist[idx ^ ((1 << c) | (1 << t))]
            dist = d0
        else:
            p = rate[op.kind]
            if p != 0.0:
                dist = (1.0 - p) * dist + p * dist[idx ^ (1 << op.qubits[0])]
    keep = np.ones(idx.size, dtype=bool)
    for q in circuit.measured_qubits:
        keep &= (idx >> q) & 1 == 0
    p_accept = float(dist[keep].sum())
    probs = np.zeros(128)
    np.add.at(probs, idx[keep] & 0x7F, dist[keep])
    return probs / p_accept, p_accept


CIRCUITS = {
    "default": default_circuit(),
    "stripped": strip_verification(default_circuit()),
    # no CNOT at all: every fault stays on its own qubit
    "bare": AncillaCircuit(
        ops=tuple(Op("prep_plus", (q,), 0) for q in range(7))
        + (Op("wait", (3,), 1), Op("measure", (7,), 1)),
        n_qubits=8,
    ),
}
NOISE_OPTIONS = [
    {}, {"p_meas": 0.5}, {"include_meas_error": False},
    {"include_init_error": False}, {"include_wait_error": False},
]


class TestScheduleShape:
    def test_basic_layout(self):
        c = default_circuit()
        assert c.n_qubits == 8
        assert c.measured_qubits == (7,)
        assert len(c.ops) == 59
        assert max(op.step for op in c.ops) == 8

    def test_every_qubit_acted_once_per_step(self):
        c = default_circuit()
        for step in range(9):
            touched = [
                q for op in c.ops if op.step == step for q in op.qubits
            ]
            assert sorted(touched) == list(range(8)), f"step {step}"

    def test_wait_slot_count(self):
        c = default_circuit()
        assert sum(1 for op in c.ops if op.kind == "wait") == 37

    def test_verifier_couples_to_the_overlap_of_two_parity_rows(self):
        # the verification qubit copies exactly the qubits on which the
        # first two parity rows differ, i.e. a row of the check matrix
        c = default_circuit()
        sources = sorted(
            op.qubits[0] + 1
            for op in c.ops
            if op.kind == "cx" and op.qubits[1] == 7
        )
        row12 = steane.PARITY_ROWS[0] ^ steane.PARITY_ROWS[1]
        assert steane.pattern_from_qubits(sources) == row12
        assert sources == [1, 2, 5, 6]

    def test_builder_is_cached_but_equivalent(self):
        assert default_circuit() is default_circuit()
        assert build_verified_plus_circuit() == default_circuit()


class TestCircuitValidation:
    def test_rejects_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            AncillaCircuit(
                ops=(Op("prep_zero", (3,), 0), Op("measure", (1,), 1)),
                n_qubits=2,
            )

    def test_rejects_use_after_measurement(self):
        with pytest.raises(ValueError):
            AncillaCircuit(
                ops=(Op("measure", (0,), 0), Op("wait", (0,), 1)),
                n_qubits=1,
            )

    def test_rejects_circuit_without_verification(self):
        with pytest.raises(ValueError):
            AncillaCircuit(ops=(Op("wait", (0,), 0),), n_qubits=1)


class TestNoiselessBehavior:
    def test_simulate_once_is_clean(self):
        rng = np.random.default_rng(0)
        pattern, accepted = simulate_once(
            default_circuit(), rng, NoiseParams(eps=0.0)
        )
        assert pattern == 0
        assert accepted

    def test_prepare_returns_zero_pattern(self):
        rng = np.random.default_rng(0)
        assert prepare_verified_ancilla(rng, NoiseParams(eps=0.0)) == 0

    def test_exact_distribution_is_a_point_mass(self):
        dist = accepted_distribution(default_circuit(), NoiseParams(eps=0.0))
        assert dist.p_accept == 1.0
        assert dist.probs[0] == 1.0
        assert dist.probs[1:].sum() == 0.0


class TestExactDistribution:
    def test_normalized_and_nonnegative(self):
        dist = accepted_distribution(default_circuit(), NoiseParams(eps=0.01))
        assert dist.probs.sum() == pytest.approx(1.0, rel=1e-12)
        assert (dist.probs >= 0).all()
        assert 0 < dist.p_accept < 1

    def test_accepted_error_mass_stays_small(self):
        eps = 1e-4
        dist = accepted_distribution(default_circuit(), NoiseParams(eps=eps))
        assert 1.0 - dist.probs[0] < 50 * eps

    def test_weight_two_mass_is_second_order(self):
        # verification pushes multi-qubit outcomes to O(eps^2): doubling
        # eps should roughly quadruple the accepted weight-2 mass
        def w2(eps):
            probs = accepted_distribution(
                default_circuit(), NoiseParams(eps=eps)
            ).probs
            return probs[steane.WEIGHT == 2].sum()

        ratio = w2(2e-3) / w2(1e-3)
        assert ratio == pytest.approx(4.0, rel=0.15)

    def test_matches_empirical_sampling(self):
        noise = NoiseParams(eps=0.06)
        dist = accepted_distribution(default_circuit(), noise)
        rng = np.random.default_rng(42)
        n = 40_000
        accepted_counts = np.zeros(128)
        n_accept = 0
        for _ in range(n):
            pattern, ok = simulate_once(default_circuit(), rng, noise)
            if ok:
                n_accept += 1
                accepted_counts[pattern] += 1
        sigma_acc = np.sqrt(n * dist.p_accept * (1 - dist.p_accept))
        assert abs(n_accept - n * dist.p_accept) < 4 * sigma_acc
        for pattern in np.nonzero(dist.probs >= 0.005)[0]:
            p = dist.probs[pattern]
            sigma = np.sqrt(n_accept * p * (1 - p))
            assert abs(accepted_counts[pattern] - n_accept * p) < 4.5 * sigma


class TestFaultMasks:
    def test_default_circuit_compiles_to_17_flips_and_13_cnots(self):
        masks = default_circuit().fault_masks
        assert masks.flip_rows.shape == (17, 2, 256)
        assert masks.cnot_rows.shape == (13, 4, 256)
        assert len(masks.flip_kinds) == 17
        assert sum(map(len, masks.flip_kinds)) == 59 - 13

    def test_compiled_once_per_circuit_object(self):
        c = build_verified_plus_circuit()
        assert c.fault_masks is c.fault_masks

    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_masks_are_the_propagated_single_faults(self, circuit):
        # every fault site lands on one compiled mask: its noiseless
        # propagation gives the block pattern, and the verifier bit is
        # what rejects it
        c = CIRCUITS[circuit]
        masks = c.fault_masks
        flips = {int(rows[1, 0]) for rows in masks.flip_rows}
        cnots = {tuple(int(r) for r in rows[1:, 0]) for rows in masks.cnot_rows}
        cnot_faults = {}
        for k, mask, fault in _fault_sites(c):
            pattern, accepted = _run_with_fault(c, k, mask)
            final = pattern | (0 if accepted else 1 << 7)
            if c.ops[k].kind == "cx":
                cnot_faults.setdefault(k, []).append(final)
            else:
                assert final in flips, (k, fault)
        assert {tuple(v) for v in cnot_faults.values()} == cnots


class TestMatchesOpByOpReference:
    # 1e-14 relative on every non-zero entry, and the same zeros
    @pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-3, 0.3, 0.95, 1.0])
    @pytest.mark.parametrize("options", NOISE_OPTIONS, ids=str)
    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_probs_and_acceptance(self, eps, options, circuit):
        noise = NoiseParams(eps=eps, **options)
        got = accepted_distribution(CIRCUITS[circuit], noise)
        want, p_accept = op_by_op_distribution(CIRCUITS[circuit], noise)
        assert got.p_accept == pytest.approx(p_accept, rel=1e-14, abs=0)
        assert np.array_equal(got.probs == 0, want == 0)
        np.testing.assert_allclose(got.probs, want, rtol=1e-14, atol=0)


class TestRetries:
    def test_zero_cap_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(RetryLimitError):
            prepare_verified_ancilla(
                rng, NoiseParams(eps=0.01), retry_cap=0
            )

    def test_rejection_retries_until_acceptance(self):
        # hot noise rejects often; the sampler must still return patterns
        # drawn from the conditional distribution
        rng = np.random.default_rng(5)
        noise = NoiseParams(eps=0.2)
        for _ in range(50):
            pattern = prepare_verified_ancilla(rng, noise)
            assert 0 <= pattern < 128


class TestSingleFaultAudit:
    def test_default_schedule_audits_clean(self):
        assert single_fault_audit() == []

    def test_verification_actually_rejects_something(self):
        c = default_circuit()
        rejected = sum(
            1
            for k, mask, _ in _fault_sites(c)
            if not _run_with_fault(c, k, mask)[1]
        )
        assert rejected > 0

    def test_accepted_single_faults_stay_within_one_flip_of_codespace(self):
        c = default_circuit()
        for k, mask, fault in _fault_sites(c):
            pattern, accepted = _run_with_fault(c, k, mask)
            if accepted:
                syn = steane.syndrome_of(pattern)
                w = steane.pattern_weight(pattern)
                assert syn == 0 or w % 2 == 1, (k, fault, pattern)

    def test_stripped_schedule_fails_the_audit(self):
        stripped = strip_verification(default_circuit())
        assert len(stripped.ops) < len(default_circuit().ops)
        findings = single_fault_audit(stripped)
        assert len(findings) == 8
        for f in findings:
            assert f.syndrome != 0
            assert f.weight % 2 == 0
        # the classic cascade hazard: one control fault landing on
        # qubits 4 and 5 together, which decodes into a third data error
        assert any(f.pattern == steane.pattern_from_qubits([4, 5])
                   for f in findings)

    def test_injected_double_fault_at_flagged_location_is_rejected(self):
        # take any location the stripped circuit flags and replay the same
        # fault in the full circuit: verification must catch it
        stripped = strip_verification(default_circuit())
        findings = single_fault_audit(stripped)
        full = default_circuit()
        full_sites = {
            (tuple(full.ops[k].qubits), full.ops[k].step, fault): (k, mask)
            for k, mask, fault in _fault_sites(full)
        }
        checked = 0
        for f in findings:
            key = (tuple(q - 1 for q in f.op_qubits), f.step, f.fault)
            if key in full_sites:
                k, mask = full_sites[key]
                pattern, accepted = _run_with_fault(full, k, mask)
                if not accepted:
                    checked += 1
                else:
                    syn = steane.syndrome_of(pattern)
                    assert syn == 0 or steane.pattern_weight(pattern) % 2 == 1
        assert checked > 0
