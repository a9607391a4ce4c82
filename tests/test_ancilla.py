"""Verified ancilla preparation: schedule shape, exact law, exhaustive audit.

The single-fault audit is the safety net for the whole simulator: any
accepted single-fault outcome that looks like two independent data errors
would silently break the second-order model.  The default schedule must
audit clean, and removing its verification gates must make the audit fire
(proving the audit has teeth, not just that the circuit is lucky).
"""
import itertools
from pathlib import Path

import numpy as np
import pytest

from qec_cadence import steane
from qec_cadence.ancilla import (
    AncillaCircuit,
    Op,
    accepted_distribution,
    default_circuit,
    single_fault_audit,
    strip_verification,
)
from qec_cadence.noise import NoiseParams


def _fault_sites(circuit):
    """(op index, injected X mask, fault label) of every single fault."""
    for k, op in enumerate(circuit.ops):
        if op.kind == "cx":
            c, t = op.qubits
            yield k, 1 << c, "control"
            yield k, 1 << t, "target"
            yield k, (1 << c) | (1 << t), "both"
        elif op.kind == "measure":
            yield k, 1 << op.qubits[0], "readout"
        else:
            yield k, 1 << op.qubits[0], "flip"


def _run_with_fault(circuit, at_op, mask):
    """Noiseless forward pass with one X fault injected after op at_op.

    The forward-propagation reference for FaultMasks.compile's backward
    walk: returns (7-bit block pattern, accepted).
    """
    state = 0
    accepted = True
    for k, op in enumerate(circuit.ops):
        if op.kind == "cx":
            c, t = op.qubits
            state ^= ((state >> c) & 1) << t
        if k == at_op:
            state ^= mask
        if op.kind == "measure":
            # a readout fault was applied as a flip just before this readout
            if (state >> op.qubits[0]) & 1:
                accepted = False
    return state & 0x7F, accepted


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
    {}, {"p_meas": 0.5}, {"p_meas": 0.0},
    {"include_init_error": False}, {"wait_scale": 0.0},
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
        assert sources == [1, 2, 5, 6]
        assert row12 == 0b0110011

    def test_builder_is_cached_but_equivalent(self):
        assert default_circuit() is default_circuit()
        assert default_circuit.__wrapped__() == default_circuit()

    def test_readme_schedule_is_the_circuit(self):
        # render the built ops in README's notation, independently of the
        # table they were parsed from, and hold README's copy to them
        names = {"prep_zero": "P0", "prep_plus": "P+", "wait": "W",
                 "cx": "CX", "measure": "MZ"}
        c = default_circuit()
        rendered = [
            f"step {step}: " + " ".join(
                f"{names[op.kind]}({'->'.join(str(q + 1) for q in op.qubits)})"
                for op in c.ops if op.step == step)
            for step in range(9)
        ]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        section = readme.split("### Ancilla schedule", 1)[1]
        block = section.split("```", 2)[1].strip().splitlines()
        assert block == rendered


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

    @pytest.mark.parametrize("op", [
        Op("cx", (0, 0), 1),  # control and target the same qubit
        Op("cx", (0,), 1),
        Op("hadamard", (0,), 0),  # not a kind the fault masks know
        Op("wait", (0, 1), 1),  # a one-qubit op on two qubits
        Op("measure", (), 1),
    ], ids=str)
    def test_rejects_malformed_op(self, op):
        with pytest.raises(ValueError):
            AncillaCircuit(ops=(op, Op("measure", (2,), 2)), n_qubits=3)


class TestNoiselessBehavior:
    def test_exact_distribution_is_a_point_mass(self):
        dist = accepted_distribution(default_circuit(), NoiseParams(eps=0.0))
        assert dist.p_accept == 1.0
        assert dist.probs[0] == 1.0
        assert dist.probs[1:].sum() == 0.0


class TestExactDistribution:
    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.3, 2 / 3, 1.0])
    def test_acceptance_is_at_least_a_third(self, eps):
        # P(accept) = (1 + prod(1 - 2 q_j)) / 2 over the channels that can
        # flip the verifier, and every factor lies in [-1/3, 1]: one-qubit
        # rates stay <= 2/3 and a CNOT flips the verifier w.p. <= 8/15
        for p_meas, wait_scale, init in itertools.product(
                [None, 0.0, 0.25, 0.5], [0.0, 0.5, 1.0], [True, False]):
            noise = NoiseParams(eps=eps, p_meas=p_meas, wait_scale=wait_scale,
                                include_init_error=init)
            p_accept = accepted_distribution(default_circuit(), noise).p_accept
            assert p_accept >= 1 / 3, noise

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


class TestFaultMasks:
    def test_default_circuit_compiles_to_17_flips_and_13_cnots(self):
        masks = default_circuit().fault_masks
        assert masks.flip_rows.shape == (17, 2, 256)
        assert masks.cnot_rows.shape == (13, 4, 256)
        assert len(masks.flip_kinds) == 17
        assert sum(map(len, masks.flip_kinds)) == 59 - 13

    def test_compiled_once_per_circuit_object(self):
        c = default_circuit.__wrapped__()
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


class TestSingleFaultAudit:
    def test_default_schedule_audits_clean(self):
        assert single_fault_audit(default_circuit()) == []

    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_matches_forward_propagation(self, circuit):
        # the same findings, in the same order, as injecting each fault
        # and running the circuit forward
        c = CIRCUITS[circuit]
        want = []
        for k, mask, fault in _fault_sites(c):
            pattern, accepted = _run_with_fault(c, k, mask)
            if accepted and steane.SYNDROME[pattern] != 0 \
                    and steane.WEIGHT[pattern] % 2 == 0:
                want.append((k, fault, pattern))
        got = [(f.op_index, f.fault, f.pattern) for f in single_fault_audit(c)]
        assert got == want
        assert [(k, fault) for k, fault, _ in c.fault_masks.sites] == [
            (k, fault) for k, _, fault in _fault_sites(c)]

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
                syn = steane.SYNDROME[pattern]
                w = steane.WEIGHT[pattern]
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
        assert any(f.pattern == 0b0011000 for f in findings)

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
                    syn = steane.SYNDROME[pattern]
                    assert syn == 0 or steane.WEIGHT[pattern] % 2 == 1
        assert checked > 0
