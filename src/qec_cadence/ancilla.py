"""Verified logical |+> ancilla preparation for the 7-qubit block.

The default circuit encodes |+_L> by putting |+> on the four information
qubits 3,5,6,7 and accumulating the parity qubits 1,2,4 with nine CNOTs, then
checks the stabilizer parity over qubits {1,2,5,6} with one extra
verification qubit (CNOTs fan in, Z measurement, accept on 0).  The CNOT
order is arranged so that every dangerous single-fault outcome overlaps that
check an odd number of times.  Explicit wait ops mark the idle slots of the
fixed schedule; whether they draw noise is a NoiseParams toggle.

Schedule (1-based qubits, V = verification qubit):

  step 0  prep |0>: 1,2,4,V   prep |+>: 3,5,6,7
  step 1  CX 3->1   CX 6->2   CX 7->4      wait 5,V
  step 2  CX 3->2   CX 5->1   CX 6->4      wait 7,V
  step 3  CX 7->1   CX 5->4                wait 2,3,6,V
  step 4  CX 7->2   CX 1->V                wait 3,4,5,6
  step 5  CX 2->V                          wait 1,3,4,5,6,7
  step 6  CX 5->V                          wait 1,2,3,4,6,7
  step 7  CX 6->V                          wait 1,2,3,4,5,7
  step 8  measure V (Z)                    wait 1..7
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseParams, sample_two_qubit_fault
from .steane import SYNDROME, WEIGHT


class RetryLimitError(RuntimeError):
    """Ancilla verification kept failing; the run cannot proceed."""


@dataclass(frozen=True)
class Op:
    kind: str  # prep_zero | prep_plus | wait | cx | measure
    qubits: tuple[int, ...]  # 0-based circuit qubit indices
    step: int


@dataclass(frozen=True)
class AncillaCircuit:
    """A gate schedule producing a 7-qubit block plus verification qubits.

    Block qubits are circuit indices 0..6; acceptance requires every measured
    verification bit to read 0.
    """

    ops: tuple[Op, ...]
    n_qubits: int

    def __post_init__(self) -> None:
        measured = set()
        for op in self.ops:
            for q in op.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"op {op} addresses qubit out of range")
                if q in measured:
                    raise ValueError(f"qubit {q} used after measurement in {op}")
            if op.kind == "measure":
                measured.update(op.qubits)
        if not measured:
            raise ValueError("circuit has no verification measurement")

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        return tuple(q for op in self.ops if op.kind == "measure" for q in op.qubits)

    def schedule_lines(self) -> list[str]:
        """Human-readable schedule, 1-based qubits, for reports and docs."""
        steps: dict[int, list[str]] = {}
        for op in self.ops:
            label = {
                "prep_zero": "P0({})",
                "prep_plus": "P+({})",
                "wait": "W({})",
                "cx": "CX({})",
                "measure": "MZ({})",
            }[op.kind].format("->".join(str(q + 1) for q in op.qubits))
            steps.setdefault(op.step, []).append(label)
        return [f"step {s}: " + " ".join(steps[s]) for s in sorted(steps)]


def build_verified_plus_circuit() -> AncillaCircuit:
    """The documented default preparation circuit (see module docstring)."""
    v = 7
    ops: list[Op] = []

    def add(kind, qubits, step):
        ops.append(Op(kind, tuple(q - 1 if q != "V" else v for q in qubits), step))

    # step 0: preparations (V is index 7, passed via sentinel)
    for q in (1, 2, 4):
        add("prep_zero", (q,), 0)
    for q in (3, 5, 6, 7):
        add("prep_plus", (q,), 0)
    ops.append(Op("prep_zero", (v,), 0))
    # encoding cascade
    add("cx", (3, 1), 1)
    add("cx", (6, 2), 1)
    add("cx", (7, 4), 1)
    add("wait", (5,), 1)
    ops.append(Op("wait", (v,), 1))
    add("cx", (3, 2), 2)
    add("cx", (5, 1), 2)
    add("cx", (6, 4), 2)
    add("wait", (7,), 2)
    ops.append(Op("wait", (v,), 2))
    add("cx", (7, 1), 3)
    add("cx", (5, 4), 3)
    for q in (2, 3, 6):
        add("wait", (q,), 3)
    ops.append(Op("wait", (v,), 3))
    add("cx", (7, 2), 4)
    ops.append(Op("cx", (0, v), 4))
    for q in (3, 4, 5, 6):
        add("wait", (q,), 4)
    ops.append(Op("cx", (1, v), 5))
    for q in (1, 3, 4, 5, 6, 7):
        add("wait", (q,), 5)
    ops.append(Op("cx", (4, v), 6))
    for q in (1, 2, 3, 4, 6, 7):
        add("wait", (q,), 6)
    ops.append(Op("cx", (5, v), 7))
    for q in (1, 2, 3, 4, 5, 7):
        add("wait", (q,), 7)
    ops.append(Op("measure", (v,), 8))
    for q in (1, 2, 3, 4, 5, 6, 7):
        add("wait", (q,), 8)
    return AncillaCircuit(ops=tuple(ops), n_qubits=8)


_DEFAULT_CIRCUIT: AncillaCircuit | None = None


def default_circuit() -> AncillaCircuit:
    global _DEFAULT_CIRCUIT
    if _DEFAULT_CIRCUIT is None:
        _DEFAULT_CIRCUIT = build_verified_plus_circuit()
    return _DEFAULT_CIRCUIT


def _op_flip_prob(op: Op, noise: NoiseParams) -> float:
    if op.kind in ("prep_zero", "prep_plus"):
        return noise.init_flip
    if op.kind == "wait":
        return noise.wait_flip
    if op.kind == "measure":
        return noise.meas_flip
    raise ValueError(op.kind)


def simulate_once(
    circuit: AncillaCircuit, rng: np.random.Generator, noise: NoiseParams
) -> tuple[int, bool]:
    """One noisy pass through the circuit.

    Returns (7-bit block X pattern, accepted).  Faults follow the ideal
    action of each op; measurement noise flips the recorded bit.
    """
    state = 0
    accepted = True
    for op in circuit.ops:
        if op.kind == "cx":
            c, t = op.qubits
            state ^= ((state >> c) & 1) << t
            on_c, on_t = sample_two_qubit_fault(rng, noise)
            state ^= (on_c << c) | (on_t << t)
        elif op.kind == "measure":
            q = op.qubits[0]
            bit = (state >> q) & 1
            if rng.random() < noise.meas_flip:
                bit ^= 1
            if bit:
                accepted = False
        else:
            q = op.qubits[0]
            if rng.random() < _op_flip_prob(op, noise):
                state ^= 1 << q
    return state & 0x7F, accepted


def prepare_verified_ancilla(
    rng: np.random.Generator,
    noise: NoiseParams,
    circuit: AncillaCircuit | None = None,
    retry_cap: int = 1000,
) -> int:
    """Sample an accepted ancilla block pattern, retrying rejected attempts."""
    circuit = circuit or default_circuit()
    for _ in range(retry_cap):
        pattern, accepted = simulate_once(circuit, rng, noise)
        if accepted:
            return pattern
    raise RetryLimitError(
        f"ancilla verification failed {retry_cap} times in a row "
        f"(eps={noise.eps}); check the noise configuration"
    )


@dataclass(frozen=True)
class AcceptedDistribution:
    """Exact accepted-pattern distribution of a preparation circuit."""

    probs: np.ndarray  # shape (128,), sums to 1
    p_accept: float


def accepted_distribution(
    circuit: AncillaCircuit, noise: NoiseParams
) -> AcceptedDistribution:
    """Exact conditional distribution of the block pattern given acceptance.

    Tracks the full joint distribution over circuit-qubit flip patterns (a
    2^n vector) through every op; identical to what the rejection-sampling
    loop in prepare_verified_ancilla draws from.
    """
    n = circuit.n_qubits
    size = 1 << n
    idx = np.arange(size)
    dist = np.zeros(size)
    dist[0] = 1.0
    p_cx = noise.cnot_flip

    def flip(d, mask, p):
        if p == 0.0:
            return d
        return (1.0 - p) * d + p * d[idx ^ mask]

    for op in circuit.ops:
        if op.kind == "cx":
            c, t = op.qubits
            propagated = idx ^ (((idx >> c) & 1) << t)
            dist = dist[propagated]  # involution: same map inverts itself
            d0 = (1.0 - 3.0 * p_cx) * dist
            d0 += p_cx * dist[idx ^ (1 << c)]
            d0 += p_cx * dist[idx ^ (1 << t)]
            d0 += p_cx * dist[idx ^ ((1 << c) | (1 << t))]
            dist = d0
        elif op.kind == "measure":
            dist = flip(dist, 1 << op.qubits[0], noise.meas_flip)
        else:
            dist = flip(dist, 1 << op.qubits[0], _op_flip_prob(op, noise))
    keep = np.ones(size, dtype=bool)
    for q in circuit.measured_qubits:
        keep &= (idx >> q) & 1 == 0
    p_accept = float(dist[keep].sum())
    if p_accept <= 0.0:
        raise RetryLimitError("verification accepts with probability 0")
    probs = np.zeros(128)
    block = idx & 0x7F
    np.add.at(probs, block[keep], dist[keep])
    return AcceptedDistribution(probs=probs / p_accept, p_accept=p_accept)


@dataclass(frozen=True)
class AuditFinding:
    op_index: int
    kind: str
    step: int
    op_qubits: tuple[int, ...]  # 1-based, V reported as 8
    fault: str  # which X component(s) were injected
    pattern: int
    syndrome: int
    weight: int


def _fault_sites(circuit: AncillaCircuit):
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


def _run_with_fault(circuit: AncillaCircuit, at_op: int, mask: int) -> tuple[int, bool]:
    """Noiseless pass with one X fault injected after op at_op's ideal action."""
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


def single_fault_audit(circuit: AncillaCircuit | None = None) -> list[AuditFinding]:
    """Exhaustive single-X-fault check of the preparation circuit.

    Injects every X-component fault at every location, propagates it
    noiselessly and flags any ACCEPTED outcome whose block pattern is not
    equivalent (up to the X-stabilizer group) to a weight <= 1 error: such a
    pattern corrupts the syndrome while standing for at least two independent
    data miscorrections.  Equivalently: nonzero syndrome and even weight.
    An empty report means the verification catches everything it must.
    """
    circuit = circuit or default_circuit()
    findings = []
    for k, mask, fault in _fault_sites(circuit):
        pattern, accepted = _run_with_fault(circuit, k, mask)
        if not accepted:
            continue
        syn = int(SYNDROME[pattern])
        if syn != 0 and int(WEIGHT[pattern]) % 2 == 0:
            op = circuit.ops[k]
            findings.append(
                AuditFinding(
                    op_index=k,
                    kind=op.kind,
                    step=op.step,
                    op_qubits=tuple(q + 1 for q in op.qubits),
                    fault=fault,
                    pattern=pattern,
                    syndrome=syn,
                    weight=int(WEIGHT[pattern]),
                )
            )
    return findings


def strip_verification(circuit: AncillaCircuit) -> AncillaCircuit:
    """Same encoding with the verification gadget reduced to a bare readout.

    Keeps one measurement (of a fresh, never-coupled qubit) so the circuit
    stays well formed but checks nothing.  Used to demonstrate that the audit
    actually fails an unverified preparation.
    """
    ops = []
    verification = set(circuit.measured_qubits)
    for op in circuit.ops:
        if op.kind == "cx" and op.qubits[1] in verification:
            continue  # drop the fan-in CNOTs
        ops.append(op)
    return AncillaCircuit(ops=tuple(ops), n_qubits=circuit.n_qubits)
