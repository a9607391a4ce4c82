"""Verified logical |+> ancilla preparation for the 7-qubit block.

The default circuit encodes |+_L> by putting |+> on the four information
qubits 3,5,6,7 and accumulating the parity qubits 1,2,4 with nine CNOTs, then
checks the stabilizer parity over qubits {1,2,5,6} with one extra
verification qubit (CNOTs fan in, Z measurement, accept on 0).  The CNOT
order is arranged so that every dangerous single-fault outcome overlaps that
check an odd number of times.  Explicit wait ops mark the idle slots of the
fixed schedule; they flip at NoiseParams.wait_flip, which wait_scale = 0
turns off.  SCHEDULE below is the circuit, one line per step.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .noise import NoiseParams, xor_flip_prob
from .steane import SYNDROME, WEIGHT


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
            if op.kind not in ("prep_zero", "prep_plus", "wait", "cx", "measure"):
                raise ValueError(f"op {op} has an unknown kind")
            arity = 2 if op.kind == "cx" else 1
            if len(op.qubits) != arity or len(set(op.qubits)) != arity:
                raise ValueError(f"op {op} needs {arity} distinct qubit(s)")
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

    @cached_property
    def fault_masks(self) -> "FaultMasks":
        """Every fault location pushed to the end of the circuit.

        Circuit data, compiled once per circuit object.
        """
        return FaultMasks.compile(self)


@dataclass(frozen=True)
class FaultMasks:
    """The faults of a circuit as fixed flip masks on its final state.

    Every fault is an X flip and the circuit moves X flips only through
    CNOTs, so a flip after op k reaches the end as the XOR of the columns of
    the CNOT network that follows k (Aaronson and Gottesman 2004,
    quant-ph/0406196).  States are n-bit flip patterns.  A fault channel is
    kept as its gather rows, state ^ mask for each mask it can apply, the
    identity first; they are intp because numpy converts any other index
    dtype to intp on every gather.  This backward walk is the only
    propagation of ancilla faults: the ancilla law reads the rows and the
    single-fault audit reads `sites`.
    """

    flip_rows: np.ndarray  # (F, 2, 2^n): 0 and each distinct one-qubit flip mask
    flip_kinds: tuple[tuple[str, ...], ...]  # kinds of the ops landing on each mask
    cnot_rows: np.ndarray  # (C, 4, 2^n): 0, control, target and both, per CNOT
    accepted: np.ndarray  # states whose verification bits all read 0
    block: np.ndarray  # block pattern of each accepted state
    # (op index, fault, final mask) of every single X fault, in op order;
    # fault is control, target or both for a CNOT, readout for a measure
    # and flip for any other op
    sites: tuple[tuple[int, str, int], ...]

    @classmethod
    def compile(cls, circuit: AncillaCircuit) -> "FaultMasks":
        # walk backwards carrying column[q]: where an X on q ends up
        column = [1 << q for q in range(circuit.n_qubits)]
        flips: dict[int, list[str]] = {}
        cnots = []
        sites = []  # built backwards, reversed into op order below
        for k, op in reversed(list(enumerate(circuit.ops))):
            if op.kind == "cx":
                c, t = op.qubits
                a, b = column[c], column[t]
                cnots.append((0, a, b, a ^ b))
                sites += [(k, "both", a ^ b), (k, "target", b), (k, "control", a)]
                column[c] ^= b  # an X on the control before the gate
            else:
                mask = column[op.qubits[0]]
                flips.setdefault(mask, []).append(op.kind)
                sites.append((k, "readout" if op.kind == "measure" else "flip", mask))
        states = np.arange(1 << circuit.n_qubits)
        verify = sum(1 << q for q in circuit.measured_qubits)
        accepted = np.flatnonzero(states & verify == 0)
        return cls(
            flip_rows=states ^ np.array([(0, mask) for mask in flips])[:, :, None],
            flip_kinds=tuple(map(tuple, flips.values())),
            cnot_rows=states ^ np.array(cnots, dtype=np.intp).reshape(-1, 4, 1),
            accepted=accepted,
            block=accepted & 0x7F,
            sites=tuple(reversed(sites)),
        )


# The default preparation, one line per step in README's notation: qubits
# are 1-based with 8 the verifier; P0/P+ prepare |0>/|+>, CX(a->b) is a
# CNOT from a to b, W an idle slot and MZ a Z measurement.
SCHEDULE = (
    "P0(1) P0(2) P0(4) P+(3) P+(5) P+(6) P+(7) P0(8)",
    "CX(3->1) CX(6->2) CX(7->4) W(5) W(8)",
    "CX(3->2) CX(5->1) CX(6->4) W(7) W(8)",
    "CX(7->1) CX(5->4) W(2) W(3) W(6) W(8)",
    "CX(7->2) CX(1->8) W(3) W(4) W(5) W(6)",
    "CX(2->8) W(1) W(3) W(4) W(5) W(6) W(7)",
    "CX(5->8) W(1) W(2) W(3) W(4) W(6) W(7)",
    "CX(6->8) W(1) W(2) W(3) W(4) W(5) W(7)",
    "MZ(8) W(1) W(2) W(3) W(4) W(5) W(6) W(7)",
)
_KINDS = {"P0": "prep_zero", "P+": "prep_plus", "W": "wait", "CX": "cx",
          "MZ": "measure"}


@cache
def default_circuit() -> AncillaCircuit:
    """The documented default preparation circuit, built once from SCHEDULE."""
    ops = tuple(
        Op(_KINDS[name], tuple(int(q) - 1 for q in qubits[:-1].split("->")), step)
        for step, line in enumerate(SCHEDULE)
        for name, qubits in (token.split("(") for token in line.split())
    )
    return AncillaCircuit(ops=ops, n_qubits=8)


# The NoiseParams rate of each one-qubit op kind.
_FLIP_RATES = {"prep_zero": "init_flip", "prep_plus": "init_flip",
               "wait": "wait_flip", "measure": "meas_flip"}


@dataclass(frozen=True)
class AcceptedDistribution:
    """Exact accepted-pattern distribution of a preparation circuit."""

    probs: np.ndarray  # shape (128,), sums to 1
    p_accept: float
    syndrome_law: np.ndarray  # shape (8,): law of the syndrome of probs


def accepted_distribution(
    circuit: AncillaCircuit, noise: NoiseParams
) -> AcceptedDistribution:
    """Exact conditional distribution of the block pattern given acceptance.

    The joint law of the final circuit-qubit flip pattern (a 2^n vector) is
    the XOR-convolution of independent fault channels, each a fixed mask
    from circuit.fault_masks.  One-qubit flips that land on the same mask
    merge into one flip by xor_flip_prob; each CNOT fault is a 4-point step
    on {0, a, b, a ^ b} with probability cnot_flip on each non-zero mask.
    Every step is a sum of non-negative terms, and a zero-rate step leaves
    the law as it was, to the bit.  This is the law of a
    hardware loop that retries until verification accepts, and the batch
    sampler draws each round's ancilla from it.  With one verification
    qubit, as in the default circuit, p_accept = (1 + prod(1 - 2 q_j)) / 2
    over each channel's chance q_j of flipping it; every q_j is at most
    2/3 at any valid NoiseParams, so p_accept >= 1/3 and the retries end.
    """
    faults = circuit.fault_masks
    rate = {kind: getattr(noise, name) for kind, name in _FLIP_RATES.items()}
    dist = np.zeros(1 << circuit.n_qubits)
    dist[0] = 1.0
    for rows, kinds in zip(faults.flip_rows, faults.flip_kinds):
        p = 0.0
        for kind in kinds:
            p = xor_flip_prob(p, rate[kind])
        dist = np.array([1.0 - p, p]) @ dist[rows]
    p = noise.cnot_flip
    law = np.array([1.0 - 3.0 * p, p, p, p])
    for rows in faults.cnot_rows:
        dist = law @ dist[rows]
    kept = dist[faults.accepted]
    p_accept = float(kept.sum())
    probs = np.bincount(faults.block, weights=kept, minlength=128) / p_accept
    return AcceptedDistribution(
        probs=probs, p_accept=p_accept,
        syndrome_law=np.bincount(SYNDROME, weights=probs, minlength=8))


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


def single_fault_audit(circuit: AncillaCircuit) -> list[AuditFinding]:
    """Exhaustive single-X-fault check of a preparation circuit.

    Reads the final mask of every X-component fault at every location
    from circuit.fault_masks.sites.  A fault is accepted when its mask
    leaves every verification bit at 0, and its block pattern is the low 7
    bits.  Flags any ACCEPTED outcome whose block pattern is not
    equivalent (up to the X-stabilizer group) to a weight <= 1 error: such a
    pattern corrupts the syndrome while standing for at least two independent
    data miscorrections.  Equivalently: nonzero syndrome and even weight.
    An empty report means the verification catches everything it must.
    """
    verify = sum(1 << q for q in circuit.measured_qubits)
    findings = []
    for k, fault, mask in circuit.fault_masks.sites:
        if mask & verify:
            continue
        pattern = mask & 0x7F
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
