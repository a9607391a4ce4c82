"""Exact distribution tracking for small blocks.

Everything the sampler estimates can be computed exactly for one 7-qubit
block: the state is a probability vector over the 128 X-error patterns and
each circuit element is a linear map on that vector.  These routines exist
to validate the Monte Carlo path without sampling error and to study
parameter choices cheaply.
"""
from __future__ import annotations

import numpy as np

from .ancilla import AncillaCircuit, accepted_distribution, default_circuit
from .noise import NoiseParams, parity_flip_prob
from .steane import DECODE, N_PATTERNS, RESIDUAL_LOGICAL, SYNDROME, WEIGHT

_IDX = np.arange(N_PATTERNS)


def convolve_bit_flips(dist: np.ndarray, probs) -> np.ndarray:
    """XOR-convolve independent per-qubit flips into a 128-vector.

    `probs` is a scalar (same rate on all 7 qubits) or a length-7 sequence.
    """
    if np.isscalar(probs):
        probs = [probs] * 7
    out = dist
    for q, p in enumerate(probs):
        if p != 0.0:
            out = (1.0 - p) * out + p * out[_IDX ^ (1 << q)]
    return out


def syndrome_extraction_transfer(
    noise: NoiseParams, circuit: AncillaCircuit | None = None
) -> np.ndarray:
    """128x128 matrix T with T[x_in, x_out] = P(round maps x_in to x_out).

    Covers one performed round: verified ancilla (exact accepted
    distribution), transversal data->ancilla CNOTs with correlated two-qubit
    faults after the ideal copy, noisy ancilla readout, syndrome decode and
    Pauli-frame correction of the data.
    """
    circuit = circuit or default_circuit()
    anc = accepted_distribution(circuit, noise).probs
    anc = convolve_bit_flips(anc, noise.meas_flip)

    # P(syndrome  reads sigma | net ancilla-side offset u), all 128 offsets
    q_table = np.zeros((N_PATTERNS, 8))
    for u in range(N_PATTERNS):
        np.add.at(q_table[u], SYNDROME[_IDX ^ u], anc)

    p = noise.cnot_flip
    p_af = 2.0 * p  # marginal target-side flip per qubit
    # conditional data-side flip probability given the target-side bit
    p_df_given = (p / (1.0 - 2.0 * p) if p_af < 1.0 else 0.5, 0.5)

    transfer = np.zeros((N_PATTERNS, N_PATTERNS))
    for af in range(N_PATTERNS):
        w_af = 1.0
        for q in range(7):
            w_af *= p_af if (af >> q) & 1 else 1.0 - p_af
        if w_af == 0.0:
            continue
        rows = np.zeros((N_PATTERNS, N_PATTERNS))
        q_rows = q_table[_IDX ^ af]
        for sigma in range(8):
            rows[_IDX, _IDX ^ DECODE[sigma]] += q_rows[:, sigma]
        for q in range(7):
            pq = p_df_given[(af >> q) & 1]
            if pq != 0.0:
                rows = (1.0 - pq) * rows + pq * rows[:, _IDX ^ (1 << q)]
        transfer += w_af * rows
    return transfer


def block_output_distribution(
    dist: np.ndarray,
    transfer: np.ndarray,
    gate_flip: float,
    eps_a: float,
) -> np.ndarray:
    """One block: gate-layer flips, then the round performed w.p. 1-eps_a."""
    dist = convolve_bit_flips(dist, gate_flip)
    if eps_a >= 1.0:
        return dist
    done = dist @ transfer
    return eps_a * dist + (1.0 - eps_a) * done


def logical_error_exact(
    noise: NoiseParams,
    eps_a: float,
    n_gates: int,
    m: int,
    circuit: AncillaCircuit | None = None,
) -> float:
    """Exact end-to-end logical X error probability of a full run.

    n_gates gates in blocks of m, a skippable round after each block, then
    an ideal final decode.  Matches what estimate_pl_mc samples.
    """
    if n_gates < 1 or m < 1:
        raise ValueError(f"n_gates and m must be positive, got {n_gates}, {m}")
    if n_gates % m != 0:
        raise ValueError(f"m={m} must divide n_gates={n_gates}")
    if not 0.0 <= eps_a <= 1.0:
        raise ValueError(f"eps_a must be in [0, 1], got {eps_a}")
    transfer = syndrome_extraction_transfer(noise, circuit)
    gate_flip = parity_flip_prob(noise.eps_g, m)
    dist = np.zeros(N_PATTERNS)
    dist[0] = 1.0
    for _ in range(n_gates // m):
        dist = block_output_distribution(dist, transfer, gate_flip, eps_a)
    return float(dist[RESIDUAL_LOGICAL].sum())


def single_round_rates(
    noise: NoiseParams, circuit: AncillaCircuit | None = None
) -> tuple[float, float]:
    """(rate_two, rate_one) of one performed round, exactly.

    rate_two: input = one data error, output decodes to a logical flip,
    averaged over the 7 input positions.  rate_one: same inputs, output is a
    weight-1 pattern.  These are the quantities the calibration fits.
    """
    transfer = syndrome_extraction_transfer(noise, circuit)
    two = one = 0.0
    for i in range(7):
        row = transfer[1 << i]
        two += float(row[RESIDUAL_LOGICAL].sum())
        one += float(row[WEIGHT == 1].sum())
    return two / 7.0, one / 7.0
