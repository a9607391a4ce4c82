"""Exact distribution tracking for small blocks.

Everything the sampler estimates can be computed exactly for one 7-qubit
block: the state is a probability vector over the 128 X-error patterns and
each circuit element is a linear map on that vector.  These routines exist
to validate the Monte Carlo path without sampling error and to study
parameter choices cheaply.

A round acts on the data only through its syndrome, so its transfer
matrix is T[x, y] = R[SYNDROME[x], x ^ y] for an 8x128 response table R.
A run is a power of one 128x128 block kernel: T is built once per noise
setting and circuit, and the block kernel is raised to the number of
blocks by repeated squaring.
"""
from __future__ import annotations

import functools

import numpy as np

from .ancilla import AncillaCircuit, accepted_distribution, default_circuit
from .model import Schedule, as_rate
from .noise import NoiseParams, parity_flip_prob
from .steane import DECODE, N_PATTERNS, RESIDUAL_LOGICAL, SYNDROME, WEIGHT

_IDX = np.arange(N_PATTERNS)
_SYN = np.arange(8)
# x ^ y for every pair of patterns: a kernel that depends on the flip alone
# is its 128-vector indexed by this table
_XOR = (_IDX[:, None] ^ _IDX[None, :]).astype(np.uint8)


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
    # P(ancilla and readout noise offset the syndrome by s)
    shift = np.bincount(SYNDROME, weights=anc, minlength=8)
    # joint law of (data flip, ancilla-copy flip) of one CNOT; the same on
    # every qubit, so the Kronecker power needs no bit order
    p = noise.cnot_flip
    pair = np.array([[1.0 - 3.0 * p, p], [p, p]])
    coupling = functools.reduce(np.kron, [pair] * 7)
    # P(data flips df, total syndrome offset sigma)
    joint = coupling @ shift[SYNDROME[:, None] ^ _SYN]
    # response[s, e] = P(a round on true syndrome s flips the data by e)
    #                = sum over sigma of joint[e ^ DECODE[s ^ sigma], sigma]
    flips = _IDX[None, :, None] ^ DECODE[_SYN[:, None, None] ^ _SYN]
    response = joint[flips, _SYN].sum(axis=2)
    return response[SYNDROME[:, None], _XOR]


@functools.lru_cache(maxsize=32)
def _cached_transfer(noise: NoiseParams, circuit: AncillaCircuit) -> np.ndarray:
    # a build costs about one warm evaluation, so scans that revisit a noise
    # setting run about twice as fast with it; shared by every caller, so
    # read-only; 32 entries hold at most 4 MB
    transfer = syndrome_extraction_transfer(noise, circuit)
    transfer.flags.writeable = False
    return transfer


def _transfer(noise: NoiseParams, circuit: AncillaCircuit | None) -> np.ndarray:
    return _cached_transfer(noise, circuit or default_circuit())


def _gate_layer(flip: float) -> np.ndarray:
    """128x128 kernel of independent flips at rate `flip` on all 7 qubits."""
    w = np.arange(8)
    return (flip**w * (1.0 - flip) ** (7 - w))[WEIGHT][_XOR]


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
    an ideal final decode.  Matches what estimate_pl_mc samples.  Equals
    n_gates // m steps of block_output_distribution from the clean state,
    computed as one power of the block kernel.
    """
    blocks = Schedule(n_gates=n_gates, m=m).blocks
    if not 0.0 <= as_rate("eps_a", eps_a) <= 1.0:
        raise ValueError(f"eps_a must be in [0, 1], got {eps_a}")
    gate = _gate_layer(parity_flip_prob(noise.eps_g, m))
    done = gate @ _transfer(noise, circuit)
    kernel = eps_a * gate + (1.0 - eps_a) * done  # exactly gate at eps_a = 1
    run = np.linalg.matrix_power(kernel, blocks)
    return float(run[0, RESIDUAL_LOGICAL].sum())


def single_round_rates(
    noise: NoiseParams, circuit: AncillaCircuit | None = None
) -> tuple[float, float]:
    """(rate_two, rate_one) of one performed round, exactly.

    rate_two: input = one data error, output decodes to a logical flip,
    averaged over the 7 input positions.  rate_one: same inputs, output is a
    weight-1 pattern.  These are the quantities the calibration fits.
    """
    transfer = _transfer(noise, circuit)
    two = one = 0.0
    for i in range(7):
        row = transfer[1 << i]
        two += float(row[RESIDUAL_LOGICAL].sum())
        one += float(row[WEIGHT == 1].sum())
    return two / 7.0, one / 7.0
