"""Exact distribution tracking for small blocks.

Everything the sampler estimates can be computed exactly for one 7-qubit
block: the state is a probability vector over the 128 X-error patterns and
each circuit element is a linear map on that vector.  These routines exist
to validate the Monte Carlo path without sampling error and to study
parameter choices cheaply.

A round acts on the data only through its syndrome, so its transfer
matrix is T[x, y] = R[SYNDROME[x], x ^ y] for an 8x128 response table R.
A round and a gate layer both commute with XOR by an X-stabilizer, and the
final verdict is constant on the 16 classes (syndrome, weight parity), so
the 128-state chain lumps onto those classes with no loss.  A run is the
16x16 block kernel K = eps_a*G + (1 - eps_a)*(G @ T16) raised to the
number of blocks, G being the m gate layers of a block and T16 the lumped
round.  R takes the readout and coupling faults in through their syndrome
laws, and its ancilla from default_circuit(), the circuit estimate_many
samples, so this layer is the reference for exactly what the sampler
samples.  A cadence scan calls many (eps_a, m) points at one setting, and
what does not depend on eps_a is kept in two bounded LRU caches, each
entry read-only so no caller can change what the next one reads: R per
noise setting (32 tables), and the halves G and G @ T16 per (noise, m)
(128 pairs, so a 66-setting cadence table fits).  A call then only mixes
the halves at its eps_a and powers K with the very products of
np.linalg.matrix_power, so its value is bit for bit that of a kernel
assembled afresh.  Nothing keyed on eps_a or the number of gates is kept.
On a 2-core x86 VM (numpy 2.4.6) a call on cached halves costs
~0.02 ms (up to ~0.036 ms when the machine runs its 16x16 products slow),
one that builds the halves 0.04-0.07 ms and one that builds R 0.17-0.33
ms, whatever the number of gates.  The 128-state block_output_distribution
stays as the reference.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ancilla import accepted_distribution, default_circuit
from .model import Schedule, as_rate
from .noise import NoiseParams, parity_flip_prob
from .steane import CLASS, DECODE, N_PATTERNS, RESIDUAL_LOGICAL, SYNDROME, WEIGHT

_IDX = np.arange(N_PATTERNS)
_SYN = np.arange(8)
# x ^ y for every pair of patterns: a kernel that depends on the flip alone
# is its 128-vector indexed by this table
_XOR = (_IDX[:, None] ^ _IDX[None, :]).astype(np.uint8)
# _READOUT[w, s]: patterns of weight w and syndrome s
_READOUT = np.zeros((8, 8))
np.add.at(_READOUT, (WEIGHT, SYNDROME), 1.0)
# _COUPLING[k, df, s]: ancilla-copy flips af with |df | af| = k and syndrome s
_COUPLING = np.zeros((8, N_PATTERNS, 8))
np.add.at(_COUPLING, (WEIGHT[_IDX[:, None] | _IDX], _IDX[:, None], SYNDROME), 1.0)
_COUPLING = _COUPLING.reshape(8, -1)
# R[s, e] sums joint[e ^ DECODE[s ^ sigma], sigma] over sigma; these are the
# flat indices of those terms in the 128x8 joint law, laid out (s, sigma, e)
_RESPONSE_TERMS = (
    (_IDX ^ DECODE[_SYN[:, None, None] ^ _SYN[:, None]]) * 8 + _SYN[:, None]
)
_ONEHOT = (CLASS[:, None] == np.arange(16)).astype(float)
_LOGICAL = _ONEHOT[RESIDUAL_LOGICAL].any(axis=0)
# _GATE_CLASSES[w, c]: patterns of weight w in class c
_GATE_CLASSES = np.zeros((8, 16))
np.add.at(_GATE_CLASSES, (WEIGHT, CLASS), 1.0)
_XOR16 = _XOR[:16, :16]


def convolve_bit_flips(dist: np.ndarray, p: float) -> np.ndarray:
    """XOR-convolve an independent flip at rate p on each of the 7 qubits."""
    for q in range(7):
        dist = (1.0 - p) * dist + p * dist[_IDX ^ (1 << q)]
    return dist


@lru_cache(maxsize=32)
def _syndrome_response(noise: NoiseParams) -> np.ndarray:
    """8x128 table R[s, e] = P(a round on true syndrome s flips the data by e).

    Covers one performed round: verified ancilla (exact accepted
    distribution), transversal data->ancilla CNOTs with correlated two-qubit
    faults after the ideal copy, noisy ancilla readout, syndrome decode and
    Pauli-frame correction of the data.  R depends on nothing else, so it is
    built once per noise setting and shared read-only.
    """
    prepared = accepted_distribution(default_circuit(), noise).syndrome_law
    q, p, k = noise.meas_flip, noise.cnot_flip, np.arange(8)
    # P(readout flips offset the syndrome by s): flips of weight k
    readout = (q**k * (1.0 - q) ** (7 - k)) @ _READOUT
    # P(ancilla and readout noise together offset the syndrome by s)
    shift = prepared @ readout[_SYN[:, None] ^ _SYN]
    # one CNOT flips (data, ancilla copy) by (1, 0), (0, 1) or (1, 1) with
    # probability p each, so the 7 CNOTs give the flips (df, af) with
    # probability p^k (1 - 3p)^(7 - k), k the weight of df | af; only the
    # syndrome of af matters
    coupling = ((p**k * (1.0 - 3.0 * p) ** (7 - k)) @ _COUPLING).reshape(-1, 8)
    # P(data flips df, total syndrome offset sigma)
    joint = coupling @ shift[_SYN[:, None] ^ _SYN]
    response = joint.ravel()[_RESPONSE_TERMS].sum(axis=1)
    response.setflags(write=False)
    return response


def syndrome_extraction_transfer(noise: NoiseParams) -> np.ndarray:
    """128x128 matrix T with T[x_in, x_out] = P(round maps x_in to x_out)."""
    return _syndrome_response(noise)[SYNDROME[:, None], _XOR]


def block_output_distribution(
    dist: np.ndarray,
    transfer: np.ndarray,
    gate_flip: float,
    eps_a: float,
) -> np.ndarray:
    """One block: gate-layer flips, then the round performed w.p. 1-eps_a.

    eps_a is in [0, 1]; nothing checks it.
    """
    dist = convolve_bit_flips(dist, gate_flip)
    done = dist @ transfer
    return eps_a * dist + (1.0 - eps_a) * done


@lru_cache(maxsize=128)
def _kernel_halves(noise: NoiseParams, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(G, G @ T16), read-only: one block with its round skipped, and done."""
    flip, w = parity_flip_prob(noise.eps_g, m), np.arange(8)
    gate = ((flip**w * (1.0 - flip) ** (7 - w)) @ _GATE_CLASSES)[_XOR16]
    # lumped round T16[u, v] = R16[u & 7, u ^ v]; u & 7 is the syndrome of u
    response = _syndrome_response(noise) @ _ONEHOT
    done = gate @ response[np.arange(16)[:, None] & 7, _XOR16]
    gate.setflags(write=False)
    done.setflags(write=False)
    return gate, done


def _matrix_power(kernel: np.ndarray, n: int) -> np.ndarray:
    """kernel**n, n >= 1, by the very products np.linalg.matrix_power makes.

    Same products, same bits: that includes its n == 3 short-cut
    (K @ K) @ K, where the binary loop would form K @ (K @ K).
    """
    if n == 3:
        return kernel @ kernel @ kernel
    z = result = None
    while n > 0:
        z = kernel if z is None else z @ z
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else result @ z
    return result


def logical_error_exact(
    noise: NoiseParams, eps_a: float, n_gates: int, m: int
) -> float:
    """Exact end-to-end logical X error probability of a full run.

    n_gates gates in blocks of m, a skippable round after each block, then
    an ideal final decode.  Matches what estimate_many samples.  Equals
    n_gates // m steps of block_output_distribution from the clean state,
    computed as one power of the 16-class block kernel.
    """
    blocks = Schedule(n_gates=n_gates, m=m).blocks
    if not 0.0 <= as_rate("eps_a", eps_a) <= 1.0:
        raise ValueError(f"eps_a must be in [0, 1], got {eps_a}")
    gate, done = _kernel_halves(noise, m)
    kernel = eps_a * gate + (1.0 - eps_a) * done  # exactly gate at eps_a = 1
    run = _matrix_power(kernel, blocks)
    return float(run[0, _LOGICAL].sum())


def single_round_rates(noise: NoiseParams) -> tuple[float, float]:
    """(rate_two, rate_one) of one performed round, exactly.

    rate_two: input = one data error, output decodes to a logical flip,
    averaged over the 7 input positions.  rate_one: same inputs, output is a
    weight-1 pattern.  These are the quantities the calibration fits.
    """
    transfer = syndrome_extraction_transfer(noise)
    two = one = 0.0
    for i in range(7):
        row = transfer[1 << i]
        two += float(row[RESIDUAL_LOGICAL].sum())
        one += float(row[WEIGHT == 1].sum())
    return two / 7.0, one / 7.0
