"""X-sector tables for the [[7,1,3]] code.

Only bit-flip (X) errors are tracked.  An error pattern is an integer in
[0, 128) whose bit q-1 is the X error on qubit q (qubits are 1-based in all
documentation and reports).  The parity-check matrix is chosen so that column
q is the binary expansion of q; a single X error on qubit q therefore has
syndrome integer q, and lookup decoding is just "flip qubit s".  The check
matrix is written once, as the rows in PARITY_ROWS: SYNDROME is computed
from them and every other syndrome table is built on SYNDROME, except
DECODE, which reads the column convention backwards.
"""
from __future__ import annotations

import numpy as np

N_QUBITS = 7
N_PATTERNS = 1 << N_QUBITS

# Rows of the parity-check matrix as bit masks over qubits 1..7 (bit q-1 set
# iff qubit q participates).  Row k checks the 2^k bit of the qubit index.
PARITY_ROWS = (
    0b1010101,  # qubits 1,3,5,7
    0b1100110,  # qubits 2,3,6,7
    0b1111000,  # qubits 4,5,6,7
)

WEIGHT = np.array([e.bit_count() for e in range(N_PATTERNS)], dtype=np.uint8)
# Bit k of the syndrome is the parity of the error on row k's qubits.
SYNDROME = np.array(
    [sum(((e & row).bit_count() & 1) << k for k, row in enumerate(PARITY_ROWS))
     for e in range(N_PATTERNS)],
    dtype=np.uint8,
)
# Weight <= 1 representative for each syndrome: syndrome s != 0 means qubit s.
DECODE = np.array([0] + [1 << (s - 1) for s in range(1, 8)], dtype=np.uint8)
# Logical verdict of the post-correction residual for every input pattern.
RESIDUAL_LOGICAL = ((WEIGHT[np.arange(N_PATTERNS) ^ DECODE[SYNDROME]] & 1) == 1)
# Class of a pattern: its syndrome in bits 0-2 and its weight parity in bit 3.
# The map is linear with the X-stabilizers as kernel, and the verdict is
# constant on each class: it is the parity bit of the class after one ideal
# correction, p ^ [s != 0].
CLASS = SYNDROME | (WEIGHT & 1) << 3

# Syndrome-0 patterns (the classical Hamming codewords); the even-weight ones
# form the X-stabilizer group, the odd-weight ones are the logical-X coset.
CODEWORDS = tuple(int(e) for e in np.flatnonzero(SYNDROME == 0))
STABILIZER_PATTERNS = tuple(e for e in CODEWORDS if WEIGHT[e] % 2 == 0)
LOGICAL_X_PATTERNS = tuple(e for e in CODEWORDS if WEIGHT[e] % 2 == 1)


def pattern_from_qubits(qubits) -> int:
    """Build a pattern int from 1-based qubit numbers."""
    e = 0
    for q in qubits:
        if not 1 <= q <= N_QUBITS:
            raise ValueError(f"qubit index out of range: {q}")
        e ^= 1 << (q - 1)
    return e


def pattern_weight(e: int) -> int:
    return int(WEIGHT[e])


def syndrome_of(e: int) -> int:
    """3-bit syndrome of an error pattern, as an integer in [0, 8)."""
    if not 0 <= e < N_PATTERNS:
        raise ValueError(f"pattern out of range: {e}")
    return int(SYNDROME[e])


def decode_syndrome(s: int) -> int:
    """Minimum-weight correction pattern for a syndrome (weight 0 or 1)."""
    if not 0 <= s < 8:
        raise ValueError(f"syndrome out of range: {s}")
    return int(DECODE[s])


def apply_ideal_qec(e: int) -> tuple[int, bool]:
    """Noiselessly decode and correct.

    Returns (residual pattern, verdict): the residual always has syndrome 0,
    and the verdict says whether it is a logical X (odd-weight codeword).
    """
    residual = e ^ decode_syndrome(syndrome_of(e))
    return residual, bool(RESIDUAL_LOGICAL[e])


def residual_is_logical(e: int) -> bool:
    """True iff ideal decoding of this pattern leaves a logical X."""
    if not 0 <= e < N_PATTERNS:
        raise ValueError(f"pattern out of range: {e}")
    return bool(RESIDUAL_LOGICAL[e])
