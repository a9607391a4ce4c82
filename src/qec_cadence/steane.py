"""X-sector tables for the [[7,1,3]] code.

Only bit-flip (X) errors are tracked.  An error pattern is an integer in
[0, 128) whose bit q-1 is the X error on qubit q (qubits are 1-based in all
documentation and reports).  The parity-check matrix is chosen so that column
q is the binary expansion of q; a single X error on qubit q therefore has
syndrome integer q, and lookup decoding is just "flip qubit s".  The check
matrix is written once, as the rows in PARITY_ROWS: SYNDROME is computed
from them and every other syndrome table is built on SYNDROME, except
DECODE, which reads the column convention backwards.

The module holds tables only.  Callers index them: e ^ DECODE[SYNDROME[e]] is
the residual after one ideal correction, and RESIDUAL_LOGICAL[e] its verdict.
"""
from __future__ import annotations

import numpy as np

N_PATTERNS = 128

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
