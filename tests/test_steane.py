"""Exhaustive checks of the 7-qubit code tables.

Everything here brute-forces all 128 X patterns against independent
recomputations, so the lookup tables cannot drift from the conventions
they claim (column i of the check matrix is the binary expansion of i).
"""
import numpy as np

from qec_cadence import steane


def test_parity_rows_are_the_documented_qubit_sets():
    documented = ((1, 3, 5, 7), (2, 3, 6, 7), (4, 5, 6, 7))
    for row, qubits in zip(steane.PARITY_ROWS, documented, strict=True):
        assert row == sum(1 << (q - 1) for q in qubits)


def test_h_matrix_columns_are_binary_qubit_indices():
    for q in range(1, 8):
        col = [(row >> (q - 1)) & 1 for row in steane.PARITY_ROWS]
        assert col[0] + 2 * col[1] + 4 * col[2] == q


def test_syndrome_table_is_the_xor_of_flipped_qubit_indices():
    # independent of PARITY_ROWS: with column q the binary expansion of q,
    # the syndrome of a pattern is the XOR of its 1-based qubit indices
    for e in range(128):
        s = 0
        for q in range(7):
            if (e >> q) & 1:
                s ^= q + 1
        assert steane.SYNDROME[e] == s


def test_single_error_on_qubit_i_has_syndrome_i():
    for q in range(1, 8):
        assert steane.SYNDROME[1 << (q - 1)] == q


def test_decode_inverts_single_error_syndromes():
    assert steane.DECODE[0] == 0
    for s in range(1, 8):
        pattern = steane.DECODE[s]
        assert steane.WEIGHT[pattern] == 1
        assert steane.SYNDROME[pattern] == s


def test_weight_zero_and_one_patterns_fully_corrected():
    for e in range(128):
        if steane.WEIGHT[e] <= 1:
            assert e ^ steane.DECODE[steane.SYNDROME[e]] == 0
            assert not steane.RESIDUAL_LOGICAL[e]


def test_all_21_weight_two_patterns_decode_to_logical():
    twos = [e for e in range(128) if steane.WEIGHT[e] == 2]
    assert len(twos) == 21
    for e in twos:
        residual = e ^ steane.DECODE[steane.SYNDROME[e]]
        assert steane.RESIDUAL_LOGICAL[e]
        assert steane.WEIGHT[residual] == 3
        assert steane.SYNDROME[residual] == 0


def test_codeword_split_into_stabilizer_and_logical_cosets():
    assert len(steane.CODEWORDS) == 16
    assert len(steane.STABILIZER_PATTERNS) == 8
    for c in steane.CODEWORDS:
        assert steane.SYNDROME[c] == 0
        # the odd-weight half is the logical-X coset
        assert (c in steane.STABILIZER_PATTERNS) == (steane.WEIGHT[c] % 2 == 0)
    # the even-weight half is closed under XOR (a group)
    for a in steane.STABILIZER_PATTERNS:
        for b in steane.STABILIZER_PATTERNS:
            assert (a ^ b) in steane.STABILIZER_PATTERNS


def test_verdict_invariant_under_stabilizer_and_flipped_by_logical():
    logicals = [c for c in steane.CODEWORDS if c not in steane.STABILIZER_PATTERNS]
    assert len(logicals) == 8
    for e in range(128):
        base = steane.RESIDUAL_LOGICAL[e]
        for s in steane.STABILIZER_PATTERNS:
            assert steane.RESIDUAL_LOGICAL[e ^ s] == base
        for l in logicals:
            assert steane.RESIDUAL_LOGICAL[e ^ l] == (not base)


def test_syndrome_linearity_exhaustive():
    syn = steane.SYNDROME
    idx = np.arange(128)
    for e in range(128):
        assert np.array_equal(syn[idx ^ e], syn[idx] ^ syn[e])


def test_every_pattern_within_distance_one_of_a_codeword():
    # covering radius 1: decoding always lands on a codeword one flip away
    for e in range(128):
        correction = steane.DECODE[steane.SYNDROME[e]]
        assert steane.WEIGHT[correction] <= 1
        assert steane.SYNDROME[e ^ correction] == 0


def test_worked_example_two_errors_become_the_complementary_third_line():
    # errors on qubits 1 and 2 read as syndrome 3, so the decoder adds
    # qubit 3 and leaves the weight-3 codeword {1,2,3}: a logical flip
    e = 0b0000011
    assert steane.SYNDROME[e] == 3
    assert e ^ steane.DECODE[steane.SYNDROME[e]] == 0b0000111
    assert steane.RESIDUAL_LOGICAL[e]
