"""Exhaustive checks of the 7-qubit code tables.

Everything here brute-forces all 128 X patterns against independent
recomputations, so the lookup tables cannot drift from the conventions
they claim (column i of the check matrix is the binary expansion of i).
"""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qec_cadence import steane


def naive_syndrome(e: int) -> int:
    s = 0
    for k, row in enumerate(steane.PARITY_ROWS):
        if bin(e & row).count("1") % 2:
            s |= 1 << k
    return s


def test_parity_rows_are_the_documented_qubit_sets():
    assert steane.PARITY_ROWS[0] == steane.pattern_from_qubits([1, 3, 5, 7])
    assert steane.PARITY_ROWS[1] == steane.pattern_from_qubits([2, 3, 6, 7])
    assert steane.PARITY_ROWS[2] == steane.pattern_from_qubits([4, 5, 6, 7])


def test_h_matrix_columns_are_binary_qubit_indices():
    for q in range(1, 8):
        col = steane.H[:, q - 1]
        assert int(col[0]) + 2 * int(col[1]) + 4 * int(col[2]) == q


def test_syndrome_table_matches_naive_recomputation():
    for e in range(128):
        assert steane.syndrome_of(e) == naive_syndrome(e)


def test_single_error_on_qubit_i_has_syndrome_i():
    for q in range(1, 8):
        assert steane.syndrome_of(1 << (q - 1)) == q


def test_decode_inverts_single_error_syndromes():
    assert steane.decode_syndrome(0) == 0
    for s in range(1, 8):
        pattern = steane.decode_syndrome(s)
        assert steane.pattern_weight(pattern) == 1
        assert steane.syndrome_of(pattern) == s


def test_weight_zero_and_one_patterns_fully_corrected():
    for e in range(128):
        if steane.pattern_weight(e) <= 1:
            residual, logical = steane.apply_ideal_qec(e)
            assert residual == 0
            assert not logical


def test_all_21_weight_two_patterns_decode_to_logical():
    twos = [e for e in range(128) if steane.pattern_weight(e) == 2]
    assert len(twos) == 21
    for e in twos:
        residual, logical = steane.apply_ideal_qec(e)
        assert logical
        assert steane.pattern_weight(residual) == 3
        assert steane.syndrome_of(residual) == 0


def test_codeword_split_into_stabilizer_and_logical_cosets():
    assert len(steane.CODEWORDS) == 16
    assert len(steane.STABILIZER_PATTERNS) == 8
    assert len(steane.LOGICAL_X_PATTERNS) == 8
    for c in steane.CODEWORDS:
        assert steane.syndrome_of(c) == 0
    # the even-weight half is closed under XOR (a group)
    for a in steane.STABILIZER_PATTERNS:
        for b in steane.STABILIZER_PATTERNS:
            assert (a ^ b) in steane.STABILIZER_PATTERNS


def test_verdict_invariant_under_stabilizer_and_flipped_by_logical():
    for e in range(128):
        base = steane.residual_is_logical(e)
        for s in steane.STABILIZER_PATTERNS:
            assert steane.residual_is_logical(e ^ s) == base
        for l in steane.LOGICAL_X_PATTERNS:
            assert steane.residual_is_logical(e ^ l) == (not base)


def test_syndrome_linearity_exhaustive():
    syn = steane.SYNDROME
    idx = np.arange(128)
    for e in range(128):
        assert np.array_equal(syn[idx ^ e], syn[idx] ^ syn[e])


def test_every_pattern_within_distance_one_of_a_codeword():
    # covering radius 1: decoding always lands on a codeword one flip away
    for e in range(128):
        correction = steane.decode_syndrome(steane.syndrome_of(e))
        assert steane.pattern_weight(correction) <= 1
        assert steane.syndrome_of(e ^ correction) == 0


@given(st.lists(st.integers(min_value=1, max_value=7), max_size=10))
def test_pattern_from_qubits_is_xor_accumulation(qubits):
    e = steane.pattern_from_qubits(qubits)
    expect = 0
    for q in qubits:
        expect ^= 1 << (q - 1)
    assert e == expect


@pytest.mark.parametrize("bad", [0, 8, -1])
def test_pattern_from_qubits_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        steane.pattern_from_qubits([bad])


@pytest.mark.parametrize("func", [steane.syndrome_of, steane.residual_is_logical])
def test_pattern_range_validation(func):
    with pytest.raises(ValueError):
        func(-1)
    with pytest.raises(ValueError):
        func(128)


def test_decode_syndrome_rejects_out_of_range():
    with pytest.raises(ValueError):
        steane.decode_syndrome(8)


def test_worked_example_two_errors_become_the_complementary_third_line():
    # errors on qubits 1 and 2 read as syndrome 3, so the decoder adds
    # qubit 3 and leaves the weight-3 codeword {1,2,3}: a logical flip
    e = steane.pattern_from_qubits([1, 2])
    assert steane.syndrome_of(e) == 3
    residual, logical = steane.apply_ideal_qec(e)
    assert residual == steane.pattern_from_qubits([1, 2, 3])
    assert logical
