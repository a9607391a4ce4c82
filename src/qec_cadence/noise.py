"""Depolarizing noise, reduced to its X component.

One-qubit gates depolarize with probability eps (X, Y, Z each eps/3), so the
tracked bit flips with probability 2*eps/3.  Two-qubit gates draw one of the
15 non-identity Pauli pairs with probability eps/15 each; only the X
component of each side is kept.  Of the 15 pairs, 4 flip the control only,
4 the target only, 4 both, and 3 are pure Z (no flip).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseParams:
    """Physical noise configuration for the fault simulator."""

    eps: float
    include_meas_error: bool = True
    p_meas: float | None = None  # defaults to 2*eps/3 when None
    include_init_error: bool = True
    include_wait_error: bool = True
    # Idle slots inside the ancilla preparation schedule flip at this
    # fraction of the one-qubit gate rate (one schedule step = one gate
    # time; a third is a typical idle error budget).  The logical-layer
    # gates between rounds always carry the full rate regardless.
    wait_scale: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {self.eps}")
        if self.p_meas is not None and not 0.0 <= self.p_meas <= 0.5:
            raise ValueError(f"p_meas must be in [0, 0.5], got {self.p_meas}")
        if not 0.0 <= self.wait_scale <= 1.0:
            raise ValueError(f"wait_scale must be in [0, 1], got {self.wait_scale}")

    @property
    def eps_g(self) -> float:
        """Per-gate X flip probability, 2*eps/3."""
        return 2.0 * self.eps / 3.0

    @property
    def meas_flip(self) -> float:
        """Measurement bit-flip probability actually applied."""
        if not self.include_meas_error:
            return 0.0
        return self.eps_g if self.p_meas is None else self.p_meas

    @property
    def init_flip(self) -> float:
        return self.eps_g if self.include_init_error else 0.0

    @property
    def wait_flip(self) -> float:
        return self.wait_scale * self.eps_g if self.include_wait_error else 0.0

    @property
    def cnot_flip(self) -> float:
        """Probability of each X-carrying CNOT class: control, target, both."""
        return 4.0 * self.eps / 15.0

    @classmethod
    def from_eps_g(cls, eps_g: float, **kwargs) -> "NoiseParams":
        return cls(eps=1.5 * eps_g, **kwargs)


def bit_error_rates(eps: float) -> tuple[float, float, float]:
    """(eps_g, eps_c, eps_d) implied by depolarizing strength eps.

    eps_g = 2*eps/3 is the one-qubit X rate; the coupling CNOT puts an X on
    the data alone (eps_c) or on data and ancilla copy together (eps_d), each
    with probability 4*eps/15 = 2*eps_g/5.
    """
    if not 0.0 <= eps <= 0.25:
        raise ValueError(f"eps must be in [0, 0.25], got {eps}")
    eps_g = 2.0 * eps / 3.0
    eps_c = 2.0 * eps_g / 5.0
    eps_d = eps_c
    return eps_g, eps_c, eps_d


def parity_flip_prob(p: float, repeats: int) -> float:
    """Net flip probability of `repeats` independent Bernoulli(p) flips."""
    return 0.5 * (1.0 - (1.0 - 2.0 * p) ** repeats)


def sample_one_qubit_fault(rng: np.random.Generator, noise: NoiseParams) -> int:
    """X component (0/1) of one noisy one-qubit gate."""
    return int(rng.random() < noise.eps_g)


def sample_two_qubit_fault(
    rng: np.random.Generator, noise: NoiseParams
) -> tuple[int, int]:
    """(control X, target X) components of one noisy CNOT.

    P(1,0) = P(0,1) = P(1,1) = noise.cnot_flip; the remaining fault mass is
    pure Z.
    """
    u = rng.random()
    p = noise.cnot_flip
    if u < p:
        return 1, 0
    if u < 2.0 * p:
        return 0, 1
    if u < 3.0 * p:
        return 1, 1
    return 0, 0
