"""Depolarizing noise, reduced to its X component.

One-qubit gates depolarize with probability eps (X, Y, Z each eps/3), so the
tracked bit flips with probability 2*eps/3.  Two-qubit gates draw one of the
15 non-identity Pauli pairs with probability eps/15 each; only the X
component of each side is kept.  Of the 15 pairs, 4 flip the control only,
4 the target only, 4 both, and 3 are pure Z (no flip).
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import as_rate


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
        if not 0.0 <= as_rate("eps", self.eps) <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {self.eps}")
        if self.p_meas is not None and not 0.0 <= as_rate("p_meas", self.p_meas) <= 0.5:
            raise ValueError(f"p_meas must be in [0, 0.5], got {self.p_meas}")
        if not 0.0 <= as_rate("wait_scale", self.wait_scale) <= 1.0:
            raise ValueError(f"wait_scale must be in [0, 1], got {self.wait_scale}")
        for name in ("include_meas_error", "include_init_error", "include_wait_error"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")

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
        """Probability of each X-carrying CNOT class: control, target, both.

        4*eps/15, computed as 2*eps_g/5 so that the coupling rates of
        bit_error_rates are exactly that fraction of eps_g.
        """
        return 2.0 * self.eps_g / 5.0

    @classmethod
    def from_eps_g(cls, eps_g: float, **kwargs) -> "NoiseParams":
        return cls(eps=1.5 * as_rate("eps_g", eps_g), **kwargs)


def bit_error_rates(eps: float) -> tuple[float, float, float]:
    """(eps_g, eps_c, eps_d) implied by depolarizing strength eps.

    eps_g is the one-qubit X rate; the coupling CNOT puts an X on the data
    alone (eps_c) or on data and ancilla copy together (eps_d), each with
    the CNOT class probability NoiseParams.cnot_flip = 2*eps_g/5.  Accepts
    what NoiseParams accepts, eps in [0, 1].
    """
    noise = NoiseParams(eps=eps)
    return noise.eps_g, noise.cnot_flip, noise.cnot_flip


def xor_flip_prob(p: float, q: float) -> float:
    """Net flip probability of two independent flips, p + q - 2pq.

    Written as p(1 - q) + q(1 - p): a sum of non-negative terms, so it keeps
    its relative precision at small rates and near 1.
    """
    return p * (1.0 - q) + q * (1.0 - p)


def parity_flip_prob(p: float, repeats: int) -> float:
    """Net flip probability of `repeats` independent Bernoulli(p) flips.

    Binary exponentiation of xor_flip_prob: exact to rounding on all of
    [0, 1], where 0.5 * (1 - (1 - 2p)^n) loses digits to cancellation at
    small p (2.7e-11 relative at p = 1e-6, n = 1).
    """
    net, power = 0.0, p  # power: net flip of 2^k repeats
    while repeats:
        if repeats & 1:
            net = xor_flip_prob(net, power)
        power = xor_flip_prob(power, power)
        repeats >>= 1
    return net

