"""Built-in consistency battery behind the `check` subcommand.

Each check is cheap (a few seconds total), needs no configuration, and
exercises a different cross-validation seam: closed forms against direct
summation, the itemized table against the total, the independent pair
enumeration against the closed form, the code tables against brute force,
the preparation circuit against the single-fault audit, the batch
sampler against the exact evaluator, and the exact evaluator's 16-class
chain against its 128-state reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, steane
from .ancilla import default_circuit, single_fault_audit, strip_verification
from .exact import (
    block_output_distribution,
    logical_error_exact,
    syndrome_extraction_transfer,
)
from .faultsim import TrajectoryConfig, estimate_pl_mc
from .noise import NoiseParams, parity_flip_prob


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_gamma_sums() -> CheckResult:
    worst = 0.0
    for blocks in (1, 2, 3, 5, 10, 50, 200):
        for k in range(0, 100, 7):
            eps_a = k / 100.0
            direct = sum(
                eps_a**f * (blocks - f) for f in range(1, blocks)
            )
            direct3 = sum(
                eps_a**f * (blocks - f - 1) for f in range(1, blocks)
            )
            for got, want in (
                (model.gamma(blocks, eps_a), direct),
                (model.gamma3(blocks, eps_a), direct3),
            ):
                err = abs(got - want) / max(abs(want), 1e-300)
                if want == 0.0:
                    err = abs(got)
                worst = max(worst, err)
    return CheckResult(
        "gamma-closed-forms", worst < 1e-12, f"max relative error {worst:.2e}"
    )


def _check_table_sum() -> CheckResult:
    rates = model.AbstractRates(
        eps_g=2e-4, eps_a=0.35, eps_s=7e-4, eps_o=1.2e-4, eps_c=8e-5, eps_d=8e-5
    )
    worst = 0.0
    for n_gates, m in ((12, 3), (100, 10), (60, 5)):
        sched = model.Schedule(n_gates=n_gates, m=m)
        total = sum(v for _, v in model.table_contributions(rates, sched))
        ref = model.pl_second_order(rates, sched)
        worst = max(worst, abs(total - ref) / max(ref, 1e-300))
    return CheckResult(
        "table-sum-identity", worst < 1e-12, f"max relative error {worst:.2e}"
    )


def _check_pairwise_oracle() -> CheckResult:
    worst = 0.0
    for eps_a in (0.0, 0.3):
        rates = model.AbstractRates(
            eps_g=1e-3, eps_a=eps_a, eps_s=1e-3, eps_o=1e-3, eps_c=1e-3, eps_d=1e-3
        )
        for n_gates, m in ((6, 2), (10, 2), (15, 5)):
            sched = model.Schedule(n_gates=n_gates, m=m)
            oracle = model.pairwise_fault_oracle(rates, sched)
            ref = model.pl_second_order(rates, sched)
            worst = max(worst, abs(oracle - ref) / max(ref, 1e-300))
    return CheckResult(
        "pairwise-enumeration", worst < 1e-6, f"max relative error {worst:.2e}"
    )


def _check_code_tables() -> CheckResult:
    problems = []
    for e in range(steane.N_PATTERNS):
        residual, logical = steane.apply_ideal_qec(e)
        w = steane.pattern_weight(e)
        if w <= 1 and (residual != 0 or logical):
            problems.append(f"weight-{w} pattern {e} not corrected")
        if w == 2 and not logical:
            problems.append(f"weight-2 pattern {e} not logical")
        for s in steane.STABILIZER_PATTERNS:
            if steane.residual_is_logical(e ^ s) != steane.residual_is_logical(e):
                problems.append(f"verdict not stabilizer-invariant at {e}^{s}")
        for f in range(steane.N_PATTERNS):
            if steane.syndrome_of(e ^ f) != steane.syndrome_of(e) ^ steane.syndrome_of(f):
                problems.append(f"syndrome not linear at {e},{f}")
                break
    return CheckResult(
        "code-tables-exhaustive",
        not problems,
        problems[0] if problems else "128-pattern brute force clean",
    )


def _check_ancilla_audit() -> CheckResult:
    circuit = default_circuit()
    findings = single_fault_audit(circuit)
    if findings:
        return CheckResult(
            "ancilla-single-fault-audit",
            False,
            f"{len(findings)} harmful accepted fault(s), first: {findings[0]}",
        )
    # the audit must still have teeth: removing verification must fail it
    broken = single_fault_audit(strip_verification(circuit))
    if not broken:
        return CheckResult(
            "ancilla-single-fault-audit",
            False,
            "audit reported nothing even for an unverified circuit",
        )
    return CheckResult(
        "ancilla-single-fault-audit",
        True,
        f"default circuit clean; unverified variant flagged {len(broken)} site(s)",
    )


# Configs of the sampler-vs-exact check: (eps_g, N, m, eps_a, shots), each
# run at its own fixed seed, so the verdict is deterministic.  P_L moves
# steeply with the schedule in the first: ignoring skips reads ~8 sigma off
# there, m - 1 gates per block ~13.  In the second a skipped faulty round
# that draws its skip again reads ~12 sigma low.
SAMPLER_CONFIGS = (
    (1e-3, 60, 2, 0.5, 40_000),
    (5e-3, 20, 1, 0.7, 327_680),
    (2e-3, 48, 4, 0.0, 40_000),
    (1e-3, 60, 6, 0.9, 40_000),
)
# Two-sided normal tail beyond 4 sigma: the gate on the combined statistic.
SAMPLER_TAIL = math.erfc(4.0 / math.sqrt(2.0))


def _check_sampler_vs_exact() -> CheckResult:
    # chi-square of the four z-scores; with 4 degrees of freedom its tail
    # probability is exp(-x/2) * (1 + x/2)
    zs = []
    for k, (eps_g, n_gates, m, eps_a, shots) in enumerate(SAMPLER_CONFIGS):
        cfg = TrajectoryConfig(
            n_gates=n_gates, m=m, eps_a=eps_a, noise=NoiseParams.from_eps_g(eps_g),
            shots=shots, master_seed=20_240_601 + k,
        )
        p_mc = estimate_pl_mc(cfg).p_hat
        p_exact = logical_error_exact(cfg.noise, cfg.eps_a, cfg.n_gates, cfg.m)
        zs.append((p_mc - p_exact) / math.sqrt(p_exact * (1.0 - p_exact) / shots))
    chi2 = sum(z * z for z in zs)
    tail = math.exp(-chi2 / 2.0) * (1.0 + chi2 / 2.0)
    return CheckResult(
        "sampler-vs-exact",
        tail >= SAMPLER_TAIL,
        f"chi2 = {chi2:.2f} over {len(zs)} configs (tail {tail:.2e}, gate "
        f"{SAMPLER_TAIL:.2e} = 4 sigma); z = "
        + ", ".join(f"{z:+.2f}" for z in zs),
    )


def _check_exact_lumping() -> CheckResult:
    # the 16-class chain is exact only if a round commutes with XOR by every
    # codeword; then it must match 30 blocks of the 128-state reference
    noise = NoiseParams.from_eps_g(1e-3)
    transfer = syndrome_extraction_transfer(noise)
    idx = np.arange(steane.N_PATTERNS)
    for c in steane.CODEWORDS:
        if not np.array_equal(transfer[np.ix_(idx ^ c, idx ^ c)], transfer):
            return CheckResult(
                "exact-lumping", False, f"round not invariant under XOR by {c}"
            )
    n_gates, m, eps_a = 60, 2, 0.5
    gate_flip = parity_flip_prob(noise.eps_g, m)
    dist = (idx == 0).astype(float)
    for _ in range(n_gates // m):
        dist = block_output_distribution(dist, transfer, gate_flip, eps_a)
    reference = float(dist[steane.RESIDUAL_LOGICAL].sum())
    lumped = logical_error_exact(noise, eps_a, n_gates, m)
    err = abs(lumped - reference) / reference
    return CheckResult(
        "exact-lumping",
        err < 1e-12,
        f"16-class chain {lumped:.6e} vs 128-state reference (relative "
        f"error {err:.2e})",
    )


def run_self_checks() -> list[CheckResult]:
    return [
        _check_gamma_sums(),
        _check_table_sum(),
        _check_pairwise_oracle(),
        _check_code_tables(),
        _check_ancilla_audit(),
        _check_sampler_vs_exact(),
        _check_exact_lumping(),
    ]
