"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they execute.
"""

import math
import time

import numpy as np

from qkdsim import (
    NoiseModel,
    OpaqueEve,
    PhotonSplitEve,
    PublicTranscript,
    Rng,
    SessionConfig,
    b92_alphabet,
    build_povm,
    eve_guess,
    povm_probabilities,
    privacy_amplify,
    reconcile,
    run_fixture,
    run_session,
    run_stage1_b92,
    run_stage1_bb84,
    sift_bb84,
    uncertainty_product,
)
from qkdsim.cli import main
from qkdsim.protocol import make_tap
from util import rand_hermitian, rand_ket, subset_parity_information


def _criterion(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _sifted_error_rate(sift):
    errors = sum(1 for a, b in zip(sift.raw_alice, sift.raw_bob) if a != b)
    return errors / len(sift.raw_alice)


def test_criterion_01_opaque_attack_signature():
    rates, times, sifted_counts = [], [], []
    for seed in range(1, 6):
        started = time.perf_counter()
        cfg = SessionConfig("bb84", 45_000, eve=OpaqueEve(1.0), seed=seed)
        rng = Rng(cfg.seed)
        record = run_stage1_bb84(cfg, rng, make_tap(cfg, rng))
        sift = sift_bb84(record, PublicTranscript())
        times.append(time.perf_counter() - started)
        sifted_counts.append(len(sift.slots))
        rates.append(_sifted_error_rate(sift))
    ok = (
        all(n >= 20_000 for n in sifted_counts)
        and all(abs(r - 0.25) <= 0.02 for r in rates)
        and all(t < 5.0 for t in times)
    )
    _criterion(
        1,
        ok,
        f"full interception error rates {[round(r, 4) for r in rates]} "
        f"(target 0.25 +- 0.02), sifted >= 20000, max runtime {max(times):.2f}s < 5s",
    )


def test_criterion_02_clean_channel_guarantee():
    master = Rng(2026)
    seeds = [master.below(2**63) for _ in range(1000)]
    failures = 0
    for protocol in ("bb84", "b92"):
        for seed in seeds:
            report = run_session(SessionConfig(protocol, 300, sec_param=4, seed=seed))
            if (
                report.aborted
                or report.error_rate != 0.0
                or report.final_key_alice != report.final_key_bob
                or report.final_key_length == 0
            ):
                failures += 1
    _criterion(
        2,
        failures == 0,
        f"0 failures across 1000 seeds x 2 protocols (zero error rate, identical final keys)",
    )


def test_criterion_03_fixtures_exact():
    a = run_fixture("fig6a")
    b = run_fixture("fig6b")
    v = run_fixture("vernam")
    ok = (
        a.passed
        and a.data["raw_alice"] == "011000"
        and b.passed
        and b.data["raw_bob"] == "011110"
        and b.data["error_slots"] == [6, 7]
        and v.passed
        and v.data["cipher"] == "110010111001"
    )
    _criterion(
        3,
        ok,
        "fig6a raw key 011000; fig6b bob raw key 011110 with errors at slots 6,7; "
        "vernam ciphertext 110010111001 (exact)",
    )


def test_criterion_04_b92_statistics():
    theta = math.pi / 8
    # Closed form from the quadratic-form oracle before sampling.
    povm = build_povm(theta)
    alpha = b92_alphabet(theta)
    oracle = sum(povm_probabilities(alpha.encode(1), povm)[:2])
    closed_form = 1 - math.cos(2 * theta)
    assert abs(oracle - closed_form) < 1e-12

    cfg = SessionConfig("b92", 100_000, seed=404)
    record = run_stage1_b92(cfg, Rng(cfg.seed), None)
    conclusive = [
        (a, b)
        for a, b, got in zip(record.alice_bits, record.bob_bits, record.received)
        if got and b is not None
    ]
    fraction = len(conclusive) / cfg.n_pulses
    conclusive_errors = sum(1 for a, b in conclusive if a != b)
    ok = abs(fraction - closed_form) <= 0.01 and conclusive_errors == 0
    _criterion(
        4,
        ok,
        f"conclusive fraction {fraction:.4f} (target {closed_form:.4f} +- 0.01), "
        f"{conclusive_errors} conclusive errors (target 0)",
    )


def test_criterion_05_povm_validity_sweep():
    lo, hi = 0.01, math.pi / 4 - 0.01
    worst = 0.0
    for i in range(50):
        theta = lo + (hi - lo) * i / 49
        povm = build_povm(theta)
        total = povm.a_plus + povm.a_minus + povm.a_inconclusive
        worst = max(worst, float(np.max(np.abs(total - np.eye(2)))))
        for el in povm.elements():
            worst = max(worst, float(np.max(np.abs(el - el.conj().T))))
            worst = max(worst, float(-np.min(np.linalg.eigvalsh(el))))
    ok = worst <= 1e-10
    _criterion(
        5, ok, f"50 angles: completeness/Hermiticity/positivity defect {worst:.2e} <= 1e-10"
    )


def test_criterion_06_uncertainty_inequality():
    rng = Rng(606)
    violations = 0
    for _ in range(10_000):
        lhs, rhs, holds = uncertainty_product(
            rand_hermitian(rng), rand_hermitian(rng), rand_ket(rng)
        )
        if not holds:
            violations += 1
    _criterion(
        6, violations == 0, f"{violations} violations of lhs >= rhs - 1e-9 in 10000 random cases"
    )


def test_criterion_07_reconciliation_efficacy():
    successes = 0
    worst_consumed = 0.0
    for seed in range(100):
        rng = Rng(7000 + seed)
        key_a = [rng.coin() for _ in range(4096)]
        key_b = [b ^ 1 if rng.uniform() < 0.03 else b for b in key_a]
        rec_a, rec_b, acct = reconcile(key_a, key_b, 0.03, Rng(7500 + seed), PublicTranscript())
        if rec_a == rec_b:
            successes += 1
        worst_consumed = max(worst_consumed, acct.bits_discarded / 4096)
    ok = successes >= 99 and worst_consumed < 0.60
    _criterion(
        7,
        ok,
        f"{successes}/100 runs reconciled (target >= 99), "
        f"worst bits consumed {worst_consumed:.1%} (target < 60%)",
    )


def test_criterion_08_privacy_amplification_bound():
    started = time.perf_counter()
    bound = 0.5**3 / math.log(2)
    rng = Rng(808)
    true_bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0]
    total = 0.0
    draws = 200
    for _ in range(draws):
        _, subsets = privacy_amplify(true_bits, 4, 3, rng, PublicTranscript())
        total += subset_parity_information(subsets, 12, 4, true_bits)
    mean_info = total / draws
    elapsed = time.perf_counter() - started
    ok = mean_info <= bound and elapsed < 60.0
    _criterion(
        8,
        ok,
        f"mean eavesdropper information {mean_info:.4f} bits <= 2^-3/ln2 = {bound:.4f} "
        f"over 200 draws ({elapsed:.1f}s < 60s)",
    )


def test_criterion_09_photon_split_stealth():
    n = 1_000_000
    noise_quiet = NoiseModel(flip_p=0.02)
    noise_split = NoiseModel(flip_p=0.02, multi_p=1 / 200)

    cfg_split = SessionConfig("bb84", n, noise=noise_split, eve=PhotonSplitEve(), seed=909)
    rng = Rng(cfg_split.seed)
    tap = make_tap(cfg_split, rng)
    record = run_stage1_bb84(cfg_split, rng, tap)
    transcript = PublicTranscript()
    sift = sift_bb84(record, transcript)
    recorded_fraction = len(tap.record) / n
    guesses = eve_guess(tap, transcript)
    alice = dict(zip(sift.slots, sift.raw_alice))
    accuracy = sum(1 for s, (b, _) in guesses.items() if alice.get(s) == b) / len(guesses)
    rate_split = _sifted_error_rate(sift)
    n_split = len(sift.slots)

    cfg_quiet = SessionConfig("bb84", n, noise=noise_quiet, seed=910)
    record_quiet = run_stage1_bb84(cfg_quiet, Rng(cfg_quiet.seed), None)
    sift_quiet = sift_bb84(record_quiet, PublicTranscript())
    rate_quiet = _sifted_error_rate(sift_quiet)
    n_quiet = len(sift_quiet.slots)

    pooled = (rate_split * n_split + rate_quiet * n_quiet) / (n_split + n_quiet)
    z = (rate_split - rate_quiet) / math.sqrt(
        pooled * (1 - pooled) * (1 / n_split + 1 / n_quiet)
    )
    ok = abs(recorded_fraction - 0.005) <= 0.0005 and accuracy == 1.0 and abs(z) <= 3.0
    _criterion(
        9,
        ok,
        f"recorded fraction {recorded_fraction:.4%} (target 0.5% +- 0.05%), "
        f"guess accuracy {accuracy} on {len(guesses)} recorded sifted slots (target 1.0), "
        f"error-rate z = {z:.2f} vs quiet baseline (target |z| <= 3)",
    )


def test_criterion_10_report_determinism(capsys):
    commands = [
        ["run", "--protocol", "bb84", "--n", "4000", "--seed", "17", "--eve", "opaque", "--eve-frac", "0.3"],
        ["run", "--protocol", "b92", "--n", "4000", "--seed", "18", "--flip", "0.01"],
        ["run", "--protocol", "bb84", "--n", "2000", "--seed", "19", "--loss", "0.1", "--multi", "0.005", "--eve", "pns"],
    ]
    identical = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = main(argv)
            outputs.append((code, capsys.readouterr().out))
        identical = identical and outputs[0] == outputs[1] and outputs[0][0] == 0
    with capsys.disabled():
        _criterion(10, identical, "repeated cmd_run invocations are byte-identical (3 configs x 2 runs)")
