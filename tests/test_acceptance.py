"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time

from swapsim import analysis, cli, engine, qcore, toys

TSIRELSON = 2.0 * math.sqrt(2.0)
GEOMETRIES = ("early", "delayed", "spacelike")


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_1_tsirelson_exact():
    t0 = time.perf_counter()
    result = analysis.exact_chsh(engine.ExperimentConfig())
    elapsed = time.perf_counter() - t0
    ok = abs(result.S - TSIRELSON) < 1e-9 and elapsed < 1.0
    check(1, "exact event-ready CHSH hits 2*sqrt(2)", ok,
          f"S={result.S:.12f}, {elapsed*1e3:.1f} ms")


def test_criterion_2_entanglement_swap_fidelity():
    outcome, post = qcore.bell_state_measurement(qcore.make_two_singlets(), 1, 2, 0.99)
    expected = qcore.product_of_pair_states(
        4, {(0, 3): qcore.singlet(), (1, 2): qcore.singlet()}
    )
    fid = qcore.fidelity(post, expected)
    ok = outcome is qcore.BellOutcome.PSI_MINUS and abs(fid - 1.0) < 1e-12
    check(2, "psi- outcome swaps entanglement to the outer pair", ok, f"fidelity={fid:.15f}")


def test_criterion_3_timing_insensitivity():
    t0 = time.perf_counter()
    tables = [
        engine.exact_experiment_distribution(engine.ExperimentConfig(geometry=g))
        for g in GEOMETRIES
    ]
    elapsed = time.perf_counter() - t0
    same_keys = set(tables[0]) == set(tables[1]) == set(tables[2])
    worst = max(
        max(abs(tables[0][k] - t[k]) for k in tables[0]) for t in tables[1:]
    )
    ok = same_keys and worst < 1e-12 and elapsed < 1.0
    check(3, "exact joint tables agree across the three layouts", ok,
          f"max diff={worst:.2e}, {elapsed*1e3:.1f} ms")


def test_criterion_4_no_difference():
    worst = 0.0
    ok = True
    for g in GEOMETRIES:
        report = analysis.no_difference_check(engine.ExperimentConfig(geometry=g))
        worst = max(worst, report.max_abs_diff)
        ok = ok and report.verdict is analysis.NdaVerdict.NO_DIFFERENCE
    check(4, "removing the central measurement leaves P(a,b,A,B) unchanged", ok,
          f"max diff={worst:.2e}")


def test_criterion_5_monte_carlo_consistency():
    n = 100_000
    t0 = time.perf_counter()
    ens = engine.run_trials(engine.ExperimentConfig(geometry="early", n_trials=n, seed=7))
    event_ready = engine.post_select(ens)
    frac = len(event_ready) / n
    result = analysis.chsh(analysis.correlators(event_ready))
    ns_tests = analysis.no_signaling_tests(ens)
    elapsed = time.perf_counter() - t0

    frac_ok = abs(frac - 0.25) < 5 * math.sqrt(0.25 * 0.75 / n)
    chsh_ok = abs(result.S - TSIRELSON) < 5 * result.stderr
    ns_ok = all(t.verdict is analysis.Verdict.HOLDS for t in ns_tests)
    ok = frac_ok and chsh_ok and ns_ok and elapsed < 30.0
    check(5, "1e5-trial run: herald rate, CHSH, no-signaling, runtime", ok,
          f"frac={frac:.4f}, S={result.S:.4f}+-{result.stderr:.4f}, {elapsed:.1f} s")


def test_criterion_6_toy_collider():
    big = toys.run_toy_collider(1_000_000, 101)
    s_big = analysis.chsh(analysis.correlators(toys.accepted(big))).S
    chsh_ok = abs(s_big - 2.8284) < 0.05

    small = big.select(slice(100_000))
    lc_ps = analysis.local_causality_tests(toys.accepted(small), post_selected=True)
    lc_full = analysis.local_causality_tests(small, post_selected=False)
    lc_ok = all(t.verdict is analysis.Verdict.VIOLATED for t in lc_ps) and all(
        t.verdict is analysis.Verdict.HOLDS for t in lc_full
    )

    n = len(small)
    tol = 5 * math.sqrt(0.25 / n)
    marg_ok = (
        abs((small["A"] == 1).sum() / n - 0.5) < tol
        and abs((small["B"] == 1).sum() / n - 0.5) < tol
    )
    ok = chsh_ok and lc_ok and marg_ok
    check(6, "collider toy: Tsirelson by selection, LC_ps broken, generator fair", ok,
          f"S={s_big:.4f}")


def test_criterion_7_toy_source_variant():
    trials = toys.run_toy_source_variant(100_000, 103)
    si_ps = analysis.statistical_independence_test(toys.accepted(trials), post_selected=True)
    si_full = analysis.statistical_independence_test(trials, post_selected=False)
    ok = (
        si_ps.verdict is analysis.Verdict.VIOLATED
        and si_full.verdict is analysis.Verdict.HOLDS
    )
    check(7, "source toy: selection lands on SI_ps, not on the generator", ok,
          f"G_ps={si_ps.divergence:.1f} vs {si_ps.threshold:.1f}")


def test_criterion_8_fragility_closed_form():
    cfg = engine.ExperimentConfig()
    report = analysis.fragility(cfg)
    worst = max(
        abs(p - (1.0 - A * B * math.cos(cfg.angles_a[a] - cfg.angles_b[b])) / 4.0)
        for (a, b, A, B), p in report.cells.items()
    )
    ok = worst < 1e-12 and report.max_spread > 0.0
    check(8, "herald probability matches (1 - A*B*cos)/4 on all 16 cells", ok,
          f"max err={worst:.2e}, spread={report.max_spread:.4f}")


def test_criterion_9_teleport_channel_dichotomy():
    controlled = analysis.teleport_channel_demo(True, 100_000, 11)
    uncontrolled = analysis.teleport_channel_demo(False, 100_000, 11)
    ok = (
        controlled.mutual_information_bits > 0.9
        and uncontrolled.mutual_information_bits < 0.05
    )
    check(9, "controlled collider opens the channel, uncontrolled does not", ok,
          f"MI={controlled.mutual_information_bits:.4f} / "
          f"{uncontrolled.mutual_information_bits:.5f}")


def test_criterion_10_byte_identical_artifacts(tmp_path, monkeypatch):
    dirs = [tmp_path / "one", tmp_path / "two"]
    for d in dirs:
        d.mkdir()
        monkeypatch.chdir(d)
        cli.main(["simulate", "--geometry", "spacelike", "--trials", "2000",
                  "--seed", "5", "--out", "run"])
        cli.main(["toy", "--variant", "source", "--trials", "2000", "--seed", "5",
                  "--out", "toy"])
        cli.main(["teleport", "--controlled", "true", "--trials", "2000",
                  "--seed", "5", "--out", "tp"])
    names = ("run.csv", "run.json", "run.report.json", "toy.csv",
             "toy.report.json", "tp.report.json")
    ok = all((dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names)
    check(10, "identical seed+config reproduces byte-identical artifacts", ok)


def test_criterion_11_rps_selection_bias():
    trials = toys.run_rps(10_000, 13)
    unconditional = analysis.test_conditional_independence(
        trials, "alice", (), ("bob",), hypothesis="rps-unconditional"
    )
    conditional = [
        analysis.test_conditional_independence(
            trials.select(trials["verdict"] == code), "alice", (), ("bob",),
            hypothesis=f"rps-given-{v.value}",
        )
        for code, v in enumerate(toys.RPS_VERDICTS)
    ]
    ok = unconditional.verdict is analysis.Verdict.HOLDS and all(
        t.verdict is analysis.Verdict.VIOLATED for t in conditional
    )
    check(11, "choices independent overall, dependent inside each verdict", ok)
