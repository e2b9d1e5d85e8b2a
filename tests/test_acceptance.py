"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The statistical criteria run the full experiment protocols (25 realizations,
tens of thousands of iterations); expect several minutes of wall clock.
"""
import json

import numpy as np

import simplexgame as sg


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# -- 1. geometry suite --------------------------------------------------------

def test_c01_geometry_suite():
    rng = np.random.default_rng(101)
    worst_gram = worst_centroid = worst_norm = worst_iso = 0.0
    for trial in range(200):
        b = int(rng.integers(2, 13))
        y = sg.StrengthDistribution.random_proper(b, rng, alpha=5.0)
        s = sg.build_simplex(y)
        worst_gram = max(worst_gram, sg.gram_defect(s))
        centroid, norm_sum = sg.weighted_moments(s)
        worst_centroid = max(worst_centroid, centroid)
        worst_norm = max(worst_norm, abs(norm_sum - (b - 1)))
        xs = rng.standard_normal((100, b - 1))
        proj = xs @ s.vertices.T
        defects = np.abs(proj ** 2 @ y.weights - np.einsum("kd,kd->k", xs, xs))
        worst_iso = max(worst_iso, float(defects.max()))
    ok = (worst_gram <= 1e-10 and worst_centroid <= 1e-10
          and worst_norm <= 1e-10 and worst_iso <= 1e-9)
    _report(1, "geometry-suite", ok,
            f"(gram {worst_gram:.2e}, centroid {worst_centroid:.2e}, "
            f"norm {worst_norm:.2e}, isometry {worst_iso:.2e})")


# -- 2. algebraic identities --------------------------------------------------

def test_c02_algebraic_identities():
    rng = np.random.default_rng(202)
    worst_reward = worst_potential = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 7))
        b = int(rng.integers(2, 5))
        s_count = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        y = sg.StrengthDistribution.random_proper(b, rng, alpha=5.0)
        cfg = sg.GameConfig(players=n, nodes=b, signals=m,
                            strategies_per_player=s_count, strengths=y)
        simplex = sg.build_simplex(y)
        c = sg.draw_strategy_matrix(cfg, rng)

        choices = rng.integers(0, s_count, n)
        sig = int(rng.integers(m))
        _, counts = sg.resolve_bets(c, sig, choices, cfg)
        bet = counts @ simplex.vertices
        i = int(rng.integers(n))
        w = sg.reward_vector(c, sig, choices, bet, i, cfg)
        for strat in range(s_count):
            swapped = choices.copy()
            swapped[i] = strat
            nodes2, counts2 = sg.resolve_bets(c, sig, swapped, cfg)
            u = 1.0 - counts2[nodes2[i]] / (y.weights[nodes2[i]] * n)
            worst_reward = max(worst_reward, abs(w[strat] - u / m))

        if s_count >= 2:
            p = sg.MixedProfile(rng.dirichlet(np.ones(s_count), size=n))
            s1, s2 = rng.choice(s_count, size=2, replace=False)
            defect = sg.potential_defect(c, p, i, int(s1), int(s2), cfg)
            worst_potential = max(worst_potential, abs(defect))
    ok = worst_reward <= 1e-12 and worst_potential <= 1e-12
    _report(2, "algebraic-identities", ok,
            f"(reward dual-form {worst_reward:.2e}, potential {worst_potential:.2e})")


# -- 3. analytic constants ----------------------------------------------------

def test_c03_analytic_constants():
    z1 = sg.zeta(1)
    z2 = sg.zeta(2)
    target = -1.0 / np.sqrt(np.pi)
    mc, stderr = sg.zeta_monte_carlo(2, samples=10**7, seed=303)
    lc = sg.critical_lambda(2, 2)
    ok = (z1 == 0.0
          and abs(z2 - target) <= 1e-6
          and abs(z2 - mc) <= 4 * stderr
          and abs(lc - 1.0 / np.pi) <= 1e-6)
    _report(3, "analytic-constants", ok,
            f"(zeta2 err {abs(z2 - target):.2e}, mc gap {abs(z2 - mc):.2e} "
            f"vs 4se {4 * stderr:.2e})")


# -- 4. trace reproduction ----------------------------------------------------

def test_c04_trace_reproduction():
    first10, plateaus = [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        y = sg.StrengthDistribution.random_proper(5, rng)
        cfg = sg.GameConfig(players=50, nodes=5, signals=2,
                            strategies_per_player=2, strengths=y)
        result = sg.run(cfg, rng, gamma=20.0, iterations=2000)
        r = result.frustrations
        first10.append(r[:10].mean())
        plateaus.append(r[-200:].mean())
    low_plateaus = sum(p <= 0.25 for p in plateaus)

    base_cfg = sg.GameConfig(players=50, nodes=5, signals=2,
                             strategies_per_player=2,
                             strengths=sg.StrengthDistribution.uniform(5))
    baseline = sg.random_baseline(base_cfg, seed=404, iterations=10**4)
    base_mean = float(np.mean(baseline))

    ok = (np.mean(first10) >= 0.6 and low_plateaus >= 8
          and abs(base_mean - 1.0) <= 0.05)
    _report(4, "trace-reproduction", ok,
            f"(first10 {np.mean(first10):.2f}, plateau<=0.25 in {low_plateaus}/10, "
            f"baseline {base_mean:.3f})")


# -- 5. closed-form curve -----------------------------------------------------

def test_c05_predicted_curve():
    exp = sg.ExperimentConfig(players=50, nodes=2, strategies=2,
                              lambda_grid=(0.1, 0.2, 0.32, 0.5, 1.0, 2.0, 4.0),
                              realizations=25, master_seed=2026, t_max=20000)
    result = sg.sweep(exp)
    gaps = []
    ok = True
    for s in result.summary:
        gap = abs(s.mean_r - s.predicted_r)
        tol = 0.05 if s.realized_lambda >= 2.0 else 0.15
        gaps.append(f"{s.realized_lambda:g}:{gap:.3f}")
        ok = ok and gap <= tol
    _report(5, "predicted-curve", ok, "(gaps " + " ".join(gaps) + ")")


# -- 6. strength irrelevance --------------------------------------------------

def test_c06_strength_irrelevance():
    rates = tuple(np.array([1.06, 3.91, 11.0, 14.1]) / (1.06 + 3.91 + 11.0 + 14.1))
    exp = sg.ExperimentConfig(players=50, nodes=4, strategies=2,
                              lambda_grid=(0.75, 1.0, 1.5, 2.0, 3.0),
                              realizations=25, master_seed=606, t_max=20000,
                              strengths="uniform", strengths_b=rates)
    cmp = sg.compare_strengths(exp)
    ok = all(r.gap <= 3 * r.pooled_se for r in cmp.per_lambda)
    detail = " ".join(f"{r.realized_lambda:g}:{r.gap:.3f}<={3 * r.pooled_se:.3f}"
                      for r in cmp.per_lambda)
    _report(6, "strength-irrelevance", ok, f"({detail})")


# -- 7. binary reduction ------------------------------------------------------

def test_c07_binary_reduction():
    exp = sg.ExperimentConfig(players=50, nodes=5, strategies=2,
                              lambda_grid=(0.04, 0.2, 0.5, 1.0, 2.0),
                              realizations=25, master_seed=707, t_max=20000)
    cmp = sg.verify_reduction(exp)
    ok = all(r.gap <= 3 * r.pooled_se for r in cmp.per_lambda)
    detail = " ".join(f"{r.realized_lambda:g}:{r.gap:.3f}<={3 * r.pooled_se:.3f}"
                      for r in cmp.per_lambda)
    _report(7, "binary-reduction", ok, f"({detail})")


# -- 8. choice and sophistication orderings -----------------------------------

def test_c08_orderings():
    stats = {}
    for nodes, strategies in [(2, 2), (5, 2), (10, 2), (5, 4)]:
        exp = sg.ExperimentConfig(players=50, nodes=nodes, strategies=strategies,
                                  lambda_grid=(1.0,), realizations=25,
                                  master_seed=808, t_max=20000)
        summary = sg.sweep(exp).summary[0]
        stats[(nodes, strategies)] = (summary.mean_r, summary.std_r / 5.0)

    def separated(low, high):
        gap = stats[high][0] - stats[low][0]
        return gap > float(np.hypot(stats[low][1], stats[high][1])), gap

    ok_b1, g1 = separated((2, 2), (5, 2))
    ok_b2, g2 = separated((5, 2), (10, 2))
    ok_s, g3 = separated((5, 4), (5, 2))
    ok = ok_b1 and ok_b2 and ok_s
    _report(8, "orderings", ok,
            f"(B 2->5 +{g1:.3f}, B 5->10 +{g2:.3f}, S 4->2 +{g3:.3f})")


# -- 9. oracle consistency ----------------------------------------------------

def test_c09_oracle_consistency():
    y = sg.StrengthDistribution(np.array([0.5, 0.5]))
    cfg = sg.GameConfig(players=3, nodes=2, signals=2, strategies_per_player=2,
                        strengths=y)
    nonempty = bound_ok = close = 0
    for seed in range(20):
        c = sg.draw_strategy_matrix(cfg, np.random.default_rng(seed))
        eq = sg.scan_profiles(c, cfg)
        if eq.equilibria:
            nonempty += 1
        result = sg.run(cfg, seed, gamma=20.0, iterations=2000, matrix=c)
        learned = sg.expected_frustration(c, sg.MixedProfile(result.probabilities), cfg)
        if learned >= eq.min_r - 1e-9:
            bound_ok += 1
        if abs(learned - eq.min_r) <= 0.05:
            close += 1
    ok = nonempty == 20 and bound_ok == 20 and close >= 14
    _report(9, "oracle-consistency", ok,
            f"(nonempty {nonempty}/20, bound {bound_ok}/20, close {close}/20)")


# -- 10. determinism ----------------------------------------------------------

def test_c10_determinism(tmp_path):
    def do_sweep(tag):
        exp = sg.ExperimentConfig(players=10, nodes=2, strategies=2,
                                  lambda_grid=(0.5, 1.0), realizations=3,
                                  t_max=500, window=100, check_every=50,
                                  master_seed=1010)
        result = sg.sweep(exp)
        base = tmp_path / f"{tag}.csv"
        sg.export_sweep(result, str(base), "csv")
        jpath = tmp_path / f"{tag}.json"
        sg.export_sweep(result, str(jpath), "json")
        return base, tmp_path / f"{tag}_summary.csv", jpath

    a_data, a_summary, a_json = do_sweep("a")
    b_data, b_summary, b_json = do_sweep("b")
    csv_ok = (a_data.read_bytes() == b_data.read_bytes()
              and a_summary.read_bytes() == b_summary.read_bytes())
    pa, pb = json.loads(a_json.read_text()), json.loads(b_json.read_text())
    pa["metadata"].pop("wall_clock_seconds")
    pb["metadata"].pop("wall_clock_seconds")
    json_ok = pa == pb
    _report(10, "determinism", csv_ok and json_ok,
            f"(csv identical {csv_ok}, json identical modulo wall clock {json_ok})")
