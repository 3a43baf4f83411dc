"""Acceptance suite: the thirteen contract-level checks for this package.

Each test prints one summary line with its measured quantities, then asserts
the stated thresholds and its wall-clock budget. The checks are Monte-Carlo
rate bounds and exactness properties at desk scale, each driven through the
public API.
"""

import math
import time
from dataclasses import replace

import numpy as np

from augtest.bench import ExperimentConfig, run_trials, sweep_alpha
from augtest.domain import (
    JointDistribution,
    JointSampler,
    Rng,
    tv_distance,
    tv_to_own_product,
)
from augtest.estimators import (
    EstimatorConfig,
    closeness_test,
    estimate_l2_squared,
)
from augtest.flattening import (
    AxisFlattening,
    FlatView,
    ProductFlattening,
    build_axis_flattening,
    flatten_distribution_explicit,
)
from augtest.hard_instances import (
    EPS_REGIME_MAX,
    embed_hard_to_d,
    gen_hard_2d,
    gen_valid_hard_2d,
    poissonized_counts,
    rank_one_gap,
    validity_check,
)
from augtest.testers import (
    Outcome,
    TesterConfig,
    TesterHooks,
    _plan,
    aug_independence_2d,
    aug_independence_d,
    partition_coordinates,
)
from augtest.testers import test_independence_by_learning as learning_tester

EST = EstimatorConfig()

# Committed per-run sample constant for the practical profile: every trial's
# logged total must stay within K * max(sqrt(nm)/eps^2, n^(2/3) m^(1/3)
# alpha^(1/3) / eps^(4/3)).
PRACTICAL_SAMPLE_CONSTANT = 2_000


def _report(num: int, desc: str, ok: bool, measured: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc} ({measured})"
    print(line)
    assert ok, line


def test_criterion_01_flattening_exactness():
    start = time.perf_counter()
    gen = Rng(1001).gen
    max_tv_diff = 0.0
    for _ in range(1000):
        n = int(gen.integers(2, 21))
        p = gen.dirichlet(np.ones(n))
        q = gen.dirichlet(np.ones(n))
        buckets = gen.integers(1, 5, size=n)
        pf = ProductFlattening([AxisFlattening(buckets)])
        dp = JointDistribution((n,), p)
        dq = JointDistribution((n,), q)
        diff = abs(
            tv_distance(flatten_distribution_explicit(dp, pf), flatten_distribution_explicit(dq, pf))
            - tv_distance(dp, dq)
        )
        max_tv_diff = max(max_tv_diff, diff)

    max_prod_gap = 0.0
    for _ in range(300):
        a, b = int(gen.integers(2, 9)), int(gen.integers(2, 9))
        pa = gen.dirichlet(np.ones(a))
        pb = gen.dirichlet(np.ones(b))
        fa = AxisFlattening(gen.integers(1, 5, size=a))
        fb = AxisFlattening(gen.integers(1, 5, size=b))
        joint = JointDistribution.from_table(np.outer(pa, pb))
        flat_joint = flatten_distribution_explicit(joint, ProductFlattening([fa, fb]))
        flat_pa = flatten_distribution_explicit(
            JointDistribution((a,), pa), ProductFlattening([fa])
        )
        flat_pb = flatten_distribution_explicit(
            JointDistribution((b,), pb), ProductFlattening([fb])
        )
        gap = np.abs(flat_joint.table() - np.outer(flat_pa.probs, flat_pb.probs)).max()
        max_prod_gap = max(max_prod_gap, float(gap))

    elapsed = time.perf_counter() - start
    ok = max_tv_diff <= 1e-12 and max_prod_gap <= 1e-12 and elapsed < 10
    _report(
        1,
        "flattening preserves tv under shared buckets and factorizes products",
        ok,
        f"max tv drift {max_tv_diff:.2e}, max product gap {max_prod_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_expected_flattened_norm():
    start = time.perf_counter()
    results = []
    ok = True
    for n, s, alpha in [(50, 10, 0.2), (100, 20, 0.05)]:
        pred = np.full(n, 1.0 / n)
        # alternating +-2 alpha/n perturbation: tv(p, pred) = alpha exactly
        p = pred + (2.0 * alpha / n) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        assert abs(0.5 * np.abs(p - pred).sum() - alpha) < 1e-15
        gen = Rng(1002, (n,)).gen
        norms = np.empty(2000)
        for t in range(2000):
            counts = gen.poisson(s * p)
            af = build_axis_flattening(pred, counts)
            norms[t] = float((p * p / af.buckets).sum())
        bound = 2.0 * alpha / s + 4.0 / n
        se = norms.std(ddof=1) / math.sqrt(norms.size)
        ok = ok and norms.mean() <= bound + 3 * se
        results.append(f"n={n}: mean {norms.mean():.4f} vs bound {bound:.4f}+3se")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    _report(2, "flattened norm meets the 2a/s + 4/n expectation bound", ok,
            "; ".join(results) + f", {elapsed:.1f}s")


def test_criterion_03_l2_estimator_contract():
    start = time.perf_counter()
    cases = [
        ("point mass", np.array([1.0]), 1.0),
        ("uniform[50]", np.full(50, 0.02), 0.02),
        ("(0.5,0.25,0.25)", np.array([0.5, 0.25, 0.25]), 0.375),
    ]
    parts = []
    ok = True
    for i, (label, pv, true) in enumerate(cases):
        hits = 0
        for t in range(500):
            est = estimate_l2_squared(
                FlatView.from_law(pv), pv.size, 0.05, EST, Rng(1003, (i, t))
            )
            hits += 0.5 * true <= est <= 1.5 * true
        freq = hits / 500
        ok = ok and freq >= 0.95
        parts.append(f"{label}: {freq:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    _report(3, "l2 estimator lands in [1/2, 3/2] of truth with rate >= 0.95", ok,
            "; ".join(parts) + f", {elapsed:.1f}s")


def test_criterion_04_closeness_rates():
    # closeness_test scores one batch of a joint against the product of its
    # own marginals: a product law on 50 cells, and the 2 x 2 diagonal law,
    # at tv 0.5 from its own product, at its tight b = ||product||_2^2
    start = time.perf_counter()
    null_hits = 0
    for t in range(200):
        u = FlatView.from_law(np.full(50, 0.02))
        u.dims = (10, 5)
        null_hits += closeness_test(u, 50, 1.0 / 50.0, 0.3, 0.05, EST, Rng(1004, (0, t)))
    alt_hits = 0
    for t in range(200):
        p = FlatView.from_law(np.array([0.5, 0.0, 0.0, 0.5]))
        p.dims = (2, 2)
        alt_hits += not closeness_test(p, 4, 0.25, 0.3, 0.05, EST, Rng(1004, (1, t)))
    accept_rate, reject_rate = null_hits / 200, alt_hits / 200
    elapsed = time.perf_counter() - start
    ok = accept_rate >= 0.95 and reject_rate >= 0.95 and elapsed < 60
    _report(4, "closeness tester: product accepts and the tv=0.5 diagonal law rejects", ok,
            f"null accept {accept_rate:.3f}, alt reject {reject_rate:.3f}, {elapsed:.1f}s")


def test_criterion_05_2d_end_to_end():
    start = time.perf_counter()
    trials = 100

    uniform = JointDistribution.uniform((20, 10))
    cfg = TesterConfig(eps=0.4, alpha=0.05)
    accepts = sum(
        aug_independence_2d(JointSampler(uniform), uniform, cfg, Rng(1005, (0, t))).outcome
        is Outcome.ACCEPT
        for t in range(trials)
    )
    accept_rate = accepts / trials

    eps = EPS_REGIME_MAX
    hard_accepts = 0
    for t in range(trials):
        rng = Rng(1005, (1, t))
        inst, _, report = gen_valid_hard_2d(200, 20, 10, 0.3, eps, rng.split(0), force_x=1)
        assert report.valid and tv_to_own_product(inst.p) >= 3 * eps
        alpha = max(0.3, min(1.0, 1.05 * tv_distance(inst.p, inst.prediction)))
        hcfg = TesterConfig(eps=eps, alpha=alpha)
        v = aug_independence_2d(JointSampler(inst.p), inst.prediction, hcfg, rng.split(1))
        hard_accepts += v.outcome is Outcome.ACCEPT
    far_accept_rate = hard_accepts / trials

    point = np.zeros(200)
    point[0] = 1.0
    adversarial = JointDistribution(uniform.dims, point)
    acfg = TesterConfig(eps=0.4, alpha=1.0)
    rejects = sum(
        aug_independence_2d(JointSampler(uniform), adversarial, acfg, Rng(1005, (2, t))).outcome
        is Outcome.REJECT
        for t in range(trials)
    )
    adv_reject_rate = rejects / trials

    elapsed = time.perf_counter() - start
    ok = (
        accept_rate >= 0.9
        and far_accept_rate <= 0.1
        and adv_reject_rate <= 0.1
        and elapsed < 300
    )
    _report(5, "2d tester: products accept, far instances do not, bad predictions do not force rejects",
            ok,
            f"uniform accept {accept_rate:.2f}, far accept {far_accept_rate:.2f}, "
            f"adversarial reject {adv_reject_rate:.2f}, {elapsed:.1f}s")


def test_criterion_06_gate_logic_table():
    start = time.perf_counter()
    cfg = TesterConfig(eps=0.4, alpha=0.05, profile="theory")
    dims = (20, 10)
    plan = _plan(dims, cfg)
    gate, cap = plan.gate, plan.cap
    n1, rest = dims
    a, e = cfg.alpha, cfg.eps
    s = [
        max(1.0, min(n1 ** (2 / 3) * rest ** (1 / 3) * a ** (1 / 3) / e ** (4 / 3), n1 * a)),
        max(1.0, rest * a),
    ]
    tau = [2 * a / s[l] + 4 / dims[l] for l in range(2)]
    g0, g1 = gate * tau[0], gate * tau[1]
    jr = 10 * gate * gate * tau[0] * tau[1]
    cap0, cap1 = math.floor(cap * s[0]), math.floor(cap * s[1])
    # Poisson draws of 5 flatten (20, 10) to 45 x 25 = 1,125 cells, where
    # the joint norm costs 1,496 samples and is drawn only when it saves
    # more closeness samples than that on a product: from a product bound
    # of about 0.0431 up. Marginal norms d0, d1 put the bound at 0.08, where
    # the joint-norm rows draw it; k0, k1 at 0.04, where it is skipped.
    d0, d1 = 0.1, 0.2
    k0, k1 = 0.1, 0.1

    A, R, I = Outcome.ACCEPT, Outcome.REJECT, Outcome.INACCURATE
    # (poisson draws, norm values in call order, closeness verdict,
    #  expected outcome, expected deciding stage)
    table = [
        ("cap hit axis0", [cap0 + 1, 5], [], True, R, "poisson_cap"),
        ("cap hit axis1", [5, cap1 + 1], [], True, R, "poisson_cap"),
        ("cap boundary passes", [cap0, cap1], [0.0, 0.0, 0.0], True, A, "closeness"),
        ("below cap", [cap0 - 1, cap1 - 1], [0.0, 0.0, 0.0], True, A, "closeness"),
        ("norm gate axis0", [5, 5], [g0 * 1.001, 0.0], True, I, "norm_gate"),
        ("norm gate axis1", [5, 5], [0.0, g1 * 1.001], True, I, "norm_gate"),
        ("norm gate both", [5, 5], [g0 * 2, g1 * 2], True, I, "norm_gate"),
        ("norm boundary passes", [5, 5], [g0, g1, 0.0], True, A, "closeness"),
        ("norm just below", [5, 5], [g0 * 0.999, g1 * 0.999, 0.0], True, A, "closeness"),
        ("joint over limit", [5, 5], [d0, d1, jr * 1.001], True, R, "joint_norm"),
        ("joint boundary passes", [5, 5], [d0, d1, jr], True, A, "closeness"),
        ("joint just below", [5, 5], [d0, d1, jr * 0.999], True, A, "closeness"),
        ("joint norm skipped", [5, 5], [k0, k1], True, A, "closeness"),
        ("closeness rejects", [5, 5], [0.0, 0.0, 0.0], False, R, "closeness"),
        ("closeness accepts", [5, 5], [0.0, 0.0, 0.0], True, A, "closeness"),
        ("zero preliminary draws", [0, 0], [0.0, 0.0, 0.0], True, A, "closeness"),
        ("cap precedes norms", [cap0 + 1, 5], [], False, R, "poisson_cap"),
        ("norms precede joint", [5, 5], [g0 * 2, 0.0], False, I, "norm_gate"),
        ("joint precedes closeness", [5, 5], [d0, d1, jr * 2], True, R, "joint_norm"),
        ("boundaries then reject", [cap0, cap1], [g0, g1, jr], False, R, "closeness"),
        ("full pass order", [5, 5], [d0, d1, 0.0], True, A, "closeness"),
    ]

    uniform = JointDistribution.uniform(dims)
    mismatches = []
    audits_ok = True
    for label, pois, norms, close_ok, want_outcome, want_stage in table:
        pq, nq, calls = list(pois), list(norms), []

        def fake_poisson(mean, rng, _pq=pq, _calls=calls):
            _calls.append("poisson")
            return _pq.pop(0)

        def fake_norm(view, size, delta, est, rng, account=None, stage="norm", _nq=nq, _calls=calls):
            _calls.append("norm")
            return _nq.pop(0)

        def fake_closeness(view, size, b, eps, delta, est, rng, account=None, _calls=calls):
            _calls.append(("closeness", b, size))
            return close_ok

        hooks = TesterHooks(poisson=fake_poisson, norm=fake_norm, closeness=fake_closeness)
        v = aug_independence_2d(JointSampler(uniform), uniform, cfg, Rng(1006), hooks)
        if v.outcome is not want_outcome or v.stage != want_stage:
            mismatches.append(f"{label}: got ({v.outcome.value}, {v.stage})")

        if label == "cap precedes norms":
            audits_ok = audits_ok and calls.count("norm") == 0
        if label == "norms precede joint":
            audits_ok = audits_ok and calls.count("norm") == 2
        if label in ("joint over limit", "joint boundary passes", "joint just below"):
            audits_ok = audits_ok and calls.count("norm") == 3 and "joint_norm" in v.stage_log
        if label == "joint norm skipped":
            # two norm calls, no joint_norm stage, and closeness at the product bound
            _, b_arg, _ = next(c for c in calls if isinstance(c, tuple))
            audits_ok = audits_ok and calls.count("norm") == 2 and v.stage_log == [
                "poisson_cap", "flattening", "norm_gate", "closeness",
            ]
            audits_ok = audits_ok and abs(b_arg - 4 * k0 * k1) < 1e-12
        if label == "joint precedes closeness":
            audits_ok = audits_ok and not any(isinstance(c, tuple) for c in calls)
        if label == "full pass order":
            audits_ok = audits_ok and v.stage_log == [
                "poisson_cap", "flattening", "norm_gate", "joint_norm", "closeness",
            ]
            _, b_arg, size = next(c for c in calls if isinstance(c, tuple))
            # closeness runs at clip(min(2 joint, prod 2 marg), 1/M, 1) of the
            # scripted norms; closeness_params applies the clamp at 1
            *margs, joint = norms
            cb = min(max(min(2 * joint, math.prod(2 * m for m in margs)), 1 / size), 1.0)
            audits_ok = audits_ok and abs(min(b_arg, 1.0) - cb) < 1e-9

    elapsed = time.perf_counter() - start
    ok = not mismatches and audits_ok and elapsed < 1
    _report(6, "gate branches fire in order with strict thresholds (21 scripted cases)", ok,
            f"{21 - len(mismatches)}/21 matched, audits {'ok' if audits_ok else 'FAILED'}, "
            f"{elapsed:.2f}s" + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_07_learning_tester_rates():
    start = time.perf_counter()
    table = np.einsum("i,j,k->ijk", [0.5, 0.3, 0.2], [0.6, 0.3, 0.1], [0.7, 0.3])
    product = JointDistribution.from_table(table)
    accepts = sum(
        learning_tester(JointSampler(product), 0.35, 0.1, Rng(1007, (0, t))).outcome
        is Outcome.ACCEPT
        for t in range(100)
    )
    diag = JointDistribution.from_table([[0.5, 0.0], [0.0, 0.5]])
    rejects = sum(
        learning_tester(JointSampler(diag), 0.35, 0.1, Rng(1007, (1, t))).outcome
        is Outcome.REJECT
        for t in range(100)
    )
    elapsed = time.perf_counter() - start
    ok = accepts >= 90 and rejects >= 90 and elapsed < 60
    _report(7, "learning tester: 3x3x2 product accepts, correlated pair rejects", ok,
            f"accept {accepts}/100, reject {rejects}/100, {elapsed:.1f}s")


def test_criterion_08_general_arity_pipeline():
    start = time.perf_counter()
    trials = 50
    eps = 0.1

    cube = JointDistribution.uniform((2, 2, 2, 2, 2))
    cfg = TesterConfig(eps=eps, alpha=0.05)
    accepts = sum(
        aug_independence_d(JointSampler(cube), cube, cfg, Rng(1008, (0, t))).outcome
        is Outcome.ACCEPT
        for t in range(trials)
    )
    accept_rate = accepts / trials

    inst, _, report = gen_valid_hard_2d(256, 16, 100, 0.45, EPS_REGIME_MAX, Rng(43), force_x=1)
    assert report.valid
    # far by at least 3*eps from its own marginal product, hence eps-far from
    # every product distribution
    assert tv_to_own_product(inst.p) >= 3 * eps
    p_d, pred_d = embed_hard_to_d(inst, (2, 2, 2, 2))
    alpha = min(1.0, 1.05 * tv_distance(p_d, pred_d))
    fcfg = TesterConfig(eps=eps, alpha=alpha)
    far_accepts = sum(
        aug_independence_d(JointSampler(p_d), pred_d, fcfg, Rng(1008, (1, t))).outcome
        is Outcome.ACCEPT
        for t in range(trials)
    )
    far_accept_rate = far_accepts / trials

    elapsed = time.perf_counter() - start
    ok = accept_rate >= 0.9 and far_accept_rate <= 0.1 and elapsed < 300
    _report(8, "5-axis pipeline: uniform cube accepts, embedded far instance does not", ok,
            f"cube accept {accept_rate:.2f}, far accept {far_accept_rate:.2f}, {elapsed:.1f}s")


def test_criterion_09_hard_instance_validity():
    start = time.perf_counter()
    n_inst = 500
    eps = EPS_REGIME_MAX
    alpha = 0.3
    valid = 0
    certificate_failures = 0
    for i in range(n_inst):
        rng = Rng(1009, (i,))
        inst = gen_hard_2d(2000, 50, 150, alpha, eps, rng.split(0))
        counts = poissonized_counts(inst, rng.split(1))
        report = validity_check(inst, counts)
        if not report.valid:
            continue
        valid += 1
        if inst.x == 0:
            if rank_one_gap(inst.p) > 1e-12 or tv_distance(inst.p, inst.prediction) > alpha:
                certificate_failures += 1
        else:
            if tv_to_own_product(inst.p) < 3 * eps:
                certificate_failures += 1
    rate = valid / n_inst
    elapsed = time.perf_counter() - start
    ok = rate >= 0.95 and certificate_failures == 0 and elapsed < 300
    _report(9, "hard instances pass validity >= 95% with exact tv certificates", ok,
            f"valid {rate:.3f} ({valid}/{n_inst}), certificate failures {certificate_failures}, "
            f"{elapsed:.1f}s")


def test_criterion_10_alpha_scaling():
    start = time.perf_counter()
    n, m, eps = 100, 20, 0.4
    levels = [1.0, 0.3, 0.1, 0.03]
    cfg = ExperimentConfig(
        tester="2d",
        trials=20,
        seed=1010,
        eps=eps,
        alpha=1.0,
        instance={"kind": "uniform", "dims": [n, m]},
        prediction="exact",
    )
    rows = sweep_alpha(cfg, levels)
    means = [r["mean_samples"] for r in rows]
    monotone = all(means[i + 1] <= 1.05 * means[i] for i in range(len(means) - 1))
    # the best prediction must buy a strictly cheaper verdict than none
    cheaper = means[-1] < means[0]

    bound_violations = 0
    for a in levels:
        bound = PRACTICAL_SAMPLE_CONSTANT * max(
            math.sqrt(n * m) / eps**2,
            n ** (2 / 3) * m ** (1 / 3) * a ** (1 / 3) / eps ** (4 / 3),
        )
        records = run_trials(replace(cfg, alpha=a))
        bound_violations += sum(r.samples_total > bound for r in records)

    elapsed = time.perf_counter() - start
    ok = monotone and cheaper and bound_violations == 0 and elapsed < 300
    _report(10, "sample totals shrink with better predictions and respect the committed budget",
            ok,
            f"means {['%.3g' % v for v in means]}, monotone {monotone}, alpha .03 below alpha 1 "
            f"{cheaper}, bound violations {bound_violations}, {elapsed:.1f}s")


def test_criterion_11_partition_exhaustive():
    start = time.perf_counter()

    vectors = []

    def extend(prefix, max_entry, prod):
        if len(prefix) >= 2:
            vectors.append(tuple(prefix))
        if len(prefix) == 12:
            return
        v = min(max_entry, 4096 // prod)
        while v >= 2:
            prefix.append(v)
            extend(prefix, v, prod * v)
            prefix.pop()
            v -= 1

    extend([], 4096, 1)

    violations = 0
    for dims in vectors:
        total = math.prod(dims)
        root = math.sqrt(total)
        blocks = partition_coordinates(list(dims))
        for blk in blocks[1:]:
            if math.prod(dims[i] for i in blk) > root:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10
    _report(11, "partition keeps every non-leading block within sqrt of the domain size", ok,
            f"{len(vectors)} dims vectors, violations {violations}, {elapsed:.1f}s")


def test_criterion_12_dary_beats_learning_where_learning_is_dear():
    start = time.perf_counter()
    dims, eps = (16, 16, 16, 16), 0.2
    p = JointDistribution.uniform(dims)
    cfg = TesterConfig(eps=eps, alpha=0.05)
    runs = [aug_independence_d(JointSampler(p), p, cfg, Rng(1012, (s,))) for s in range(10)]
    accepts = sum(v.outcome is Outcome.ACCEPT for v in runs)
    mean_total = sum(v.account.total for v in runs) / len(runs)
    learning_t = learning_tester(JointSampler(p), eps, 0.1, Rng(1012, (10,))).detail["t"]
    elapsed = time.perf_counter() - start
    # Measured 4.42e6 against t 8.03e7, and 4.24e6 to 4.35e6 with seeds 1013
    # to 1015; t / 15 = 5.35e6 keeps 21 % above the highest of those.
    ok = accepts == len(runs) and mean_total < learning_t / 15 and elapsed < 60
    _report(12, "(16,)^4 uniform: the d-ary tester accepts on 15x fewer samples than whole-input learning",
            ok,
            f"accept {accepts}/{len(runs)}, mean total {mean_total:.3g} against learning t "
            f"{learning_t:.3g}, {elapsed:.1f}s")


def test_criterion_13_a_good_prediction_is_cheaper_on_a_skewed_law():
    start = time.perf_counter()
    z = np.arange(1, 2001) ** -1.1
    p = JointDistribution((2000, 4), np.outer(z / z.sum(), np.full(4, 0.25)))
    arms = {
        "exact": (p, TesterConfig(eps=0.4, alpha=0.01)),
        "prediction-free": (JointDistribution.uniform(p.dims), TesterConfig(eps=0.4, alpha=1.0)),
    }
    runs = {
        arm: [aug_independence_2d(JointSampler(p), pred, cfg, Rng(s)) for s in range(10)]
        for arm, (pred, cfg) in arms.items()
    }
    accepts = sum(v.outcome is Outcome.ACCEPT for arm in runs.values() for v in arm)
    mean = {arm: sum(v.account.total for v in vs) / len(vs) for arm, vs in runs.items()}
    ratio = mean["exact"] / mean["prediction-free"]
    elapsed = time.perf_counter() - start
    # Measured 1.18e4 against 2.52e4, a ratio of 0.47 (0.48 over seeds 10 to
    # 59); 0.57 when every run drew the joint norm. 0.55 holds the saving of
    # drawing it only where it pays, with 15 % above the measurement.
    ok = accepts == 20 and ratio <= 0.55 and elapsed < 10
    _report(13, "Zipf(1.1)(2000) x U(4): the exact prediction costs under 0.55 of the prediction-free arm",
            ok,
            f"accept {accepts}/20, mean total {mean['exact']:.3g} against {mean['prediction-free']:.3g}, "
            f"ratio {ratio:.3f}, {elapsed:.1f}s")
