"""Acceptance gate: eight release criteria, one printed verdict line each.

Every test prints exactly one `criterion N: PASS/FAIL - ...` line to the
terminal (bypassing capture) before asserting, so a pytest run doubles as
the acceptance report and a red run still shows the measured numbers.
"""

import filecmp
import json
import math
import random
import statistics
import time

import numpy as np

from camsched import cli
from camsched.camq import (
    CamMap,
    QualityState,
    commit_slot,
    enhancement_quality,
    filter_cam,
    record_accuracy,
)
from camsched.sched import (
    GaConfig,
    baseline_capacity,
    baseline_no_enhancement,
    brute_force,
    evolve,
    objective,
)
from camsched.sim import SlotData, SynthSpec, Trace, generate_synthetic, run
from camsched.sysmodel import (
    Decision,
    EdgeServer,
    EnhancementProfile,
    KIND_CPU,
    KIND_GPU,
    ModelConstants,
    SlotInput,
    SystemModel,
    check_feasibility,
    device_latency,
)

from conftest import (
    make_model,
    make_slot,
    one_link,
    oracle_gap_instance,
    paper_scale_instance,
    quality_numerator,
    random_decision,
    small_instance,
)
from refimpl import (
    ref_cam_difference,
    ref_capacity_ok,
    ref_device_latency,
    ref_enhancement,
    ref_feasible,
    ref_filter,
    ref_filtered_difference,
    ref_gene_latency,
    ref_latency_ok,
    ref_objective,
    ref_quality,
    ref_temporal_variation,
    ref_transmission,
    ref_utility,
)

REL = 1e-9


def close(got, want, rel=REL):
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= rel * max(1.0, abs(got), abs(want))


def report(capsys, ok, number, text):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {verdict} - {text}"
    with capsys.disabled():
        print(line)
    assert ok, line


# ------------------------------------------------- 1. oracle-gap suite


def test_criterion_1_oracle_gap_suite(capsys):
    """GA vs exhaustive optimum on 100 seeded M=4, N=2, K=2 instances."""
    t_start = time.perf_counter()
    exact = 0
    gaps = []
    bf_times = []
    misses = []
    for seed in range(100):
        model, slot = oracle_gap_instance(seed)
        t0 = time.perf_counter()
        res = brute_force(slot, model)
        bf_times.append(time.perf_counter() - t0)
        best, _ = evolve(slot, model)
        hit = best.feasible and abs(best.fitness - res.objective) <= 1e-12 * max(
            1.0, abs(res.objective)
        )
        if hit:
            exact += 1
            gaps.append(0.0)
        elif best.feasible:
            gap = (res.objective - best.raw_utility) / max(1e-9, abs(res.objective))
            gaps.append(gap)
            misses.append(seed)
        else:
            # an infeasible answer achieves nothing: count it as unbounded gap
            gaps.append(math.inf)
            misses.append(seed)
    total_s = time.perf_counter() - t_start
    worst_gap = max(gaps)
    worst_bf_ms = max(bf_times) * 1e3
    ok = (
        exact >= 90
        and worst_gap <= 0.05
        and worst_bf_ms < 50.0
        and total_s < 30.0
    )
    gap_txt = f"{worst_gap * 100:.2f}%" if math.isfinite(worst_gap) else "inf"
    report(
        capsys, ok, 1,
        f"oracle-gap suite: exact {exact}/100 (need >=90), worst gap {gap_txt} "
        f"(cap 5%), max brute-force {worst_bf_ms:.1f} ms (cap 50), "
        f"runtime {total_s:.1f} s (cap 30), misses {misses}",
    )


# ------------------------------------------------- 2. exact arithmetic


def quality_case_025():
    # committed window map filters to [[0.5, 0], [0, 2.0]]; the assessed
    # enhanced map filters to [[0.5, 0], [0, 0]] so the numerator is 0.5
    # and the variation is |0 - 2.0| = 2.0, giving Q = 1.0 * 0.5 / 2.0
    state = QualityState(num_devices=1, num_algorithms=1)
    past = filter_cam(CamMap(np.array([[0.5, 0.1], [0.2, 2.0]])), 0.4)
    commit_slot(state, 0, 1, past)
    enhanced = CamMap(np.array([[0.5, 0.3], [0.1, 0.2]]))
    lowlight = CamMap(np.full((2, 2), 0.1))
    return enhancement_quality(state, 0, 1, enhanced, lowlight, threshold=0.4)


def enhancement_time(datasize, phi, s):
    """The enhancement time in a latency_table: a gene's latency less that of
    shipping raw on the same link."""
    lat, _ = one_link(datasize, 1e6, phi, s)
    return float(lat[1] - lat[0])


def test_criterion_2_exact_arithmetic(capsys):
    """Hand cases plus 20 fuzzed cases per formula vs naive references."""
    hand = []

    a = np.array([[0.5, 0.2], [0.1, 0.4]])
    b = np.array([[0.3, 0.1], [0.2, 0.1]])
    # 0.2 + 0.1 - 0.1 + 0.3
    hand.append(("cam difference", quality_numerator(CamMap(a), CamMap(b)), 0.5))

    enh = CamMap(np.array([[0.9, 0.1], [0.4, 0.6]]))
    hand.append(("filtered difference", quality_numerator(enh, CamMap(np.zeros((2, 2))), 0.5),
                 1.5))

    hand.append(("quality", quality_case_025(), 0.25))

    hand.append(("transmission", one_link(1e6, 1e6)[0][0], 1.0))
    hand.append(("transmission zero data", one_link(0.0, 5.0)[0][0], 0.0))
    hand.append(("transmission dead link", one_link(1e6, 0.0)[0][0], math.inf))

    prof = EnhancementProfile(1, KIND_GPU, np.array([2e-7, 4e-7]), np.array([2.0, 1.0]))
    hand.append(("enhancement", enhancement_time(1e6, 2e-7, 2.0), 0.1))
    hand.append(("enhancement no worker", enhancement_time(1e6, 2e-7, 0.0), math.inf))

    model = SystemModel(
        (EdgeServer(8.0, 4.0), EdgeServer(4.0, 8.0)),
        (
            prof,
            EnhancementProfile(2, KIND_CPU, np.array([1e-7, 1e-7]), np.array([4.0, 2.0])),
        ),
        ModelConstants(num_devices=2, overhead_latency_s=0.2),
    )
    slot = SlotInput(
        datasize_bits=np.array([1e6, 2e6]),
        bandwidth_bps=np.array([[1e6, 2e6], [2e6, 4e6]]),
        quality=np.array([[0.0, 1.0, 2.0], [0.0, 1.5, 0.8]]),
    )
    dec = Decision((0, 1), (1, 2))
    # device 0: 1.0 + 0.2 + 0.1; device 1: 0.5 + 0.2 + 0.1
    hand.append(("device latency", device_latency(dec, 0, slot, model), 1.3))
    # a zero-demand algorithm over a one-second link: latency 1.0, weight 0.5
    hand.append(("utility", one_link(1e6, 1e6, quality=1.0)[1].utilities[0], 0.5))
    hand.append(("utility unreachable", one_link(1e6, 0.0, quality=1.0)[1].utilities[0],
                 -math.inf))
    # (1.0 - 0.5 * 1.3) + (0.8 - 0.5 * 0.8)
    hand.append(("objective", objective(dec, slot, model), 0.75))

    bad = [name for name, got, want in hand if not close(got, want)]

    rng = np.random.default_rng(24)
    pyrng = random.Random(24)
    fuzz_bad = []

    for i in range(20):
        a = rng.uniform(0.0, 3.0, (4, 4))
        b = rng.uniform(0.0, 3.0, (4, 4))
        gamma = float(rng.uniform(0.0, 1.2))

        got = quality_numerator(CamMap(a), CamMap(b))
        if not close(got, ref_cam_difference(a.tolist(), b.tolist())):
            fuzz_bad.append(("cam difference", i))

        got = quality_numerator(CamMap(a), CamMap(b), gamma)
        if not close(got, ref_filtered_difference(a.tolist(), b.tolist(), gamma)):
            fuzz_bad.append(("filtered difference", i))

        state = QualityState(num_devices=1, num_algorithms=1)
        history = [filter_cam(CamMap(rng.uniform(0, 1.5, (3, 3))), 0.4) for _ in range(2)]
        for h in history:
            commit_slot(state, 0, 1, h)
        acc = float(rng.uniform(0.2, 1.0))
        record_accuracy(state, 0, acc)
        e = CamMap(rng.uniform(0, 1.5, (3, 3)))
        l = CamMap(rng.uniform(0, 1.5, (3, 3)))
        got = enhancement_quality(state, 0, 1, e, l, threshold=0.4)
        fe = ref_filter(e.values.tolist(), 0.4)
        fl = ref_filter(l.values.tolist(), 0.4)
        want = ref_quality(
            acc,
            ref_cam_difference(fe, fl),
            ref_temporal_variation(fe, [h.values.tolist() for h in history], 1e-6),
            10.0,
        )
        if not close(got, want):
            fuzz_bad.append(("quality", i))

        d = float(rng.uniform(0, 5e6)) if i % 5 else 0.0
        bw = float(rng.uniform(1e5, 1e7)) if i % 4 else 0.0
        if not close(float(one_link(d, bw)[0][0]), ref_transmission(d, bw)):
            fuzz_bad.append(("transmission", i))

        phi = float(rng.uniform(1e-8, 5e-6))
        s = float(rng.uniform(0.5, 6.0)) if i % 4 else 0.0
        if not close(enhancement_time(d, phi, s), ref_enhancement(phi, d, s)):
            fuzz_bad.append(("enhancement", i))

        fmodel = make_model(rng, 4, 2, 2)
        fslot = make_slot(rng, fmodel)
        fdec = random_decision(pyrng, fmodel)
        genes = list(zip(fdec.servers, fdec.algorithms))
        for m, (n, k) in enumerate(genes):
            if k == 0:
                phi_k, s_k = 0.0, 1.0
            else:
                pr = fmodel.profiles[k - 1]
                phi_k, s_k = float(pr.demand_per_bit[n]), float(pr.service_rate[n])
            want = ref_device_latency(
                float(fslot.datasize_bits[m]), float(fslot.bandwidth_bps[m, n]),
                k, phi_k, s_k, fmodel.constants.overhead_latency_s,
            )
            if not close(device_latency(fdec, m, fslot, fmodel), want):
                fuzz_bad.append(("device latency", i))

        utilities = check_feasibility(fdec, fslot, fmodel).utilities
        for m, (n, k) in enumerate(genes):
            want = ref_utility(float(fslot.quality[m, k]), ref_gene_latency(fslot, fmodel, m, n, k),
                               fmodel.constants.latency_weight)
            if not close(float(utilities[m]), want):
                fuzz_bad.append(("utility", i))
        if not close(objective(fdec, fslot, fmodel), ref_objective(genes, fslot, fmodel)):
            fuzz_bad.append(("objective", i))

    ok = not bad and not fuzz_bad
    report(
        capsys, ok, 2,
        f"exact arithmetic: {len(hand)} hand cases + 7 formulas x 20 fuzz "
        f"within 1e-9 relative, mismatches {bad + fuzz_bad}",
    )


# ------------------------------------------------- 3. constraint soundness


def structurally_valid(dec, model):
    num_servers = len(model.servers)
    num_algorithms = len(model.profiles)
    return (
        len(dec.servers) == model.constants.num_devices
        and len(dec.algorithms) == model.constants.num_devices
        and all(0 <= n < num_servers for n in dec.servers)
        and all(0 <= k <= num_algorithms for k in dec.algorithms)
    )


def test_criterion_3_constraint_soundness(capsys):
    """10^4 random decisions: verdicts must match naive re-evaluation."""
    pyrng = random.Random(9)
    agree = 0
    total = 0
    for i in range(100):
        model, slot = small_instance(i) if i < 50 else paper_scale_instance(i)
        for _ in range(100):
            dec = random_decision(pyrng, model)
            genes = list(zip(dec.servers, dec.algorithms))
            rep = check_feasibility(dec, slot, model)
            same = (
                rep.capacity_ok == ref_capacity_ok(genes, model)
                and rep.latency_ok == ref_latency_ok(genes, slot, model)
                and rep.feasible == ref_feasible(genes, slot, model)
            )
            agree += same
            total += 1

    structural = 0
    s_total = 0
    for i in range(12):
        model, slot = small_instance(300 + i)
        outputs = [evolve(slot, model)[0].decision]
        res = brute_force(slot, model)
        if res.decision is not None:
            outputs.append(res.decision)
        outputs.append(baseline_capacity(slot, model).decision)
        outputs.append(baseline_no_enhancement(slot, model))
        for dec in outputs:
            structural += structurally_valid(dec, model)
            s_total += 1

    ok = agree == total and structural == s_total
    report(
        capsys, ok, 3,
        f"constraint soundness: verdict agreement {agree}/{total}, "
        f"scheduler outputs structurally valid {structural}/{s_total}",
    )


# ------------------------------------------------- 4. elitism monotonicity


def test_criterion_4_elitism_monotonicity(capsys):
    """Best-fitness history never decreases, including a 1000-gen run."""
    violations = 0
    runs = 0
    for seed in range(50):
        model, slot = small_instance(200 + seed)
        best, hist = evolve(slot, model, GaConfig(rng_seed=seed))
        violations += sum(1 for x, y in zip(hist, hist[1:]) if y < x)
        violations += best.fitness != hist[-1]
        runs += 1
    model, slot = small_instance(7)
    best, hist = evolve(slot, model, GaConfig(generations=1000, rng_seed=3))
    violations += sum(1 for x, y in zip(hist, hist[1:]) if y < x)
    violations += best.fitness != hist[-1]
    runs += 1
    ok = violations == 0
    report(
        capsys, ok, 4,
        f"elitism monotonicity: {runs} runs (50 seeded + one 1000-generation "
        f"stress), {violations} violations",
    )


# ------------------------------------------------- 5. determinism


def write_determinism_config(path):
    path.write_text(json.dumps({
        "devices": 2,
        "seed": 5,
        "synth": {"horizon": 4, "offsets": [0.3, 0.1], "cam_rows": 8, "cam_cols": 8},
        "servers": [
            {"gpu_capacity": 8.0, "cpu_capacity": 8.0},
            {"gpu_capacity": 8.0, "cpu_capacity": 8.0},
        ],
        "algorithms": [
            {"kind": "gpu", "demand_per_bit": 1e-7, "service_rate": 4.0},
            {"kind": "cpu", "demand_per_bit": 2e-7, "service_rate": 4.0},
        ],
    }))


def dir_files_identical(left, right):
    cmp = filecmp.dircmp(str(left), str(right))
    if cmp.diff_files or cmp.left_only or cmp.right_only:
        return False
    for name in cmp.common_files:
        if (left / name).read_bytes() != (right / name).read_bytes():
            return False
    for sub in cmp.common_dirs:
        if not dir_files_identical(left / sub, right / sub):
            return False
    return True


def test_criterion_5_determinism(capsys, tmp_path):
    """simulate and gen-trace reruns produce byte-identical outputs."""
    cfg = tmp_path / "cfg.json"
    write_determinism_config(cfg)

    trace_a = tmp_path / "trace_a"
    trace_b = tmp_path / "trace_b"
    rc = 0
    rc |= cli.main(["gen-trace", "--config", str(cfg), "--out", str(trace_a)])
    rc |= cli.main(["gen-trace", "--config", str(cfg), "--out", str(trace_b)])
    trace_ok = rc == 0 and dir_files_identical(trace_a, trace_b)

    m1 = tmp_path / "m1.jsonl"
    m2 = tmp_path / "m2.jsonl"
    manifest = str(trace_a / "trace.json")
    for out in (m1, m2):
        rc |= cli.main([
            "simulate", "--config", str(cfg), "--trace", manifest,
            "--out", str(out), "--scheduler", "ga",
        ])
    capsys.readouterr()
    sim_ok = rc == 0 and m1.read_bytes() == m2.read_bytes()

    ok = trace_ok and sim_ok
    report(
        capsys, ok, 5,
        f"determinism: gen-trace rerun byte-identical {trace_ok}, "
        f"simulate rerun byte-identical {sim_ok}",
    )


# ------------------------------------------------- 6. quality properties


def test_criterion_6_quality_properties(capsys):
    """Six assessment invariants, each over >=1000 fuzzed inputs."""
    rng = np.random.default_rng(6)
    counts = {}

    v = 0
    for _ in range(1000):
        a = CamMap(rng.uniform(0.0, 2.0, (5, 5)))
        b = CamMap(rng.uniform(0.0, 2.0, (5, 5)))
        if quality_numerator(a, b) != -quality_numerator(b, a):
            v += 1
    counts["antisymmetry"] = v

    v = 0
    for _ in range(1000):
        m = rng.uniform(0.0, 2.0, (4, 4))
        gamma = float(rng.uniform(0.0, 1.5))
        once = filter_cam(CamMap(m), gamma)
        twice = filter_cam(CamMap(once.values), gamma)
        if not np.array_equal(once.values, twice.values):
            v += 1
    counts["filter idempotence"] = v

    v = 0
    for _ in range(1000):
        m = rng.uniform(0.0, 2.0, (4, 4))
        lo, hi = sorted(rng.uniform(0.0, 1.5, 2))
        loose = filter_cam(CamMap(m), float(lo)).values
        tight = filter_cam(CamMap(m), float(hi)).values
        kept_tight = tight != 0.0
        if np.any(kept_tight & (loose == 0.0)) or np.any(tight[kept_tight] != m[kept_tight]):
            v += 1
    counts["filter monotonicity"] = v

    # uncapped scores against a zero low-light map: the numerator is the
    # filtered current map's sum, so the score shows the floored variation
    v = 0
    floor = 1e-6
    zeros = CamMap(np.zeros((3, 3)))
    for i in range(1000):
        cur = CamMap(rng.uniform(0.0, 2.0, (3, 3)))
        if i % 3 == 0:
            history = [filter_cam(cur, 0.4)] * int(rng.integers(1, 4))  # zero raw variation
        else:
            history = [
                filter_cam(CamMap(rng.uniform(0.0, 2.0, (3, 3))), 0.4)
                for _ in range(int(rng.integers(0, 4)))
            ]
        state = QualityState(num_devices=1, num_algorithms=1, denom_floor=floor,
                             quality_cap=math.inf)
        for h in history:
            commit_slot(state, 0, 1, h)
        got = enhancement_quality(state, 0, 1, cur, zeros)
        num = quality_numerator(cur, zeros, 0.4)
        raw = ref_temporal_variation(
            filter_cam(cur, 0.4).values.tolist(), [h.values.tolist() for h in history], 0.0
        )
        if i % 3 == 0:
            bad = got != num / floor  # a static window scores exactly num / floor
        else:
            bad = got > num / floor or not close(got, num / max(raw, floor), rel=1e-12)
        v += bad
    counts["denominator floor"] = v

    v = 0
    state = QualityState(num_devices=1, num_algorithms=2)
    for _ in range(1000):
        e = CamMap(rng.uniform(0.0, 2.0, (3, 3)))
        l = CamMap(rng.uniform(0.0, 2.0, (3, 3)))
        if enhancement_quality(state, 0, 0, e, l) != 0.0:
            v += 1
    counts["no-enhancement zero"] = v

    v = 0
    for i in range(1000):
        state = QualityState(num_devices=1, num_algorithms=1)
        if i % 2 == 0:
            # variation pinned at the floor, numerator huge: must clamp at +/-10
            scale = float(rng.uniform(1.0, 5.0))
            hot = CamMap(np.full((3, 3), scale))
            cold = CamMap(np.zeros((3, 3)))
            e, l = (hot, cold) if i % 4 == 0 else (cold, hot)
            commit_slot(state, 0, 1, filter_cam(e, 0.4))
            got = enhancement_quality(state, 0, 1, e, l)
            if got != (10.0 if i % 4 == 0 else -10.0):
                v += 1
        else:
            history = [filter_cam(CamMap(rng.uniform(0, 2, (3, 3))), 0.4)
                       for _ in range(int(rng.integers(1, 4)))]
            for h in history:
                commit_slot(state, 0, 1, h)
            got = enhancement_quality(
                state, 0, 1,
                CamMap(rng.uniform(0, 5, (3, 3))), CamMap(rng.uniform(0, 5, (3, 3))),
            )
            if abs(got) > 10.0:
                v += 1
    counts["clamp"] = v

    total = sum(counts.values())
    ok = total == 0
    report(
        capsys, ok, 6,
        f"quality properties: 6 properties x 1000 inputs, violations {counts}",
    )


# ------------------------------------------------- 7. linear scaling


def evolve_ms(slot, model, cfg):
    """(wall, process CPU) milliseconds of one evolve call."""
    w0, c0 = time.perf_counter(), time.process_time()
    evolve(slot, model, cfg)
    return (time.perf_counter() - w0) * 1e3, (time.process_time() - c0) * 1e3


def test_criterion_7_linear_scaling(capsys):
    """Wall time stays under 100 ms at default scale and scales ~linearly.

    Base, 2x population and 2x generations run round-robin for 5 rounds and
    each factor is the median of its per-round ratios, so a shift in host
    speed between rounds cancels inside each ratio instead of skewing it.
    The factors divide process CPU time, which time other processes take
    from this one does not inflate; the cap is on wall time.
    """
    model, slot = paper_scale_instance(7)
    evolve(slot, model)  # warmup
    configs = (GaConfig(), GaConfig(population_size=100), GaConfig(generations=200))
    rounds = [[evolve_ms(slot, model, cfg) for cfg in configs] for _ in range(5)]
    base = statistics.median(r[0][0] for r in rounds)
    pop_factors = [r[1][1] / r[0][1] for r in rounds]
    gen_factors = [r[2][1] / r[0][1] for r in rounds]
    f_pop, f_gen = statistics.median(pop_factors), statistics.median(gen_factors)
    ok = base <= 100.0 and 1.6 <= f_pop <= 2.6 and 1.6 <= f_gen <= 2.6
    per_round = ", ".join(f"{p:.2f}/{g:.2f}" for p, g in zip(pop_factors, gen_factors))
    report(
        capsys, ok, 7,
        f"linear scaling: M=10 N=4 K=4 evolve median {base:.1f} ms wall (cap 100), "
        f"2x population factor {f_pop:.2f}, 2x generations factor {f_gen:.2f} "
        f"(band 1.6-2.6, median of 5 round-robin rounds of CPU time; "
        f"per round pop/gen {per_round})",
    )


# ------------------------------------------------- 8. dominance ordering


def dominance_model():
    rng = np.random.default_rng(77)
    servers = tuple(
        EdgeServer(float(rng.uniform(8.0, 14.0)), float(rng.uniform(8.0, 14.0)))
        for _ in range(3)
    )
    profiles = tuple(
        EnhancementProfile(k, kind, rng.uniform(5e-8, 4e-7, 3), rng.uniform(2.5, 4.0, 3))
        for k, kind in ((1, KIND_GPU), (2, KIND_CPU), (3, KIND_GPU))
    )
    return SystemModel(servers, profiles, ModelConstants(num_devices=5))


def test_criterion_8_dominance_ordering(capsys):
    """oracle >= GA >= each baseline (1e-9 slack) on 50 synthetic slots."""
    trace_seed = 80
    model = dominance_model()
    spec = SynthSpec(
        num_devices=5, num_servers=3, num_algorithms=3, horizon=50,
        offsets=(0.3, 0.2, 0.1), seed=trace_seed,
    )
    raw = generate_synthetic(spec)
    # drop the accuracy feedback so every scheduler sees identical quality
    # inputs each slot; feedback would fork the assessment state after the
    # first divergent decision and break cross-scheduler comparability
    trace = Trace(5, 3, 3, tuple(
        SlotData(datasize_bits=s.datasize_bits, bandwidth_bps=s.bandwidth_bps,
                 lowlight=s.lowlight, enhanced=s.enhanced)
        for s in raw.slots
    ))

    metrics = {}
    for name in ("oracle", "ga", "capacity", "none"):
        metrics[name], _ = run(trace, model, scheduler=name)

    failures = []
    for t in range(50):
        o = metrics["oracle"][t]
        g = metrics["ga"][t]
        ordered = o.total_utility >= g.total_utility - 1e-9 and all(
            g.total_utility >= metrics[b][t].total_utility - 1e-9
            for b in ("capacity", "none")
        )
        feasible_ok = g.feasible or not o.feasible
        if not (ordered and feasible_ok):
            failures.append(t)

    ok = len(failures) <= 2
    report(
        capsys, ok, 8,
        f"dominance ordering: {50 - len(failures)}/50 slots ordered "
        f"(need >=48), trace seed {trace_seed}, failing slots {failures}",
    )
