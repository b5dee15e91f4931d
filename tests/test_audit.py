"""Tests for the constant estimators and the estimate audit harness.

The single-axis modes make the constant estimates deterministic: a field with
exactly one nonzero second derivative has ratio 1 in every norm, so the
estimators are pinned at >= 1 regardless of sampling.  On the convex box the
sampled fields never exceed that, which the end-to-end checks rely on.
"""

import json
import tracemalloc

import numpy as np
import pytest

from pstruct import audit, grid, problems
from pstruct.errors import BadRange
from pstruct.grid import build_domain


# ---------------------------------------------------------------- constants


@pytest.mark.parametrize("kind", ["dirichlet_box", "cubic_periodic"])
def test_axis_modes_pin_c4_to_one(kind):
    dom = build_domain(kind, 12)
    assert audit.estimate_c4(dom, samples=0) == 1.0


def test_c4_on_box_with_samples():
    box = build_domain("dirichlet_box", 16)
    c4 = audit.estimate_c4(box, samples=6, seed=0)
    assert 0.9 <= c4 <= 1.1


def test_c5_at_q2_reproduces_c4():
    # same sample path, same norms: bit-identical, not merely close
    box = build_domain("dirichlet_box", 16)
    assert audit.estimate_c5(box, 2.0, samples=6, seed=0) == audit.estimate_c4(
        box, samples=6, seed=0
    )


def test_c5_table_matches_individual_calls():
    box = build_domain("dirichlet_box", 12)
    q_list = (2.0, 4.0, 8.0, 16.0)
    table = audit.c5_table(box, q_list=q_list, samples=3, seed=1)
    assert set(table) == set(q_list)
    for q, val in table.items():
        assert val == audit.estimate_c5(box, q, samples=3, seed=1)
        assert val >= 1.0 - 1e-15


@pytest.mark.parametrize("q_list", [(2.0, 4.0, 8.0), (4.0, 8.0), (16.0, 4.0)])
def test_estimate_constants_evaluates_the_sample_path_once_per_q(monkeypatch, q_list):
    box = build_domain("dirichlet_box", 10)
    c4 = audit.estimate_c4(box, samples=3, seed=1)
    table = audit.c5_table(box, q_list=q_list, samples=3, seed=1)
    calls = []
    c5_table = audit.c5_table

    def counted(domain, q_list, samples, seed):
        calls.append(tuple(q_list))
        return c5_table(domain, q_list, samples, seed)

    monkeypatch.setattr(audit, "c5_table", counted)
    got = audit.estimate_constants(box, q_list, samples=3, seed=1, admissible_q=(2.0, 6.0))
    assert got == {
        "c4_hat": c4,
        "c5_hat": {f"{q:g}": table[q] for q in q_list},
        "c6_hat": max([c4] + list(table.values())),
        "growth_fit": audit.growth_fit(table),
        "admissible_p": audit.admissible_p((2.0, 6.0), c4, table),
    }
    # q = 2 is taken in the same pass, listed or not, and reported only if
    # listed; the c5_hat keys come in ascending q, the constants.csv row order
    assert calls == [q_list + (2.0,)]
    assert list(got["c5_hat"]) == [f"{q:g}" for q in sorted(q_list)]


def test_c5_table_memory_does_not_grow_with_samples():
    # the sample fields are made one at a time: a list of all of them grew
    # the peak by one field per sample, about 0.8 MB each at n = 32
    box = build_domain("dirichlet_box", 8)
    audit.c5_table(box, samples=1)  # fill the grid and Poisson caches first
    peaks = []
    for samples in (4, 40):
        tracemalloc.start()
        try:
            audit.c5_table(box, samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    field_bytes = 3 * 8 * int(np.prod(box.shape))
    assert peaks[1] < peaks[0] + 4 * field_bytes


def test_constant_estimators_validate_q():
    box = build_domain("dirichlet_box", 8)
    with pytest.raises(ValueError):
        audit.estimate_c5(box, 1.5)
    with pytest.raises(ValueError):
        audit.estimate_c5(box, 17.0)


# ---------------------------------------------------------------- growth fit


def test_growth_fit_exact_hand_table():
    table = {2.0: 99.0, 4.0: 0.25, 8.0: 0.5, 16.0: 1.0}
    fit = audit.growth_fit(table)
    # 2.0 sits outside the window and must not contaminate the fit
    assert fit["k1_hat"] == 0.0625
    assert fit["k2_hat"] == 0.0625
    assert fit["ls_slope"] == pytest.approx(0.0625, rel=1e-14)
    assert fit["window"] == [4.0, 16.0]


def test_growth_fit_needs_two_points():
    # one q in [4, 16]; 2 and 32 lie outside it
    with pytest.raises(ValueError):
        audit.growth_fit({2.0: 1.0, 8.0: 1.0, 32.0: 1.0})


# ---------------------------------------------------------------- exponent map


def test_r_of_q_closed_form_at_q2():
    for p in (1.25, 1.5, 1.75):
        assert audit.r_of_q(2.0, p) == 6.0 / (p + 1.0)


def test_r_of_q_piecewise():
    assert audit.r_of_q(4.0, 1.5) == 4.0
    assert audit.r_of_q(16.0, 1.2) == 16.0
    assert audit.r_of_q(3.0, 1.5) == 3.0
    # both one-sided limits meet at the junction
    assert abs(audit.r_of_q(3.0 - 1e-6, 1.5) - 3.0) < 1e-5
    assert abs(audit.r_of_q(3.0 + 1e-6, 1.5) - 3.0) < 1e-5


def test_r_of_q_validation():
    with pytest.raises(BadRange):
        audit.r_of_q(1.9, 1.5)
    with pytest.raises(ValueError):
        audit.r_of_q(2.0, 2.5)
    with pytest.raises(ValueError):
        audit.r_of_q(2.0, 1.0)


def test_admissible_p_intervals():
    rows = audit.admissible_p((2.0,), 4.0, {})
    assert rows[0]["p_min"] == 1.75
    assert rows[0]["p_max"] == 2.0
    assert not rows[0]["empty"]

    rows = audit.admissible_p((2.0, 4.0), 1.0, {4.0: 2.0})
    assert rows[0]["constant_used"] == 1.0
    assert rows[0]["p_min"] == 1.0
    assert rows[1]["constant_used"] == 2.0
    assert rows[1]["p_min"] == 1.5

    narrow = audit.admissible_p((2.0,), 2000.0, {})
    assert narrow[0]["flagged_narrow"]
    assert not narrow[0]["empty"]


# ---------------------------------------------------------------- verify_estimate


def test_verify_estimate_rejects_unknown_name():
    with pytest.raises(ValueError):
        audit.verify_estimate("w3q_bound")


@pytest.mark.parametrize("name", audit.ESTIMATE_NAMES)
def test_verify_estimate_passes(name):
    out = audit.verify_estimate(name, n=12)
    assert out["covered"]
    assert out["coverage_reasons"] == []
    assert out["verdict"] == "PASS"
    assert out["max_spread"] < 10.0

    inputs = out["inputs"]
    want_rows = len(inputs["shape_seeds"]) * len(inputs["mu_values"]) * len(inputs["amplitudes"])
    assert len(out["rows"]) == want_rows
    for row in out["rows"]:
        for key in ("n", "p", "mu", "seed", "amplitude", "eta", "lhs", "rhs",
                    "ratio", "iterations", "residual"):
            assert key in row
        assert row["ratio"] > 0.0

    if name in ("p_gt_2_W22", "tangential_fe1"):
        fit = out["mu_fit"]
        assert fit["ok"]
        assert abs(fit["slope"] - fit["target"]) <= fit["tolerance"]
    else:
        assert out["mu_fit"] is None


def test_verify_estimate_off_hypothesis_is_informational():
    out = audit.verify_estimate("p_gt_2_W22", n=12, p=1.5)
    assert not out["covered"]
    assert any("p > 2" in r for r in out["coverage_reasons"])
    assert out["verdict"] == "informational"

    out = audit.verify_estimate("p_lt_2_W22", n=12, structure="symmetric")
    assert not out["covered"]
    assert out["verdict"] == "informational"


def test_coverage_reasons_name_each_missed_hypothesis():
    assert audit._coverage_reasons("p_gt_2_W22", 2.5, (0.0, 1.0), "full", "dirichlet_box",
                                   2.0) == ["stated for the symmetric-gradient law",
                                            "stated on the periodic slab domain",
                                            "needs mu > 0"]
    assert audit._coverage_reasons("p_lt_2_W2q", 2.5, (0.0,), "full", "dirichlet_box",
                                   1.5) == ["needs 1 < p < 2, got p=2.5", "needs q >= 2, got q=1.5"]


# ---------------------------------------------------------------- tangential energy


def test_tangential_ratio_is_one_at_p2():
    slab = build_domain("cubic_periodic", 16)
    u = problems.smooth_test_field(slab).values()
    out = audit.tangential_energy_check(slab, u, p=2.0, mu=0.7)
    assert abs(out["ratio"] - 1.0) <= 1e-13
    assert out["I_s"] > 0.0


def test_tangential_ratio_above_one_for_p3():
    slab = build_domain("cubic_periodic", 16)
    u = problems.smooth_test_field(slab).values()
    out = audit.tangential_energy_check(slab, u, p=3.0, mu=1.0)
    assert out["ratio"] >= 0.95
    assert set(out["per_axis"]) == {"x", "y"}
    for ax in out["per_axis"].values():
        assert ax["I_s"] > 0.0


def test_tangential_zero_field_guard():
    slab = build_domain("cubic_periodic", 12)
    out = audit.tangential_energy_check(slab, np.zeros((3,) + slab.shape), p=3.0, mu=1.0)
    assert out["I_s"] == 0.0
    assert out["ratio"] == 1.0


def test_tangential_requires_slab():
    box = build_domain("dirichlet_box", 12)
    with pytest.raises(ValueError):
        audit.tangential_energy_check(box, np.zeros((3,) + box.shape), p=3.0, mu=1.0)


# ---------------------------------------------------------------- holder seminorm


def test_holder_validation():
    dom = build_domain("dirichlet_box", 8)
    gr = problems.smooth_test_field(dom).gradient_values()
    for alpha in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            audit.holder_seminorm(dom, gr, alpha)


def test_holder_constant_gradient_is_zero():
    dom = build_domain("dirichlet_box", 12)
    gr = np.ones((3, 3) + dom.shape)
    assert audit.holder_seminorm(dom, gr, 0.25) == 0.0


def test_holder_is_positively_homogeneous():
    dom = build_domain("dirichlet_box", 16)
    gr = problems.smooth_test_field(dom).gradient_values()
    one = audit.holder_seminorm(dom, gr, 0.25, seed=1)
    two = audit.holder_seminorm(dom, 2.0 * gr, 0.25, seed=1)
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_holder_distances_take_the_minimal_image_on_periodic_axes():
    # a ramp in x jumps across the slab's seam, so pairs across it are the
    # steepest only when measured by their minimal image; the reference
    # redraws the same seeded pairs and takes the shorter way round
    dom = build_domain("cubic_periodic", 8)
    gr = np.zeros((3, 3) + dom.shape)
    gr[0, 0] = dom.meshgrid()[0]
    rng = np.random.default_rng(5)
    ia = [rng.integers(0, s, size=audit.HOLDER_PAIRS) for s in dom.shape]
    ib = [rng.integers(0, s, size=audit.HOLDER_PAIRS) for s in dom.shape]
    steps = [np.abs(a - b) for a, b in zip(ia, ib)]
    steps = [np.minimum(s, dom.n - s) if dom.is_periodic(ax) else s for ax, s in enumerate(steps)]
    dist = dom.h * np.sqrt(sum(s * s for s in steps))
    keep = dist >= 2.0 * dom.h - 1e-12
    jump = np.abs(gr[0, 0][tuple(ia)] - gr[0, 0][tuple(ib)])
    want = np.max(jump[keep] / dist[keep] ** 0.25)
    assert audit.holder_seminorm(dom, gr, 0.25, seed=5) == pytest.approx(want, rel=1e-14)


def test_holder_stable_under_refinement():
    vals = []
    for n in (16, 24):
        dom = build_domain("dirichlet_box", n)
        gr = problems.smooth_test_field(dom).gradient_values()
        vals.append(audit.holder_seminorm(dom, gr, 0.25, seed=1))
    assert abs(vals[0] - vals[1]) / vals[1] < 0.2


# ---------------------------------------------------------------- report


def test_run_audit_end_to_end():
    report = audit.run_audit(n=12, constants_n=16, samples=4, q_list=(2.0, 4.0, 8.0, 16.0))
    assert set(report) == {"c4_hat", "c5_hat", "c6_hat", "k1_hat", "k2_hat", "growth_slope",
                           "admissible_p", "estimate_checks", "tangential", "holder", "inputs"}
    verdicts = {check["name"]: check["verdict"] for check in report["estimate_checks"]}
    assert verdicts == {name: "PASS" for name in audit.ESTIMATE_NAMES}
    assert 0.9 <= report["c4_hat"] <= 1.1
    assert report["c6_hat"] == max([report["c4_hat"]] + list(report["c5_hat"].values()))
    assert report["k1_hat"] <= report["k2_hat"]
    assert len(report["admissible_p"]) == 3
    assert report["holder"]["seminorm"] > 0.0
    assert report["tangential"]["ratio"] > 0.0

    blob = json.loads(json.dumps(report, allow_nan=False))
    assert blob["inputs"]["n"] == 12
    assert list(blob["c5_hat"]) == ["2", "4", "8", "16"]
    assert blob["c5_hat"]["2"] == report["c4_hat"]
    assert len(blob["estimate_checks"]) == len(audit.ESTIMATE_NAMES)


# ---------------------------------------------------------------- shared families


def _counting_solves(monkeypatch):
    """Record (p, mu, law, domain kind, forcing) of every solver.solve call."""
    calls, solve = [], audit.solver.solve

    def counting(problem, config, initial=None):
        params = problem.params
        calls.append((params.p, params.mu, params.structure, problem.domain.kind,
                      problem.forcing().tobytes()))
        return solve(problem, config, initial=initial)

    monkeypatch.setattr(audit.solver, "solve", counting)
    return calls


def _family_size(name):
    return (len(audit.SHAPE_SEEDS) * len(audit.ESTIMATE_SPECS[name]["mu_values"])
            * len(audit.AMPLITUDES))


def test_run_audit_solves_each_family_once_per_call(monkeypatch):
    # p_gt_2_W22 and tangential_fe1 pose the same 48 problems; the audit
    # solves them once, plus 24 and 12 for the p < 2 checks and one Hölder
    # solve: 85 where one verify_estimate per check made 133
    calls = _counting_solves(monkeypatch)
    first = audit.run_audit(n=8, constants_n=8, samples=0)
    assert _family_size("p_gt_2_W22") == _family_size("tangential_fe1") == 48
    assert len(calls) == 48 + 24 + 12 + 1 == 85
    assert len(set(calls)) == len(calls)
    # nothing is kept between calls: a second audit solves everything again
    second = audit.run_audit(n=8, constants_n=8, samples=0)
    assert len(calls) == 2 * 85
    assert calls[85:] == calls[:85]
    assert second["estimate_checks"] == first["estimate_checks"]
    # each check's entry is what verify_estimate gives for it alone
    for check in second["estimate_checks"]:
        alone = audit.verify_estimate(check["name"], n=8)
        assert check["rows"] == alone["rows"]
        assert check["spreads"] == alone["spreads"]
        assert check["mu_fit"] == alone["mu_fit"]
        assert check == alone


def test_a_spec_that_changes_the_problems_stops_the_sharing(monkeypatch):
    calls = _counting_solves(monkeypatch)
    names = ("p_gt_2_W22", "tangential_fe1")
    audit.run_audit(n=8, constants_n=8, samples=0, check_names=names)
    assert len(calls) == 48 + 1
    # a different lhs or q leaves the problems alone; a different p does not
    spec = audit.ESTIMATE_SPECS["tangential_fe1"]
    monkeypatch.setitem(audit.ESTIMATE_SPECS, "tangential_fe1", {**spec, "lhs": "d2", "q": 4.0})
    calls.clear()
    audit.run_audit(n=8, constants_n=8, samples=0, check_names=names)
    assert len(calls) == 48 + 1
    monkeypatch.setitem(audit.ESTIMATE_SPECS, "tangential_fe1", {**spec, "p": 2.6})
    calls.clear()
    report = audit.run_audit(n=8, constants_n=8, samples=0, check_names=names)
    assert len(calls) == 48 + 48 + 1
    assert len(set(calls)) == len(calls)
    assert [c["inputs"]["p"] for c in report["estimate_checks"]] == [2.5, 2.6]


def test_solve_family_climbs_past_an_anderson_stall():
    # p = 1.2, mu = 0 on the slab: the amplitude-4 rung, started from the
    # amplitude-1 solution scaled by 4^5, has an energy flat to roundoff, so
    # every Anderson candidate passes the safeguard while the residual
    # wanders; the solve stalled there until it fell back to plain steps
    base = audit.solver.SolveConfig()
    rungs = list(audit.solve_family("cubic_periodic", 16, 1.2, (0.0,), "full", "smooth-trig",
                                    (101,), (4.0, 0.25, 1.0), base))
    assert [r[3] for r in rungs] == [0.25, 1.0, 4.0]
    for seed, mu, eta, amp, f, u, rep in rungs:
        assert (seed, mu, eta) == (101, 0.0, audit.ETA_FLOOR)
        assert rep.converged and rep.final_residual <= base.outer_tol
    assert rungs[-1][-1].iterations > audit.solver.STALL_STEPS


def test_solve_family_starts_cold_where_the_warm_start_scale_overflows(monkeypatch, recwarn):
    # at p = 1.0001 the third rung's scale (0.5 / 0.0010001)^10000 is no
    # float: it used to raise OverflowError.  The second's, about e, is
    initials = []
    solve = audit.solver.solve

    def recording(problem, config, initial=None):
        initials.append(initial)
        return solve(problem, config, initial=initial)

    monkeypatch.setattr(audit.solver, "solve", recording)
    rungs = list(audit.solve_family("cubic_periodic", 8, 1.0001, (10.0,), "full", seeds=(1,),
                                    amplitudes=(0.001, 0.0010001, 0.5)))
    assert all(rung[-1].converged for rung in rungs)
    assert [initial is None for initial in initials] == [True, False, True]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_solve_family_eta_is_the_base_eta_raised_to_the_floor_at_mu_zero(monkeypatch):
    etas = []
    solve = audit.solver.solve

    def recording(problem, config, initial=None):
        etas.append((problem.params.mu, config.eta, config.max_outer, initial is None))
        return solve(problem, config, initial=initial)

    monkeypatch.setattr(audit.solver, "solve", recording)
    for base_eta in (0.0, 1e-3):
        base = audit.solver.SolveConfig(eta=base_eta, max_outer=150)
        list(audit.solve_family("dirichlet_box", 8, 1.5, (0.0, 0.1), "full", seeds=(101,),
                                amplitudes=(1.0, 2.0), base=base))
    floor = audit.ETA_FLOOR
    assert etas == [(0.0, floor, 150, True), (0.0, floor, 150, False),
                    (0.1, 0.0, 150, True), (0.1, 0.0, 150, False),
                    (0.0, 1e-3, 150, True), (0.0, 1e-3, 150, False),
                    (0.1, 1e-3, 150, True), (0.1, 1e-3, 150, False)]
