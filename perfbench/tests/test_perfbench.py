"""Tests of the benchmark itself: gate, tracer and input generation.

They run small versions of the workload tasks, so they take seconds.
"""

import json
import os

import pytest

import child
import gate
import run
import workloads
from mmslab.cli import reverify_report, run_config
from tracer import Tracer, traced

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
INTERIOR = {"type": "all_interior"}

# One small task per task kind the workloads use, touching every layer.
SMALL_TASKS = [
    ("counterexample", {"task": "counterexample", "seed": 3,
                        "params": {"h_list": [0.125, 0.0625, 0.03125]}}),
    ("gaussian-t12", {"space": {"family": "torus", "n1": 12, "n2": 12},
                      "task": "gaussian", "seed": 3, "params": {"pairs": 40}}),
    ("hcacc-t16", {"space": {"family": "torus", "n1": 16, "n2": 16},
                   "task": "heat-caccioppoli", "seed": 3,
                   "params": {"x": [8, 8], "R": 2.0, "s_list": [1.0, 4.0]}}),
    ("curvature-tab", {"space": {"family": "grid", "dim": 2, "h": 0.25,
                                 "tabulated": workloads.tabulated_weights(3, 0.25)},
                       "task": "curvature", "seed": 3,
                       "params": {"T": 0.25, "n_random": 4}}),
    ("gradest-t16", {"space": {"family": "torus", "n1": 16, "n2": 16},
                     "task": "gradest", "seed": 3,
                     "params": {"mode": "thm11", "n_random": 4,
                                "problem": {
                                    "domain": {"type": "ball", "center": [8, 8],
                                               "radius": 7.0},
                                    "boundary": {"type": "chart", "axis": 0,
                                                 "center": [8, 8]}},
                                "ball": {"center": [8, 8], "radius": 3.0}}}),
    ("doubling-t12", {"space": {"family": "torus", "n1": 12, "n2": 12},
                      "task": "doubling", "seed": 3, "params": {"R0": 6.0}}),
    ("poincare-t12", {"space": {"family": "torus", "n1": 12, "n2": 12},
                      "task": "poincare", "seed": 3,
                      "params": {"R0": 4.0, "sample_count": 4,
                                 "recheck_fields": 5}}),
    ("solve-g8", {"space": {"family": "grid", "dim": 2, "h": 0.125},
                  "task": "solve", "seed": 3,
                  "params": {"problem": {"domain": INTERIOR,
                                         "boundary": {"type": "affine",
                                                      "coeffs": [3, 1.7, -0.4]}}}}),
    ("hoelder-g16", {"space": {"family": "grid", "dim": 2, "h": 0.0625,
                               "weight": "sqrt_abs_x"},
                     "task": "hoelder", "seed": 3,
                     "params": {"problem": {"domain": INTERIOR,
                                            "boundary": {"type": "sgn_sqrt_x"}},
                                "ball": {"center": [0, 0], "radius": 0.5}}}),
    ("harnack-g8", {"space": {"family": "grid", "dim": 2, "h": 0.125},
                    "task": "harnack", "seed": 3,
                    "params": {"problem": {"domain": INTERIOR,
                                           "boundary": {"type": "affine",
                                                        "coeffs": [3, 1, 0.5]}},
                               "ball": {"center": [0, 0], "radius": 0.5}}}),
]


def _run_one(tmp_path, label):
    config = dict(SMALL_TASKS)[label]
    out = tmp_path / label
    passed, report, _ = run_config(config, out_dir=str(out))
    return (passed, report), str(out / f"report_{config['task']}.json")


# -- correctness gate -------------------------------------------------------------

def test_untampered_task_passes_the_gate(tmp_path):
    outcome, path = _run_one(tmp_path, "hcacc-t16")
    expected = {"hcacc-t16": gate.fingerprint(outcome[1])}
    problems, fp = gate.check_task("hcacc-t16", outcome, path, expected,
                                   reverify_report)
    assert problems == [] and fp == expected["hcacc-t16"]


def test_tampered_fingerprint_counts_as_failure(tmp_path):
    outcome, path = _run_one(tmp_path, "doubling-t12")
    fp = gate.fingerprint(outcome[1])
    tampered = dict(fp, C_d=fp["C_d"] * (1 + 10 * gate.RTOL))
    problems, _ = gate.check_task("doubling-t12", outcome, path,
                                  {"doubling-t12": tampered}, reverify_report)
    assert len(problems) == 1 and "C_d" in problems[0]
    # a change inside the tolerance is not a failure
    within = dict(fp, C_d=fp["C_d"] * (1 + 0.1 * gate.RTOL))
    assert gate.check_task("doubling-t12", outcome, path,
                           {"doubling-t12": within}, reverify_report)[0] == []


def test_unconverged_quadrature_counts_as_failure(tmp_path):
    outcome, path = _run_one(tmp_path, "hcacc-t16")
    with open(path) as fh:
        stored = json.load(fh)
    quads = [r["report"]["extras"]["quadrature"] for r in stored["records"]
             if r["name"].startswith("heat_caccioppoli_s=")]
    assert quads and all(q["converged"] for q in quads)
    quads[0]["converged"] = False
    with open(path, "w") as fh:
        json.dump(stored, fh)
    assert reverify_report(path)        # verify-report alone misses it
    problems, _ = gate.check_task("hcacc-t16", outcome, path, {},
                                  reverify_report)
    assert problems == ["a quadrature reports converged = false"]


def test_failed_report_exception_and_disagreeing_file_count(tmp_path):
    outcome, path = _run_one(tmp_path, "harnack-g8")
    passed, report = outcome
    assert gate.check_task("harnack-g8", (False, dict(report, **{"pass": False})),
                           path, {}, reverify_report)[0]
    assert gate.check_task("harnack-g8", ValueError("boom"), path, {},
                           reverify_report) == (["raised ValueError: boom"], None)
    with open(path) as fh:
        stored = json.load(fh)
    stored["records"][0]["pass"] = not stored["records"][0]["pass"]
    with open(path, "w") as fh:
        json.dump(stored, fh)
    problems, _ = gate.check_task("harnack-g8", outcome, path, {},
                                  reverify_report)
    assert "verify-report disagrees with the stored report" in problems


def test_unstored_seed_compares_only_seed_invariant_entries():
    reference = {"w": {"0": {"t": {"a": 1.0, "b": 2.0}},
                       "1": {"t": {"a": 1.0, "b": 3.0}}}}
    exact, is_exact = gate.expected_fingerprints(reference, "w", 1)
    assert is_exact and exact == {"t": {"a": 1.0, "b": 3.0}}
    common, is_exact = gate.expected_fingerprints(reference, "w", 7)
    assert not is_exact and common == {"t": {"a": 1.0}}
    assert gate.compare_fingerprint({"a": 1.0, "b": 9.0}, common["t"]) == []
    assert gate.compare_fingerprint({"a": 1.5, "b": 9.0}, common["t"])
    assert gate.compare_fingerprint({"a": 1.0, "b": float("nan")}, common["t"])


def test_heat_oracles_pass_on_the_seed_code():
    assert [problems for _, problems in gate.heat_oracles()] == [[], []]


# -- tracer -------------------------------------------------------------------------

def test_traced_and_untraced_fingerprints_are_bit_identical(tmp_path):
    plain, _, _ = child.run_tasks(SMALL_TASKS, str(tmp_path / "a"), run_config, 3)
    tracer = Tracer()
    with traced(tracer):
        spans, _, _ = child.run_tasks(SMALL_TASKS, str(tmp_path / "b"),
                                      run_config, 3, tracer)
    for (label, _), a, b in zip(SMALL_TASKS, plain, spans):
        assert not isinstance(a, BaseException), (label, a)
        assert gate.fingerprint(a[1]) == gate.fingerprint(b[1]), label

    metrics = child.layer_metrics(tracer, 0.0)
    for name in ("space.build_s", "space.dist_rows", "space.doubling_s",
                 "space.poincare_s", "space.ball_calls", "form.gamma_calls",
                 "heat.build_dense", "heat.action_columns", "heat.kernel_columns",
                 "heat.gaussian_s", "heat.caccioppoli_s", "quad.nodes",
                 "quad.useful_ratio", "quad.levels_max",
                 "curvature.field_time_pairs", "curvature.commutation_s",
                 "elliptic.solves", "elliptic.cg_iters", "elliptic.holder_s",
                 "elliptic.harnack_s", "gradest.counterexample_s",
                 "gradest.verify_s", "cli.counterexample_s", "cli.report_s"):
        assert metrics[name]["value"] > 0, name
    assert metrics["quad.unconverged"]["value"] == 0
    assert 0 < metrics["quad.useful_ratio"]["value"] <= 1


def test_tracer_restores_every_binding():
    import mmslab.elliptic
    import mmslab.form
    import mmslab.heat

    before = (mmslab.heat.carre_du_champ, mmslab.elliptic.cg,
              mmslab.heat.HeatOperator.apply_grid)
    with traced(Tracer()):
        assert mmslab.heat.carre_du_champ is not before[0]
        assert mmslab.heat.carre_du_champ is mmslab.elliptic.carre_du_champ
    after = (mmslab.heat.carre_du_champ, mmslab.elliptic.cg,
             mmslab.heat.HeatOperator.apply_grid)
    assert after == before
    assert mmslab.form.carre_du_champ is before[0]


def test_self_time_subtracts_children():
    t = Tracer()
    t.names = ["a", "b", "a", "c"]
    t.starts = [0.0, 1.0, 2.0, 5.0]
    t.ends = [10.0, 4.0, 3.0, 6.0]
    t.parents = [-1, 0, 1, -1]
    own = t.self_times()
    assert own == {"a": 7.0 + 1.0, "b": 2.0, "c": 1.0}
    assert t.inclusive_times() == {"a": 10.0, "b": 3.0, "c": 1.0}


# -- inputs ------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_task_list(workload):
    a, b = workloads.tasks(workload, 1), workloads.tasks(workload, 2)
    assert [(lbl, c["task"]) for lbl, c in a] == [(lbl, c["task"]) for lbl, c in b]
    assert a != b
    assert workloads.tasks(workload, 1) == a


def test_seed_changes_tabulated_weights():
    w1 = workloads.tabulated_weights(1, 1 / 32)
    w2 = workloads.tabulated_weights(2, 1 / 32)
    assert len(w1) == 65 * 65 and w1 != w2
    assert w1 == workloads.tabulated_weights(1, 1 / 32)
    assert min(w1) > 0


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(child.PER_LAYER)
    e2e = run.end_to_end([1.0], {"wall_s": [1.0], "cpu_s": [1.0],
                                 "peak_rss_mb": 1.0, "attempted": 1,
                                 "failures": []})
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, v["unit"]) for k, v in e2e.items()]
    labels = {label for w in workloads.WORKLOADS
              for label, _ in workloads.tasks(w, 0)}
    assert labels == set(child.LABELS)
