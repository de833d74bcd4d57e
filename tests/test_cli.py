"""CLI: config validation, exit codes, determinism, report verification."""

import copy
import json

import numpy as np
import pytest

from mmslab import blas
from mmslab.cli import TASKS, _build_problem, _record, main, reverify_report, run_config
from mmslab.curvature import check_commutation, estimate_ckappa
from mmslab.elliptic import holder_fit, solve
from mmslab.errors import ConfigError
from mmslab.heat import build_heat
from mmslab.space import MetricMeasureSpace, build_space, metric_ball

GRID8 = {"family": "grid", "dim": 2, "h": 0.125}
TORUS16 = {"family": "torus", "n1": 16, "n2": 16}
QUAD_PROBLEM = {"domain": {"type": "all_interior"},
                "boundary": {"type": "affine", "coeffs": [3.0, 1.0, -0.5]}}

# One small config per task.  The hoelder one fails: its cap is far below
# the realized constant.
SMALL_CONFIGS = {
    "doubling": {"space": {"family": "cycle", "n": 64}, "task": "doubling",
                 "params": {"R0": 16.0}, "seed": 7},
    "poincare": {"space": {"family": "torus", "n1": 8, "n2": 8}, "task": "poincare",
                 "params": {"R0": 4.0, "sample_count": 6}, "seed": 11},
    "gaussian": {"space": {"family": "torus", "n1": 12, "n2": 12},
                 "task": "gaussian", "params": {"pairs": 40}, "seed": 3},
    "heat-caccioppoli": {"space": TORUS16, "task": "heat-caccioppoli", "seed": 5,
                         "params": {"x": [8, 8], "R": 2.0, "s_list": [1.0, 4.0],
                                    "c": 0.25}},
    "curvature": {"space": {"family": "cycle", "n": 32}, "task": "curvature",
                  "seed": 4, "params": {"T": 1.0, "n_random": 8}},
    "solve": {"space": GRID8, "task": "solve",
              "params": {"problem": {"domain": {"type": "all_interior"},
                                     "boundary": {"type": "affine",
                                                  "coeffs": [3.0, 1.7, -0.4]}}}},
    "caccioppoli": {"space": GRID8, "task": "caccioppoli", "seed": 3,
                    "params": {"problem": QUAD_PROBLEM, "y0": [0.0, 0.0],
                               "r1": 0.25, "r2": 0.5}},
    "moser": {"space": GRID8, "task": "moser", "seed": 3,
              "params": {"problem": QUAD_PROBLEM,
                         "ball": {"center": [0.0, 0.0], "radius": 0.25},
                         "p": 1.0, "Q": 2.5}},
    "harnack": {"space": GRID8, "task": "harnack", "seed": 3,
                "params": {"problem": QUAD_PROBLEM,
                           "ball": {"center": [0.0, 0.0], "radius": 0.25},
                           "q": 0.5}},
    "hoelder": {"space": GRID8, "task": "hoelder",
                "params": {"problem": {"domain": {"type": "all_interior"},
                                       "boundary": {"type": "affine",
                                                    "coeffs": [0.0, 1.0, -0.5]}},
                           "ball": {"center": [0.0, 0.0], "radius": 0.25},
                           "cap": 1e-9}},
    "prop31": {"space": GRID8, "task": "prop31", "seed": 3,
               "params": {"problem": QUAD_PROBLEM, "y0": [0.0, 0.0], "R": 0.1}},
    "gradest": {"space": TORUS16, "task": "gradest", "seed": 2,
                "params": {"mode": "thm11",
                           "problem": {"domain": {"type": "ball", "center": [8, 8],
                                                  "radius": 7.0},
                                       "boundary": {"type": "chart", "axis": 0,
                                                    "center": [8, 8]}},
                           "ball": {"center": [8, 8], "radius": 3.0},
                           "n_random": 4}},
    "counterexample": {"task": "counterexample", "seed": 3,
                       "params": {"h_list": [1 / 8, 1 / 16, 1 / 32]}},
    "all": {"space": {"family": "two_point"}, "task": "all", "seed": 1},
}


def small_config(task):
    return copy.deepcopy(SMALL_CONFIGS[task])


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_describe_known_and_unknown(capsys):
    assert main(["describe", "curvature"]) == 0
    out = capsys.readouterr().out
    assert "T_t(g^2) - (T_t g)^2" in out and "c_kappa" in out
    assert main(["describe", "gradest"]) == 0
    out = capsys.readouterr().out
    assert "sqrt(c_kappa)" in out and "|Du|/u" in out
    assert main(["describe", "bogus"]) == 2


def test_run_doubling_cycle(tmp_path, capsys):
    cfg = small_config("doubling")
    code = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "rep")])
    assert code == 0
    report = json.loads((tmp_path / "rep" / "report_doubling.json").read_text())
    assert report["pass"] is True
    assert report["records"][0]["report"]["C_d"] == pytest.approx(2.2)
    assert report["config_sha256"]
    assert reverify_report(str(tmp_path / "rep" / "report_doubling.json"))


def test_unknown_config_key_exits_2(tmp_path):
    cfg = {"space": {"family": "cycle", "n": 8}, "task": "doubling",
           "params": {"R0": 4.0}, "typo": 1}
    assert main(["run", write_config(tmp_path, cfg)]) == 2


def test_unknown_task_and_bad_params(tmp_path):
    cfg = {"space": {"family": "cycle", "n": 8}, "task": "frobnicate"}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    cfg = {"space": {"family": "cycle", "n": 8}, "task": "doubling",
           "params": {"R0": -1.0}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    cfg = {"space": {"family": "cycle", "n": 8}, "task": "doubling",
           "params": {"R0": 4.0, "bogus": 2}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2


@pytest.mark.parametrize("space,named", [
    ({"family": "grid", "dim": 2, "h": 0.5, "tabulated": [1.0, 2.0, 3.0]}, "3 values"),
    ({"family": "grid", "dim": 2, "h": 0.5, "tabulated": [[1.0], [2.0, 3.0]]},
     "'tabulated'"),
    ({"family": "grid", "dim": 2, "h": "fine"}, "'h'"),
    ({"family": "grid", "dim": 1, "h": [0.5]}, "'h'"),
    ({"family": "cycle", "n": "eight"}, "'n'"),
    ({"family": "torus", "n1": 8, "n2": None}, "'n2'"),
    ({"family": "grid", "dim": "two", "h": 0.5}, "'dim'"),
    ({"family": "grid", "dim": 2, "h": 0.5, "bounds": [-1, 1]}, "'bounds'"),
    ({"family": "grid", "dim": 2, "h": 0.5, "bounds": [[-1, 1]]}, "'bounds'"),
    ({"family": "grid", "dim": 2, "h": 0.5, "bounds": [[-1, 1, 2], [-1, 1]]}, "'bounds'"),
    ({"family": "grid", "dim": 1, "h": 0.5, "bounds": ["a", 1]}, "'bounds'"),
    ({"family": "grid", "dim": 2, "h": 0.5, "weight": ["constant"]}, "unknown weight"),
    ({"family": "grid", "dim": 1, "h": 0.5, "tabulated": [1, 2, 3, 4, 5]}, "1-d grid"),
    ({"family": "grid", "dim": 2, "h": 0.5, "weight": "sqrt_abs_x",
      "tabulated": [1.0] * 25}, "'sqrt_abs_x'"),
], ids=["table-size", "table-ragged", "h-text", "h-list", "n-text", "n2-null", "dim-text",
        "bounds-flat", "bounds-one-axis", "bounds-three", "bounds-text", "weight-list",
        "table-1d", "table-and-weight"])
def test_malformed_space_configs_exit_2(tmp_path, capsys, space, named):
    cfg = {"space": space, "task": "doubling", "params": {"R0": 1.0}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    if named == "3 values":
        assert "needs 25" in err


def test_curvature_rejects_the_unread_t_points_key(tmp_path, capsys):
    # estimate_ckappa fixes its own time grid, so a t_points setting would
    # be silently ignored; the gaussian task still reads its own
    cfg = copy.deepcopy(SMALL_CONFIGS["curvature"])
    cfg["params"]["t_points"] = 12
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "t_points" in capsys.readouterr().err


def test_counterexample_needs_three_meshes(tmp_path):
    cfg = {"task": "counterexample", "params": {"h_list": [0.25, 0.125]}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2


def test_numerical_failure_exits_3(tmp_path):
    cfg = {"space": {"family": "grid", "dim": 2, "h": 0.25},
           "task": "solve",
           "params": {"problem": {"domain": {"type": "all_interior"},
                                  "boundary": {"type": "constant", "value": 1.0},
                                  "lambda": -1000.0}}}
    assert main(["run", write_config(tmp_path, cfg)]) == 3


def test_verification_failure_exits_1(tmp_path):
    # an impossibly small cap forces the Hoelder check to fail
    cfg = small_config("hoelder")
    code = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "r")])
    assert code == 1
    report = json.loads((tmp_path / "r" / "report_hoelder.json").read_text())
    assert report["pass"] is False
    assert reverify_report(str(tmp_path / "r" / "report_hoelder.json"))


def test_failed_hoelder_report_reverifies_and_tampering_fails(tmp_path):
    cfg = small_config("hoelder")
    out = tmp_path / "r"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    path = out / "report_hoelder.json"
    report = json.loads(path.read_text())
    rec = report["records"][0]
    assert rec["kind"] == "range" and rec["hi"] == 1e-9
    assert rec["constant"] == rec["report"]["constant"] > rec["hi"]
    assert main(["verify-report", str(path)]) == 0
    rec["pass"] = report["pass"] = True
    path.write_text(json.dumps(report))
    assert main(["verify-report", str(path)]) == 1


def test_solve_report_names_its_solver(tmp_path):
    cfg = small_config("solve")
    problem = cfg["params"]["problem"]
    passed, report, _ = run_config(cfg)
    assert passed
    assert report["records"][0]["solver"] == "fast_diagonalization"
    cfg["params"]["problem"] = dict(problem, domain={"type": "ball",
                                                     "center": [0.0, 0.0],
                                                     "radius": 0.5})
    passed, report, _ = run_config(cfg)
    assert passed
    assert report["records"][0]["solver"] == "cg"


def test_determinism_identical_reports(tmp_path):
    p = write_config(tmp_path, small_config("poincare"))
    main(["run", p, "--out", str(tmp_path / "a")])
    main(["run", p, "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "report_poincare.json").read_text()
    b = (tmp_path / "b" / "report_poincare.json").read_text()
    assert a == b


def test_export_space_roundtrip(tmp_path):
    cfg = {"space": {"family": "grid", "dim": 2, "h": 0.5,
                     "weight": "sqrt_abs_x"}, "task": "solve"}
    out = tmp_path / "g.txt"
    assert main(["export-space", write_config(tmp_path, cfg), str(out)]) == 0
    sp = MetricMeasureSpace.from_text(out.read_text())
    assert sp.n == 25 and sp.n_edges == 40
    header = out.read_text().splitlines()[0].split()
    assert header == ["25", "40"]


def test_run_config_all_on_two_point(tmp_path):
    passed, report, _ = run_config(small_config("all"), out_dir=str(tmp_path / "r"))
    assert passed
    names = [r["name"] for r in report["records"]]
    assert "two_point_closed_forms" in names
    assert "exact_identities" in names
    assert reverify_report(str(tmp_path / "r" / "report_all.json"))


def test_all_task_scales_the_identity_residual_on_a_fine_grid():
    # at h = 1/128 the identities' terms reach 9e5 and their round-off
    # 2.3e-10, past an absolute 1e-10; against the largest term it is 2.6e-16
    cfg = {"space": {"family": "grid", "dim": 2, "h": 1 / 128}, "task": "all",
           "seed": 1, "params": {"n_fields": 1}}
    passed, report, _ = run_config(cfg)
    rec = report["records"][0]
    assert rec["name"] == "exact_identities" and rec["pass"] and passed
    assert rec["rhs"] > 1e5 and rec["constant"] == 1e-12


def test_gradest_task_via_cli(tmp_path):
    passed, report, _ = run_config(small_config("gradest"), out_dir=str(tmp_path / "r"))
    assert passed
    rec = report["records"][0]
    assert rec["name"] == "gradest_thm11"
    assert np.isfinite(rec["constant"])


def test_heat_caccioppoli_task(tmp_path):
    cfg = small_config("heat-caccioppoli")
    passed, report, _ = run_config(cfg, out_dir=str(tmp_path / "r"))
    assert passed
    rec = next(r for r in report["records"] if r["name"] == "lhs_nondecreasing_in_s")
    lhs = [r["lhs"] for r in report["records"][:2]]
    # the worst drop from one s to the next, re-derived as the bound drop <= 0
    assert rec["kind"] == "bound" and rec["rhs"] == 0.0 and rec["constant"] == 1.0
    assert rec["lhs"] == lhs[0] - lhs[1] - 1e-12 * abs(lhs[1]) < 0.0
    path = tmp_path / "r" / "report_heat-caccioppoli.json"
    stored = json.loads(path.read_text())
    stored["records"][-1]["pass"] = stored["pass"] = False
    path.write_text(json.dumps(stored))
    assert main(["verify-report", str(path)]) == 1
    # one s: no drop, the record reads 0 and passes
    cfg["params"]["s_list"] = [4.0]
    passed, report, _ = run_config(cfg)
    assert passed and report["records"][-1]["lhs"] == 0.0


def test_curvature_task(tmp_path):
    cfg = small_config("curvature")
    passed, report, _ = run_config(cfg)
    assert passed
    rec = report["records"][0]
    assert rec["constant"] <= 1e-6
    assert rec["commutation_margin"] >= -1e-10
    # one draw of the fields serves both checks: c_kappa over the fields and
    # their smoothings, the commutation margin over the drawn fields alone
    space = build_space(cfg["space"])
    H = build_heat(space)
    assert rec["constant"] == estimate_ckappa(H, 1.0, seed=4, n_random=8).c_kappa
    rng = np.random.default_rng(4)
    drawn = np.column_stack([space.positions]
                            + [rng.standard_normal(space.n) for _ in range(8)])
    assert rec["commutation_margin"] == check_commutation(H, drawn, 1.0)


def test_counterexample_csv(tmp_path):
    passed, report, rows = run_config(small_config("counterexample"), out_dir=str(tmp_path / "r"))
    assert passed
    csv_text = (tmp_path / "r" / "counterexample.csv").read_text()
    assert csv_text.splitlines()[0].startswith("h,")
    assert len(csv_text.splitlines()) == 4


def test_run_config_rejects_non_dict():
    with pytest.raises(ConfigError):
        run_config(["not", "a", "mapping"])


@pytest.mark.parametrize("task,params", [
    (task, SMALL_CONFIGS[task]["params"])
    for task in ("caccioppoli", "moser", "harnack", "prop31")])
def test_every_elliptic_task_runs(tmp_path, task, params):
    cfg = {"space": GRID8, "task": task, "params": params, "seed": 3}
    passed, report, _ = run_config(cfg, out_dir=str(tmp_path / "r"))
    assert passed
    assert report["records"][0]["name"].startswith(task)
    assert reverify_report(str(tmp_path / "r" / f"report_{task}.json"))


def test_failed_harnack_report_reverifies(tmp_path):
    # C = 1.0653 on this grid: the record fails its cap, and verify-report
    # re-derives that from the stored constant and cap
    cfg = {"space": {"family": "grid", "dim": 2, "h": 1 / 16}, "task": "harnack",
           "params": {"problem": {"domain": {"type": "all_interior"},
                                  "boundary": {"type": "affine",
                                               "coeffs": [3.0, 1.0, 0.5]}},
                      "ball": {"center": [0.0, 0.0], "radius": 0.25},
                      "cap": 1.0001}}
    out = tmp_path / "r"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    path = out / "report_harnack.json"
    report = json.loads(path.read_text())
    rec = report["records"][0]
    assert rec["constant"] == pytest.approx(1.0653, abs=1e-4) and rec["hi"] == 1.0001
    assert main(["verify-report", str(path)]) == 0
    rec["pass"] = report["pass"] = True
    path.write_text(json.dumps(report))
    assert main(["verify-report", str(path)]) == 1


@pytest.mark.parametrize("task", TASKS)
def test_every_record_verdict_is_rederived(tmp_path, task):
    out = tmp_path / "r"
    passed, report, _ = run_config(small_config(task), out_dir=str(out))
    assert passed is (task != "hoelder")
    path = out / f"report_{task}.json"
    assert main(["verify-report", str(path)]) == 0
    tampered = tmp_path / "tampered.json"

    def verify_with(i, changes):
        # the report's own flag is kept consistent with its records
        stored = json.loads(path.read_text())
        stored["records"][i].update(changes)
        stored["pass"] = all(r["pass"] for r in stored["records"])
        tampered.write_text(json.dumps(stored))
        return main(["verify-report", str(tampered)])

    for i, rec in enumerate(report["records"]):
        assert verify_with(i, {"pass": not rec["pass"]}) == 1, rec["name"]
        # a kind the verdict rule does not know is never skipped
        assert verify_with(i, {"kind": "flag"}) == 2, rec["name"]


@pytest.mark.parametrize("record,verdict", [
    # bound: lhs <= constant * rhs exactly, with no slack
    ({"kind": "bound", "lhs": 1e-10, "rhs": 1.0, "constant": 1e-10}, True),
    ({"kind": "bound", "lhs": 1.00000000005e-10, "rhs": 1.0, "constant": 1e-10},
     False),
    # range: a finite constant in [lo, hi], a null end open
    ({"kind": "range", "lhs": 2.0, "rhs": 1.0, "constant": 2.0, "lo": 1.0,
      "hi": None}, True),
    ({"kind": "range", "lhs": 0.5, "rhs": 1.0, "constant": 0.5, "lo": 1.0,
      "hi": None}, False),
    ({"kind": "range", "lhs": 3.0, "rhs": 1.0, "constant": 3.0, "lo": None,
      "hi": 2.0}, False),
    ({"kind": "range", "lhs": 0.0, "rhs": 1.0, "constant": 0.0, "lo": 5e-324,
      "hi": None}, False),
    ({"kind": "range", "lhs": 1.0, "rhs": 0.0, "constant": float("inf"),
      "lo": None, "hi": None}, False),
])
def test_verify_report_applies_the_verdict_rule(tmp_path, record, verdict):
    path = tmp_path / "report.json"
    for flag, report_flag, code in ((verdict, verdict, 0),
                                    (not verdict, not verdict, 1),
                                    (verdict, not verdict, 1)):
        rec = {**record, "name": "r", "pass": flag}
        path.write_text(json.dumps({"records": [rec], "pass": report_flag}))
        assert main(["verify-report", str(path)]) == code


def test_missing_required_parameter_is_a_config_error(tmp_path, capsys):
    cfg = {"space": {"family": "torus", "n1": 16, "n2": 16},
           "task": "heat-caccioppoli", "params": {"x": [8, 8]}}
    assert main(["run", write_config(tmp_path, cfg)]) == 2
    assert "'R'" in capsys.readouterr().err


# (task, the keys of the config mapping that holds the key, key, value)
NOT_A_NUMBER = [
    ("doubling", ("params",), "R0", "x"),
    ("doubling", (), "seed", "seven"),
    ("poincare", ("params",), "sample_count", "six"),
    ("curvature", ("params",), "n_random", [8]),
    ("curvature", ("params",), "T", None),
    ("heat-caccioppoli", ("params",), "s_list", [1.0, "four"]),
    ("heat-caccioppoli", ("params",), "x", "center"),
    ("moser", ("params",), "Q", "2.5x"),
    ("hoelder", ("params", "ball"), "radius", "wide"),
    ("hoelder", ("params", "ball"), "center", [0.0, "zero"]),
    ("solve", ("params", "problem"), "lambda", {"value": 1}),
    ("solve", ("params", "problem", "boundary"), "coeffs", 3.0),
    ("gradest", ("params", "problem", "boundary"), "axis", "x"),
    ("counterexample", ("params",), "slope_range", [-0.65]),
    ("counterexample", ("params",), "h_list", [0.125, "1/16", 1 / 32]),
    ("all", ("params",), "n_fields", 1e400),
]


@pytest.mark.parametrize("task,where,key,value", NOT_A_NUMBER,
                         ids=[f"{task}-{key}" for task, _, key, _ in NOT_A_NUMBER])
def test_a_parameter_that_is_not_a_number_exits_2(tmp_path, capsys, task, where, key,
                                                   value):
    cfg = small_config(task)
    spec = cfg
    for name in where:
        spec = spec.setdefault(name, {})
    spec[key] = value
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err


@pytest.mark.parametrize("task", ["curvature", "gradest", "counterexample"])
def test_a_negative_field_count_exits_2(tmp_path, capsys, task):
    # refused where the fields are drawn, before an array of -5 columns
    cfg = small_config(task)
    cfg["params"]["n_random"] = -5
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "n_random" in err


# (task, key, value) of a parameter that would leave a check nothing to check
EMPTY_CHECKS = [
    ("gaussian", "t_points", -1),
    ("counterexample", "inner_radius", 0.0),
    ("poincare", "recheck_fields", -3),
    ("heat-caccioppoli", "s_list", []),
    ("all", "n_fields", 0),
]


@pytest.mark.parametrize("task,key,value", EMPTY_CHECKS,
                         ids=[f"{task}-{key}" for task, key, _ in EMPTY_CHECKS])
def test_a_parameter_that_empties_a_check_exits_2(tmp_path, capsys, task, key, value):
    cfg = small_config(task)
    cfg.setdefault("params", {})[key] = value
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "r").exists()


def test_hoelder_task_reads_the_center_row_once(monkeypatch):
    # on a tabulated grid each row is a Dijkstra run: the task reads the
    # ball and the fit's 2B and 4B off one row of the center
    table = np.exp(0.5 * np.random.default_rng(4).standard_normal(17 * 17)).tolist()
    cfg = {"space": {"family": "grid", "dim": 2, "h": 0.125, "tabulated": table},
           "task": "hoelder", "seed": 2,
           "params": {"problem": QUAD_PROBLEM,
                      "ball": {"center": [0.0, 0.0], "radius": 0.5}}}
    space = build_space(cfg["space"])
    assert space.factors is None
    center = space.vertex_at([0.0, 0.0])
    # the record of a fit that reads the row itself
    with blas.threads(1):
        prob = _build_problem(space, cfg["params"])
        u = solve(prob)
        rep = holder_fit(space, u, metric_ball(space, center, 0.5),
                         -prob.lam * u + prob.source, seed=2)
    want = _record("hoelder", rep.constant, 1.0, rep.constant, kind="range",
                   hi=1e3, report=rep)
    rows = []
    distances_from = MetricMeasureSpace.distances_from

    def counted(self, v):
        rows.append(int(v))
        return distances_from(self, v)

    monkeypatch.setattr(MetricMeasureSpace, "distances_from", counted)
    _, report, _ = run_config(cfg)
    assert rows.count(center) == 1
    assert repr(report["records"]) == repr([want])


def test_key_error_inside_a_task_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(space, R0):
        raise KeyError("internal")

    monkeypatch.setattr("mmslab.cli.estimate_doubling", broken)
    cfg = {"space": {"family": "cycle", "n": 8}, "task": "doubling",
           "params": {"R0": 4.0}}
    with pytest.raises(KeyError, match="internal"):
        main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "r")])
