"""CLI: flags, exit codes, report structure, determinism, CSV."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe import modelio
from eqyamabe.cli import main

from conftest import HEBEY_VAUGON_3_2, SIGMA_S3, TORUS_J_ELL1, WEIGHTED_BOUND, bump_sphere


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def hopf_model(tmp_path, name="hopf.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "base": {"type": "round_sphere", "radius": 0.5},
                "ell": {"type": "constant", "value": 1.0},
                "F": {"type": "constant", "value": 2.0},
            }
        )
    )
    return str(path)


def torus_model(tmp_path, ell=1.0):
    path = tmp_path / f"torus_{ell}.json"
    path.write_text(
        json.dumps(
            {
                "base": {"type": "flat_torus", "length": 1.0, "radius": 1.0},
                "ell": {"type": "constant", "value": ell},
                "F": {"type": "constant", "value": 1.0},
            }
        )
    )
    return str(path)


def wps_model(tmp_path):
    path = tmp_path / "wps_2_3.json"
    path.write_text(
        json.dumps(
            {
                "base": {"type": "wps", "m1": 2, "m2": 3},
                "ell": {"type": "constant", "value": 0.7},
                "F": {"type": "wps"},
            }
        )
    )
    return str(path)


def bump_sphere_model(tmp_path, n=601, sampled_fields=False, warped=False):
    s = np.linspace(0.0, math.pi, n)
    if warped:  # non-uniform abscissae
        s += 0.08 * math.pi * np.sin(2.0 * s)
        s[-1] = math.pi
    phi = np.sin(s) * (1.0 + 0.15 * np.sin(s) ** 2)
    doc = {
        "base": {
            "type": "profile",
            "samples": [[float(a), float(b)] for a, b in zip(s, phi)],
            "m_start": 1,
            "m_end": 1,
        },
        "ell": {"type": "constant", "value": 1.0},
        "F": {"type": "constant", "value": 1.0},
    }
    if sampled_fields:
        # even about both poles; F has Chern number int F phi ds = 1, from
        # int_0^pi sin^k s ds = 2, 4/3, 16/15 for k = 1, 3, 5
        chern = 2.2 + 0.2 * (2.0 - 1.85 * 4.0 / 3.0 - 0.3 * 16.0 / 15.0)
        doc["ell"] = {"type": "samples", "values": (1.0 + 0.1 * np.cos(2.0 * s)).tolist()}
        doc["F"] = {"type": "samples", "values": ((1.0 + 0.2 * np.cos(2.0 * s)) / chern).tolist()}
    path = tmp_path / f"bump_sphere_{n}_{int(sampled_fields)}_{int(warped)}.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_invariants_pair(capsys):
    code, out, _ = run(capsys, ["invariants", "--m1", "2", "--m2", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["quantities"]["c1_quadrature"]["value"] == pytest.approx(1.0 / 6.0, abs=1e-8)
    assert doc["quantities"]["chi_quadrature"]["value"] == pytest.approx(5.0 / 6.0, abs=1e-6)
    assert doc["quantities"]["c1_closed"]["exact"] is True


def test_invariants_unit_pair(capsys):
    code, out, _ = run(capsys, ["invariants", "--m1", "1", "--m2", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["quantities"]["c1_closed"]["value"] == 1.0
    assert doc["quantities"]["chi_closed"]["value"] == 2.0


def test_invariants_deltas_describe_printed_values(capsys):
    code, out, _ = run(capsys, ["invariants", "--m1", "3", "--m2", "7", "--tol", "1e-3"])
    assert code == 0
    q = json.loads(out)["quantities"]
    closed = {"c1": q["c1_closed"]["value"], "chi": q["chi_closed"]["value"]}
    for route, kind in (("c1_quadrature", "c1"), ("chi_quadrature", "chi"),
                        ("chi_boundary", "chi")):
        delta = q["deltas"][f"{route}_vs_closed"]["value"]
        assert delta == abs(q[route]["value"] - closed[kind])


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--m1", "2", "--m2", "3", "--tol", "0"],
        ["invariants", "--m1", "2", "--m2", "3", "--tol", "nan"],
        ["functional", "--model", "{hopf}", "--tol", "-1"],
        ["scan", "--model", "{hopf}", "--ell", "scan:0.5:2:4", "--tol", "0"],
        ["minimize", "--model", "{hopf}", "--tol", "2"],
        ["bound", "--model", "{hopf}", "--tol", "0"],
        ["bound", "--m1", "2", "--m2", "3", "--tol", "0"],
        ["bound", "--chi", "1", "--c1", "1", "--tol", "0"],
        ["bound", "--hebey-vaugon", "--tol", "nan"],
    ],
)
def test_out_of_range_tol_exit_2(capsys, tmp_path, argv):
    argv = [a.replace("{hopf}", hopf_model(tmp_path)) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_laplace_rejects_tol(capsys, tmp_path):
    # laplace has no tolerance to set
    code, out, err = run(capsys, ["laplace", "--model", hopf_model(tmp_path), "--tol", "1e-3"])
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_invariants_lopsided_pair(capsys):
    # weights up to 2000 are in the domain, in either order
    for m1, m2 in ((1, 50), (1, 359), (1, 2000), (2000, 1)):
        code, out, _ = run(capsys, ["invariants", "--m1", str(m1), "--m2", str(m2)])
        assert code == 0, (m1, m2)
        q = json.loads(out)["quantities"]
        assert q["deltas"]["chi_boundary_vs_closed"]["value"] <= 1e-12, (m1, m2)
        for key, delta in q["deltas"].items():
            assert delta["value"] <= 1e-11, (m1, m2, key)
        chi = q["chi_boundary"]
        assert chi["route"] == "pole_slopes"
        assert chi["error_estimate"] == 2.0 * np.finfo(float).eps * chi["value"]


def test_invariants_past_the_converging_weights_exit_3(capsys):
    # the K quadrature of (1, m) converges up to m of about 38000 (README);
    # at 40000 it misses the tolerance: exit 3, one line, no traceback
    code, out, err = run(capsys, ["invariants", "--m1", "1", "--m2", "40000"])
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_invariants_noncoprime_exit_2(capsys):
    code, _, err = run(capsys, ["invariants", "--m1", "2", "--m2", "4"])
    assert code == 2
    assert "coprime" in err


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _bound_value(doc, kind):
    matches = [b for b in doc["bounds"] if b["kind"] == kind]
    assert matches, f"no bound of kind {kind}"
    return matches[0]["value"]


def test_bound_unit_pair(capsys):
    code, out, _ = run(capsys, ["bound", "--m1", "1", "--m2", "1"])
    assert code == 0
    doc = json.loads(out)
    assert _bound_value(doc, "weighted_pair") == pytest.approx(SIGMA_S3, rel=1e-12)
    assert _bound_value(doc, "topological") == pytest.approx(SIGMA_S3, rel=1e-12)


def test_bound_one_two(capsys):
    code, out, _ = run(capsys, ["bound", "--m1", "1", "--m2", "2"])
    doc = json.loads(out)
    assert code == 0
    assert _bound_value(doc, "weighted_pair") == pytest.approx(
        WEIGHTED_BOUND[(1, 2)], rel=1e-12
    )


def test_bound_hebey_vaugon(capsys):
    code, out, _ = run(capsys, ["bound", "--hebey-vaugon", "--n", "3", "--k", "2"])
    doc = json.loads(out)
    assert code == 0
    assert _bound_value(doc, "orbit_count") == pytest.approx(HEBEY_VAUGON_3_2, rel=1e-12)
    assert doc["bounds"][0]["inputs"] == {"n": 3, "k": 2}


def test_bound_hebey_vaugon_without_a_finite_orbit_is_null(capsys):
    # k = inf puts no constraint on the constant; JSON has no Infinity
    code, out, _ = run(capsys, ["bound", "--hebey-vaugon", "--n", "3", "--k", "inf"])
    assert code == 0
    entry = _strict_json(out)["bounds"][0]
    assert entry["value"] is None
    assert entry["inputs"] == {"n": 3, "k": "inf"}


def test_bound_model_route(capsys, tmp_path):
    code, out, _ = run(capsys, ["bound", "--model", hopf_model(tmp_path)])
    doc = json.loads(out)
    assert code == 0
    assert doc["inputs"]["c1_measured"]["value"] == pytest.approx(1.0, abs=1e-8)
    assert _bound_value(doc, "topological") == pytest.approx(SIGMA_S3, rel=1e-8)
    opt = [b for b in doc["bounds"] if b["kind"] == "optimal_fiber_length"][0]
    assert opt["inputs"]["ell_star"] == pytest.approx(1.0, abs=1e-10)
    assert opt["value"] == pytest.approx(SIGMA_S3, rel=1e-8)


def test_bound_missing_args(capsys):
    code, _, err = run(capsys, ["bound"])
    assert code == 2


# ---------------------------------------------------------------------------
# functional / scan
# ---------------------------------------------------------------------------

def test_functional_single_ell(capsys, tmp_path):
    code, out, _ = run(capsys, ["functional", "--model", torus_model(tmp_path)])
    doc = json.loads(out)
    assert code == 0
    assert doc["quantities"]["J"]["value"] == pytest.approx(TORUS_J_ELL1, rel=1e-9)


def test_functional_scan_max_at_one(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["functional", "--model", hopf_model(tmp_path), "--ell", "scan:0.25:2:13"],
    )
    doc = json.loads(out)
    assert code == 0
    ells = doc["tables"]["ell"]
    js = doc["tables"]["J"]
    flags = doc["tables"]["flag"]
    peak = js.index(max(js))
    assert ells[peak] == pytest.approx(1.0, rel=1e-12)
    assert flags[peak] == "max"


def test_scan_csv(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["scan", "--model", torus_model(tmp_path), "--ell", "scan:0.02:0.5:6", "--csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("ell,J,flag")
    assert len(lines) == 7


def _strict_json(text):
    # RFC 8259 has no NaN or Infinity tokens; json.loads accepts them unless told not to
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_scan_rows_without_a_bound_are_null(capsys, tmp_path):
    # on a chi <= 0 base the collapse lower bound holds only for ell <= 1
    out_path = tmp_path / "scan.json"
    argv = ["scan", "--model", torus_model(tmp_path), "--ell", "scan:0.5:4:4"]
    assert main(argv + ["--out", str(out_path)]) == 0
    tables = _strict_json(out_path.read_text())["tables"]
    assert [lower is None for lower in tables["lower_bound"]] == [ell > 1.0 for ell in tables["ell"]]
    assert any(lower is None for lower in tables["lower_bound"])
    code, out, _ = run(capsys, argv + ["--csv"])
    assert code == 0
    assert [row.split(",")[3] == "" for row in out.splitlines()[1:]] == [
        lower is None for lower in tables["lower_bound"]
    ]


def test_non_finite_report_exits_3_and_writes_nothing(capsys, tmp_path):
    # the 256-mode Poisson solve does not resolve the order-1905 cone, so the
    # uniformized curvature's minimum lies below -DBL_MAX (log magnitude
    # 746.7), which no double and no JSON number can carry
    path = tmp_path / "wps_2_1905.json"
    path.write_text(json.dumps({"base": {"type": "wps", "m1": 2, "m2": 1905},
                                "ell": {"type": "constant", "value": 29}, "F": {"type": "wps"}}))
    out_path = tmp_path / "laplace.json"
    code, out, err = run(capsys, ["laplace", "--model", str(path), "--out", str(out_path)])
    assert code == 3
    assert "min_scal is not finite" in err
    assert not out_path.exists() and out == ""
    code, out, _ = run(capsys, ["laplace", "--model", wps_model(tmp_path)])
    assert code == 0
    assert math.isfinite(_strict_json(out)["quantities"]["min_scal"]["value"])


def test_minimize_out_of_scale_exits_3_without_a_warning(capsys, tmp_path):
    # ell^2 = 1e600 overflows the scalar curvature; the minimizer reports it
    # before descending, and no numpy RuntimeWarning (an error under pytest)
    # escapes as a traceback
    out_path = tmp_path / "minimize.json"
    argv = ["minimize", "--model", torus_model(tmp_path, ell=1e300), "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert "scalar curvature at the Galerkin nodes is not finite" in err
    assert not out_path.exists() and out == ""


def test_canonical_json_rejects_non_finite_numbers():
    with pytest.raises(eq.errors.NumericalError, match=r"\$\.a\[1\]\.b is NaN"):
        modelio.canonical_json({"a": [1.0, {"b": math.nan}]})
    with pytest.raises(eq.errors.NumericalError, match=r"\$\[0\] is Infinity"):
        modelio.canonical_json([np.float64(math.inf)])


def test_scan_requires_ladder(capsys, tmp_path):
    code, _, _ = run(capsys, ["scan", "--model", torus_model(tmp_path)])
    assert code == 2


def test_bad_ell_syntax(capsys, tmp_path):
    code, _, err = run(
        capsys, ["functional", "--model", hopf_model(tmp_path), "--ell", "scan:1:2"]
    )
    assert code == 2
    assert "scan" in err


# ---------------------------------------------------------------------------
# minimize / laplace
# ---------------------------------------------------------------------------

def test_minimize_hopf_cli(capsys, tmp_path):
    code, out, _ = run(capsys, ["minimize", "--model", hopf_model(tmp_path)])
    doc = json.loads(out)
    assert code == 0
    assert doc["quantities"]["mu_upper"]["value"] == pytest.approx(SIGMA_S3, rel=1e-3)
    assert doc["quantities"]["trace_monotone"] is True


def test_minimize_iterations_count_steps_not_the_start(capsys, tmp_path):
    # the constant factor minimizes on the round sphere: no step is taken
    code, out, _ = run(capsys, ["minimize", "--model", hopf_model(tmp_path)])
    doc = json.loads(out)
    assert code == 0
    assert len(doc["tables"]["trace"]) == 1
    assert doc["quantities"]["iterations"]["value"] == 0.0
    assert doc["quantities"]["stop_reason"] == "tolerance"
    assert doc["quantities"]["modes"] == {"exact": True, "value": 16.0}
    assert doc["quantities"]["mu_upper"]["route"] == "galerkin_newton"


def test_laplace_bump_sphere(capsys, tmp_path):
    code, out, _ = run(capsys, ["laplace", "--model", bump_sphere_model(tmp_path)])
    doc = json.loads(out)
    assert code == 0
    assert doc["quantities"]["positive"] is True
    assert doc["quantities"]["min_scal"]["value"] > 0.0
    assert doc["quantities"]["min_scal"]["route"] == "galerkin_series_at_nodes"


def test_laplace_torus_case_mismatch(capsys, tmp_path):
    code, _, err = run(capsys, ["laplace", "--model", torus_model(tmp_path)])
    assert code == 4
    assert "case mismatch" in err


def test_functional_ell_override(capsys, tmp_path):
    code, out, _ = run(
        capsys, ["functional", "--model", torus_model(tmp_path), "--ell", "0.1"]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["quantities"]["J"]["value"] == pytest.approx(-0.01248944564173399, rel=1e-9)


def _strict_model(tmp_path, name):
    """wps(1, 50) with one doubling allowed: its density crowds next to one
    pole, where 255 nodes cannot meet the default tolerance."""
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "base": {"type": "wps", "m1": 1, "m2": 50},
                "ell": {"type": "constant", "value": 1.0},
                "F": {"type": "wps"},
                "quadrature": {"max_refinements": 1},
            }
        )
    )
    return str(path)


def test_unreachable_tolerance_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, ["functional", "--model", _strict_model(tmp_path, "strict.json")])
    assert code == 3
    assert "numerical failure" in err


def test_bound_model_reads_quadrature_block(capsys, tmp_path):
    # the same unreachable budget as above must reach the bound's norms too
    code, _, err = run(capsys, ["bound", "--model", _strict_model(tmp_path, "strict_bound.json")])
    assert code == 3
    assert "numerical failure" in err
    doc = json.loads(Path(_strict_model(tmp_path, "default.json")).read_text())
    del doc["quadrature"]
    path = tmp_path / "default.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, ["bound", "--model", str(path)])[0] == 0


def test_functional_on_uniform_profile_samples_matches_the_closed_form(capsys, tmp_path):
    # 201 uniform samples of the bump sphere give its sine series, so J agrees
    # with the closed-form profile to rounding
    code, out, _ = run(capsys, ["functional", "--model", bump_sphere_model(tmp_path, n=201)])
    assert code == 0
    one = eq.RadialField.const(1.0)
    closed = eq.functional_J(eq.InvariantMetric(bump_sphere(0.15), one, one)).J
    assert json.loads(out)["quantities"]["J"]["value"] == pytest.approx(closed, rel=1e-12)


def test_bound_collapse_model_reports_regime(capsys, tmp_path):
    code, out, _ = run(capsys, ["bound", "--model", torus_model(tmp_path)])
    doc = json.loads(out)
    assert code == 0
    assert "collapse" in doc["regime"]
    assert doc["bounds"] == []


# ---------------------------------------------------------------------------
# parsing and determinism
# ---------------------------------------------------------------------------

def test_malformed_model_field_path(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"base": {"type": "wps", "m1": 2}, "ell": {}, "F": {}}))
    code, _, err = run(capsys, ["functional", "--model", str(path)])
    assert code == 2
    assert "$.base.m2" in err


def test_profile_samples_off_their_cone_orders_exit_2(capsys, tmp_path):
    # the bump sphere's pole slopes are 1 and -1, read from its sine series:
    # cone orders (2, 1) do not fit the samples, a malformed model
    doc = json.loads(Path(bump_sphere_model(tmp_path)).read_text())
    doc["base"]["m_start"] = 2
    path = tmp_path / "bump_2_1.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["functional", "--model", str(path)])
    assert code == 2
    assert out == ""
    assert "$.base.samples" in err
    assert "slopes at the poles are 1 and -1" in err


def test_torus_seam_mismatch_names_ell_values(capsys, tmp_path):
    doc = json.loads(Path(torus_model(tmp_path)).read_text())
    doc["ell"] = {"type": "samples", "values": [1.0, 1.2, 0.9, 1.1, 1.0 + 1e-6]}
    path = tmp_path / "torus_seam.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["functional", "--model", str(path)])
    assert code == 2
    assert "$.ell.values" in err
    assert "seam" in err


def test_legacy_endpoint_keys_are_accepted_and_ignored(capsys, tmp_path):
    doc = json.loads(Path(hopf_model(tmp_path)).read_text())
    doc["quadrature"] = {"rel_tol": 1e-9}
    reports = []
    for name, legacy in (("new.json", {}),
                         ("legacy.json", {"endpoint_mode": "epsilon_cutoff", "epsilon": 1e-5})):
        doc["quadrature"].update(legacy)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["functional", "--model", str(path)])
        assert code == 0
        reports.append(json.loads(out)["quantities"])
    assert reports[0] == reports[1]


def test_legacy_panel_keys_are_accepted_and_ignored(capsys, tmp_path):
    # the nested rule has no panels: older files parse and give the same report
    doc = json.loads(Path(hopf_model(tmp_path)).read_text())
    reports = []
    for name, legacy in (("new.json", {}), ("panels.json", {"panels": 1, "points_per_panel": 2}),
                         ("many.json", {"panels": 4096, "points_per_panel": 64})):
        doc["quadrature"] = {"rel_tol": 1e-9, **legacy}
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["functional", "--model", str(path)])
        assert code == 0
        reports.append(json.loads(out)["quantities"])
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize(
    "legacy,field",
    [({"endpoint_mode": "magic"}, "endpoint_mode"), ({"epsilon": -1.0}, "epsilon"),
     ({"epsilon": "small"}, "epsilon"), ({"panels": 0}, "panels"),
     ({"points_per_panel": 1}, "points_per_panel"), ({"panels": 2.5}, "panels")],
)
def test_malformed_legacy_endpoint_keys_exit_2(capsys, tmp_path, legacy, field):
    doc = json.loads(Path(hopf_model(tmp_path)).read_text())
    doc["quadrature"] = legacy
    path = tmp_path / "bad_quadrature.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["functional", "--model", str(path)])
    assert code == 2
    assert f"$.quadrature.{field}" in err


_MODEL_DOCS = {
    "wps": {"base": {"type": "wps", "m1": 2, "m2": 3, "grid": 512},
            "ell": {"type": "constant", "value": 0.7}, "F": {"type": "wps"},
            "quadrature": {"panels": 32, "points_per_panel": 16, "max_refinements": 6,
                           "abs_tol": 1e-12, "rel_tol": 1e-10}},
    "sphere": {"base": {"type": "round_sphere", "radius": 0.5},
               "ell": {"type": "constant", "value": 1.0}, "F": {"type": "constant", "value": 2.0}},
    "torus": {"base": {"type": "flat_torus", "length": 1.0, "radius": 1.0},
              "ell": {"type": "samples", "values": [1.0] * 5},
              "F": {"type": "samples", "values": [1.0] * 5}},
    "profile": {"base": {"type": "profile", "m_start": 1, "m_end": 1,
                         "samples": [[s, math.sin(s)] for s in np.linspace(0.0, math.pi, 9)]},
                "ell": {"type": "constant", "value": 1.0}, "F": {"type": "constant", "value": 1.0}},
}


@pytest.mark.parametrize(
    "kind,field",
    [("wps", "$.base.m1"), ("wps", "$.base.m2"), ("wps", "$.base.grid"),
     ("sphere", "$.base.radius"), ("torus", "$.base.length"), ("torus", "$.base.radius"),
     ("profile", "$.base.samples[3]"), ("profile", "$.base.m_start"), ("profile", "$.base.m_end"),
     ("wps", "$.ell.value"), ("torus", "$.ell.values"), ("sphere", "$.F.value"),
     ("torus", "$.F.values"), ("wps", "$.quadrature.panels"),
     ("wps", "$.quadrature.points_per_panel"), ("wps", "$.quadrature.max_refinements"),
     ("wps", "$.quadrature.abs_tol"), ("wps", "$.quadrature.rel_tol")],
)
def test_json_booleans_are_not_numbers(capsys, tmp_path, kind, field):
    # true is a Python int: it parsed as 1 wherever a number was asked for
    doc = json.loads(json.dumps(_MODEL_DOCS[kind]))
    modelio.build_metric(modelio.parse_model(doc))  # valid before the edit
    *parents, key = field.split(".")[1:]
    node = doc
    for name in parents:
        node = node[name]
    if key.endswith("]"):  # one [s, phi] pair
        key, index = key[:-1].split("[")
        node[key][int(index)][1] = True
    elif isinstance(node[key], list):  # one sample value
        node[key][2] = True
    else:
        node[key] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["bound", "--model", str(path)])
    assert code == 2
    assert field in err


def test_wps_model_grid_is_validated_and_ignored(capsys, tmp_path):
    # the profile is in closed form: an older file's grid changes nothing
    doc = json.loads(json.dumps(_MODEL_DOCS["wps"]))
    del doc["base"]["grid"]
    base = modelio.build_base(modelio.parse_model(doc))
    doc["base"]["grid"] = 4096
    assert modelio.build_base(modelio.parse_model(doc)) is base is eq.wps_profile(2, 3)
    doc["base"]["grid"] = 3
    path = tmp_path / "coarse_grid.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["bound", "--model", str(path)])
    assert code == 2
    assert "$.base.grid" in err


def test_unreadable_model(capsys):
    code, _, err = run(capsys, ["functional", "--model", "/nonexistent.json"])
    assert code == 2


def test_reports_are_byte_identical(tmp_path):
    model = hopf_model(tmp_path)
    outputs = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"report_{tag}.json"
        assert main(["functional", "--model", model, "--ell", "scan:0.25:2:13",
                     "--out", str(out_path)]) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_minimize_reports_byte_identical(tmp_path):
    model = hopf_model(tmp_path)
    outputs = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"min_{tag}.json"
        assert main(["minimize", "--model", model, "--out", str(out_path)]) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_floats_have_17_significant_digits(capsys):
    _, out, _ = run(capsys, ["bound", "--m1", "2", "--m2", "3"])
    assert "45.032244025421434" in out  # .17g of the double closest to the bound


def test_commands_without_splines_import_no_scipy(tmp_path):
    # scipy is a test oracle only: no command imports it
    wps, torus = wps_model(tmp_path), torus_model(tmp_path)
    # uniform profile, ell and F samples are trigonometric series, and
    # non-uniform profile samples are fitted by one
    sampled = bump_sphere_model(tmp_path, n=201, sampled_fields=True)
    warped = bump_sphere_model(tmp_path, n=201, warped=True)
    argvs = [
        ["invariants", "--m1", "2", "--m2", "3"],
        ["bound", "--m1", "2", "--m2", "3"],
        ["bound", "--model", wps],
        ["functional", "--model", wps],
        ["functional", "--model", torus],
        ["scan", "--model", torus, "--ell", "scan:0.1:1:4"],
        ["functional", "--model", sampled],
        ["minimize", "--model", sampled],
        ["functional", "--model", warped],
        ["laplace", "--model", sampled],
        ["laplace", "--model", wps],
    ]
    script = f"""
import contextlib, io, sys
import eqyamabe
import eqyamabe.cli as cli
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
