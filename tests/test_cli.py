"""CLI: flags, exit codes, report structure, determinism, CSV."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe import modelio
from eqyamabe.cli import _REGIME_NOTE, main

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
    # a single method prints its keys of the "all" report, bit for bit
    for method, keys in (("quadrature", ["c1_quadrature", "chi_quadrature"]),
                         ("boundary", ["chi_boundary"])):
        argv = ["invariants", "--m1", "3", "--m2", "7", "--tol", "1e-3", "--method", method]
        code, out, _ = run(capsys, argv)
        assert code == 0
        single = json.loads(out)["quantities"]
        assert sorted(single) == keys and all(single[k] == q[k] for k in keys), method


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
    # weights up to about 38000 are in the domain, in either order
    for m1, m2 in ((1, 50), (1, 359), (1, 2000), (2000, 1), (1, 38000)):
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


@pytest.mark.parametrize("m1, m2", [(10**8, 1), (1, 10**8)])
def test_invariants_that_settle_on_a_wrong_value_exit_3(capsys, m1, m2):
    # past the weights the rule resolves, the c1 quadrature settles on
    # 8.7e-17 with an estimate of 5e-13 against the exact 1e-8: its closed
    # form catches it
    code, out, err = run(capsys, ["invariants", "--m1", str(m1), "--m2", str(m2)])
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: c1 quadrature 8.67182e-17 misses the closed "
                          "form 1e-08")


def _wps_weights_model(tmp_path, m1, m2):
    path = tmp_path / "wps_weights.json"
    path.write_text(json.dumps({"base": {"type": "wps", "m1": m1, "m2": m2},
                                "ell": {"type": "constant", "value": 1.0}, "F": {"type": "wps"}}))
    return str(path)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["invariants", "--m1", str(10**400), "--m2", "1"], 2, "error: the product of the weights"),
        (["bound", "--m1", str(10**400), "--m2", "1"], 2, "error: the product of the weights"),
        (["bound", "--m1", str(10**200), "--m2", str(10**200 + 1)], 2,
         "error: the product of the weights"),
        (["invariants", "--m1", str(10**200), "--m2", "1"], 3,
         "numerical failure: wps weights must be below 2^255"),
        (["bound", "--model", (10**200, 1)], 3,
         "numerical failure: wps weights must be below 2^255"),
        (["bound", "--model", (10**400, 1)], 2,
         "error: $.base.m1: integer past the largest double"),
    ],
    ids=["invariants", "bound", "bound_product", "invariants_quadrature", "model",
         "model_past_max"],
)
def test_weights_past_the_doubles_exit_2_or_3(capsys, tmp_path, argv, code, message):
    argv = [_wps_weights_model(tmp_path, *a) if isinstance(a, tuple) else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, out, err = run(capsys, argv)
    assert (got, out) == (code, "")
    assert err.startswith(message) and len(err.splitlines()) == 1


def test_weighted_pair_bound_of_a_huge_weight(capsys):
    # the bounds of a pair are closed forms: a weight of 1e200 is in their domain
    code, out, _ = run(capsys, ["bound", "--m1", str(10**200), "--m2", "1"])
    assert code == 0
    doc = _strict_json(out)
    assert _bound_value(doc, "weighted_pair") == pytest.approx(
        _bound_value(doc, "topological"), rel=1e-12
    )


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
    # the same topological bound from chi and c1 given by hand
    code, out, _ = run(capsys, ["bound", "--chi", "2", "--c1", "1"])
    assert code == 0
    doc = json.loads(out)
    assert _bound_value(doc, "topological") == eq.bound_theorem_main(2.0, 1.0)
    assert doc["bounds"][0]["inputs"] == {"chi": 2.0, "c1": 1.0}


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
    code, out, err = run(capsys, ["bound", "--hebey-vaugon", "--n", "3", "--k", "x"])
    assert code == 2 and out == ""
    assert "--k" in err
    code, out, err = run(capsys, ["bound", "--hebey-vaugon", "--n", "2"])
    assert code == 2 and out == ""
    assert "dimension n >= 3" in err


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
    # --chi and --c1 come together
    for argv in (["--chi", "2"], ["--c1", "1"]):
        code, out, err = run(capsys, ["bound", *argv])
        assert code == 2 and out == "", argv
        assert "together" in err, argv


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


def test_csv_cells_are_quoted_as_rfc_4180():
    # cells with a comma, a quote or a line break are quoted, and a quote is
    # doubled; floats have 17 digits, ints and bools are integers
    table = {"name": ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "plain"],
             "x": [0.1, 2, True, np.float64(1.5), None]}
    assert modelio.table_to_csv(table) == (
        'name,x\r\n"a,b",0.10000000000000001\r\n"say ""hi""",2\r\n"two\nlines",1\r\n'
        '"cr\rhere",1.5\r\nplain,\r\n'
    )


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


def test_bound_of_a_huge_sphere_exits_3_without_a_warning(capsys, tmp_path):
    # on a sphere of radius 1e80 with F = 1e-170, |Omega|_2^2 underflows:
    # exit 3, and no numpy RuntimeWarning (an error under pytest) escapes as
    # a traceback
    path = tmp_path / "huge_sphere.json"
    path.write_text(json.dumps({"base": {"type": "round_sphere", "radius": 1e80},
                                "ell": {"type": "constant", "value": 1.0},
                                "F": {"type": "constant", "value": 1e-170}}))
    out_path = tmp_path / "bound.json"
    code, out, err = run(capsys, ["bound", "--model", str(path), "--out", str(out_path)])
    assert code == 3
    assert "underflowed" in err
    assert not out_path.exists() and out == ""


def _tiny_sphere(tmp_path, radius, ell):
    path = tmp_path / f"sphere_{radius}_{ell}.json"
    path.write_text(json.dumps({"base": {"type": "round_sphere", "radius": radius},
                                "ell": {"type": "constant", "value": ell},
                                "F": {"type": "constant", "value": 1.0}}))
    return str(path)


@pytest.mark.parametrize(
    "command, code, message",
    [
        ("functional", 3, "the volume underflowed to 0"),
        ("minimize", 3, "W of 2 pi ell dA underflowed to 0 at every Galerkin node"),
        ("bound", 0, None),  # |Omega|_1 vanishes by the zero test: no bound
        ("laplace", 0, None),  # the uniformization reads the base alone
    ],
    ids=["functional", "minimize", "bound", "laplace"],
)
def test_data_that_underflows_keeps_the_exit_code_contract(capsys, tmp_path, command, code, message):
    # radius 1e-150 and ell = 1e-100: the volume and the node weights of
    # 2 pi ell dA underflow to 0, which ended in a ZeroDivisionError and a
    # singular matrix, both tracebacks
    out_path = tmp_path / "report.json"
    argv = [command, "--model", _tiny_sphere(tmp_path, 1e-150, 1e-100), "--out", str(out_path)]
    got, out, err = run(capsys, argv)
    assert got == code
    assert "Traceback" not in err
    if message is not None:
        assert message in err
        assert not out_path.exists() and out == ""


@pytest.mark.parametrize("radius", [1e-170, 1e-165, 1e-160, 1e-158, 1e-156, 1e-155, 3e-155,
                                    8e-155, 1e-154])
def test_laplace_on_a_vanishing_sphere_exits_3_without_a_warning(capsys, tmp_path, radius):
    # the area underflows below radius ~1e-154, and from 8e-155 on the
    # Poisson solve's mode numbers k = n pi / L square past the doubles,
    # where the tail's floor rounding / k^2 is formed quietly as 0; numpy
    # warnings are errors here, so only the failure line may reach stderr
    out_path = tmp_path / "laplace.json"
    argv = ["laplace", "--model", _tiny_sphere(tmp_path, radius, 1.0), "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert not out_path.exists() and out == ""


@pytest.mark.parametrize("radius, code", [(1e-100, 0), (1e-150, 0)])
def test_bound_of_a_tiny_sphere_makes_no_warning(capsys, tmp_path, radius, code):
    # K = 1e200 or 1e300 and |Omega|_1 = 1.8e-199 or 1.8e-299: the curvature
    # form vanishes by the scale-free zero test, so the functional is
    # unbounded in ell and no bound is reported, without a numpy
    # RuntimeWarning (an error under pytest); no base integral of K is taken
    out_path = tmp_path / "bound.json"
    code_got, out, err = run(capsys, ["bound", "--model", _tiny_sphere(tmp_path, radius, 1.0),
                                      "--out", str(out_path)])
    assert code_got == code
    assert err == ""
    report = json.loads(out_path.read_text())
    assert report["regime"] == _REGIME_NOTE["DivergesAsEllGrows"]
    assert report["bounds"] == []


@pytest.mark.parametrize("warn", ["always", "error"])
@pytest.mark.parametrize("F", [1e103, 1e120, 1e170, -1e170])
def test_bound_of_an_out_of_scale_F_names_it(capsys, tmp_path, warn, F):
    # (sqrt2 |F|)^3 overflows at the first-level nodes past 4.0e102: the
    # quadrature's level sums are not finite, and the norms raise NonFinite
    # naming F, with no numpy warning
    out_path = tmp_path / "report.json"
    path = _sphere_model(tmp_path, "sphere", 1.0, {"type": "constant", "value": F})
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(warn, RuntimeWarning)
        code, out, err = run(capsys, ["bound", "--model", path, "--out", str(out_path)])
    assert code == 3
    assert f"the curvature density F reaches |F| = {abs(F):.3e}: out of scale" in err
    assert not seen and not out_path.exists() and out == ""


def _bump_between_nodes():
    # 1 + 1e103 g, g a Gaussian of width 0.01 midway between two first-level
    # nodes of the unit sphere: |F| stays below 4.0e102 at every first-level
    # node and passes it at the next level's node between them
    s = np.linspace(0.0, math.pi, 2049)
    nodes = math.pi * np.sin(np.arange(63, 65) * math.pi / 256.0) ** 2
    mid = 0.5 * (nodes[0] + nodes[1])
    return {"type": "samples", "values": (1.0 + 1e103 * np.exp(-(((s - mid) / 0.01) ** 2))).tolist()}


@pytest.mark.parametrize("warn", ["always", "error"])
@pytest.mark.parametrize(
    "radius, F",
    [(1.0, 3.2e102), (1.0, 3.5e102), (1.0, 3.99e102), (1.0, "bump"), (10.0, 3e102)],
    ids=["3.2e+102", "3.5e+102", "3.99e+102", "bump", "radius10-3e+102"],
)
def test_bound_whose_norm_integrals_leave_the_doubles_names_F(capsys, tmp_path, warn, radius, F):
    # (sqrt2 |F|)^3 is finite at every first-level node, but its level sums
    # leave the doubles, or |F| overflows it at a node of the next level, or
    # (radius 10, where the density phi passes 1) its product with phi
    # overflows in the integrand: NonFinite naming F, with no numpy warning
    # (they warned and ended in "did not reach tolerance ... nan", or a
    # traceback under -W error::RuntimeWarning)
    field = _bump_between_nodes() if F == "bump" else {"type": "constant", "value": F}
    out_path = tmp_path / "report.json"
    path = _sphere_model(tmp_path, "sphere", radius, field)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(warn, RuntimeWarning)
        code, out, err = run(capsys, ["bound", "--model", path, "--out", str(out_path)])
    assert code == 3
    prefix = "numerical failure: the curvature density F reaches |F| = "
    assert err.startswith(prefix) and err.endswith(": out of scale\n")
    size = float(err[len(prefix):-len(": out of scale\n")])
    assert size > 4.0e102 if F == "bump" else size == float(f"{F:.3e}")
    assert not seen and not out_path.exists() and out == ""


@pytest.mark.parametrize("warn", ["default", "error"])
@pytest.mark.parametrize(
    "ell, F, message",
    [(1e100, 1.0, "g.H^{-1}g is not finite"), (1e100, 1e5, "J is not finite"),
     (3e150, 1.0, "J is not finite")],
)
def test_a_descent_out_of_scale_ends(tmp_path, warn, ell, F, message):
    # g.H^{-1}g or J overflows to inf or NaN, on which neither the stop test
    # nor the shift loop's exit could pass: the descent never returned.  A
    # subprocess with a timeout fails such a regression instead of hanging
    out_path = tmp_path / "report.json"
    path = _sphere_model(tmp_path, "sphere", 1.0, {"type": "constant", "value": F}, ell)
    argv = ["minimize", "--model", path, "--out", str(out_path)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-W", f"{warn}::RuntimeWarning", "-m", "eqyamabe.cli", *argv],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 3, proc.stderr
    assert f"{message}: out of scale" in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert not out_path.exists()


@pytest.mark.parametrize("warn", ["always", "error"])
@pytest.mark.parametrize("ell, F", [(1e100, 1e5), (1.0, 1e170)])
def test_functional_out_of_scale_names_its_integrand(capsys, tmp_path, warn, ell, F):
    # ell^2 F^2 overflows: J's numerator and its direct route are not finite
    out_path = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(warn, RuntimeWarning)
        path = _sphere_model(tmp_path, "sphere", 1.0, {"type": "constant", "value": F}, ell)
        code, out, err = run(capsys, ["functional", "--model", path, "--out", str(out_path)])
    assert code == 3
    assert "the integrand of J is not finite in (2K - ell^2 F^2 / 2) ell and scal ell: " \
        "out of scale" in err
    assert not seen and not out_path.exists() and out == ""


@pytest.mark.parametrize("field, value", [("F", math.inf), ("F", -math.inf), ("ell", math.nan)])
def test_samples_that_are_not_finite_exit_2(capsys, tmp_path, field, value):
    # json.load reads NaN and Infinity: an infinite F sample went into the
    # series, whose chop test warned, and a NaN ell passed the positivity
    # test and exited 3 as out of scale
    samples = {"type": "samples", "values": [1.0, value, 1.0, 1.0, 1.0]}
    path = tmp_path / "model.json"
    model = {"base": {"type": "flat_torus", "length": 1.0, "radius": 1.0},
             "ell": {"type": "constant", "value": 1.0}, "F": {"type": "constant", "value": 1.0}}
    model[field] = samples
    path.write_text(json.dumps(model))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, ["functional", "--model", str(path)])
    assert code == 2 and out == ""
    assert f"$.{field}.values: need at least 4 finite numbers" in err


def _near_max(n=201):
    # finite samples whose sum, and so their FFT, leaves the doubles
    return (1.7e308 * (0.5 + 0.4 * np.cos(np.linspace(0.0, math.pi, n)))).tolist()


_UNIT = {"type": "constant", "value": 1.0}
_S = np.linspace(0.0, math.pi, 201)
_OUT_OF_SCALE_SERIES = {
    "F": {"base": {"type": "round_sphere", "radius": 1.0}, "ell": _UNIT,
          "F": {"type": "samples", "values": _near_max()}},
    "ell": {"base": {"type": "round_sphere", "radius": 1.0}, "F": _UNIT,
            "ell": {"type": "samples", "values": _near_max()}},
    # every coefficient is finite, but F'' has wavenumbers 1e6 k: 6.4e313
    "F''": {"base": {"type": "round_sphere", "radius": 1e-6},
            "ell": {"type": "constant", "value": 1e-6},
            "F": {"type": "samples",
                  "values": (1e300 * np.cos(np.linspace(0.0, math.pi, 17))).tolist()}},
    "phi": {"base": {"type": "profile", "m_start": 1, "m_end": 1,
                     "samples": np.column_stack([_S, 1.5e308 * np.sin(_S)]).tolist()},
            "ell": _UNIT, "F": _UNIT},
}


@pytest.mark.parametrize("command", ["functional", "bound", "minimize", "laplace"])
@pytest.mark.parametrize("kind, path", [("F", "$.F.values"), ("ell", "$.ell.values"),
                                        ("F''", "$.F.values"), ("phi", "$.base.samples")])
def test_samples_whose_series_leaves_the_doubles_exit_3(capsys, tmp_path, command, kind, path):
    # the series is formed quietly and refused where it is built: the FFT
    # overflowed and warned, `bound` with such an ell exited 0, and F'' of
    # the tiny sphere overflowed in its coefficients
    model, out_path = tmp_path / "model.json", tmp_path / "report.json"
    model.write_text(json.dumps(_OUT_OF_SCALE_SERIES[kind]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, [command, "--model", str(model), "--out", str(out_path)])
    assert code == 3 and out == "" and not out_path.exists()
    assert f"numerical failure: {path}: a series or its derivative leaves the doubles: " \
        "out of scale" in err


def test_canonical_json_of_empty_containers():
    assert modelio.canonical_json({}) == "{}\n"
    assert modelio.canonical_json({"a": [], "b": {}}) == '{\n  "a": [],\n  "b": {}\n}\n'


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
    # a ladder that is not numbers or not increasing, a word, a nonpositive length
    for ell, message in (("scan:a:1:4", "--ell scan:"), ("scan:2:1:4", "0 < lo < hi"),
                         ("abc", "got 'abc'"), ("-1", "must be positive")):
        code, out, err = run(capsys, ["functional", "--model", hopf_model(tmp_path), "--ell", ell])
        assert code == 2 and out == "", ell
        assert message in err, ell


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


def _sphere_model(tmp_path, name, radius, F, ell=1.0):
    path = tmp_path / f"{name}.json"
    path.write_text(
        json.dumps(
            {
                "base": {"type": "round_sphere", "radius": radius},
                "ell": {"type": "constant", "value": ell},
                "F": F,
            }
        )
    )
    return str(path)


def zero_chern_model(tmp_path):
    # F = cos s on the unit sphere: c1 is 1.1e-16, |Omega|_2^2 = 8 pi / 3
    s = np.linspace(0.0, math.pi, 65)
    F = {"type": "samples", "values": np.cos(s).tolist()}
    return _sphere_model(tmp_path, "zero_chern", 1.0, F)


def test_bound_model_of_zero_chern_sphere_has_an_interior_maximum(capsys, tmp_path):
    # chi > 0 and a curvature form that is not zero: the functional has an
    # interior maximum in ell, as `scan` reports, but no topological bound,
    # which needs c1 != 0
    path = zero_chern_model(tmp_path)
    code, out, _ = run(capsys, ["bound", "--model", path])
    doc = json.loads(out)
    assert code == 0
    assert doc["regime"] == "interior maximum in the fiber length"
    assert [b["kind"] for b in doc["bounds"]] == ["optimal_fiber_length", "cauchy_schwarz"]
    vol, chi, omega_L2_sq = 4.0 * math.pi, 2.0, 8.0 * math.pi / 3.0
    j_max = 3.0 * 2.0 ** (4.0 / 3.0) * math.pi**2 * vol ** (-1.0 / 3.0) * chi ** (4.0 / 3.0)
    j_max *= omega_L2_sq ** (-1.0 / 3.0)
    opt = doc["bounds"][0]
    assert opt["value"] == pytest.approx(j_max, rel=1e-10)
    assert opt["inputs"]["ell_star"] == pytest.approx(math.sqrt(3.0), rel=1e-10)
    assert _bound_value(doc, "cauchy_schwarz") == pytest.approx(SIGMA_S3, rel=1e-10)
    code, out, _ = run(capsys, ["scan", "--model", path, "--ell", "scan:0.5:4:4"])
    assert code == 0
    assert json.loads(out)["regime"] == "MaxInterior"


@pytest.mark.parametrize(
    "radius, ell, F, regime",
    [
        (0.5, 1.0, {"type": "constant", "value": 2.0}, "MaxInterior"),
        (1.0, 1.0, {"type": "constant", "value": 0.0}, "DivergesAsEllGrows"),
        # |Omega|_2^2 = 2.5e-13, but |Omega|_1 = 1.8e-3 and c1 = 2e-4: not
        # flat, as its twin of radius 1 with F = 1e-4 is not
        (1e3, 1.0, {"type": "constant", "value": 1e-10}, "MaxInterior"),
        # one model in two units, g -> c^2 g with c = 1e14: |Omega|_1 = 8.9e-13
        # in both counts as flat, though |Omega|_2^2 is 6.3e-12 in the first
        # and 6.3e-40 in the second
        (1e-7, 1e-7, {"type": "constant", "value": 5.0}, "DivergesAsEllGrows"),
        (1e7, 1e7, {"type": "constant", "value": 5e-28}, "DivergesAsEllGrows"),
    ],
    ids=["hopf", "flat", "nearly_flat", "tiny", "tiny_rescaled"],
)
def test_bound_model_regime_is_the_scan_regime(capsys, tmp_path, radius, ell, F, regime):
    path = _sphere_model(tmp_path, "sphere", radius, F, ell)
    code, out, _ = run(capsys, ["scan", "--model", path, "--ell", "scan:0.5:4:4"])
    assert code == 0
    assert json.loads(out)["regime"] == regime
    code, out, _ = run(capsys, ["bound", "--model", path])
    doc = json.loads(out)
    assert code == 0
    assert doc["regime"] == _REGIME_NOTE[regime]
    assert bool(doc["bounds"]) is (regime == "MaxInterior")


@pytest.mark.parametrize("m1, m2", [(2, 4), (0, 1)])
def test_wps_model_weights_are_checked_by_the_library_rule(capsys, tmp_path, m1, m2):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"base": {"type": "wps", "m1": m1, "m2": m2},
                                "ell": {"type": "constant", "value": 1.0}, "F": {"type": "wps"}}))
    code, out, err = run(capsys, ["bound", "--model", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: $.base: weights")


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


# every numeric field of a model, by its path in one of the documents above
_NUMERIC_FIELDS = [
    ("wps", "$.base.m1"), ("wps", "$.base.m2"), ("wps", "$.base.grid"),
    ("sphere", "$.base.radius"), ("torus", "$.base.length"), ("torus", "$.base.radius"),
    ("profile", "$.base.samples[3]"), ("profile", "$.base.m_start"), ("profile", "$.base.m_end"),
    ("wps", "$.ell.value"), ("torus", "$.ell.values"), ("sphere", "$.F.value"),
    ("torus", "$.F.values"), ("wps", "$.quadrature.panels"),
    ("wps", "$.quadrature.points_per_panel"), ("wps", "$.quadrature.max_refinements"),
    ("wps", "$.quadrature.abs_tol"), ("wps", "$.quadrature.rel_tol"),
]


def _bound_with_field(capsys, tmp_path, kind, field, value):
    """`bound --model` on a valid model document with one numeric field, or
    one sample of it, set to value."""
    doc = json.loads(json.dumps(_MODEL_DOCS[kind]))
    modelio.build_metric(modelio.parse_model(doc))  # valid before the edit
    *parents, key = field.split(".")[1:]
    node = doc
    for name in parents:
        node = node[name]
    if key.endswith("]"):  # one [s, phi] pair
        key, index = key[:-1].split("[")
        node[key][int(index)][1] = value
    elif isinstance(node[key], list):  # one sample value
        node[key][2] = value
    else:
        node[key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return run(capsys, ["bound", "--model", str(path)])


@pytest.mark.parametrize("kind,field", _NUMERIC_FIELDS)
def test_json_booleans_are_not_numbers(capsys, tmp_path, kind, field):
    # true is a Python int: it parsed as 1 wherever a number was asked for
    code, _, err = _bound_with_field(capsys, tmp_path, kind, field, True)
    assert code == 2
    assert field in err


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("kind,field", _NUMERIC_FIELDS)
def test_json_integers_past_the_doubles_exit_2(capsys, tmp_path, kind, field, sign):
    # json.load reads 10^400 as an int, whose first float() raised
    # OverflowError out of `cli.main`
    code, out, err = _bound_with_field(capsys, tmp_path, kind, field, sign * 10**400)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field}")


def _model(kind, **parts):
    """A copy of one of the documents above with some of its parts replaced."""
    doc = json.loads(json.dumps(_MODEL_DOCS[kind]))
    doc.update(parts)
    return doc


_PROFILE_BASE = _MODEL_DOCS["profile"]["base"]
# a model file that fails to parse or to build, and the start of its message
_MALFORMED_MODELS = {
    "not an object": ("[1, 2]", "$: model document must be a JSON object"),
    "invalid JSON": ('{"base": ', "$: invalid JSON"),
    "few samples": (_model("profile", base=dict(_PROFILE_BASE, samples=_PROFILE_BASE["samples"][:7])),
                    "$.base.samples: need at least 8 [s, phi] pairs"),
    "cone order": (_model("profile", base=dict(_PROFILE_BASE, m_start=0)),
                   "$.base.m_start: must be a positive integer"),
    "ell samples": (_model("torus", ell={"type": "samples", "values": [1.0, 0.0, 1.0, 1.0, 1.0]}),
                    "$.ell.values: fiber length must be positive everywhere"),
    "F not finite": (_model("sphere", F={"type": "constant", "value": math.nan}),
                     "$.F.value: must be finite"),
    "wps F": (_model("sphere", F={"type": "wps"}), "$.F.type: 'wps' density requires a 'wps' base"),
    "quadrature list": (_model("sphere", quadrature=[]), "$.quadrature: expected an object"),
    "quadrature key": (_model("sphere", quadrature={"order": 5}),
                       "$.quadrature: unknown fields ['order']"),
    "quadrature value": (_model("sphere", quadrature={"max_refinements": -1}),
                         "$.quadrature: max_refinements must be >= 0"),
    # positive samples whose interpolant dips below 0 between them
    "ell series": (_model("sphere", ell={"type": "samples", "values": [1] * 4 + [1e-6] * 2 + [1] * 4}),
                   "$.ell: fiber length must be strictly positive on the base"),
    "not UTF-8": (json.dumps(_MODEL_DOCS["sphere"]).encode()[:-1] + b', "note": "\xff"}',
                  "$: cannot parse model file: 'utf-8' codec can't decode"),
    "nested too deep": (json.dumps(_MODEL_DOCS["sphere"])[:-1] + ', "note": '
                        + "[" * 100000 + "]" * 100000 + "}", "$: cannot parse model file: maximum recursion"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_MODELS))
def test_malformed_models_exit_2_naming_their_path(capsys, tmp_path, case):
    doc, message = _MALFORMED_MODELS[case]
    path = tmp_path / "malformed.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run(capsys, ["functional", "--model", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}"), err


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


def test_a_model_nested_900_deep_parses_and_echoes(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_MODEL_DOCS["sphere"])[:-1] + ', "note": ' + "[" * 900 + "]" * 900 + "}")
    code, out, _ = run(capsys, ["bound", "--model", str(path)])
    assert code == 0
    note, depth = _strict_json(out)["model"]["note"], 1
    while note != []:
        note, depth = note[0], depth + 1
    assert depth == 900


def test_model_keys_that_need_escapes_echo_as_strict_json(capsys, tmp_path):
    keys = ['note"x', "tab\there", "back\\slash", "line\nfeed", "\u0001", "fibre ℓ", "ß"]
    doc = dict(_MODEL_DOCS["sphere"], **{key: i for i, key in enumerate(keys)})
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code, out, _ = run(capsys, ["bound", "--model", str(path)])
    assert code == 0
    assert _strict_json(out)["model"] == doc


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_out_that_cannot_be_written_exits_2(capsys, tmp_path, target):
    out_path = tmp_path / target
    code, out, err = run(capsys, ["bound", "--m1", "2", "--m2", "3", "--out", str(out_path)])
    assert code == 2 and out == ""
    assert err.startswith("error: --out: "), err
    assert not (tmp_path / "missing").exists() and list(tmp_path.iterdir()) == []


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


def test_a_library_warning_is_one_line_on_stderr(tmp_path):
    # the bump-sphere profile with F = 0.3 has c1 = 0.64: the fractional
    # Chern warning was printed with the source path, line number and line
    s = np.linspace(0.0, math.pi, 201)
    phi = np.sin(s) * (1.0 + 0.1 * np.sin(s) ** 2)
    phi[0] = phi[-1] = 0.0
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({
        "base": {"type": "profile", "samples": np.column_stack([s, phi]).tolist(),
                 "m_start": 1, "m_end": 1},
        "ell": {"type": "constant", "value": 1.0},
        "F": {"type": "constant", "value": 0.3},
    }))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "eqyamabe.cli", "bound", "--model", str(path)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: curvature density has non-integral Chern data: 1 * 0.640000 "
        "is not close to an integer\n"
    )


def test_a_sampled_ramp_warns_once_on_stderr(tmp_path):
    # ell = 1 + 0.3 t in 33 samples on wps(2,3) is not flat at either pole:
    # the pole check reads its slopes off the tail of its series, and the
    # report still exits 0
    path = tmp_path / "ramp.json"
    path.write_text(json.dumps({
        "base": {"type": "wps", "m1": 2, "m2": 3},
        "ell": {"type": "samples", "values": (1.0 + 0.3 * np.linspace(0.0, 1.0, 33)).tolist()},
        "F": {"type": "wps"},
    }))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "eqyamabe.cli", "functional",
         "--model", str(path)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: ell' does not vanish at a cone pole (|ell'| ~ 1.91e-01); data may not be "
        "smooth on the orbifold\n"
    )


def test_main_restores_the_warning_format_and_leaves_warnings_seen(tmp_path):
    path = hopf_model(tmp_path)
    before = warnings.formatwarning
    with pytest.warns(UserWarning, match="Chern"):
        spec = json.loads(Path(path).read_text())
        spec["F"]["value"] = 2.5
        Path(path).write_text(json.dumps(spec))
        assert main(["bound", "--model", path, "--out", str(tmp_path / "r.json")]) == 0
    assert warnings.formatwarning is before
