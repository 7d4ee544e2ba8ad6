"""Open defects that ROADMAP.md names, each asserting its fixed behaviour and
marked xfail(strict=True): the change that mends one must remove its marker,
because a strict xfail that passes fails the suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

import eqyamabe as eq
from eqyamabe.cli import main


def _open(item: str, what: str):
    reason = f"ROADMAP item {item}: {what}"
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


def _run(capsys, tmp_path, command, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code = main([command, "--model", str(path)])
    out = capsys.readouterr()
    return code, out.out, out.err


@_open("21", "the minimizer's stop test and steps depend on the metric's units")
def test_the_minimizer_is_scale_free():
    # at c = 1e5 the descent stops on "tolerance", converged, at
    # 30.693732340213316: 2.0e-4 above its value at c = 1
    unit = eq.minimize_conformal(eq.wps_metric(2, 3))
    scaled = eq.minimize_conformal(eq.scale_metric(eq.wps_metric(2, 3), 1e5))
    assert scaled.mu_upper == pytest.approx(unit.mu_upper, rel=1e-9)


def test_a_sampled_ramp_fiber_length_warns_or_is_refused(capsys, tmp_path):
    # ROADMAP item 14, mended: the pole check reads a sampled field's pole
    # slopes off the tail of its series.  The warning is seen here, where
    # pytest records it; on the command line it is one stderr line
    # (tests/test_cli.py)
    ramp = (1.0 + 0.3 * np.linspace(0.0, 1.0, 33)).tolist()
    model = {"base": {"type": "wps", "m1": 2, "m2": 3},
             "ell": {"type": "samples", "values": ramp}, "F": {"type": "wps"}}
    with pytest.warns(UserWarning, match="ell' does not vanish at a cone pole") as seen:
        code, _, _ = _run(capsys, tmp_path, "functional", model)
    assert code == 0 and len(seen) == 1


@_open("22", "the basis does not resolve the pole layer of wps(1,200) within its cap")
def test_the_minimizer_resolves_wps_1_200():
    assert eq.minimize_conformal(eq.wps_metric(1, 200)).stop_reason != "basis_cap"


@_open("2", "the norms of wps(10^8, 1) settle on c1 = 8.7e-17, where the exact value is 1e-8")
def test_bound_on_a_lopsided_wps_model_measures_its_chern_number(capsys, tmp_path):
    # the report reads the flat-bundle regime and exits 0
    model = {"base": {"type": "wps", "m1": 10**8, "m2": 1},
             "ell": {"type": "constant", "value": 1.0}, "F": {"type": "wps"}}
    code, out, _ = _run(capsys, tmp_path, "bound", model)
    assert code == 3 or json.loads(out)["inputs"]["c1_measured"]["value"] == pytest.approx(
        1e-8, rel=1e-6
    )
