"""The CLI's exit-code contract on the whole documented input domain: every
model command and every weighted-pair command exits 0, 2, 3 or 4, raises
nothing out of `cli.main`, lets no numpy RuntimeWarning escape (an error
here), and writes a report that is strict JSON.  Models are drawn on every
base type, with constant and sampled fiber lengths and curvature densities
from 1e-300 to 1e300 in magnitude, so that data out of scale is drawn too,
constants that are JSON integers past DBL_MAX among them, and the same model
is written in units c, log-uniform in [1e-6, 1e6].  Weights are drawn up to
10^400, past DBL_MAX too, and so are the numbers of the argument-only forms:
`bound --chi --c1`, `bound --hebey-vaugon --n --k` and the fiber lengths of
`--ell`, NaN and infinities among them."""

from __future__ import annotations

import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eqyamabe import cli

COMMANDS = (["functional"], ["bound"], ["minimize"], ["laplace"], ["scan", "--ell", "scan:0.5:4:4"])
PAIR_COMMANDS = (["invariants"], ["invariants", "--method", "closed"],
                 ["invariants", "--method", "boundary"], ["bound"])
# the slowest known call, `minimize` in units 1e4, takes 1.1-1.5 s
WALL_BUDGET_S = 3.0

magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
units = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
# weights of every order of magnitude up to 10^400, past DBL_MAX too
weights = st.integers(1, 2000) | st.integers(0, 399).flatmap(
    lambda e: st.integers(10**e, 10 ** (e + 1))
)


def _reject(token):
    raise ValueError(f"{token} is not JSON")


@st.composite
def bases(draw):
    """A base in its own units as a model dict, its length, and whether its
    size scales with the units (every base but the weighted quotient)."""
    kind = draw(st.sampled_from(["wps", "round_sphere", "uniform", "nonuniform", "flat_torus"]))
    if kind == "wps":
        m1, m2 = draw(weights), draw(weights)
        if math.gcd(m1, m2) != 1:
            m2 = 1
        return {"type": "wps", "m1": m1, "m2": m2}, 0.5 * math.pi, False
    if kind == "round_sphere":
        radius = draw(st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
        return {"type": "round_sphere", "radius": radius}, math.pi * radius, True
    if kind == "flat_torus":
        length, radius = draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0))
        return {"type": "flat_torus", "length": length, "radius": radius}, length, True
    n = draw(st.integers(17, 257))
    if kind == "uniform":
        s = np.linspace(0.0, math.pi, n)
    else:
        drawn = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(0.0, math.pi, n - 2)
        s = np.concatenate([[0.0], np.sort(drawn), [math.pi]])
    phi = np.sin(s) * (1.0 + draw(st.floats(0.0, 0.3)) * np.sin(s) ** 2)
    phi[0] = phi[-1] = 0.0
    samples = np.column_stack([s, phi])
    return {"type": "profile", "samples": samples, "m_start": 1, "m_end": 1}, math.pi, True


@st.composite
def fields(draw, length, periodic, positive):
    """A constant or a sampled field on [0, length], as a model dict."""
    mag = draw(magnitudes)
    sign = 1.0 if positive else draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        if draw(st.integers(0, 9)) == 0:  # an integer past DBL_MAX, which json.load reads as an int
            return {"type": "constant", "value": int(sign) * 10 ** draw(st.integers(309, 400))}
        return {"type": "constant", "value": sign * mag}
    n = draw(st.integers(5, 65))
    s = np.linspace(0.0, length, n)
    wave = np.cos((2.0 if periodic else 1.0) * math.pi * s / length)
    offset = draw(st.floats(1.5, 3.0)) if positive else draw(st.floats(-1.5, 1.5))
    return {"type": "samples", "values": sign * mag * (offset + wave)}


@st.composite
def models(draw):
    """A model file written in units c: lengths times c, ell times c and F
    over c^2 (a weighted quotient keeps its own units)."""
    base, length, scales = draw(bases())
    periodic = base["type"] == "flat_torus"
    ell = draw(fields(length, periodic, positive=True))
    if base["type"] == "wps" and draw(st.booleans()):
        F = {"type": "wps"}
    else:
        F = draw(fields(length, periodic, positive=False))
    c = draw(units) if scales else 1.0
    base = dict(base)
    for key in ("radius", "length"):
        if key in base:
            base[key] = base[key] * c
    if "samples" in base:
        base["samples"] = base["samples"] * c
    for field, power in ((ell, 1), (F, -2)):
        if isinstance(field.get("value"), float):
            field["value"] = field["value"] * c**power
        if "values" in field:
            with np.errstate(over="ignore"):  # past DBL_MAX: Infinity in the file, refused
                field["values"] = field["values"] * c**power
    model = {"base": base, "ell": ell, "F": F}
    return json.loads(json.dumps(model, default=lambda a: a.tolist()))


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(model=models(), command=st.sampled_from(COMMANDS))
# a sphere whose density phi passes 1, with an F whose (sqrt2 |F|)^3 is
# finite at every node but overflows in its product with phi
@example(
    model={"base": {"type": "round_sphere", "radius": 10.0},
           "ell": {"type": "constant", "value": 1.0}, "F": {"type": "constant", "value": 3e102}},
    command=["bound"],
)
def test_every_model_command_keeps_the_exit_code_contract(tmp_path_factory, model, command):
    tmp = tmp_path_factory.mktemp("model")
    path, out = tmp / "model.json", tmp / "report.json"
    path.write_text(json.dumps(model))
    _keeps_the_contract([command[0], "--model", str(path), *command[1:]], out)


@settings(derandomize=True, max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m1=weights, m2=weights, command=st.sampled_from(PAIR_COMMANDS))
def test_every_weighted_pair_command_keeps_the_exit_code_contract(
    tmp_path_factory, m1, m2, command
):
    out = tmp_path_factory.mktemp("pair") / "report.json"
    _keeps_the_contract([*command, "--m1", str(m1), "--m2", str(m2)], out)


# every double, NaN and the infinities included, and every order of magnitude
doubles = (st.sampled_from([math.nan, math.inf, -math.inf, 0.0]) | st.floats()
           | magnitudes | magnitudes.map(lambda x: -x))
# an argument-only form whose numbers leave the doubles, and its exit code
ARGUMENT_CASES = [
    (["bound", "--chi", "nan", "--c1", "1"], 2),
    (["bound", "--chi", "inf", "--c1", "1"], 2),
    (["bound", "--chi", "1", "--c1", "nan"], 2),
    (["bound", "--chi", "1e300", "--c1", "1e-300"], 3),  # chi / sqrt(c1) is inf
    (["bound", "--chi", "1e300", "--c1", "1"], 3),  # its 4/3 power passes DBL_MAX
    (["bound", "--chi", "1e-320", "--c1", "1"], 3),  # the positive bound underflows to 0
    (["bound", "--hebey-vaugon", "--n", "3", "--k", str(10**400)], 2),
    (["scan", "--model", "{model}", "--ell", "scan:0.5:1e300:4"], 3),
    (["functional", "--model", "{model}", "--ell", "nan"], 2),
    (["functional", "--model", "{model}", "--ell", "inf"], 2),
    (["scan", "--model", "{model}", "--ell", "scan:nan:1:4"], 2),
    (["scan", "--model", "{model}", "--ell", "scan:0.5:inf:4"], 2),
    (["scan", "--model", "{model}", "--ell", "scan:1:2e115:4"], 3),  # ell^{8/3} |Omega|_2^2 is inf
]
SPHERE = {"base": {"type": "round_sphere", "radius": 0.5},
          "ell": {"type": "constant", "value": 1.0}, "F": {"type": "constant", "value": 2.0}}


@pytest.mark.parametrize("argv, code", ARGUMENT_CASES)
def test_arguments_past_the_doubles_exit_2_or_3(tmp_path, argv, code):
    model = tmp_path / "sphere.json"
    model.write_text(json.dumps(SPHERE))
    argv = [a.replace("{model}", str(model)) for a in argv]
    assert _keeps_the_contract(argv, tmp_path / "report.json") == code


def test_a_closed_form_out_of_scale_is_named_by_its_value(tmp_path, capsys):
    # J at ell = 2e115 is a finite power times |Omega|_2^2 = 8 pi, which goes
    # to -inf, and at 4e115 the power itself passes DBL_MAX: one rule, one message
    model = tmp_path / "sphere.json"
    model.write_text(json.dumps(SPHERE))
    for hi in ("2e115", "4e115"):
        assert cli.main(["scan", "--model", str(model), "--ell", f"scan:1:{hi}:4"]) == 3
        out, err = capsys.readouterr()
        message = f"numerical failure: J at ell = {float(hi)!r} leaves the doubles: out of scale\n"
        assert (out, err) == ("", message)
    assert cli.main(["bound", "--chi", "1e-320", "--c1", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numerical failure: the topological bound at chi = 1e-320, c1 = 1.0 "
                   "underflowed to 0: out of scale\n")


def test_a_base_whose_area_underflows_exits_3(tmp_path):
    # 4 pi R^2 at R = 1e-170 is 0: J over it in a scan, and the uniformized
    # constant 2 pi chi / vol in laplace, divided by it (ZeroDivisionError,
    # exit 1, before they were judged on their value)
    model = tmp_path / "vanishing.json"
    model.write_text(json.dumps(dict(SPHERE, base={"type": "round_sphere", "radius": 1e-170})))
    for argv in (["scan", "--model", str(model), "--ell", "scan:0.5:4:4"],
                 ["laplace", "--model", str(model)]):
        assert _keeps_the_contract(argv, tmp_path / "report.json") == 3


def test_the_orbit_count_bound_is_a_double_wherever_sigma_is(tmp_path):
    # Gamma(200.5) overflows, but sigma(S^400) = 6826.53... is a double
    out = tmp_path / "report.json"
    assert _keeps_the_contract(["bound", "--hebey-vaugon", "--n", "400", "--k", "1"], out) == 0
    (bound,) = json.loads(out.read_text())["bounds"]
    assert bound["value"] == pytest.approx(6826.5342472093261, rel=1e-12, abs=0.0)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(chi=doubles, c1=doubles)
def test_every_topological_pair_keeps_the_exit_code_contract(tmp_path_factory, chi, c1):
    out = tmp_path_factory.mktemp("pair") / "report.json"
    _keeps_the_contract(["bound", f"--chi={chi!r}", f"--c1={c1!r}"], out)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(n=st.integers(-2, 1000) | weights, k=weights | st.integers(-5, 0) | st.just("inf"))
def test_every_orbit_count_keeps_the_exit_code_contract(tmp_path_factory, n, k):
    out = tmp_path_factory.mktemp("orbit") / "report.json"
    _keeps_the_contract(["bound", "--hebey-vaugon", f"--n={n}", f"--k={k}"], out)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(lo=doubles, hi=doubles, n=st.integers(1, 12), scan=st.booleans(),
       kind=st.sampled_from(["sphere", "flat_torus"]))
def test_every_fiber_length_keeps_the_exit_code_contract(tmp_path_factory, lo, hi, n, scan, kind):
    tmp = tmp_path_factory.mktemp("ell")
    model = SPHERE if kind == "sphere" else dict(
        SPHERE, base={"type": "flat_torus", "length": 1.0, "radius": 1.0})
    (tmp / "model.json").write_text(json.dumps(model))
    ell = f"scan:{lo!r}:{hi!r}:{n}" if scan else repr(lo)
    _keeps_the_contract(["functional", "--model", str(tmp / "model.json"), f"--ell={ell}"],
                        tmp / "report.json")


def _keeps_the_contract(argv, out):
    argv = [*argv, "--out", str(out)]
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a fractional Chern number, say
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    assert time.perf_counter() - started <= WALL_BUDGET_S, argv
    assert code in (0, 2, 3, 4), argv
    if code == 0:
        json.loads(out.read_text(), parse_constant=_reject)
    else:
        assert not out.exists(), argv
    return code
