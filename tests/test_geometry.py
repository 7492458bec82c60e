import json
import subprocess
import sys

import numpy as np
import pytest

from neckflow.fields import keller_field, keller_x1_deriv
from neckflow.geometry import NeckProfile, ProfileFn, named_profile, profile_from_json


def sym(eps=0.01):
    return named_profile("sym-quadratic", eps=eps)


def asym(eps=0.01):
    return named_profile("asym-quadratic", eps=eps)


def keller(p, x1, x2):
    """The normalized vertical coordinate k as the constructions build it."""
    return keller_field(p).eval(x1, x2)


def keller_grad(p, x1, x2):
    """dk/dx1 and dk/dx2 as the constructions build them."""
    return keller_x1_deriv(p).eval(x1, x2), keller_field(p).partial_x2().eval(x1, x2)


def test_profile_fn_derivatives_exact():
    h = ProfileFn([0, 0, 0.5, 0, 1.0])  # x^2/2 + x^4
    assert h(2.0) == pytest.approx(2.0 + 16.0)
    assert h.deriv()(2.0) == pytest.approx(2.0 + 32.0)
    assert h.deriv(4)(0.3) == pytest.approx(24.0)
    assert h.deriv(5).degree == -1  # identically zero past the degree


def test_delta_values():
    assert sym().delta(0.0) == pytest.approx(0.01, abs=1e-15)
    assert sym().delta(0.1) == pytest.approx(0.02, abs=1e-15)
    p = NeckProfile(eps=0.01, h1=ProfileFn([0, 0, 1.0]), h2=ProfileFn([]))
    assert p.delta(0.2) == pytest.approx(0.05, abs=1e-15)


def test_keller_wall_values_and_midline():
    p = asym()
    x1 = np.linspace(-1.0, 1.0, 41)
    top = keller(p, x1, p.top(x1))
    bot = keller(p, x1, p.bottom(x1))
    assert np.max(np.abs(top - 0.5)) < 1e-12
    assert np.max(np.abs(bot + 0.5)) < 1e-12
    mid = 0.5 * (p.h1(x1) - p.h2(x1))
    assert np.max(np.abs(keller(p, x1, mid))) < 1e-12


def test_keller_symmetric_quarter_gap():
    p = sym()
    assert keller(p, 0.0, p.eps / 4) == pytest.approx(0.25)


def test_keller_grad_closed_form_values():
    p = sym()
    gx1, gx2 = keller_grad(p, 0.0, 0.001)
    assert gx1 == pytest.approx(0.0, abs=1e-15)   # h'(0) = 0
    p2 = sym(eps=0.01)
    _, g2 = keller_grad(p2, 0.1, 0.0)             # delta = 0.02 there
    assert g2 == pytest.approx(50.0)


def test_keller_grad_matches_finite_difference(rng):
    p = NeckProfile(eps=0.01, h1=ProfileFn([0, 0, 1.0]), h2=ProfileFn([]))
    gx1, _ = keller_grad(p, 0.1, 0.0)
    h = 1e-6
    fd = (keller(p, 0.1 + h, 0.0) - keller(p, 0.1 - h, 0.0)) / (2 * h)
    assert gx1 == pytest.approx(fd, rel=1e-6)


def test_keller_grad_fd_property(rng):
    # 1e3 random interior points, relative error < 1e-6 with step 1e-6*delta
    for p in (sym(), asym(1e-3)):
        x1 = rng.uniform(-2 * p.R * 0.95, 2 * p.R * 0.95, 1000)
        s = rng.uniform(0.05, 0.95, 1000)
        x2 = p.bottom(x1) + s * (p.top(x1) - p.bottom(x1))
        g1, g2 = keller_grad(p, x1, x2)
        h = 1e-6 * p.delta(x1)
        fd1 = (keller(p, x1 + h, x2) - keller(p, x1 - h, x2)) / (2 * h)
        fd2 = (keller(p, x1, x2 + h) - keller(p, x1, x2 - h)) / (2 * h)
        scale = np.abs(g1) + np.abs(g2)
        assert np.max(np.abs(g1 - fd1) / scale) < 1e-6
        assert np.max(np.abs(g2 - fd2) / scale) < 1e-6


def test_wall_values_of_k_squared():
    p = asym()
    x1 = np.linspace(-1, 1, 1000)
    for x2 in (p.top(x1), p.bottom(x1)):
        k = keller(p, x1, x2)
        assert np.max(np.abs(k * k - 0.25)) < 1e-12


def test_delta_even_for_even_profiles():
    for name in ("sym-quadratic", "asym-quadratic", "sym-quartic"):
        p = named_profile(name, eps=0.01)
        x1 = np.linspace(0, 1, 101)
        assert np.max(np.abs(p.delta(x1) - p.delta(-x1))) < 1e-15


def test_construction_rejects_bad_profiles():
    with pytest.raises(ValueError):
        NeckProfile(eps=0.01, h1=ProfileFn([0.1, 0, 0.5]), h2=ProfileFn([]))  # h(0) != 0
    with pytest.raises(ValueError):
        NeckProfile(eps=0.01, h1=ProfileFn([0, 1.0]), h2=ProfileFn([]))  # h'(0) != 0
    with pytest.raises(ValueError):
        NeckProfile(eps=1e-4, h1=ProfileFn([0, 0, -0.4]), h2=ProfileFn([]))  # gap closes
    with pytest.raises(ValueError):
        NeckProfile(eps=0.01, h1=ProfileFn([0, 0, 0.5]), h2=ProfileFn([]),
                    kappa=2.0)  # claimed convexity too strong


def test_symmetric_flag_and_kappa_validation():
    p = sym()
    assert p.symmetric and p.h1 is p.h2
    assert p.kappa == pytest.approx(1.0, rel=1e-9)
    assert not asym().symmetric


def test_profile_json_round_trip(tmp_path):
    doc = {"eps": 0.01, "R": 0.5, "mu": 2.0,
           "h1": {"poly": [0, 0, 1.0]}, "h2": {"poly": [0, 0, 0.5]}}
    p = profile_from_json(doc)
    assert p.mu == 2.0
    assert p.delta(0.2) == pytest.approx(0.01 + 0.06)
    with pytest.raises(ValueError):
        profile_from_json({"eps": 0.01, "h1": {"poly": [0, 0, 1]}})
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(doc))
    p2 = profile_from_json(json.loads(path.read_text()))
    assert p2.h1 == p.h1


def test_a_non_positive_kappa_is_rejected(tmp_path, capsys):
    # kappa = -5 passed the convexity check (observed -1 >= -5) and gave
    # concave walls, delta(0.9) = 1.19 at eps = 2, that fail only at a
    # smaller eps
    doc = {"eps": 2.0, "kappa": -5, "h1": {"poly": [0, 0, -1.0]}, "h2": {"poly": [0, 0, 0.0]}}
    with pytest.raises(ValueError, match="kappa must be positive"):
        profile_from_json(doc)
    for kappa in (0.0, -5.0):
        with pytest.raises(ValueError, match="kappa must be positive"):
            NeckProfile(eps=0.01, h1=ProfileFn([0, 0, 1.0]), h2=ProfileFn([]), kappa=kappa)
    path = tmp_path / "concave.json"
    path.write_text(json.dumps(doc))
    from neckflow.cli import main
    assert main(["corrector", "build", "--profile", str(path), "--eps", "2.0",
                 "--out", str(tmp_path)]) == 2
    assert "kappa must be positive" in capsys.readouterr().err


def test_a_wall_shape_has_every_positive_eps():
    shape = named_profile("asym-quadratic", eps=None)
    assert shape.eps is None and shape.kappa == asym().kappa
    for read in (shape.eps_or, lambda: shape.delta(0.1), lambda: shape.top(0.1),
                 lambda: shape.bottom(0.1)):
        with pytest.raises(ValueError, match="pass the eps"):
            read()
    assert shape.eps_or(1e-3) == 1e-3 and asym(0.01).eps_or() == 0.01
    with pytest.raises(ValueError):
        named_profile("asym-quadratic", eps=0.0)
    assert profile_from_json({"eps": None, "h1": {"poly": [0, 0, 1.0]},
                              "h2": {"poly": [0, 0, 0.5]}}).eps is None


def test_wall_reads_take_a_list_of_eps():
    # top and bottom divided the eps as given, so a list raised TypeError
    shape = named_profile("sym-quadratic", None)
    x, eps = np.array([0.1, 0.2]), [1e-3, 2e-3]
    for read in (shape.delta, shape.top, shape.bottom):
        assert read(x, eps).tobytes() == read(x, np.array(eps)).tobytes()


def test_non_finite_profile_fields_are_rejected(tmp_path, capsys):
    # JSON reads 1e999 as inf: "R": 1e999 made corrector build run for
    # minutes, "mu": 1e999 printed nan residual sups and exited 0, and an
    # infinite eps was a valid gap
    doc = {"eps": 0.01, "h1": {"poly": [0, 0, 1.0]}, "h2": {"poly": [0, 0, 0.5]}}
    for key, value in (("R", 1e999), ("mu", 1e999), ("eps", 1e999),
                       ("R", float("nan")), ("mu", float("nan"))):
        with pytest.raises(ValueError, match="positive and finite"):
            profile_from_json({**doc, key: value})
    with pytest.raises(ValueError, match="positive and finite"):
        named_profile("sym-quadratic", eps=float("inf"))
    path = tmp_path / "inf-mu.json"
    path.write_text(json.dumps(doc)[:-1] + ', "mu": 1e999}')
    from neckflow.cli import main
    assert main(["corrector", "build", "--profile", str(path), "--eps", "1e-2",
                 "--m", "0", "--out", str(tmp_path)]) == 2
    assert "positive and finite" in capsys.readouterr().err


def test_non_finite_wall_coefficients_are_rejected(tmp_path, src_env):
    # every comparison in _validate is false on NaN, so a NaN wall loaded
    # with kappa = nan and corrector build on it never ended
    for h1 in ([0, 0, float("nan")], [0, 0, float("inf")], [0, 0, 1.0, float("nan")]):
        with pytest.raises(ValueError, match="wall coefficients must be finite"):
            NeckProfile(eps=0.01, h1=ProfileFn(h1), h2=ProfileFn([0, 0, 0.5]))
    path = tmp_path / "nan-wall.json"  # JSON as Python writes and reads it
    path.write_text('{"h1": {"poly": [0, 0, NaN]}, "h2": {"poly": [0, 0, 0.5]}}')
    out = subprocess.run(
        [sys.executable, "-m", "neckflow.cli", "corrector", "build", "--profile",
         str(path), "--eps", "1e-2", "--m", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=src_env)
    assert out.returncode == 2
    assert out.stderr.startswith("config error: profile ")
    assert "wall coefficients must be finite" in out.stderr
