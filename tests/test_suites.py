"""Suite driver: shared deformations and refusal of non-finite residuals."""

import numpy as np
import pytest

from acmsolitons import suites
from acmsolitons.cli import main
from acmsolitons.config import _BUILTINS, builtin_config, load_config_text
from acmsolitons.suites import SuiteError, run_suites
from acmsolitons.tensor import StructureError

# kenmotsu3 plus a field B whose components are inf - inf = nan once
# exp(300 z)^2 overflows (z > 1.19 or so)
NAN_FIELD = """
[manifold]
name = kenmotsu3-nan
coordinates = x, y, z
constraints = z - 1
g_x_x = exp(2*z)
g_y_y = exp(2*z)
g_z_z = 1

[structure]
phi_y_x = 1
phi_x_y = -1
xi = 0, 0, 1

[scalars]
f = exp(z)

[vectors]
B = 0, 0, exp(300*z)*exp(300*z) - exp(300*z)*exp(300*z)
V = 0, 0, exp(z)/a^2
W = 1, 0, 0

[run]
seed = 42
points = 4
box_z = 1.05, 2.2
suites = section2-identities
"""


class TestNonFiniteResidual:
    def test_run_refuses_nan_divergence(self):
        with pytest.raises(SuiteError) as info:
            run_suites(load_config_text(NAN_FIELD))
        message = str(info.value)
        assert "suite section2-identities" in message
        assert "check section2/divergence[a=0.5]" in message
        assert "residual nan at sample {'x': " in message

    def test_cli_exits_2_and_writes_no_report(self, tmp_path, capsys):
        path = tmp_path / "nan.ini"
        path.write_text(NAN_FIELD, encoding="utf-8")
        report = tmp_path / "report.json"
        rc = main(["--config", str(path), "--report", str(report)])
        assert rc == 2
        assert "section2/divergence" in capsys.readouterr().err
        assert not report.exists()


# a domain constraint that is undefined on half of the sampling box: log(x)
# needs x > 0, and box_x keeps the default (-1, 1)
LOG_DOMAIN = """
[manifold]
name = log-domain
coordinates = x, y, z
constraints = log(x)
g_x_x = 1
g_y_y = 1
g_z_z = 1
"""


def _first_candidate_outside_log_domain(seed=42):
    """The first candidate of the sequential rejection sampler with x <= 0."""
    rng = np.random.default_rng(seed)
    while True:
        draw = rng.uniform(np.full(3, -1.0), np.full(3, 1.0))
        if draw[0] <= 0.0:
            return dict(zip(("x", "y", "z"), map(float, draw)))


# two constraints: log(x + 0.9) is undefined only for x <= -0.9, and log(y)
# is reached only where log(x + 0.9) > 0, i.e. x > 0.1
TWO_CONSTRAINTS = LOG_DOMAIN.replace(
    "constraints = log(x)", "constraints = log(x + 0.9); log(y)"
)


def _first_candidate_outside_two_constraints(seed=42):
    """The first candidate the one-at-a-time sampler cannot test."""
    rng = np.random.default_rng(seed)
    while True:
        x, y, z = rng.uniform(np.full(3, -1.0), np.full(3, 1.0))
        if x <= -0.9 or (x > 0.1 and y <= 0.0):
            return {"x": float(x), "y": float(y), "z": float(z)}


class TestSamplingDomainError:
    def test_run_names_fixture_constraint_and_sample(self):
        with pytest.raises(StructureError) as info:
            run_suites(load_config_text(LOG_DOMAIN))
        message = str(info.value)
        assert "log-domain" in message
        assert "'log(x)'" in message
        assert f"at sample {_first_candidate_outside_log_domain()}" in message

    def test_earliest_sample_over_two_constraints(self):
        # the second constraint fails at an earlier candidate than the first
        expected = _first_candidate_outside_two_constraints()
        assert expected["x"] > 0.1
        with pytest.raises(StructureError) as info:
            run_suites(load_config_text(TWO_CONSTRAINTS))
        message = str(info.value)
        assert "'log(y)'" in message
        assert f"at sample {expected}" in message

    def test_cli_exits_2(self, tmp_path, capsys):
        path = tmp_path / "log.ini"
        path.write_text(LOG_DOMAIN, encoding="utf-8")
        rc = main(["--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert "log(x)" in err and "log-domain" in err


class TestSharedDeformations:
    @pytest.mark.parametrize("grid, built", [
        ((0.5, 1.0, 2.0, 3.7), [0.5, 1.0, 2.0, 3.7]),
        ((1.0, 3.0), [1.0, 3.0]),  # remark23's probe a = 2 needs no deformation
    ])
    def test_one_deformation_per_parameter(self, monkeypatch, grid, built):
        calls = []
        real = suites.deform

        def counting(structure, a):
            calls.extend(a)
            return real(structure, a)

        monkeypatch.setattr(suites, "deform", counting)
        config = builtin_config("kenmotsu3")
        config.points = 2
        config.a_grid = grid
        checks = run_suites(config)
        assert all(c.passed for c in checks)
        assert sorted(calls) == built



def test_constant_potential_leaves_no_check_vacuous():
    # kenmotsu3 runs exp(z), whose orthogonal and harmonic branches have no
    # sample to check; kenmotsu3-trivial runs the constant c = 1, which
    # earns every one of them a claim
    vacuous = "no claim checked"
    base = run_suites(builtin_config("kenmotsu3"))
    assert any(vacuous in (c.detail or "") for c in base)
    checks = run_suites(builtin_config("kenmotsu3-trivial"))
    assert [c.check_id for c in checks] == [c.check_id for c in base]
    assert all(c.passed for c in checks)
    assert [c.check_id for c in checks if vacuous in (c.detail or "")] == []


def test_seven_dimensional_chart_passes_every_suite(kenmotsu7):
    # the n = 3 chart runs its (0,4) kernels at d = 7, 21 pair rows
    checks = run_suites(kenmotsu7)
    assert kenmotsu7.points == 16
    assert {c.check_id.split("/")[0] for c in checks} == {
        "acm", "kenmotsu", "section2", "prop22", "remark23",
        "riemann-soliton", "ricci-soliton", "inequality",
    }
    assert len(checks) == 233
    assert [c.check_id for c in checks if not c.passed] == []


def test_harmonic_transfer_reads_f_on_the_base_frame():
    # f = x + (a - 1) exp(z) is f = x, harmonic, on the base frame a = 1;
    # remark23 reads Lap f, xi(f) and xi(xi(f)) there and takes Lap_bar of
    # that same f at its probe a, so the check applies, and x stays
    # harmonic, as xi(x) = 0
    text = _BUILTINS["kenmotsu3"].replace("f = exp(z)", "f = x + (a - 1)*exp(z)")
    config = load_config_text(text, source="tests:kenmotsu3-a-scalar")
    config.points = 16
    config.suites = ("remark23",)
    [check] = [c for c in run_suites(config)
               if c.check_id == "remark23/harmonic-transfer"]
    assert check.passed
    assert check.detail.startswith("max |Lap_bar f| = 0.000e+00 at a = 2;")
