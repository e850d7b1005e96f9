"""Suite driver: shared deformations and refusal of non-finite residuals."""

import pytest

from acmsolitons import suites
from acmsolitons.cli import main
from acmsolitons.config import builtin_config, load_config_text
from acmsolitons.suites import SuiteError, run_suites

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


class TestSharedDeformations:
    @pytest.mark.parametrize("grid, built", [
        ((0.5, 1.0, 2.0, 3.7), [0.5, 1.0, 2.0, 3.7]),
        ((1.0, 3.0), [1.0, 2.0, 3.0]),  # remark23 adds its probe a = 2
    ])
    def test_one_deformation_per_parameter(self, monkeypatch, grid, built):
        calls = []
        real = suites.deform

        def counting(structure, a):
            calls.append(a)
            return real(structure, a)

        monkeypatch.setattr(suites, "deform", counting)
        config = builtin_config("kenmotsu3")
        config.points = 2
        config.a_grid = grid
        checks = run_suites(config)
        assert all(c.passed for c in checks)
        assert sorted(calls) == built

