"""Config parsing, validation errors, CLI exit codes and reports."""

import json
import re
from pathlib import Path

import pytest

from acmsolitons.cli import main
from acmsolitons.config import (
    _BUILTINS,
    ALL_SUITES,
    ConfigError,
    builtin_config,
    builtin_names,
    load_config,
    load_config_text,
)
from acmsolitons.expr import Const
from acmsolitons.geometry import sample_batch
from acmsolitons.suites import build_report, run_suites
from acmsolitons.tensor import StructureError

PERFBENCH_FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"

MINIMAL = """
[manifold]
name = demo
coordinates = x, y, z
g_x_x = 1
g_y_y = 1
g_z_z = 1
"""

STRUCTURED = MINIMAL + """
[structure]
xi = 0, 0, 1
phi_y_x = 1
phi_x_y = -1
"""


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == (
            "euclidean3", "kenmotsu3", "kenmotsu3-hyp-soliton",
            "kenmotsu3-sph", "kenmotsu3-sph-soliton", "kenmotsu3-trivial",
            "kenmotsu3-wide", "kenmotsu5-gh", "sphere2",
        )
        # each definition file names the fixture it is loaded as
        for name in builtin_names():
            assert builtin_config(name).name == name

    def test_kenmotsu5_gh_metric_is_not_diagonal(self):
        cfg = builtin_config("kenmotsu5-gh")
        coords = cfg.manifold.coords
        assert coords == ("x1", "x2", "x3", "tau", "z")
        i, j = coords.index("x2"), coords.index("tau")
        entry = cfg.manifold.metric[i][j]
        assert entry == cfg.manifold.metric[j][i]
        assert entry != Const(0.0)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            builtin_config("nope")

    def test_fresh_objects(self):
        one = builtin_config("kenmotsu3")
        one.a_grid = (9.0,)
        assert builtin_config("kenmotsu3").a_grid == (0.5, 1.0, 2.0, 3.7)

    def test_kenmotsu3_shape(self):
        cfg = builtin_config("kenmotsu3")
        assert cfg.manifold.coords == ("x", "y", "z")
        assert sorted(c.name for c in cfg.candidates) == [
            "ricci-grad", "ricci-vector", "riemann-grad", "riemann-vector"
        ]
        assert cfg.suites == ALL_SUITES
        assert cfg.scalar is cfg.scalars["f"]
        assert cfg.box["z"] == (1.05, 2.2)


class TestConfigErrors:
    def test_missing_manifold(self):
        with pytest.raises(ConfigError, match=r"missing \[manifold\]"):
            load_config_text("[run]\nseed = 1\n")

    def test_missing_coordinates(self):
        with pytest.raises(ConfigError, match="coordinates"):
            load_config_text("[manifold]\nname = m\n")

    def test_duplicate_coordinates(self):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config_text(
                "[manifold]\nname = m\ncoordinates = x, x\ng_x_x = 1\n"
            )

    @pytest.mark.parametrize("bad", ["a", "pi", "e"])
    def test_reserved_coordinate(self, bad):
        with pytest.raises(ConfigError, match="reserved"):
            load_config_text(
                f"[manifold]\nname = m\ncoordinates = {bad}, y\n"
                f"g_{bad}_{bad} = 1\ng_y_y = 1\n"
            )

    def test_underscore_coordinate(self):
        with pytest.raises(ConfigError, match="identifier"):
            load_config_text(
                "[manifold]\nname = m\ncoordinates = x_1, y\n"
            )

    def test_metric_for_unknown_coordinate(self):
        with pytest.raises(ConfigError, match="w"):
            load_config_text(MINIMAL + "g_w_w = 1\n")

    def test_structure_needs_xi(self):
        with pytest.raises(ConfigError, match="xi"):
            load_config_text(MINIMAL + "[structure]\nphi_y_x = 1\n")

    def test_xi_component_count(self):
        with pytest.raises(ConfigError):
            load_config_text(MINIMAL + "[structure]\nxi = 0, 1\n")

    def test_scalar_coordinate_collision(self):
        with pytest.raises(ConfigError, match="collides"):
            load_config_text(MINIMAL + "[scalars]\nx = 1\n")

    def test_scalar_may_read_a(self):
        # scalars are parsed by the rule of vectors and candidate lambdas
        cfg = load_config_text(MINIMAL + "[scalars]\nf = a*x + z\n")
        assert cfg.scalars["f"].reads_a

    @pytest.mark.parametrize("section", [
        "[scalars]\nf = b*x\n", "[vectors]\nV = b, 0, 0\n",
    ])
    def test_field_with_undeclared_identifier(self, section):
        with pytest.raises(ConfigError, match="unknown identifier 'b'"):
            load_config_text(MINIMAL + section)

    def test_metric_may_not_read_a(self):
        with pytest.raises(ConfigError, match="unknown identifier 'a'"):
            load_config_text(MINIMAL.replace("g_z_z = 1", "g_z_z = a"))

    def test_vector_component_count(self):
        with pytest.raises(ConfigError, match="3 components"):
            load_config_text(MINIMAL + "[vectors]\nV = 1, 2\n")

    def test_candidate_unknown_scalar(self):
        with pytest.raises(
            ConfigError, match="references unknown scalar 'h'"
        ):
            load_config_text(
                STRUCTURED + "[candidates]\nc = ricci, grad h, 1\n"
            )

    def test_candidate_unknown_vector(self):
        with pytest.raises(ConfigError, match="unknown vector 'Q'"):
            load_config_text(
                STRUCTURED + "[candidates]\nc = ricci, vector Q, 1\n"
            )

    def test_candidate_unknown_kind(self):
        with pytest.raises(ConfigError, match="weird"):
            load_config_text(
                STRUCTURED + "[candidates]\nc = weird, reeb, 1\n"
            )

    def test_candidate_bad_potential(self):
        with pytest.raises(ConfigError, match="potential"):
            load_config_text(
                STRUCTURED + "[candidates]\nc = ricci, slide, 1\n"
            )

    def test_candidates_need_structure(self):
        with pytest.raises(ConfigError, match=r"\[structure\]"):
            load_config_text(
                MINIMAL + "[candidates]\nc = ricci, reeb, 1\n"
            )

    def test_negative_deformation_parameter(self):
        with pytest.raises(
            ConfigError, match="must be positive and finite, got -1"
        ):
            load_config_text(MINIMAL + "[run]\na = 0.5, -1\n")

    def test_tolerance_entry_refused(self):
        # every check takes its claim's tolerance; [run] sets none
        with pytest.raises(
            ConfigError, match=r"unknown \[run\] entries: tol_kenmotsu"
        ):
            load_config_text(MINIMAL + "[run]\ntol_kenmotsu = 1e-6\n")

    def test_zero_points(self):
        with pytest.raises(ConfigError, match="positive"):
            load_config_text(MINIMAL + "[run]\npoints = 0\n")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            load_config_text(MINIMAL + "[run]\nseed = -1\n")

    def test_zero_seed_accepted(self):
        assert load_config_text(MINIMAL + "[run]\nseed = 0\n").seed == 0

    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            load_config_text(MINIMAL + "[run]\nsuites = kenmotsu, frobnicate\n")

    def test_unknown_run_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            load_config_text(MINIMAL + "[run]\nbogus = 1\n")

    def test_bad_box(self):
        with pytest.raises(ConfigError, match="low < high"):
            load_config_text(MINIMAL + "[run]\nbox_x = 2, 1\n")

    def test_box_unknown_coordinate(self):
        with pytest.raises(ConfigError, match="box_w"):
            load_config_text(MINIMAL + "[run]\nbox_w = 0, 1\n")

    @pytest.mark.parametrize("text", ["", " , ,"])
    def test_empty_suite_list(self, text):
        with pytest.raises(ConfigError,
                           match=r"\[run\] suites: must name at least one"):
            load_config_text(MINIMAL + f"[run]\nsuites = {text}\n")

    def test_repeated_suite(self):
        with pytest.raises(ConfigError,
                           match=r"\[run\] suites: suite 'kenmotsu' is named twice"):
            load_config_text(
                MINIMAL + "[run]\nsuites = kenmotsu, acm-axioms, kenmotsu\n"
            )

    @pytest.mark.parametrize("box", ["1.05, inf", "-inf, 2", "nan, 1"])
    def test_non_finite_box(self, box):
        with pytest.raises(ConfigError, match=r"\[run\] box_z must be finite"):
            load_config_text(MINIMAL + f"[run]\nbox_z = {box}\n")

    def test_overflowing_box_is_refused_at_sampling(self):
        cfg = load_config_text(MINIMAL + "[run]\nbox_z = -1e308, 1e308\n")
        with pytest.raises(StructureError,
                           match="sampling box of demo is too wide in z"):
            sample_batch(cfg.manifold, cfg.box, cfg.points, cfg.seed)

    def test_parse_error_carries_location(self):
        with pytest.raises(ConfigError, match="scalar f"):
            load_config_text(MINIMAL + "[scalars]\nf = exp(\n")

    def test_run_scalar_must_exist(self):
        with pytest.raises(ConfigError, match="scalar"):
            load_config_text(MINIMAL + "[run]\nscalar = f\n")


class TestReader:
    """The definition-file reader refuses what configparser refuses, and
    [DEFAULT], naming the source and the line."""

    @pytest.mark.parametrize("text, line, what", [
        ("# demo\nname = demo\n" + MINIMAL, 2, "no section header before it"),
        (MINIMAL + "[manifold]\n", 8, r"repeated section \[manifold\]"),
        (MINIMAL + "g_x_x = 2\n", 8, "repeated key 'g_x_x'"),
        (MINIMAL + "g_x_y 0\n", 8, "'g_x_y 0' is not 'key = value'"),
        (MINIMAL + "= 0\n", 8, "empty key"),
        ("[DEFAULT]\npoints = 8\n" + MINIMAL, 1, r"no \[DEFAULT\] section"),
    ], ids=["before-header", "section", "key", "no-equals", "empty-key",
            "default"])
    def test_refused(self, text, line, what):
        with pytest.raises(ConfigError) as err:
            load_config_text(text, source="demo.ini")
        assert re.fullmatch(
            rf"config parse error: demo\.ini line {line}: {what}", str(err.value)
        )

    def test_inline_comment_after_a_value(self):
        cfg = load_config_text(
            MINIMAL + "[scalars]\nf = x + y   # a comment\n"
            "[run]\npoints = 8 # also cut\n"
        )
        assert cfg.scalars["f"].exprs == load_config_text(
            MINIMAL + "[scalars]\nf = x + y\n").scalars["f"].exprs
        assert cfg.points == 8

    def test_hash_without_space_is_not_a_comment(self):
        with pytest.raises(ConfigError, match="scalar f"):
            load_config_text(MINIMAL + "[scalars]\nf = x#y\n")

    def test_indented_lines_continue_a_value(self):
        cfg = load_config_text(MINIMAL + "[run]\na = 0.5,\n\n  # note\n    2\n")
        assert cfg.a_grid == (0.5, 2.0)


class TestCheckIds:
    def test_candidate_named_like_a_suite_key_is_refused(self):
        # a candidate solenoidal-trace beside a vector full gave
        # <kind>-soliton/solenoidal-trace/full[a=...] two claims
        text = (_BUILTINS["kenmotsu3"]
                .replace("ricci-vector", "solenoidal-trace")
                .replace("W = ", "full = "))
        with pytest.raises(ConfigError, match=(
            "k3.ini: candidate 'solenoidal-trace' is named like a key of "
            "the soliton suites"
        )):
            load_config_text(text, source="k3.ini")

    @pytest.mark.parametrize("name", builtin_names() + ("kenmotsu5.ini",))
    def test_every_check_id_is_unique(self, name):
        if name.endswith(".ini"):
            config = load_config(PERFBENCH_FIXTURES / name)
        else:
            config = builtin_config(name)
        config.points = 4
        ids = [c["id"] for c in build_report(config, run_suites(config))["checks"]]
        assert ids
        assert len(set(ids)) == len(ids)


class TestConfigDefaults:
    def test_defaults(self):
        cfg = load_config_text(MINIMAL)
        assert cfg.seed == 42
        assert cfg.points == 64
        assert cfg.a_grid == (0.5, 1.0, 2.0, 3.7)
        assert cfg.suites == ALL_SUITES
        assert cfg.box["x"] == (-1.0, 1.0)
        assert cfg.structure is None
        assert cfg.scalar is None

    def test_scalar_f_picked_up_by_default(self):
        cfg = load_config_text(MINIMAL + "[scalars]\nf = x\n")
        assert cfg.scalar is cfg.scalars["f"]

    def test_suites_subset_preserved_in_order(self):
        cfg = load_config_text(
            MINIMAL + "[run]\nsuites = kenmotsu, acm-axioms\n"
        )
        assert cfg.suites == ("kenmotsu", "acm-axioms")


class TestCliExitCodes:
    def test_builtin_all_pass(self, capsys):
        rc = main(["--builtin", "kenmotsu3", "--points", "6", "--a", "1,2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert "checks passed on kenmotsu3" in out

    def test_non_kenmotsu_structure_fails(self, capsys):
        rc = main(["--builtin", "euclidean3", "--points", "6"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL kenmotsu/" in out
        assert "kenmotsu-gate" in out

    def test_no_structure_fails(self, capsys):
        rc = main(["--builtin", "sphere2", "--points", "6"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "requires-structure" in out

    def test_unreadable_config(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "missing.ini")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_report(self, tmp_path, capsys, where):
        # the run completes, so exit 1 would read as a failed check
        path = tmp_path / "no" / "r.json" if where == "missing-dir" else tmp_path
        rc = main(["--builtin", "sphere2", "--points", "6",
                   "--report", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot write report {path}: ")

    def test_negative_a_flag(self, capsys):
        rc = main(["--builtin", "kenmotsu3", "--a", "-1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "must be positive and finite, got -1" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_a_flag_refused_before_the_run(self, value, capsys):
        rc = main(["--builtin", "kenmotsu3", "--a", f"1,{value}"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert f"--a: deformation parameter must be positive and finite, " \
               f"got {value}" in err
        assert out == ""

    def test_negative_seed_flag(self, capsys):
        rc = main(["--builtin", "sphere2", "--seed", "-1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--seed must be non-negative" in err

    def test_negative_seed_in_config(self, tmp_path, capsys):
        path = tmp_path / "seed.ini"
        path.write_text(MINIMAL + "[run]\nseed = -1\n", encoding="utf-8")
        rc = main(["--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "seed must be non-negative" in err

    def test_config_error_names_the_symbol(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(
            STRUCTURED + "[candidates]\nc = ricci, grad h, 1\n",
            encoding="utf-8",
        )
        rc = main(["--config", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "'h'" in err

    def test_unknown_suite_flag(self, capsys):
        rc = main(["--builtin", "kenmotsu3", "--suites", "frobnicate"])
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("", "--suites: must name at least one suite"),
        (" , ", "--suites: must name at least one suite"),
        ("kenmotsu,kenmotsu", "--suites: suite 'kenmotsu' is named twice"),
    ])
    def test_bad_suite_list_flag(self, flag, message, capsys):
        rc = main(["--builtin", "kenmotsu3", "--suites", flag])
        out, err = capsys.readouterr()
        assert rc == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("box, message", [
        ("1.05, inf", "[run] box_z must be finite"),
        ("-inf, 2", "[run] box_z must be finite"),
        ("-1e308, 1e308", "sampling box of kenmotsu3 is too wide in z"),
    ])
    def test_bad_box_exits_2(self, box, message, tmp_path, capsys):
        text = _BUILTINS["kenmotsu3"]
        assert "box_z = 1.05, 2.2" in text
        path = tmp_path / "box.ini"
        path.write_text(text.replace("box_z = 1.05, 2.2", f"box_z = {box}"),
                        encoding="utf-8")
        rc = main(["--config", str(path), "--quiet"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""

    def test_tol_override_flag_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--builtin", "euclidean3", "--tol-override", "kenmotsu=10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol-override" \
            in capsys.readouterr().err


class TestCliReports:
    def test_schema(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        rc = main([
            "--builtin", "kenmotsu3", "--points", "6", "--a", "1,2",
            "--report", str(path), "--quiet",
        ])
        capsys.readouterr()
        assert rc == 0
        report = json.loads(path.read_text(encoding="utf-8"))
        assert set(report) == {
            "fixture", "version", "seed", "points", "a_grid", "suites",
            "all_pass", "checks",
        }
        assert report["fixture"] == "kenmotsu3"
        assert report["all_pass"] is True
        assert report["a_grid"] == [1.0, 2.0]
        assert report["points"] == 6
        assert report["suites"] == list(ALL_SUITES)
        ids = [c["id"] for c in report["checks"]]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        for c in report["checks"]:
            assert {"id", "anchor", "points", "max_residual",
                    "tolerance", "pass"} <= set(c)
            assert c["pass"] is True

    def test_reports_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            rc = main([
                "--builtin", "kenmotsu3", "--points", "8",
                "--report", str(p), "--quiet",
            ])
            assert rc == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_quiet_suppresses_check_lines(self, capsys):
        rc = main(["--builtin", "kenmotsu3", "--points", "4", "--a", "1",
                   "--suites", "acm-axioms", "--quiet"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" not in out
        assert "checks passed" in out

    def test_suites_flag_restricts_report(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        rc = main([
            "--builtin", "kenmotsu3", "--points", "4", "--a", "2",
            "--suites", "riemann-solitons", "--report", str(path), "--quiet",
        ])
        capsys.readouterr()
        assert rc == 0
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["suites"] == ["riemann-solitons"]
        assert report["checks"]
        assert all(
            c["id"].startswith("riemann-soliton/") for c in report["checks"]
        )

    def test_seed_changes_samples_but_not_verdict(self, capsys):
        rc1 = main(["--builtin", "kenmotsu3", "--points", "6", "--a", "2",
                    "--seed", "7", "--quiet"])
        rc2 = main(["--builtin", "kenmotsu3", "--points", "6", "--a", "2",
                    "--seed", "8", "--quiet"])
        capsys.readouterr()
        assert rc1 == rc2 == 0

    def test_wrong_lambda_fails_with_large_residual(self, tmp_path, capsys):
        cfg = tmp_path / "wrong.ini"
        cfg.write_text(
            """
[manifold]
name = wrong-lambda
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

[candidates]
bad = ricci, grad f, exp(z)

[run]
points = 6
a = 1
suites = ricci-solitons
box_z = 1.05, 2.2
""",
            encoding="utf-8",
        )
        path = tmp_path / "r.json"
        rc = main(["--config", str(cfg), "--report", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL ricci-soliton/bad/full" in out
        report = json.loads(path.read_text(encoding="utf-8"))
        fails = [c for c in report["checks"] if not c["pass"]]
        assert fails
        full = next(
            c for c in report["checks"] if c["id"] == "ricci-soliton/bad/full"
        )
        assert full["max_residual"] >= 1.0

    def test_euclidean_report_is_well_formed(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        rc = main(["--builtin", "euclidean3", "--points", "6",
                   "--report", str(path), "--quiet"])
        capsys.readouterr()
        assert rc == 1
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["all_pass"] is False
        gate_ids = {
            c["id"] for c in report["checks"] if c["id"].endswith("kenmotsu-gate")
        }
        assert gate_ids == {
            "inequalities/kenmotsu-gate",
            "prop22-norms/kenmotsu-gate",
            "remark23/kenmotsu-gate",
            "ricci-solitons/kenmotsu-gate",
            "riemann-solitons/kenmotsu-gate",
            "section2-identities/kenmotsu-gate",
        }
        acm = [c for c in report["checks"] if c["id"].startswith("acm/")]
        assert acm and all(c["pass"] for c in acm)
