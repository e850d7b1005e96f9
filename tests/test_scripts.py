"""The maintenance scripts under scripts/ run end to end."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from acmsolitons.config import builtin_config, builtin_names, load_config
from acmsolitons.suites import build_report, report_json, run_suites

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_all_checks_keeps_negative_controls_negative():
    proc = _run_script("run_all_checks.py", "--points", "8")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = {
        line.split()[0]: line for line in proc.stdout.splitlines() if line
    }
    assert sorted(verdicts) == sorted(builtin_names())
    for line in verdicts.values():
        assert line.endswith("as intended"), line


def test_run_all_checks_expectations_ignore_the_a_tag():
    spec = importlib.util.spec_from_file_location(
        "run_all_checks", ROOT / "scripts" / "run_all_checks.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert sorted(script.EXPECTED_FAILURES) == sorted(builtin_names())
    gh = "kenmotsu5-gh"
    assert script.expected_to_fail(gh, "riemann-soliton/riemann-grad/full")
    assert script.expected_to_fail(gh, "riemann-soliton/riemann-vector/full[a=2]")
    assert not script.expected_to_fail(gh, "riemann-soliton/riemann-grad/traced[a=2]")
    assert not script.expected_to_fail("kenmotsu3", "riemann-soliton/riemann-grad/full")


@pytest.mark.parametrize("fixture", builtin_names())
def test_determinism_check_passes(fixture):
    proc = _run_script("determinism_check.py", "--fixture", fixture,
                       "--points", "8")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "deterministic: 3 identical reports" in proc.stdout


def test_determinism_check_on_a_definition_file(tmp_path, kenmotsu5_text):
    path = tmp_path / "kenmotsu5.ini"
    path.write_text(kenmotsu5_text, encoding="utf-8")
    proc = _run_script("determinism_check.py", "--config", str(path),
                       "--points", "4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "deterministic: 3 identical reports" in proc.stdout


def test_determinism_check_digests(tmp_path, kenmotsu5_text):
    # one line per fixture and point count, the sha256 of its report
    path = tmp_path / "kenmotsu5.ini"
    path.write_text(kenmotsu5_text, encoding="utf-8")
    proc = _run_script("determinism_check.py", "--digests",
                       "--config", str(path), "--points", "8")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    expected = []
    loaders = [lambda name=name: builtin_config(name) for name in builtin_names()]
    loaders.append(lambda: load_config(str(path)))
    for make in loaders:
        for points in (None, 8):
            config = make()
            if points is not None:
                config.points = points
            text = report_json(build_report(config, run_suites(config)))
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            expected.append(f"{config.name} {config.points} points: sha256 {digest}")
    assert proc.stdout.splitlines() == expected


def _digests(*args) -> dict:
    proc = _run_script("determinism_check.py", "--digests", "--points", "4",
                       *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return dict(line.split(": sha256 ") for line in proc.stdout.splitlines())


def test_determinism_check_digests_at_given_seeds():
    both = _digests("--seed", "1", "--seed", "7")
    again = _digests("--seed", "1")
    own = _digests()
    # a line at each fixture's own seed, then one per --seed
    assert list(both) == [f"{key}{label}" for key in own
                          for label in ("", " seed 1", " seed 7")]
    for key, digest in own.items():
        assert both[key] == digest
        assert both[f"{key} seed 1"] == again[f"{key} seed 1"]
        assert both[f"{key} seed 1"] != both[f"{key} seed 7"]
    assert len(again) == 2 * len(own)


@pytest.mark.parametrize("args, message", [
    (["--seed", "1"], "--seed is only for --digests or --against"),
    (["--digests", "--seed", "-1"], "--seed must be at least 0"),
])
def test_determinism_check_refuses_bad_seeds(args, message):
    proc = _run_script("determinism_check.py", *args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""


def _git(*args):
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None


def _in_git_checkout() -> bool:
    proc = _git("rev-parse", "--verify", "HEAD")
    return proc is not None and proc.returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
def test_determinism_check_against_a_revision():
    proc = _run_script("determinism_check.py", "--against", "HEAD",
                       "--points", "4")
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # one line per fixture and point count, on either side
    assert {line.split()[0] for line in lines} == set(builtin_names())
    assert {line.split()[1] for line in lines} == {"4", "64"}
    for line in lines:
        assert line.endswith((": same", ": differs")) or ": only in " in line
    if _git("status", "--porcelain", "--", "src").stdout == "":
        # src/ is HEAD's, so every report is the same
        assert proc.returncode == 0, proc.stdout
        assert all(line.endswith(": same") for line in lines), proc.stdout


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
def test_determinism_check_against_an_unknown_revision():
    proc = _run_script("determinism_check.py", "--against", "no-such-rev")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "git archive no-such-rev failed" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args, message", [
    (["--digests", "--fixture", "kenmotsu3"], "drop --fixture"),
    (["--config", "a.ini", "--config", "b.ini"], "only with --digests"),
    (["--against", "HEAD", "--fixture", "kenmotsu3"], "drop --fixture"),
])
def test_determinism_check_refuses_mixed_modes(args, message):
    proc = _run_script("determinism_check.py", *args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""


def test_determinism_check_takes_one_source(tmp_path):
    proc = _run_script("determinism_check.py", "--config", "x.ini",
                       "--fixture", "kenmotsu3")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "not allowed with argument" in proc.stderr
    proc = _run_script("determinism_check.py", "--config",
                       str(tmp_path / "missing.ini"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "cannot read config" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("script, args, message", [
    ("run_all_checks.py", ["--points", "0"], "--points must be at least 1"),
    ("determinism_check.py", ["--points", "0"], "--points must be at least 1"),
    ("determinism_check.py", ["--runs", "0"], "--runs must be at least 2"),
    ("determinism_check.py", ["--runs", "1"], "--runs must be at least 2"),
])
def test_bad_counts_are_refused(script, args, message):
    proc = _run_script(script, *args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_mutation_check_kills_the_cheap_mutants():
    # three mutants of the closed forms that kenmotsu3 alone kills
    proc = _run_script("mutation_check.py", "--only", "M04,M05,M09",
                       "--fixtures", "kenmotsu3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "killed 3/3" in proc.stdout
    for mutant in ("M04", "M05", "M09"):
        assert f"{mutant} " in proc.stdout


def test_mutation_list_matches_the_source():
    # each mutant's old text occurs once in its module, and each known
    # survivor says why it survives
    spec = importlib.util.spec_from_file_location(
        "mutation_check", ROOT / "scripts" / "mutation_check.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert [m.id for m in script.MUTANTS] == [f"M{i:02d}" for i in range(1, 17)]
    for m in script.MUTANTS:
        text = (ROOT / "src" / "acmsolitons" / m.module).read_text()
        assert text.count(m.old) == 1, m.id
        assert m.new != m.old, m.id
        assert bool(m.killers) != bool(m.survives), m.id
        assert set(m.killers) <= set(script.FIXTURES), m.id


def test_perf_ab_dry_run():
    # two git archive copies, then one worker run per side and pair, the
    # sides alternating which goes first, each pair at its own seed
    proc = _run_script("perf_ab.py", "HEAD~1", "HEAD", "--pairs", "3",
                       "--seconds", "5", "--seed", "7", "--dry-run")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("git archive HEAD~1 | tar -x -C ")
    assert lines[1].startswith("git archive HEAD | tar -x -C ")
    runs = lines[2:]
    assert [Path(line.split()[1]).name for line in runs] == [
        "base", "change", "change", "base", "base", "change"]
    assert [line.split("--seed ")[1].split()[0] for line in runs] == [
        "7", "7", "8", "8", "9", "9"]
    for line in runs:
        assert ("perfbench/worker.py --workload k5-sweep" in line
                and "--seconds 5 --trace 0" in line), line


def test_perf_ab_dry_run_of_the_working_tree():
    # without CHANGE the change side is a copy of the working tree's
    # files, uncommitted ones included, made outside the checkout
    proc = _run_script("perf_ab.py", "HEAD", "--pairs", "2", "--workload",
                       "k3-dense", "--dry-run")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("git archive HEAD | tar -x -C ")
    assert lines[1].startswith("git ls-files --cached --others "
                               "--exclude-standard | copy into ")
    change = Path(lines[1].split("copy into ")[1])
    assert change.name == "change" and ROOT not in change.parents
    assert [Path(line.split()[1]).name for line in lines[2:]] == [
        "base", "change", "change", "base"]


def _perf_ab():
    spec = importlib.util.spec_from_file_location(
        "perf_ab", ROOT / "scripts" / "perf_ab.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("workload, names", [
    ("k3-dense,controls", ["k3-dense", "controls"]),
    ("all", ["k3-dense", "k5-sweep", "controls"]),
])
def test_perf_ab_dry_run_of_several_workloads(workload, names):
    # every pair runs each workload on both sides, in the pair's order
    proc = _run_script("perf_ab.py", "HEAD~1", "HEAD", "--pairs", "2",
                       "--workload", workload, "--dry-run")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = proc.stdout.splitlines()[2:]
    assert [(Path(line.split()[1]).name,
             line.split("--workload ")[1].split()[0]) for line in runs] == [
        (side, name) for order in (("base", "change"), ("change", "base"))
        for name in names for side in order]


def test_perf_ab_refuses_an_unknown_workload():
    proc = _run_script("perf_ab.py", "HEAD", "--workload", "k3-dense,nope",
                       "--dry-run")
    assert proc.returncode == 2
    assert "unknown workload 'nope'" in proc.stderr


def test_perf_ab_summary_flags_a_change_worse_than_its_bound():
    script = _perf_ab()
    metrics = [
        {"name": "verify_s.p50", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "points_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.2},
        {"name": "absent", "unit": "s", "better": "lower", "bound": 0.2},
    ]
    runs = {
        "base": [{"verify_s.p50": t, "points_per_s": 100.0}
                 for t in (0.010, 0.011, 0.012, 0.013)],
        "change": [{"verify_s.p50": t, "points_per_s": p}
                   for t, p in ((0.009, 79.0), (0.014, 79.0), (0.016, 80.0),
                                (0.015, 101.0))],
    }
    time_line, rate_line = script._summary("w", runs, metrics)
    assert time_line == (
        "w verify_s.p50: base 11.500 ms, change 14.500 ms, change better in "
        "1 of 4 pairs, base interquartile distance 2.500 ms; WORSE by more "
        "than its bound 0.2")
    assert rate_line == (
        "w points_per_s: base 100 1/s, change 79.5 1/s, change better in 1 "
        "of 4 pairs, base interquartile distance 0 1/s; WORSE by more than "
        "its bound 0.2")
    runs["change"] = runs["base"]
    assert not any("WORSE" in line
                   for line in script._summary("w", runs, metrics))


def test_perf_ab_summary_of_one_pair_and_of_ties():
    # one pair has no quartiles, a tie counts for neither side, and a
    # change worse by less than its bound is not flagged
    script = _perf_ab()
    metric = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    one = {"base": [{"setup_s": 0.004}], "change": [{"setup_s": 0.0045}]}
    assert script._summary("w", one, metric) == [
        "w setup_s: base 4.000 ms, change 4.500 ms, change better in 0 of 1 "
        "pairs"]
    tied = {"base": [{"setup_s": 0.004}] * 3,
            "change": [{"setup_s": 0.004}, {"setup_s": 0.003},
                       {"setup_s": 0.004}]}
    assert script._summary("w", tied, metric) == [
        "w setup_s: base 4.000 ms, change 4.000 ms, change better in 1 of 3 "
        "pairs, base interquartile distance 0.000 ms"]


@pytest.mark.parametrize("slower, status", [(1.0, 0), (1.1, 0), (1.5, 3)])
def test_perf_ab_exits_3_when_a_metric_is_worse(monkeypatch, capsys, slower,
                                                 status):
    # fake runs, no subprocess: the change's times are the base's times
    # `slower`, and the bound of verify_s.p50 is 0.2
    script = _perf_ab()
    monkeypatch.setattr(script, "_extract", lambda rev, into: None)
    monkeypatch.setattr(script, "_copy_worktree", lambda into: None)
    seeds = []

    def run(cmd, cwd):
        seed = int(cmd[cmd.index("--seed") + 1])
        seeds.append(seed)
        factor = slower if cwd.name == "change" else 1.0
        return {"verify_s.p50": factor * (0.010 + 1e-4 * seed),
                "points_per_s": 100.0 / factor}

    monkeypatch.setattr(script, "_run", run)
    assert script.main(["HEAD", "--workload", "controls", "--pairs", "4",
                        "--seed", "7"]) == status
    assert seeds == [7, 7, 8, 8, 9, 9, 10, 10]
    summary = capsys.readouterr().out.splitlines()[-2:]
    assert [line.split(":")[0] for line in summary] == [
        "controls verify_s.p50", "controls points_per_s"]
    assert all(("WORSE" in line) == (status == 3) for line in summary)


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
def test_perf_ab_copies_the_working_tree(tmp_path):
    # every file git tracks or would track, as it is on disk, and no file
    # git ignores
    script = _perf_ab()
    script._copy_worktree(tmp_path)
    for name in ("src/acmsolitons/geometry.py", "scripts/perf_ab.py",
                 "perfbench/worker.py", "BENCHMARK.json"):
        assert (tmp_path / name).read_bytes() == (ROOT / name).read_bytes()
    assert not list(tmp_path.rglob("__pycache__"))
