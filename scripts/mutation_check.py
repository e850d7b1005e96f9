#!/usr/bin/env python3
"""Mutation kill-list: which fixture catches each wrong closed form.

Each mutant is one exact text replacement in a module of the package:
(id, module, old text, new text, expected killers, why a survivor
survives).  For each mutant the script copies src/ to a temporary
directory, applies the replacement there (the old text must occur exactly
once) and runs the fixtures in a subprocess whose PYTHONPATH points at
that copy.  A fixture kills a mutant when some check gets a verdict other
than the one scripts/run_all_checks.py expects of it (a built-in), when
some check fails (perfbench/fixtures/kenmotsu5.ini, which passes
everything), or when its run raises.  The unmutated tree is run first and
must be killed by nothing.

It prints one line per mutant, killed/total and each survivor with the
reason it is known to survive.  Exit status 0 means every mutant was
killed by exactly its expected killers among the fixtures run; 1 names
the mutants that were not: a listed killer that no longer kills, or a new
one, which moves the list.

    python3 scripts/mutation_check.py
    python3 scripts/mutation_check.py --only M04,M05,M09 --fixtures kenmotsu3
"""

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
KENMOTSU5_INI = "kenmotsu5.ini"
# every Kenmotsu fixture: all of them run the deformation suites
KENMOTSU = ("kenmotsu3", "kenmotsu3-hyp-soliton", "kenmotsu3-sph",
            "kenmotsu3-sph-soliton", "kenmotsu3-trivial", "kenmotsu3-wide",
            "kenmotsu5-gh", KENMOTSU5_INI)
FIXTURES = KENMOTSU + ("euclidean3", "sphere2")


class Mutant(NamedTuple):
    id: str
    module: str
    old: str
    new: str
    killers: tuple
    survives: str = ""


MUTANTS = (
    Mutant("M01", "deformation.py",
           'riemann_bar(self.base, point, bundle["R04"])',
           'riemann_bar(self.base, point, -0.5 * kulkarni_nomizu(g, g))',
           ("kenmotsu3-hyp-soliton", "kenmotsu3-sph", "kenmotsu3-sph-soliton",
            "kenmotsu5-gh")),
    Mutant("M02", "solitons.py",
           "lap_bar ** 2 / (2 * n + 1)),", "lap_bar ** 2 / (2 * n)),", (),
           "deformed-bound holds with slack on every fixture; "
           "tests/test_kinds.py::test_battery kills it"),
    Mutant("M03", "solitons.py",
           "c * hess_sq + 4 * n * n * (2 * n + 1)",
           "c * hess_sq + 9 * n * n * (2 * n + 1)",
           ("kenmotsu3-trivial",)),
    Mutant("M04", "deformation.py",
           "(a - 1.0) / a)[..., None, None]",
           "(a - 1.0) / (a * a))[..., None, None]", KENMOTSU),
    Mutant("M05", "deformation.py",
           "(a - 1.0) / (a * a) * xixif", "(a - 1.0) / a * xixif", KENMOTSU),
    Mutant("M06", "solitons.py",
           "xi_eta_v = xixif / a2", "xi_eta_v = xixif / a", KENMOTSU),
    Mutant("M07", "solitons.py",
           "- 4 * n * q * scal_g", "- 4 * n * q * q * scal_g",
           (KENMOTSU5_INI,)),
    Mutant("M08", "solitons.py",
           "(4 * n * n - c * xixif ** 2)", "(4 * n * n - 2 * c * xixif ** 2)",
           (), "base-bound-solenoidal is vacuous on every fixture; "
           "tests/test_kinds.py::test_battery kills it"),
    # kenmotsu3-sph fails the reconstruction it breaks anyway
    Mutant("M09", "solitons.py",
           "- (2 * n + 1) * beta ** 2) / c", "- (2 * n) * beta ** 2) / c",
           tuple(k for k in KENMOTSU if k != "kenmotsu3-sph")),
    Mutant("M10", "solitons.py",
           "_tensor(q * sigma) * ee", "_tensor(2.0 * q * sigma) * ee", (),
           "every fixture's solenoidal field has sigma = xi(eta(V)) = 0; "
           "tests/test_routes.py::test_solenoidal_trace_with_sigma kills it"),
    Mutant("M11", "solitons.py",
           "lap / a),", "lap / (a * a)),", (),
           "orthogonal-gradient is vacuous: no fixture's scalar has "
           "xi(f) = 0; test_orthogonal_gradient_values kills it"),
    Mutant("M12", "deformation.py",
           "bound = 4.0 * n * n", "bound = 9.0 * n * n",
           ("kenmotsu3-sph", "kenmotsu3-sph-soliton")),
    Mutant("M13", "solitons.py",
           "+ 4 * n * k * q * lap_g", "+ 2 * n * k * q * lap_g", (),
           "equivalent where base-bound-orthogonal is checked: under the "
           "soliton premise xi(f) = 0 forces Lap f = 0; "
           "tests/test_kinds.py::test_battery kills it"),
    Mutant("M14", "solitons.py",
           ".lam(-2.0 * n, 2.0 * n)", ".lam(-2.0 * n - 1.0, 2.0 * n)",
           KENMOTSU),
    Mutant("M15", "solitons.py",
           "xi_eta_v, div_v = xi_of_eta_potential(structure, potential, point), "
           "0.0",
           "xi_eta_v, div_v = 2.0 * xi_of_eta_potential(structure, potential, "
           "point), 0.0",
           (), "no claim reads the solenoidal lambda; "
           "tests/test_kinds.py::test_theorem_lambda[*-solenoidal-*] kills it"),
    # the cross term of the general prop22 transfer
    Mutant("M16", "deformation.py",
           "cross = 2.0 * (a - 1.0)", "cross = (a - 1.0)", KENMOTSU),
)


def _killers(fixtures) -> dict:
    """Run in the worker: per fixture, whether it kills the package on
    ``sys.path``, with the reason."""
    from acmsolitons.config import builtin_config, load_config
    from acmsolitons.suites import run_suites

    spec = importlib.util.spec_from_file_location(
        "run_all_checks", ROOT / "scripts" / "run_all_checks.py")
    expectations = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(expectations)
    out = {}
    for name in fixtures:
        try:
            if name == KENMOTSU5_INI:
                checks = run_suites(load_config(
                    ROOT / "perfbench" / "fixtures" / KENMOTSU5_INI))
                wrong = [c.check_id for c in checks if not c.passed]
            else:
                checks = run_suites(builtin_config(name))
                wrong = [
                    c.check_id for c in checks
                    if c.passed == expectations.expected_to_fail(name, c.check_id)
                ]
        except Exception as err:  # a mutant that raises is caught too
            out[name] = f"raises {type(err).__name__}"
            continue
        if wrong:
            out[name] = f"{len(wrong)} checks, e.g. {wrong[0]}"
    return out


def _run(src: Path, fixtures) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", ",".join(fixtures)],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _mutated(mutant: Mutant, tmp: Path) -> Path:
    src = tmp / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "acmsolitons" / mutant.module
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise RuntimeError(f"{mutant.id}: the old text occurs {count} times "
                           f"in {mutant.module}: {mutant.old!r}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="comma-separated mutant ids")
    parser.add_argument("--fixtures",
                        help=f"comma-separated subset of: {', '.join(FIXTURES)}")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        print(json.dumps(_killers(args.worker.split(","))))
        return 0
    ids = {m.id for m in MUTANTS}
    only = ids if args.only is None else set(args.only.split(","))
    if only - ids:
        parser.error(f"unknown mutants {sorted(only - ids)}")
    fixtures = FIXTURES if args.fixtures is None else tuple(args.fixtures.split(","))
    if set(fixtures) - set(FIXTURES):
        parser.error(f"unknown fixtures {sorted(set(fixtures) - set(FIXTURES))}")
    mutants = [m for m in MUTANTS if m.id in only]

    baseline = _run(ROOT / "src", fixtures)
    if baseline:
        print(f"the unmutated tree is killed: {baseline}")
        return 1
    killed, survivors, wrong = 0, [], []
    with tempfile.TemporaryDirectory() as tmp:
        for m in mutants:
            got = _run(_mutated(m, Path(tmp)), fixtures)
            want = [f for f in m.killers if f in fixtures]
            status = "killed" if got else "survives"
            if sorted(got) != sorted(want):
                wrong.append(m.id)
                status += f" (expected killers: {', '.join(want) or 'none'})"
            killed += bool(got)
            if not got:
                survivors.append(m)
            print(f"{m.id} {m.module}: {status}")
            for name, why in got.items():
                print(f"    {name}: {why}")
    print(f"killed {killed}/{len(mutants)}")
    for m in survivors:
        print(f"survivor {m.id}: {m.survives or 'no reason listed'}")
    if wrong:
        print(f"killers differ from the list: {', '.join(wrong)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
