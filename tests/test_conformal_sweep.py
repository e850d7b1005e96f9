"""A property sweep over generic n = 1 Kenmotsu charts.

Every surface metric is locally conformally flat, so
dz^2 + e^{2z + 2u(x, y)} (dx^2 + dy^2), with xi = d/dz and phi the rotation
of the (x, y) plane, is a generic Kenmotsu 3-manifold: the warped product
of a line with the surface e^{2u} (dx^2 + dy^2), which is Kahler under the
rotation (Kenmotsu, Tohoku Math. J. 24 (1972)).  Here u is a cubic whose
coefficients hypothesis draws, so the fibre curvature varies from sample to
sample, and the scalar f is generic, with Hess f(xi, X) != 0 for some
X orthogonal to xi.

Every check that needs no premise must pass on every such chart: the
`acm` axioms, the `kenmotsu` identities, every `section2` identity, every
`prop22` norm but `hess-hess` (whose closed form assumes
Hess f(xi, X) = 0 for X orthogonal to xi) and `remark23/norm-bound`.  The
metric entries have non-zero mixed second partials built from distinct
trees in the two orders of differentiation, so the sweep also runs the
mean of both orders on evaluated values, which kenmotsu3 and
`perfbench/fixtures/kenmotsu5.ini` never do.

Budget: 16 points, a = 0.5 and 2, and at most 12 examples, each a run of
five suites of 20-40 ms on a 2-vCPU VM: under a second in all, and a few
seconds at most.
"""

from hypothesis import given, settings, strategies as st

from acmsolitons.config import load_config_text
from acmsolitons.suites import run_suites

_CHART = """
[manifold]
name = conformal3
coordinates = x, y, z
g_x_x = exp(2*z + 2*({u}))
g_y_y = exp(2*z + 2*({u}))
g_z_z = 1

[structure]
phi_y_x = 1
phi_x_y = -1
xi = 0, 0, 1

[scalars]
f = x*y*exp(z) + sin(x - 2*y)

[run]
seed = {seed}
points = 16
a = 0.5, 2
box_x = -1, 1
box_y = -1, 1
box_z = -0.5, 0.5
scalar = f
suites = acm-axioms, kenmotsu, section2-identities, prop22-norms, remark23
"""

# the monomials of a cubic in x and y without its constant term, which
# only rescales the fibre
_MONOMIALS = ("x", "y", "x^2", "x*y", "y^2", "x^3", "x^2*y", "x*y^2", "y^3")

_EXEMPT = {"prop22/hess-hess", "remark23/admissible-interval",
           "remark23/harmonic-transfer"}


def _premise_free(check_id: str) -> bool:
    stripped = check_id.split("[")[0]
    return stripped.split("/")[0] in (
        "acm", "kenmotsu", "section2", "prop22", "remark23",
    ) and stripped not in _EXEMPT


@settings(max_examples=12, deadline=None)
@given(
    coefficients=st.lists(
        st.floats(-0.4, 0.4).map(lambda c: round(c, 3)),
        min_size=len(_MONOMIALS), max_size=len(_MONOMIALS),
    ),
    seed=st.integers(0, 1000),
)
def test_premise_free_checks_pass_on_conformal_fibres(coefficients, seed):
    u = " + ".join(f"({c:.3f})*{m}" for c, m in zip(coefficients, _MONOMIALS))
    config = load_config_text(_CHART.format(u=u, seed=seed),
                              source="tests:conformal3")
    checks = [c for c in run_suites(config) if _premise_free(c.check_id)]
    ids = {c.check_id.split("[")[0] for c in checks}
    # every suite ran: 6 acm, 6 kenmotsu, 15 section2 and 9 prop22 ids
    assert len(ids) == 6 + 6 + 15 + 9 + 1, sorted(ids)
    failed = [(c.check_id, c.max_residual, c.tolerance)
              for c in checks if not c.passed]
    assert failed == [], u
