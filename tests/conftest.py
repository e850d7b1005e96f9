import numpy as np
import pytest

from acmsolitons import builtin_config, parse_expr, suites
from acmsolitons.config import load_config_text
from acmsolitons.geometry import ChartManifold, sample_batch
from acmsolitons.tensor import pair_index


def expand(block, raised=False):
    """The full (..., d, d, d, d) tensor of a first-pair block
    x[(a < b), c, d]: rows a > b are the negated block rows, rows a = b
    zeros.  ``raised`` reads R13's block x[(a < b), c, l] and returns
    R13[l, a, b, c]."""
    block = np.asarray(block)
    pairs = pair_index(block.shape[-1])
    full = pairs.sign[:, :, None, None] * block[..., pairs.row, :, :]
    return np.moveaxis(full, -1, -4) if raised else full


@pytest.fixture(scope="session")
def kenmotsu3():
    return builtin_config("kenmotsu3")


@pytest.fixture(scope="session")
def kenmotsu3_structure(kenmotsu3):
    return kenmotsu3.structure


@pytest.fixture(scope="session")
def kenmotsu3_points(kenmotsu3):
    return sample_batch(
        kenmotsu3.manifold, kenmotsu3.box, kenmotsu3.points, kenmotsu3.seed
    ).points()


# The n = 2 Kenmotsu model dz^2 + e^{2z} g_flat(C^2): the warped product of a
# line with flat C^2 (Kenmotsu, Tohoku Math. J. 24 (1972)), with xi = d/dz and
# phi the standard complex structure on the fibre.
_KENMOTSU5 = """
[manifold]
name = kenmotsu5
coordinates = x1, y1, x2, y2, z
constraints = z - 1
g_x1_x1 = exp(2*z)
g_y1_y1 = exp(2*z)
g_x2_x2 = exp(2*z)
g_y2_y2 = exp(2*z)
g_z_z = 1

[structure]
phi_y1_x1 = 1
phi_x1_y1 = -1
phi_y2_x2 = 1
phi_x2_y2 = -1
xi = 0, 0, 0, 0, 1

[run]
seed = 42
points = 4
box_x1 = -1, 1
box_y1 = -1, 1
box_x2 = -1, 1
box_y2 = -1, 1
box_z = 1.05, 2.2
"""


# The n = 3 model dz^2 + e^{2z} g_flat(C^3), with kenmotsu3's gradient
# soliton pair at n = 3 (the ricci lambda is (e^z - 2n)/a^2) and the
# divergence-free field d/dx1: the first 7-d chart, run through every suite.
_KENMOTSU7 = """
[manifold]
name = kenmotsu7
coordinates = x1, y1, x2, y2, x3, y3, z
constraints = z - 1
g_x1_x1 = exp(2*z)
g_y1_y1 = exp(2*z)
g_x2_x2 = exp(2*z)
g_y2_y2 = exp(2*z)
g_x3_x3 = exp(2*z)
g_y3_y3 = exp(2*z)
g_z_z = 1

[structure]
phi_y1_x1 = 1
phi_x1_y1 = -1
phi_y2_x2 = 1
phi_x2_y2 = -1
phi_y3_x3 = 1
phi_x3_y3 = -1
xi = 0, 0, 0, 0, 0, 0, 1

[scalars]
f = exp(z)

[vectors]
W = 1, 0, 0, 0, 0, 0, 0

[candidates]
riemann-grad = riemann, grad f, (2*exp(z) - 1)/a^2
ricci-grad = ricci, grad f, (exp(z) - 6)/a^2

[run]
seed = 42
points = 16
a = 0.5, 1, 2, 3.7
box_x1 = -1, 1
box_y1 = -1, 1
box_x2 = -1, 1
box_y2 = -1, 1
box_x3 = -1, 1
box_y3 = -1, 1
box_z = 1.9, 2.5
scalar = f
"""


@pytest.fixture(scope="session")
def kenmotsu7():
    return load_config_text(_KENMOTSU7, source="tests:kenmotsu7")


@pytest.fixture(scope="session")
def kenmotsu5_text():
    return _KENMOTSU5


@pytest.fixture(scope="session")
def kenmotsu5(kenmotsu5_text):
    return load_config_text(kenmotsu5_text, source="tests:kenmotsu5")


@pytest.fixture(scope="session")
def euclidean3():
    return builtin_config("euclidean3")


@pytest.fixture(scope="session")
def sphere2():
    return builtin_config("sphere2")


@pytest.fixture(scope="session")
def polar2():
    # flat plane in polar coordinates, kept away from the origin
    coords = ("r", "t")
    g_rr = parse_expr("1", coords=coords)
    g_tt = parse_expr("r^2", coords=coords)
    zero = parse_expr("0", coords=coords)
    metric = [[g_rr, zero], [zero, g_tt]]
    constraint = parse_expr("r", coords=coords)
    return ChartManifold(coords, metric, (constraint,), name="polar2")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def sampled_batches(monkeypatch):
    """The sample batches ``run_suites`` draws, appended as drawn, so a
    test can read what the run memoised on them."""
    batches = []
    real = suites.sample_batch

    def sample(*args):
        batches.append(real(*args))
        return batches[-1]

    monkeypatch.setattr(suites, "sample_batch", sample)
    return batches
