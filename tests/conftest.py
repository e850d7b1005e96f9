import numpy as np
import pytest

from acmsolitons import builtin_config, parse_expr
from acmsolitons.config import load_config_text
from acmsolitons.geometry import ChartManifold, sample_batch


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
