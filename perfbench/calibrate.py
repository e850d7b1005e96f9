"""Host-speed calibration: a fixed unit of work, timed around and inside ops.

The virtual machines this benchmark runs on share their physical cores, and
their speed drifts: the same op can take 1.0 s in one minute and 1.9 s in
the next, on either CPU, with no steal time to show for it.  Medians over
one run cannot remove a drift that lasts longer than the run.

So the worker measures the host's speed while it measures the package.  It
times ``CALIBRATION_UNITS`` units of fixed work before the first op and
after every op, and a ``Probe`` times one more unit every ``PROBE_PERIOD_S``
during a plain op, from a timer signal.  An op's scaled time is its wall
time, less the probe's own time, multiplied by ``REFERENCE_S`` over the mean
unit time seen around and inside it.  That is what the op would have taken
on a host that runs a unit in ``REFERENCE_S``: a change to the package moves
it just as it moves the wall time, while host drift mostly cancels.

The unit imitates the package's own mix and never imports the package, so
no change to the package can change it: a recursive walk of a small
expression tree over Python floats and dicts, then small dense linear
algebra in numpy (inverse, einsum, max-abs) on a 5 x 5 matrix.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# about unit()'s time on the machine where the benchmark was tuned (2-vCPU
# Intel Xeon virtual machine, CPython 3.11, numpy 2.4) in its faster
# phases, so scaled times read close to that machine's wall times
REFERENCE_S = 0.008

CALIBRATION_UNITS = 8
PROBE_PERIOD_S = 0.25

TREE_POINTS = 600
MATRIX_STEPS = 250


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left=None, right=None):
        self.op, self.left, self.right = op, left, right


def _tree(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node("c", 1.0 + 0.1 * k) if k % 3 == 0 else _Node("v", "xyz"[k % 3])
    op = "+*-/"[k % 4] if k % 5 else "exp"
    return _Node(op, _tree(depth - 1, 2 * k + 1), _tree(depth - 1, 2 * k + 2))


_TREE = _tree(6, 0)
_G = np.eye(5) + 0.004 * np.arange(25.0).reshape(5, 5)
_G = _G @ _G.T
_I = np.eye(5)


def _evaluate(node: _Node, point: dict) -> float:
    op = node.op
    if op == "c":
        return node.left
    if op == "v":
        return point[node.left]
    a = _evaluate(node.left, point)
    if op == "exp":
        return math.exp(min(a, 5.0))
    b = _evaluate(node.right, point)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b if b else a


def _work() -> float:
    total = 0.0
    for i in range(TREE_POINTS):
        total += _evaluate(_TREE, {"x": 0.3 + 1e-3 * i, "y": 0.5, "z": 1.5})
    for i in range(MATRIX_STEPS):
        g = _G + 1e-6 * i
        product = np.einsum("ij,jk->ik", np.linalg.inv(g), g)
        total += float(np.max(np.abs(product - _I)))
    return total


def unit() -> float:
    """Wall seconds of one unit of fixed work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def calibrate() -> list:
    """Wall seconds of each of ``CALIBRATION_UNITS`` units run back to back."""
    return [unit() for _ in range(CALIBRATION_UNITS)]


def scale(seconds: float, units: list) -> float:
    """``seconds`` measured while units took ``units`` seconds each, in
    seconds of the reference host."""
    return seconds * REFERENCE_S / statistics.fmean(units)


class Probe:
    """Times one unit every ``PROBE_PERIOD_S`` of wall time while entered.

    The unit runs in the SIGALRM handler, so it interrupts the code being
    measured; ``spent`` is the wall time the handler took, to be taken off
    that code's time.
    """

    def __init__(self):
        self.units = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.units.append(unit())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
