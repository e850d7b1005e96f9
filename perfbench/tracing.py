"""In-memory span and count recorder for the traced benchmark run.

``install`` wraps the public entry points of each acmsolitons module from
outside the package:

* a module-level function is wrapped where other package modules bound it
  by name (``suites.curvature_bundle``, ``deformation.curvature_bundle``,
  ...), so a count is the number of calls that cross a module boundary;
  recursion inside ``expr`` is not counted, which makes
  ``expr.evaluate.calls`` the number of top-level evaluations;
* public methods of the package's classes are wrapped on the class, and
  ``TensorValue.__post_init__`` stands for ``TensorValue`` construction;
* each suite runner in ``suites._SUITE_RUNNERS`` and ``suites._rel`` are
  wrapped too.

Every wrapped call adds to a per-name tally of calls, total time and self
time, where self time is the call's duration minus the time covered by the
wrapped calls it made.  While ``keep_spans`` is set, calls down to
``SPAN_DEPTH`` levels also leave a span record (id, name, start, end,
parent id).  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("config", "expr", "tensor", "geometry", "deformation", "solitons",
          "suites")

# spans are recorded for calls at most this many levels below the op's
# root; deeper calls (per-point evaluation, hundreds of thousands per op)
# are aggregated into the tallies only
SPAN_DEPTH = 3


class Recorder:
    """Per-name tallies for the current op, plus optional span records."""

    def __init__(self):
        self.stats = {}        # name -> [calls, total seconds, self seconds]
        self.spans = []        # (id, name, start, end, parent id)
        self.keep_spans = False
        self.metric_keys = set()   # distinct (chart, point) given to metric_at
        self._stack = [[0, 0.0]]   # open frames: [span id, child seconds]
        self._next_id = 1

    def reset(self) -> None:
        """Zero every tally in place (the wrappers hold references)."""
        for tally in self.stats.values():
            tally[:] = [0, 0.0, 0.0]
        self.spans = []
        self.metric_keys = set()
        self._stack[:] = [[0, 0.0]]
        self._next_id = 1

    def _tally(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name, fn, observe=None):
        """``fn`` wrapped to record one call of ``name`` per invocation."""
        tally = self._tally(name)
        stack = self._stack
        clock = time.perf_counter
        rec = self

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args)
            parent = stack[-1]
            span_id = 0
            if rec.keep_spans and len(stack) <= SPAN_DEPTH:
                span_id = rec._next_id
                rec._next_id += 1
            # children of an unrecorded call hang off its nearest recorded parent
            frame = [span_id or parent[0], 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                parent[1] += took
                tally[0] += 1
                tally[1] += took
                tally[2] += took - frame[1]
                if span_id:
                    rec.spans.append((span_id, name, start, end, parent[0]))

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_leaf(self, name, fn):
        """A cheaper wrapper for a call that makes no wrapped calls.

        It keeps no frame and no span; ``expr.evaluate`` alone runs about
        1.6 million times per k3-dense op.
        """
        tally = self._tally(name)
        stack = self._stack
        clock = time.perf_counter

        def leaf(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack[-1][1] += took
                tally[0] += 1
                tally[1] += took
                tally[2] += took

        leaf.__wrapped__ = fn
        return leaf

    def call(self, name, fn, *args):
        """Call ``fn`` as a span of ``name``, for calls the benchmark makes."""
        return self.wrap(name, fn)(*args)

    def observe_metric(self, args) -> None:
        """Remember which (chart, point) a metric_at call computes."""
        manifold, point = args[0], args[1]
        self.metric_keys.add(
            (manifold.name, tuple(point[c] for c in manifold.coords))
        )


def install(recorder: Recorder, package) -> list:
    """Wrap the package's entry points; return the list ``uninstall`` takes."""
    mods = {
        layer: importlib.import_module(f"{package.__name__}.{layer}")
        for layer in LAYERS
    }
    undo = []

    def patch(owner, key, new):
        if isinstance(owner, dict):
            undo.append((owner, key, owner[key]))
            owner[key] = new
        else:
            undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    for layer, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                users = [
                    m for other, m in mods.items()
                    if other != layer and getattr(m, attr, None) is obj
                ]
                if users:
                    name = f"{layer}.{attr}"
                    if layer == "expr":  # expr calls nothing outside expr
                        wrapped = recorder.wrap_leaf(name, obj)
                    elif name == "tensor.metric_at":
                        wrapped = recorder.wrap(name, obj, recorder.observe_metric)
                    else:
                        wrapped = recorder.wrap(name, obj)
                    for m in users:
                        patch(m, attr, wrapped)
            elif inspect.isclass(obj):
                for name, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and not name.startswith("_"):
                        patch(obj, name, recorder.wrap(
                            f"{layer}.{obj.__name__}.{name}", fn))

    tensor_value = mods["tensor"].TensorValue
    patch(tensor_value, "__post_init__",
          recorder.wrap_leaf("tensor.TensorValue", tensor_value.__post_init__))
    suites = mods["suites"]
    for name, runner in list(suites._SUITE_RUNNERS.items()):
        patch(suites._SUITE_RUNNERS, name, recorder.wrap(f"suites.{name}", runner))
    patch(suites, "_rel", recorder.wrap("suites.rel", suites._rel))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced op

SUITE_NAMES = (
    "acm-axioms", "kenmotsu", "section2-identities", "prop22-norms",
    "remark23", "riemann-solitons", "ricci-solitons", "inequalities",
)

PER_LAYER = (
    ("expr.evaluate.calls", "count"),
    ("expr.evaluate.self_s", "s"),
    ("expr.diff.calls", "count"),
    ("tensor.metric_at.calls", "count"),
    ("tensor.metric_at.self_s", "s"),
    ("tensor.metric_at.useful_ratio", "ratio"),
    ("tensor.TensorValue.count", "count"),
    ("tensor.TensorValue.self_s", "s"),
    ("geometry.metric_at_cached.calls", "count"),
    ("geometry.metric_cache.hit_ratio", "ratio"),
    ("geometry.curvature_bundle.calls", "count"),
    ("geometry.curvature_bundle.self_s", "s"),
    ("geometry.self_s", "s"),
    ("deformation.deform.calls", "count"),
    ("deformation.curvature_closed.self_s", "s"),
    ("deformation.self_s", "s"),
    ("solitons.soliton_residuals.calls", "count"),
    ("solitons.soliton_residuals.self_s", "s"),
    ("solitons.inequality_battery.self_s", "s"),
    ("solitons.self_s", "s"),
    *((f"suites.{name}.s", "s") for name in SUITE_NAMES),
    ("suites.rel.calls", "count"),
    ("suites.self_s", "s"),
    ("suites.report_json.s", "s"),
    ("config.load.s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def op_metrics(recorder: Recorder) -> dict:
    """Per-layer values of the op just traced (all but trace.overhead_s)."""
    stats = recorder.stats

    def get(name, k):
        return stats.get(name, (0, 0.0, 0.0))[k]

    def layer_self(layer):
        return sum(t[2] for n, t in stats.items() if n.split(".")[0] == layer)

    computed = get("tensor.metric_at", 0)
    cached = get("geometry.ChartManifold.metric_at_cached", 0)
    out = {
        "expr.evaluate.calls": get("expr.evaluate", 0),
        "expr.evaluate.self_s": get("expr.evaluate", 2),
        "expr.diff.calls": get("expr.diff", 0),
        "tensor.metric_at.calls": computed,
        "tensor.metric_at.self_s": get("tensor.metric_at", 2),
        "tensor.metric_at.useful_ratio": _ratio(len(recorder.metric_keys), computed),
        "tensor.TensorValue.count": get("tensor.TensorValue", 0),
        "tensor.TensorValue.self_s": get("tensor.TensorValue", 2),
        "geometry.metric_at_cached.calls": cached,
        "geometry.metric_cache.hit_ratio": _ratio(cached - computed, cached),
        "geometry.curvature_bundle.calls": get("geometry.curvature_bundle", 0),
        "geometry.curvature_bundle.self_s": get("geometry.curvature_bundle", 2),
        "geometry.self_s": layer_self("geometry"),
        "deformation.deform.calls": get("deformation.deform", 0),
        "deformation.curvature_closed.self_s":
            get("deformation.DeformedStructure.curvature_closed", 2),
        "deformation.self_s": layer_self("deformation"),
        "solitons.soliton_residuals.calls": get("solitons.soliton_residuals", 0),
        "solitons.soliton_residuals.self_s": get("solitons.soliton_residuals", 2),
        "solitons.inequality_battery.self_s": get("solitons.inequality_battery", 2),
        "solitons.self_s": layer_self("solitons"),
        "suites.rel.calls": get("suites.rel", 0),
        "suites.self_s": layer_self("suites"),
        "suites.report_json.s": get("suites.report_json", 1),
        "config.load.s": get("config.load", 1),
    }
    for name in SUITE_NAMES:
        out[f"suites.{name}.s"] = get(f"suites.{name}", 1)
    return out
