"""Spans and counters recorded around the engine's public functions.

``instrument(recorder)`` replaces each public function and method of the
traced modules by a wrapper that opens a span on entry and closes it on
exit; it returns a function that puts the originals back.  Module-level
functions are replaced in every ``koornwinder`` module that imported
them by name, so a call through ``noumi.exact_divide`` is traced like
one through ``laurent.exact_divide``.  Nothing in ``src/`` changes.

Spans are kept in memory: name, start, end and the index of the parent
span.  A span's self time is its duration minus the time its direct
children cover.
"""

from __future__ import annotations

import contextlib
import sys
import time

# Dunder methods that do arithmetic or comparison work; __bool__,
# __hash__, __repr__ and __init__ are left alone unless a layer lists
# them as extra (the engines' constructors, where set-up work happens).
_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
            "__eq__", "__ne__")

# Layers and what is wrapped in each: module-level functions (names not
# starting with "_") and the listed classes' public and arithmetic
# methods.  Extra private names are wrapped where a layer metric needs
# them.  ``domains`` is left out: it does almost no work.
LAYERS = {
    "paramfield": {"classes": ("FieldElement",), "extra": ("_full_reduce",)},
    "laurent": {"classes": ("LaurentPolynomial", "LaurentRing"), "extra": ()},
    "weyl": {"classes": ("SignedPermutation",), "extra": ()},
    "noumi": {"classes": ("NoumiRepresentation",), "extra": ("__init__",)},
    "intertwine": {"classes": (), "extra": ()},
    "oracle": {"classes": ("EigenOracle",), "extra": ("__init__",)},
    "polynomials": {"classes": ("KoornwinderFamily",),
                    "extra": ("__init__", "_disk_read")},
    "duality": {"classes": ("DualityChecker",), "extra": ("__init__",)},
    "cli": {"classes": (), "extra": ()},
}


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names = []     # per span
        self.starts = []
        self.ends = []
        self.parents = []
        self.max_terms = {}   # layer -> largest result size seen
        self.disk_hits = 0
        self._stack = []

    def open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index):
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for k, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[k] - self.starts[k]
        return own

    def top_level_time(self):
        """Total duration of the spans that have no parent."""
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents)
                   if p < 0)

    def summary(self):
        """name -> [calls, self seconds]."""
        out = {}
        for name, own in zip(self.names, self.self_times()):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += own
        return out

    def child_counts(self, parent_name, child_name):
        """How many child_name spans sit directly under a parent_name span."""
        return sum(1 for name, parent in zip(self.names, self.parents)
                   if name == child_name and parent >= 0
                   and self.names[parent] == parent_name)

    def to_json(self):
        return {"spans": [[n, s, e, p] for n, s, e, p in
                          zip(self.names, self.starts, self.ends, self.parents)]}

    def note_size(self, layer, result):
        if layer == "paramfield":
            size = len(getattr(result, "num", ())) + len(getattr(result, "den", ()))
        else:
            terms = getattr(result, "terms", None)
            if not isinstance(terms, dict):
                return
            size = len(terms)
        if size > self.max_terms.get(layer, 0):
            self.max_terms[layer] = size


def _wrap(recorder, name, layer, fn):
    sized = layer in ("paramfield", "laurent")
    disk = name.endswith("._disk_read")

    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if sized:
            recorder.note_size(layer, result)
        elif disk and result is not None:
            recorder.disk_hits += 1
        return result
    return wrapper


def _targets(module, layer, spec):
    """(owner, attribute, span name) for everything wrapped in one layer."""
    out = []
    for attr, value in vars(module).items():
        if callable(value) and not isinstance(value, type) \
                and getattr(value, "__module__", None) == module.__name__ \
                and (not attr.startswith("_") or attr in spec["extra"]):
            out.append((module, attr, "%s.%s" % (layer, attr)))
    for cls_name in spec["classes"]:
        cls = getattr(module, cls_name)
        for attr, value in vars(cls).items():
            if isinstance(value, (classmethod, staticmethod)):
                continue
            if not callable(value):
                continue
            if attr.startswith("_") and attr not in _DUNDERS \
                    and attr not in spec["extra"]:
                continue
            out.append((cls, attr, "%s.%s.%s" % (layer, cls_name, attr)))
    return out


def instrument(recorder, package="koornwinder"):
    """Wrap every traced function; returns a function that undoes it."""
    modules = {name: sys.modules["%s.%s" % (package, name)] for name in LAYERS}
    everywhere = [m for key, m in sys.modules.items()
                  if key == package or key.startswith(package + ".")]
    undo = []
    for layer, spec in LAYERS.items():
        for owner, attr, name in _targets(modules[layer], layer, spec):
            original = vars(owner)[attr]
            wrapped = _wrap(recorder, name, layer, original)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
            if isinstance(owner, type):
                continue
            # rebind the same function where other modules imported it
            for other in everywhere:
                for key, value in list(vars(other).items()):
                    if value is original and other is not owner:
                        setattr(other, key, wrapped)
                        undo.append((other, key, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


# ---------------------------------------------------------------------------
# per-layer metrics

def _self(summary, *names):
    return sum((summary.get(n, (0, 0.0))[1] for n in names), 0.0)


def _calls(summary, *names):
    return sum(summary.get(n, (0, 0.0))[0] for n in names)


def _layer_self(summary, layer):
    return sum((v[1] for k, v in summary.items() if k.startswith(layer + ".")),
               0.0)


_FIELD_OPS = tuple("paramfield.FieldElement." + m for m in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse",
    "__eq__", "__ne__"))


def layer_metrics(recorder):
    """The per-layer metrics, by name, from one traced run."""
    s = recorder.summary()
    lp = "laurent.LaurentPolynomial."
    return {
        "paramfield.ops": (_calls(s, *_FIELD_OPS), "count"),
        "paramfield.s": (_layer_self(s, "paramfield"), "s"),
        "paramfield.eq_s": (_self(s, "paramfield.FieldElement.__eq__",
                                  "paramfield.FieldElement.__ne__"), "s"),
        "paramfield.max_terms": (recorder.max_terms.get("paramfield", 0),
                                 "terms"),
        "paramfield.gcd_calls": (_calls(s, "paramfield._full_reduce"), "count"),
        "paramfield.gcd_s": (_self(s, "paramfield._full_reduce"), "s"),
        "laurent.divide_calls": (_calls(s, "laurent.exact_divide"), "count"),
        "laurent.divide_s": (_self(s, "laurent.exact_divide"), "s"),
        "laurent.mul_calls": (_calls(s, lp + "__mul__", lp + "__rmul__"),
                              "count"),
        "laurent.mul_s": (_self(s, lp + "__mul__", lp + "__rmul__"), "s"),
        "laurent.max_terms": (recorder.max_terms.get("laurent", 0), "terms"),
        "laurent.evaluate_s": (_self(s, lp + "evaluate"), "s"),
        "laurent.action_s": (_self(s, "laurent.apply_simple_reflection",
                                   "laurent.apply_translation"), "s"),
        "noumi.t_calls": (_calls(s, "noumi.NoumiRepresentation.t"), "count"),
        "noumi.t_s": (_self(s, "noumi.NoumiRepresentation.t"), "s"),
        "noumi.y_calls": (_calls(s, "noumi.NoumiRepresentation.y"), "count"),
        "noumi.symmetrizer_words": (recorder.child_counts(
            "noumi.NoumiRepresentation.symmetrizer",
            "noumi.NoumiRepresentation.t_word"), "count"),
        "noumi.symmetrizer_s": (_self(
            s, "noumi.NoumiRepresentation.symmetrizer",
            "noumi.NoumiRepresentation.t_word"), "s"),
        "noumi.d_s": (_self(s, "noumi.NoumiRepresentation.koornwinder_d"), "s"),
        "weyl.s": (_layer_self(s, "weyl"), "s"),
        "intertwine.calls": (_calls(s, "intertwine.apply_intertwiner"), "count"),
        "intertwine.s": (_layer_self(s, "intertwine"), "s"),
        "oracle.build_s": (_self(s, "oracle.EigenOracle.__init__"), "s"),
        "oracle.solve_s": (_self(s, "oracle.EigenOracle.joint_eigenvector",
                                 "oracle.kernel_basis"), "s"),
        "oracle.rank_s": (_self(s, "oracle.matrix_rank"), "s"),
        "duality.checks": (_calls(s, "duality.DualityChecker.check_duality_e",
                                  "duality.DualityChecker.check_duality_p",
                                  "duality.DualityChecker.check_evaluation_ratio"),
                           "count"),
        "duality.s": (_layer_self(s, "duality"), "s"),
        "polynomials.nonsymmetric_s": (_self(
            s, "polynomials.KoornwinderFamily.nonsymmetric"), "s"),
        "polynomials.verify_s": (_self(
            s, "polynomials.KoornwinderFamily.verify_spectrum"), "s"),
        "polynomials.symmetric_s": (_self(
            s, "polynomials.KoornwinderFamily.symmetric"), "s"),
        "polynomials.disk_reads": (recorder.disk_hits, "count"),
        "cli.s": (_layer_self(s, "cli"), "s"),
    }
