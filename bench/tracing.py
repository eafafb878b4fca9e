"""Per-layer spans, recorded from outside the library.

`Tracer.install` replaces each public entry point of structexp with a timing
wrapper in every place that binds it: the module attribute of every loaded
structexp module that holds the function (so `expm_series` bound by name in
`expm_structured` and `cli`, `scalar_square` in `expm_structured`, and
`hxh_mul` reached by `HxHElement.__mul__` through `structexp.hxh`'s globals),
the extractor registries of `structexp.classify`, and the coefficient
projection methods of `HxHElement`. Modules are taken from `sys.modules`,
because the package attribute `structexp.classify` is the function, not the
module. `uninstall` puts every original back.

Spans are aggregated in memory by name: calls, self time (duration minus the
duration of child spans) and raised exceptions. A span directly nested in one
of the same name (a module-level helper delegating to the method it wraps) is
not recorded twice.
"""

import sys
import time
from collections import defaultdict

EXTRACT_SPAN = "classify.extract"
ROOT_SPAN = "op"

# span name -> the (module, attribute) entry points it times; the extractors
# are wrapped in the registries, and hxh.from_matrix/to_matrix also on the
# HxHElement methods the module-level helpers delegate to
FUNCTION_SPANS = {
    "cli.run": [("structexp.cli", "run")],
    "cli.load_document": [("structexp.cli", "load_document")],
    "classify.classify": [("structexp.classify", "classify")],
    EXTRACT_SPAN: [],
    "expm_structured.expm_auto": [("structexp.expm_structured", "expm_auto")],
    "expm_structured.exp_structured_class":
        [("structexp.expm_structured", "exp_structured_class")],
    "hxh.hxh_mul": [("structexp.hxh", "hxh_mul")],
    "hxh.scalar_square": [("structexp.hxh", "scalar_square")],
    "hxh.from_matrix": [("structexp.hxh", "from_matrix")],
    "hxh.to_matrix": [("structexp.hxh", "to_matrix")],
    "quat.quat_exp": [("structexp.quat", "quat_exp")],
    "smalllin.phi": [("structexp.smalllin", "phi_c"), ("structexp.smalllin", "phi_s")],
    "smalllin.expm2": [("structexp.smalllin", "expm2")],
    "smalllin.svd3": [("structexp.smalllin", "svd3")],
    "covering.exp_via_covering": [("structexp.covering", "exp_via_covering")],
    "covering.psi_inverse": [("structexp.covering", "psi_inverse")],
    "oracle.expm_series": [("structexp.oracle", "expm_series")],
}
SPAN_NAMES = list(FUNCTION_SPANS)


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "raised", "matched")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.raised = 0
        self.matched = 0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(SpanStats)
        self._stack = []          # [name, child_ns] per open span
        self._undo = []           # (object, attribute or slice, original)

    def wrap(self, name, fn, count_match=False):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            st = stats[name]
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if count_match and out[0] is not None:
                    st.matched += 1
                return out
            except BaseException:
                st.raised += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                st.calls += 1
                st.total_ns += dur
                st.self_ns += dur - frame[1]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _set(self, obj, attr, value):
        original = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
        self._undo.append((obj, attr, original))
        setattr(obj, attr, value)

    def install(self):
        """Wrap every entry point; returns the ones this version of the
        library does not have, whose spans then stay empty."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "structexp" or n.startswith("structexp.")}
        missing = []
        wrapped = {}
        for span, bindings in FUNCTION_SPANS.items():
            for mod, attr in bindings:
                fn = getattr(modules.get(mod), attr, None)
                if fn is None:
                    missing.append(f"{mod}.{attr}")
                else:
                    wrapped[id(fn)] = (fn, self.wrap(span, fn))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and wrapped[id(val)][0] is val:
                    self._set(mod, attr, wrapped[id(val)][1])

        element = modules["structexp.hxh"].HxHElement
        self._set(element, "to_matrix",
                  self.wrap("hxh.to_matrix", element.__dict__["to_matrix"]))
        self._set(element, "from_matrix", classmethod(
            self.wrap("hxh.from_matrix", element.__dict__["from_matrix"].__func__)))

        cls_mod = modules["structexp.classify"]
        for name in ("REAL_REGISTRY", "COMPLEX_REGISTRY"):
            registry = getattr(cls_mod, name, None)
            if registry is None:
                missing.append(f"structexp.classify.{name}")
                continue
            original = list(registry)
            self._undo.append((registry, slice(None), original))
            registry[:] = [(tag, self.wrap(EXTRACT_SPAN, fn, count_match=True))
                           for tag, fn in original]
        extractors = getattr(cls_mod, "EXTRACTORS", None)
        if extractors is None:
            missing.append("structexp.classify.EXTRACTORS")
        else:
            self._undo.append((extractors, None, dict(extractors)))
            for tag, fn in list(extractors.items()):
                extractors[tag] = self.wrap(EXTRACT_SPAN, fn, count_match=True)
        return missing

    def uninstall(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            if isinstance(attr, slice):
                obj[attr] = original
            elif attr is None:
                obj.clear()
                obj.update(original)
            else:
                setattr(obj, attr, original)

    def root(self, fn):
        """fn wrapped as the root span of one benchmark op."""
        return self.wrap(ROOT_SPAN, fn)
