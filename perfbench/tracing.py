"""Layer tracing from outside the library.

``Tracer.install()`` replaces the public functions and methods of every
``shiftlab`` module (and the handful of private entry points the per-layer
metrics name) with wrappers, in the defining module and in every module
that imported them by name.  A wrapper opens a frame when the call crosses
from one layer into another, or when the function is one the metrics name;
calls inside a layer pass straight through.  Closing a frame charges its
duration minus its children's to the function and to its layer, and
appends a span (id, parent, name, start, end, report) to an in-memory list.

The hot boundaries get no spans: ``LanguageOracle.contains`` only counts,
and the membership closures the oracle factories build are timed into
their backend's layer without a span.  ``uninstall()`` restores everything.
"""

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "shifts", "language", "forbidden", "sft", "sofic",
          "spectral", "measures", "beta", "algebraic", "dynamics")

# Private functions the per-layer metrics name.
PRIVATE = {
    "beta": ("_expand_rational", "_expand_algebraic", "_expand_decimal"),
    "dynamics": ("_resolve_first_return",),
}

# Small helpers called millions of times inside one layer; timing them
# would swamp the pass, so their time stays with the caller.
HOT = {
    "language": ("Alphabet", "format_word", "lex_compare", "subwords",
                 "LanguageOracle.check_horizon", "LanguageOracle.is_empty_language"),
    "beta": ("DigitStream", "compare_to_prefix", "stream_alphabet"),
    "sofic": ("LabeledGraph", "BlockCode"),
    "sft": ("FiniteTypeSpec", "BlockGraph", "PeriodicPointSet"),
    "algebraic": ("poly_",),
    "measures": ("CylinderMeasure", "PeriodicSupportMeasure", "eval_cylinder"),
}

# Functions whose frames are always opened, so their own metrics are whole.
NAMED = {
    "language.LanguageOracle.words_of_length", "forbidden.minimal_forbidden",
    "forbidden.window_density_report", "sofic.determinize", "sofic.is_sft",
    "sofic.mfw_length_set", "sofic.language_equal_up_to",
    "sofic.language_equal_exact", "sofic.sofic_per_enumerate",
    "sft.per_enumerate", "sft.per_le_enumerate", "sft.build_block_graph",
    "spectral.perron_root", "spectral.perron_vectors",
    "spectral.spectral_radius_certified", "spectral.int_matmul",
    "measures.nu_cylinder_measure", "measures.parry_measure",
    "measures.max_entropy_decomposition", "measures.cylinder_table",
    "dynamics._resolve_first_return", "dynamics.subst_language",
    "shifts.realize", "beta._expand_rational", "beta._expand_algebraic",
    "beta._expand_decimal",
}

# Counts read off a named function's result.
RESULT_COUNTS = {
    "forbidden.minimal_forbidden": ("forbidden.mfw_words", lambda t: len(t.words())),
    "sofic.determinize": ("sofic.det_states", lambda g: len(g.states)),
}

# Oracle factories: the membership closure of the oracle each returns is
# timed as "<layer>.membership".
FACTORIES = {
    "sofic.sofic_oracle": "sofic", "sft.sft_oracle": "sft",
    "beta.beta_oracle": "beta", "dynamics.subst_oracle": "dynamics.subst",
    "dynamics.induce_recode": "dynamics.induced",
}


def _hot(layer, qualname):
    return any(qualname == h or qualname.startswith(h + ".")
               or (h.endswith("_") and qualname.startswith(h))
               for h in HOT.get(layer, ()))


class Tracer:
    def __init__(self):
        self.stack = []          # frames: [layer, child_time, span_id]
        self.spans = []
        self.record_spans = True
        self.report = None
        self.self_time = defaultdict(float)   # "layer.qualname" -> s
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._patches = []
        self._next_id = 0

    # ---- frames ------------------------------------------------------------

    def _frame(self, key, layer, fn, args, kwargs, span):
        stack = self.stack
        parent = stack[-1][2] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [layer, 0.0, span_id]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            duration = t1 - t0
            if stack:
                stack[-1][1] += duration
            self.self_time[key] += duration - frame[1]
            self.calls[key] += 1
            if span and self.record_spans:
                self.spans.append((span_id, parent, key, t0, t1, self.report))

    def _wrap(self, fn, layer, key):
        named = key in NAMED
        counted = RESULT_COUNTS.get(key)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not named and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            result = tracer._frame(key, layer, fn, args, kwargs, True)
            if counted:
                tracer.counts[counted[0]] += counted[1](result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _timed_membership(self, fn, key):
        layer = key.split(".")[0]
        tracer = self

        def membership(word):
            return tracer._frame(key, layer, fn, (word,), {}, False)

        return membership

    # ---- special boundaries ------------------------------------------------

    def _wrap_factory(self, fn, key, member_key):
        wrapped = self._wrap(fn, key.split(".")[0], key)
        tracer = self

        def factory(*args, **kwargs):
            oracle = wrapped(*args, **kwargs)
            object.__setattr__(oracle, "membership", tracer._timed_membership(
                oracle.membership, member_key + ".membership"))
            return oracle

        factory.__wrapped__ = fn
        return factory

    def _contains(self, fn):
        counts = self.counts

        def contains(oracle, word):
            counts["language.contains_calls"] += 1
            return fn(oracle, word)

        return contains

    def _words_of_length(self, fn):
        wrapped = self._wrap(fn, "language", "language.LanguageOracle.words_of_length")
        counts = self.counts

        def words_of_length(oracle, n):
            cached = ("L", n) in oracle._cache
            words = wrapped(oracle, n)
            if not cached:
                counts["language.words_enumerated"] += len(words)
            return words

        return words_of_length

    # ---- patching ------------------------------------------------------------

    def _set(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        import shiftlab
        modules = {layer: sys.modules["shiftlab." + layer] for layer in LAYERS}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if name.startswith("_") and name not in PRIVATE.get(layer, ()):
                        continue
                    if _hot(layer, name):
                        continue
                    key = "%s.%s" % (layer, name)
                    if key in FACTORIES:
                        new = self._wrap_factory(obj, key, FACTORIES[key])
                    else:
                        new = self._wrap(obj, layer, key)
                    for target in list(modules.values()) + [shiftlab]:
                        if target.__dict__.get(name) is obj:
                            self._set(target, name, new)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(layer, obj)

    def _install_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            qualname = "%s.%s" % (cls.__name__, name)
            if name.startswith("_") or not inspect.isfunction(attr) or _hot(layer, qualname):
                continue
            key = "%s.%s" % (layer, qualname)
            if key == "language.LanguageOracle.contains":
                self._set(cls, name, self._contains(attr))
            elif key == "language.LanguageOracle.words_of_length":
                self._set(cls, name, self._words_of_length(attr))
            else:
                self._set(cls, name, self._wrap(attr, layer, key))

    def uninstall(self):
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches = []

    # ---- results --------------------------------------------------------------

    def reset(self):
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def layer_self_times(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for key, value in self.self_time.items():
            out[key.split(".")[0]] += value
        return out
