"""Spans around liftzeta's public functions, recorded from outside.

``Tracer.install()`` wraps the functions named in ``TARGETS`` and rebinds
every module-level name, class attribute and module-level dict value in
``liftzeta.*`` that held the original function, so calls through
``from .zeta1d import epsilon_star``, through ``__rmul__ = __mul__``
aliases and through ``cli.SUITE_FUNCS`` are all seen.  Each call appends
one span (name, start, end, parent span, case) to in-memory arrays;
``summary()`` turns them into per-function and per-module call counts
and self times, where a span's self time is its duration minus the
durations of the wrapped spans it directly encloses.
"""

import importlib
import time
from array import array

import numpy as np

SUITES = ("schwartz-oracle", "zeta1d-epsilon", "identity-A", "double-star",
          "lift2d-invariance", "measure", "FE2", "rho2", "archfe")

# module -> [(attribute path in the module, metric label)]
TARGETS = {
    "exactnum": [
        ("CycRat.__add__", "CycRat.add"),
        ("CycRat.__mul__", "CycRat.mul"),
        ("CycRat.inverse", "CycRat.inverse"),
        ("ZetaValue.__add__", "ZetaValue.add"),
        ("ZetaValue.__mul__", "ZetaValue.mul"),
        ("ZetaValue.__truediv__", "ZetaValue.truediv"),
        ("ZetaValue.inverse", "ZetaValue.inverse"),
        ("ZetaValue.__eq__", "ZetaValue.eq"),
        ("ZetaValue.subst_dual", "ZetaValue.subst_dual"),
    ],
    "localfield": [
        ("KCoset.subcosets", "KCoset.subcosets"),
        ("KElement.__mul__", "KElement.mul"),
        ("QuasiCharacter.__call__", "QuasiCharacter.call"),
        ("enumerate_characters", "enumerate_characters"),
    ],
    "schwartz": [("SBFunction." + m, "SBFunction." + m) for m in (
        "normalize", "fourier", "star", "w_operator", "nabla_compose",
        "equals")],
    "zeta1d": [(f, f) for f in (
        "zeta", "epsilon_star", "rho0", "l_function",
        "double_star_invariance")],
    "zeta2d": [(f, f) for f in ("verify_FE2", "epsilon2", "zeta_rho2")],
    "setring": [("DddSet." + m, "DddSet." + m) for m in (
        "union", "difference", "intersection", "measure")],
    "lift2d": [("measure_F", "measure_F")] + [
        ("LiftedFn." + m, "LiftedFn." + m) for m in (
            "integrate", "translate_var", "scale_var")],
    "archfe": [(f, f) for f in (
        "star_numeric", "zeta_numeric", "fe_product_check")],
    "cli": [("main", "main")] + [
        ("suite_" + s.lower().replace("-", "_"), "suite." + s)
        for s in SUITES],
}
MODULES = tuple(TARGETS)


def _char_key(om):
    # printed forms only count distinct inputs here; they never decide a
    # verdict, and at worst split one value built two ways into two keys
    return (om.q, om.r, str(om.pi_value),
            tuple(sorted((k, str(v)) for k, v in om.unit_table.items())))


def _epsilon_key(omega, psi, pi, mu=1):
    return (_char_key(omega), psi.d, str(mu))


def _star_key(f, psi, pi):
    return (f.q, str(f.mu), str(f), psi.d, str(pi))


# functions whose inputs are kept to report calls per distinct input
REPEAT_KEYS = {
    "zeta1d.epsilon_star": _epsilon_key,
    "schwartz.SBFunction.star": _star_key,
}


def span_names():
    return [m + "." + label for m, specs in TARGETS.items()
            for _, label in specs]


class Tracer:
    def __init__(self):
        self.names = span_names() + ["bench.setup", "bench.case"]
        self.name_ids = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("q")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_case = [-1]
        self.inputs = {name: [] for name in REPEAT_KEYS}

    # -- recording ------------------------------------------------------------
    def wrap(self, fn, name):
        nid = self.name_ids[name]
        span_name, parent, case = self.span_name, self.parent, self.case
        start, end, stack = self.start, self.end, self.stack
        current_case, clock = self.current_case, time.perf_counter
        kept = self.inputs.get(name)

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            case.append(current_case[0])
            start.append(0.0)
            end.append(0.0)
            if kept is not None:
                kept.append((args, kwargs))
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def region(self, name, case_index=-1):
        """A span of the benchmark's own (set-up or one case) that the
        program's spans nest under."""
        return _Region(self, self.name_ids[name], case_index)

    # -- patching -------------------------------------------------------------
    def install(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        mods = {}
        for mname, specs in TARGETS.items():
            mod = mods[mname] = importlib.import_module("liftzeta." + mname)
            for path, label in specs:
                owner = mod
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = vars(owner)[attr]
                wrapped = self.wrap(orig, mname + "." + label)
                wrappers[id(orig)] = (orig, wrapped)

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                w = swap(value)
                if w is not None:
                    setattr(mod, name, w)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        w = swap(v)
                        if w is not None:
                            value[k] = w
                elif (isinstance(value, type)
                      and value.__module__ == mod.__name__):
                    for k, v in list(vars(value).items()):
                        w = swap(v)
                        if w is not None:
                            setattr(value, k, w)

    # -- output ---------------------------------------------------------------
    def arrays(self):
        return {"name": np.frombuffer(self.span_name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "case": np.frombuffer(self.case, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self):
        """Per-function and per-module calls and self time, the repeat
        ratios, and the per-suite self times of the CLI."""
        # keys first: they only print values, and no span may be added
        # once arrays() has exported the buffers
        out = {}
        for name, keyfn in REPEAT_KEYS.items():
            kept = self.inputs[name]
            distinct = len({keyfn(*args, **kwargs) for args, kwargs in kept})
            out[name + ".repeat_ratio"] = (
                len(kept) / distinct if distinct else 0.0)
        a = self.arrays()
        dur = a["end"] - a["start"]
        self_t = dur.copy()
        has_parent = a["parent"] >= 0
        np.subtract.at(self_t, a["parent"][has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_s = np.bincount(a["name"], weights=self_t, minlength=n)
        for mname, specs in TARGETS.items():
            mcalls, mself = 0, 0.0
            for _, label in specs:
                full = mname + "." + label
                i = self.name_ids[full]
                mcalls += int(calls[i])
                mself += float(self_s[i])
                if label.startswith("suite."):
                    out[full + ".self_s"] = float(self_s[i])
                else:
                    out[full + ".calls"] = int(calls[i])
                    out[full + ".self_s"] = float(self_s[i])
            out[mname + ".calls"] = mcalls
            out[mname + ".self_s"] = mself
        return out


class _Region:
    __slots__ = ("tracer", "nid", "case_index", "i")

    def __init__(self, tracer, nid, case_index):
        self.tracer, self.nid, self.case_index = tracer, nid, case_index

    def __enter__(self):
        t = self.tracer
        t.current_case[0] = self.case_index
        self.i = len(t.span_name)
        t.span_name.append(self.nid)
        t.parent.append(t.stack[-1])
        t.case.append(self.case_index)
        t.start.append(time.perf_counter())
        t.end.append(0.0)
        t.stack.append(self.i)

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.i] = time.perf_counter()
        t.stack.pop()
        t.current_case[0] = -1
        return False


def metric_names():
    """Every per-layer metric name a traced run reports, in order."""
    out = []
    for mname, specs in TARGETS.items():
        for _, label in specs:
            full = mname + "." + label
            if label.startswith("suite."):
                out.append(full + ".self_s")
            else:
                out += [full + ".calls", full + ".self_s"]
    out += [m + suffix for m in MODULES for suffix in (".calls", ".self_s")]
    out += [name + ".repeat_ratio" for name in REPEAT_KEYS]
    out.append("trace.overhead_s")
    return out
