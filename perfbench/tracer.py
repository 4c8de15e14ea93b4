"""Outside-in tracing of homcalc's layers for the benchmark's traced run.

The tracer wraps public functions of each layer after import and rebinds
every name that refers to them in every loaded ``homcalc`` module, since
``modules.py`` and ``complexes.py`` copy ``kernel_matrix``/``lift_matrix``
with ``from .groebner import``.  Span functions record (name, start, end,
parent span) in memory; the hottest helpers (monomial keys, degrees, field
operations) only count calls, because a span per call would cost more
than the call.  Self time is a span's duration minus the time its child
spans cover.  Nothing in ``src/`` is changed.
"""

import functools
import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute, workload meant to exercise it, stats)
# An attribute "Class.method" wraps a method on the class; "verify_*"
# wraps every verifier under one prefix.
SPANS = [
    ("groebner.vec_divide", "groebner", "vec_divide", "resolution-2x",
     ("calls", "self_s", "terms_in")),
    ("groebner.reduced_gb", "groebner", "reduced_gb", "resolution-2x",
     ("calls", "self_s", "basis_out")),
    ("groebner.syzygy_generators", "groebner", "syzygy_generators",
     "resolution-2x", ("calls", "self_s", "syz_out")),
    ("groebner.kernel_matrix", "groebner", "kernel_matrix", "resolution-2x",
     ("calls", "total_s", "cols_in", "cols_out")),
    ("groebner.interreduce_columns", "groebner", "interreduce_columns",
     "resolution-2x", ("calls", "self_s", "kept_frac")),
    ("groebner.lift_matrix", "groebner", "lift_matrix", "random-complexes",
     ("calls", "total_s", "unsolvable")),
    ("groebner.QuotientRing.init", "groebner", "QuotientRing.__init__",
     "random-complexes", ("calls", "self_s")),
    ("groebner.QuotientRing.reduce", "groebner", "QuotientRing.reduce",
     "random-complexes", ("calls", "self_s")),
    ("modules.homology_presentation", "modules", "homology_presentation",
     "random-complexes", ("calls", "total_s")),
    ("modules.ext_module", "modules", "ext_module", "corpus",
     ("calls", "total_s", "repeat_frac")),
    ("modules.hom_modules", "modules", "hom_modules", "corpus",
     ("calls", "total_s", "repeat_frac")),
    ("modules.resolution", "modules", "resolution", "corpus",
     ("calls", "self_s")),
    ("modules.minimal_presentation", "modules", "minimal_presentation",
     "corpus", ("calls", "self_s")),
    ("complexes.hom_complex", "complexes", "hom_complex", "random-complexes",
     ("calls", "self_s")),
    ("complexes.tensor_complex", "complexes", "tensor_complex",
     "random-complexes", ("calls", "self_s")),
    ("complexes.minimize_complex", "complexes", "minimize_complex",
     "random-complexes", ("calls", "self_s")),
    ("complexes.resolve_complex_with_map", "complexes",
     "resolve_complex_with_map", "random-complexes", ("calls", "self_s")),
    ("invariants.betti_table", "invariants", "betti_table", "corpus",
     ("total_s",)),
    ("invariants.bass_table", "invariants", "bass_table", "corpus",
     ("total_s",)),
    ("invariants.depth", "invariants", "depth", "random-complexes",
     ("total_s",)),
    ("semidualizing.semidualizing_certificate", "semidualizing",
     "semidualizing_certificate", "corpus",
     ("calls", "total_s", "repeat_frac")),
    ("semidualizing.gcdim_module", "semidualizing", "gcdim_module", "corpus",
     ("total_s",)),
    ("semidualizing.gcdim_complex", "semidualizing", "gcdim_complex",
     "random-complexes", ("total_s",)),
    ("semidualizing.verify", "semidualizing", "verify_*", "corpus",
     ("total_s",)),
    ("cli.build_problem", "cli", "build_problem", "random-complexes",
     ("total_s",)),
]

# counted calls only: (metric prefix, module, class, methods, workload)
_FIELD_OPS = ("normalize", "add", "sub", "neg", "mul", "inv", "div",
              "is_zero")
COUNTS = [
    ("ring.mono_key", "ring", "PolyRing", ("mono_key",), "resolution-2x"),
    ("ring.wdeg", "ring", "PolyRing", ("wdeg",), "resolution-2x"),
    ("field.ops", "field", "PrimeField", _FIELD_OPS, "resolution-2x"),
    ("field.ops", "field", "RationalField", _FIELD_OPS, "random-complexes"),
]

# prefixes whose repeat_frac is measured: share of calls whose arguments
# are structurally equal to an earlier call's
_REPEAT = {p for p, *_, stats in SPANS if "repeat_frac" in stats}


def _stats(prefix, args, result):
    """Size counters of one finished call."""
    if prefix == "groebner.vec_divide":
        return {"terms_in": len(args[0])}
    if prefix == "groebner.reduced_gb":
        return {"basis_out": len(result.elements)}
    if prefix == "groebner.syzygy_generators":
        return {"syz_out": len(result)}
    if prefix == "groebner.kernel_matrix":
        return {"cols_in": args[0].source.rank, "cols_out": result.source.rank}
    if prefix == "groebner.interreduce_columns":
        return {"cols_seen": len(args[2]), "cols_kept": len(result)}
    if prefix == "groebner.lift_matrix":
        return {"unsolvable": int(result is None)}
    return None


def layer_metric_names():
    """Every per-layer metric the traced run reports, in table order."""
    names = []
    for prefix, *_, stats in SPANS:
        names += [f"{prefix}.{s}" for s in stats]
    for prefix, *_ in COUNTS:
        if f"{prefix}.calls" not in names:
            names.append(f"{prefix}.calls")
    return names


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.nested = array("b")     # 1 when a span of the same name is open
        self._stack = []
        self._open = {}
        self.counts = {}             # prefix -> [calls]
        self.sizes = {}              # "prefix.stat" -> number
        self._seen = {}              # prefix -> set of argument fingerprints
        self.repeats = {}            # prefix -> repeated calls
        self.missing = []            # table entries not found in the program
        self.classes = None

    def _id(self, prefix):
        if prefix not in self._ids:
            self._ids[prefix] = len(self.names)
            self.names.append(prefix)
        return self._ids[prefix]

    def span(self, prefix, fn):
        nid = self._id(prefix)
        clock = time.perf_counter
        stack, opened = self._stack, self._open
        repeat = prefix in _REPEAT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if repeat:
                self._note_repeat(prefix, args, kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            depth = opened.get(nid, 0)
            self.nested.append(1 if depth else 0)
            opened[nid] = depth + 1
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                opened[nid] = depth
            sizes = _stats(prefix, args, result)
            if sizes:
                for k, v in sizes.items():
                    key = f"{prefix}.{k}"
                    self.sizes[key] = self.sizes.get(key, 0) + v
            return result
        return wrapper

    def count(self, prefix, fn):
        cell = self.counts.setdefault(prefix, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _note_repeat(self, prefix, args, kwargs):
        key = (fingerprint(args, self.classes),
               fingerprint(kwargs, self.classes))
        seen = self._seen.setdefault(prefix, set())
        if key in seen:
            self.repeats[prefix] = self.repeats.get(prefix, 0) + 1
        else:
            seen.add(key)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every table entry in the loaded homcalc modules."""
        mods = {name[len("homcalc."):]: m for name, m in sys.modules.items()
                if name.startswith("homcalc.")}
        self.classes = (mods["modules"].ModulePresentation,
                        mods["complexes"].FreeComplex,
                        mods["ring"].GradedMatrix,
                        mods["groebner"].QuotientRing)
        for prefix, modname, attr, *_ in SPANS:
            owner = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                if meth not in vars(cls):
                    self.missing.append(prefix)
                    continue
                setattr(cls, meth, self.span(prefix, vars(cls)[meth]))
                continue
            names = ([n for n in vars(owner) if n.startswith("verify_")]
                     if attr == "verify_*" else [attr])
            if not names or any(not hasattr(owner, n) for n in names):
                self.missing.append(prefix)
                continue
            for n in names:
                fn = getattr(owner, n)
                _rebind(mods, fn, self.span(prefix, fn))
        for prefix, modname, cls_name, meths, _ in COUNTS:
            cls = getattr(mods[modname], cls_name)
            for meth in meths:
                if meth in vars(cls):
                    setattr(cls, meth, self.count(prefix, vars(cls)[meth]))
                else:
                    self.missing.append(f"{prefix}:{cls_name}.{meth}")

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, by the names of ``layer_metric_names``."""
        name = np.frombuffer(self.name, dtype=np.uint16)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = np.frombuffer(self.nested, dtype=np.int8)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for prefix, *_, stats in SPANS:
            nid = self._ids.get(prefix)
            mask = name == nid if nid is not None else np.zeros(len(dur), bool)
            calls = int(mask.sum())
            values = {
                "calls": calls,
                "self_s": float(own[mask].sum()),
                "total_s": float(dur[mask & (nested == 0)].sum()),
                "repeat_frac": self.repeats.get(prefix, 0) / calls
                if calls else 0.0,
            }
            for k, v in self.sizes.items():
                if k.startswith(prefix + "."):
                    values[k[len(prefix) + 1:]] = v
            if values.get("cols_seen"):
                values["kept_frac"] = values["cols_kept"] / values["cols_seen"]
            for s in stats:
                out[f"{prefix}.{s}"] = values.get(s, 0)
        for prefix, *_ in COUNTS:
            out[f"{prefix}.calls"] = self.counts.get(prefix, [0])[0]
        return out

    def uncovered(self, workload, metrics):
        """Table entries meant to be exercised by this workload that
        recorded no call: an alias left unwrapped, or a missing name."""
        bad = list(self.missing)
        called = set(np.frombuffer(self.name, dtype=np.uint16).tolist())
        for prefix, _, _, target, _ in SPANS:
            if target == workload and self._ids.get(prefix) not in called:
                bad.append(prefix)
        for prefix, *_, target in COUNTS:
            if target == workload and not metrics[f"{prefix}.calls"]:
                bad.append(prefix)
        return sorted(set(bad))

    def write(self, path):
        """Write the spans out as arrays: name index, start, end, parent."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64))


def _rebind(mods, fn, wrapper):
    for m in mods.values():
        for k, v in list(vars(m).items()):
            if v is fn:
                setattr(m, k, wrapper)


def fingerprint(x, classes):
    """Hashable structural key of an argument: equal keys mean equal
    presentations, complexes, matrices and rings."""
    module_cls, complex_cls, matrix_cls, ring_cls = classes
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (tuple, list)):
        return tuple(fingerprint(v, classes) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, fingerprint(v, classes))
                            for k, v in x.items()))
    if isinstance(x, module_cls):
        return (type(x).__name__, fingerprint(x.ring, classes),
                fingerprint(x.relations, classes))
    if isinstance(x, complex_cls):
        return ("complex", fingerprint(x.ring, classes),
                tuple(sorted((i, f.twists) for i, f in x.terms.items())),
                tuple(sorted((i, fingerprint(m, classes))
                             for i, m in x.diffs.items())),
                repr(x.window), x.true_lo, x.true_hi, x.complete)
    if isinstance(x, matrix_cls):
        return ("matrix", x.source.twists, x.target.twists,
                tuple(sorted((k, tuple(sorted(p.terms.items())))
                             for k, p in x.entries.items())))
    if isinstance(x, ring_cls):
        return ("ring", repr(x.field), x.names, x.weights,
                tuple(tuple(sorted(p.terms.items())) for p in x.ideal_basis))
    raise TypeError(f"no structural key for {type(x).__name__}")
