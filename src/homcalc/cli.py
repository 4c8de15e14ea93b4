"""Problem-file reader, task runner, and report emission.

A problem file is a single JSON document with polynomial strings:

    {
      "field": {"prime": 7},              // or "rational"
      "ring": {"variables": ["x", "y"],
               "weights": [1, 1],
               "relations": ["x^2", "x*y", "y^2"]},
      "modules": {"M": {"cyclic": ["x"]},
                  "F": {"free": [0, -1]},
                  "omega": {"canonical": true},
                  "S": {"syzygy": ["M", 2]},
                  "P": {"presentation": {"gens": [0, 1],
                                         "columns": [["x", "y"]]}}},
      "maps": {"f": {"multiply": "x + y", "twists": [0]}},
      "complexes": {"X": {"module": "M", "bound": 6},
                    "Y": {"shift": ["X", 2]},
                    "Z": {"sum": ["X", "Y"]},
                    "C": {"cone": "f"}},
      "tasks": [{"op": "betti", "args": ["M"], "bound": 6}]
    }

The module names "k" and "R" are predeclared (residue field and rank-one
free).  Maps are multiplication by a homogeneous element on a free
complex concentrated in degree zero; their cones provide two-term test
complexes.  Every name must be declared before it is referenced, all
polynomials must be homogeneous for the declared weights, and a task may
omit "bound" to inherit the runner default.

Reports are emitted as canonical JSON (sorted keys, no timing data), so
two runs of the same problem file are byte-identical; the text format
adds timing for humans.  Exit codes: 0 clean, 1 when any FAIL entry is
present (UNCERTIFIED is listed but does not fail a run), 2 on input
errors, 3 when a task hit an internal fault.

A task that raises one of DOMAIN_REFUSALS gets an "error" entry: the
question has no answer here (say, the module is not semidualizing), and
the run goes on as usual.  Any other exception is an internal fault: its
entry also carries "internal": true, the text report ends with
"result: ERROR", and the exit code is 3.
"""

import argparse
import json
import random
import sys
import time

from . import __version__
from .field import PrimeField, RationalField
from .ring import PolyRing, GradedFree, GradedMatrix, HomogeneityError
from .groebner import NotArtinianError, QuotientRing
from .complexes import (FreeComplex, ChainMap, module_as_complex,
                        shift_complex, direct_sum, cone,
                        UncertifiedDegreeError)
from .modules import (ModulePresentation, syzygy, canonical_module,
                      from_module, NotCohenMacaulayError)
from .invariants import (InvariantTable, FinitenessVerdict, betti_table,
                         bass_table, depth, kdim_complex, type_of, nu,
                         residue_field, pd_verdict, id_verdict, ext_dims,
                         tor_dims, ZeroModuleError, WindowInsufficientError)
from .semidualizing import (NotSemidualizingError,
                            SdcCertificate, DualizingVerdict, GcdimVerdict,
                            MembershipVerdict, VerificationReport,
                            semidualizing_certificate, dualizing_verdict,
                            gcdim_module, gcdim_complex, in_auslander_class,
                            verify_type_formula, verify_dualizing_criteria,
                            verify_finite_injective_from_homology,
                            verify_ext_vanishing_descent,
                            verify_auslander_reiten,
                            verify_betti_bass_convolution,
                            verify_generator_count_formula)

SCHEMA = "homcalc-report/1"

#: exceptions that refuse the question asked rather than signal a bug
DOMAIN_REFUSALS = (NotSemidualizingError, ZeroModuleError,
                   NotCohenMacaulayError, UncertifiedDegreeError,
                   WindowInsufficientError, HomogeneityError,
                   NotArtinianError)


class InputError(ValueError):
    """Problem-file rejection with a located message."""


# ---------------------------------------------------------------------------
# problem building


class Problem:
    __slots__ = ("name", "field_desc", "qr", "modules", "complexes", "maps",
                 "tasks")

    def __init__(self, name, field_desc, qr, modules, complexes, maps, tasks):
        self.name = name
        self.field_desc = field_desc
        self.qr = qr
        self.modules = modules
        self.complexes = complexes
        self.maps = maps
        self.tasks = tasks


def parse_problem(text: str, field_override=None,
                  default_bound: int = 10) -> Problem:
    """Validated object model, or an InputError locating the defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"syntax error at line {e.lineno} column {e.colno}: "
                         f"{e.msg}") from None
    return build_problem(doc, field_override=field_override,
                         default_bound=default_bound)


def _int(value, where):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InputError(f"{where}: expected an integer, got {value!r}") \
            from None


def _bound(value, where):
    b = _int(value, where)
    if b < 1:
        raise InputError(f"{where}: bound must be at least 1, got {b}")
    return b


def _pair(payload, where):
    if not isinstance(payload, (list, tuple)) or len(payload) != 2:
        raise InputError(f"{where}: expected a two-element list, "
                         f"got {payload!r}")
    return payload


def _parse_poly(qr, text, where):
    try:
        p = qr.ambient.from_string(str(text))
    except Exception as e:
        raise InputError(f"{where}: cannot parse '{text}': {e}") from None
    degs = {qr.ambient.wdeg(e) for e in p.terms}
    if len(degs) > 1:
        raise InputError(f"{where}: '{text}' is inhomogeneous for weights "
                         f"{list(qr.ambient.weights)} (degrees {sorted(degs)})")
    return qr.reduce(p)


def _build_field(spec):
    if spec == "rational":
        return RationalField(), "rational"
    if isinstance(spec, dict) and "prime" in spec:
        try:
            return PrimeField(int(spec["prime"])), f"F_{int(spec['prime'])}"
        except Exception as e:
            raise InputError(f"field: {e}") from None
    raise InputError(f"field: expected {{\"prime\": p}} or \"rational\", "
                     f"got {spec!r}")


def _build_module(qr, modules, name, spec):
    if not isinstance(spec, dict) or len(spec) != 1:
        raise InputError(f"module '{name}': expected a single-key form")
    form, payload = next(iter(spec.items()))
    if form == "cyclic":
        polys = [_parse_poly(qr, s, f"module '{name}'") for s in payload]
        return ModulePresentation.cyclic(qr, polys)
    if form == "free":
        return ModulePresentation.free(
            qr, [_int(t, f"module '{name}'") for t in payload])
    if form == "canonical":
        return canonical_module(qr)
    if form == "syzygy":
        base, g = _pair(payload, f"module '{name}'")
        if base not in modules:
            raise InputError(f"module '{name}': undefined name '{base}'")
        g = _int(g, f"module '{name}'")
        if g < 0:
            raise InputError(f"module '{name}': syzygy index {g} is negative")
        return syzygy(modules[base], g)
    if form == "presentation":
        twists = [_int(t, f"module '{name}'") for t in payload["gens"]]
        gens = GradedFree.of(twists)
        cols = payload["columns"]
        entries, src = {}, []
        for j, col in enumerate(cols):
            if len(col) != len(twists):
                raise InputError(f"module '{name}': column {j} has "
                                 f"{len(col)} entries, expected {len(twists)}")
            parsed = [(_parse_poly(qr, s, f"module '{name}' column {j}"), i)
                      for i, s in enumerate(col)]
            nz = [(p, i) for p, i in parsed if not p.is_zero()]
            if not nz:
                raise InputError(f"module '{name}': column {j} is zero")
            src.append(nz[0][0].degree() + twists[nz[0][1]])
            for p, i in nz:
                entries[(i, j)] = p
        m = GradedMatrix(qr, GradedFree.of(src), gens, entries)
        try:
            m.validate_homogeneous()
        except ValueError as e:
            raise InputError(f"module '{name}': {e}") from None
        return ModulePresentation(qr, m)
    raise InputError(f"module '{name}': unknown form '{form}'")


def _build_map(qr, spec, name):
    if not isinstance(spec, dict) or "multiply" not in spec:
        raise InputError(f"map '{name}': expected {{\"multiply\": poly}}")
    p = _parse_poly(qr, spec["multiply"], f"map '{name}'")
    twists = [_int(t, f"map '{name}'") for t in spec.get("twists", [0])]
    d = p.degree() if not p.is_zero() else 0
    tgt = module_as_complex(qr, GradedFree.of(twists))
    srcf = GradedFree.of([t + d for t in twists])
    src = module_as_complex(qr, srcf)
    comp = GradedMatrix(qr, srcf, GradedFree.of(twists),
                        {(i, i): p for i in range(len(twists))
                         if not p.is_zero()})
    return ChainMap(src, tgt, {0: comp})


def _build_complex(qr, modules, complexes, maps, name, spec, default_bound):
    if not isinstance(spec, dict):
        raise InputError(f"complex '{name}': expected an object")
    if "module" in spec:
        base = spec["module"]
        if base not in modules:
            raise InputError(f"complex '{name}': undefined name '{base}'")
        return from_module(modules[base], _bound(
            spec.get("bound", default_bound), f"complex '{name}'"))
    if "shift" in spec:
        base, n = _pair(spec["shift"], f"complex '{name}'")
        if base not in complexes:
            raise InputError(f"complex '{name}': undefined name '{base}'")
        return shift_complex(complexes[base], _int(n, f"complex '{name}'"))
    if "sum" in spec:
        a, b = _pair(spec["sum"], f"complex '{name}'")
        for ref in (a, b):
            if ref not in complexes:
                raise InputError(f"complex '{name}': undefined name '{ref}'")
        return direct_sum(complexes[a], complexes[b])
    if "cone" in spec:
        ref = spec["cone"]
        if ref not in maps:
            raise InputError(f"complex '{name}': undefined name '{ref}'")
        return cone(maps[ref])
    raise InputError(f"complex '{name}': unknown form {sorted(spec)}")


def build_problem(doc: dict, field_override=None,
                  default_bound: int = 10) -> Problem:
    if not isinstance(doc, dict):
        raise InputError("top level must be an object")
    field_spec = field_override if field_override is not None \
        else doc.get("field", {"prime": 32003})
    field, field_desc = _build_field(field_spec)
    ring_spec = doc.get("ring")
    if not isinstance(ring_spec, dict) or "variables" not in ring_spec:
        raise InputError("ring: expected variables/weights/relations")
    variables = [str(v) for v in ring_spec["variables"]]
    weights = [_int(w, "ring: weights")
               for w in ring_spec.get("weights", [1] * len(variables))]
    try:
        ambient = PolyRing(field, variables, weights=weights)
    except Exception as e:
        raise InputError(f"ring: {e}") from None
    rels = []
    for s in ring_spec.get("relations", []):
        # parse in the ambient ring: quotient reduction needs the ideal
        try:
            p = ambient.from_string(str(s))
        except Exception as e:
            raise InputError(f"relation '{s}': {e}") from None
        degs = {ambient.wdeg(e) for e in p.terms}
        if len(degs) > 1:
            raise InputError(f"relation '{s}' is inhomogeneous for weights "
                             f"{weights} (degrees {sorted(degs)})")
        rels.append(p)
    qr = QuotientRing(ambient, rels)
    modules = {"k": residue_field(qr), "R": ModulePresentation.free(qr, [0])}
    for mname, spec in doc.get("modules", {}).items():
        modules[mname] = _build_module(qr, modules, mname, spec)
    maps = {}
    for fname, spec in doc.get("maps", {}).items():
        maps[fname] = _build_map(qr, spec, fname)
    complexes = {}
    for cname, spec in doc.get("complexes", {}).items():
        complexes[cname] = _build_complex(qr, modules, complexes, maps,
                                          cname, spec, default_bound)
    tasks = []
    for idx, t in enumerate(doc.get("tasks", [])):
        if not isinstance(t, dict):
            raise InputError(f"task {idx}: expected an object, got {t!r}")
        op = t.get("op")
        if op not in _OPS:
            raise InputError(f"task {idx}: unknown operation '{op}'")
        args = list(t.get("args", []))
        _OPS[op].check(modules, complexes, args, idx)
        bound = t.get("bound")
        tasks.append({"op": op, "args": args, "bound": None if bound is None
                      else _bound(bound, f"task {idx}")})
    return Problem(doc.get("name", ""), field_desc, qr, modules, complexes,
                   maps, tasks)


# ---------------------------------------------------------------------------
# result serialization


def _jsonable(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return x if x == x and abs(x) != float("inf") else str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(),
                                                        key=lambda kv: str(kv[0]))}
    if isinstance(x, InvariantTable):
        lo, hi = x.certified_range
        return {"kind": "table", "table": x.kind,
                "values": {str(i): v for i, v in sorted(x.values.items())},
                "certified": [lo, hi]}
    if isinstance(x, FinitenessVerdict):
        return {"kind": "finiteness", "status": x.status, "n": x.n,
                "bound": x.bound, "witness": x.witness}
    if isinstance(x, VerificationReport):
        return {"kind": "report", "name": x.name, "verdict": x.verdict,
                "hypotheses": _jsonable(dict(x.hypotheses)),
                "left": _jsonable(x.left), "right": _jsonable(x.right),
                "bound": x.bound, "notes": list(x.notes)}
    if isinstance(x, SdcCertificate):
        return {"kind": "semidualizing", "ok": x.ok, "bound": x.bound,
                "homothety_ok": x.homothety_ok,
                "ext_vanishing_ok": x.ext_vanishing_ok, "reason": x.reason}
    if isinstance(x, DualizingVerdict):
        return {"kind": "dualizing", "dualizing": x.dualizing,
                "reason": x.reason, "id_status": x.id_status,
                "gcdim_of_k": _jsonable(x.gcdim_of_k)}
    if isinstance(x, GcdimVerdict):
        return {"kind": "gcdim", "status": x.status, "g": x.g,
                "witness": x.witness, "bound": x.bound,
                "inf_rhom": _jsonable(x.inf_rhom)}
    if isinstance(x, MembershipVerdict):
        return {"kind": "membership", "status": x.status,
                "witness": x.witness, "bound": x.bound}
    raise TypeError(f"cannot serialize {type(x).__name__}")


# ---------------------------------------------------------------------------
# operations


class _Op:
    __slots__ = ("run", "arity", "kinds")

    def __init__(self, run, kinds):
        self.run = run
        self.kinds = kinds
        self.arity = len(kinds)

    def check(self, modules, complexes, args, idx):
        if len(args) != self.arity:
            raise InputError(f"task {idx}: expected {self.arity} argument(s), "
                             f"got {len(args)}")
        for a, kind in zip(args, self.kinds):
            if kind == "obj" and a not in modules and a not in complexes:
                raise InputError(f"task {idx}: undefined name '{a}'")
            if kind == "module" and a not in modules:
                raise InputError(f"task {idx}: undefined module '{a}'")
            if kind == "mode" and a not in ("hom-MR", "hom-MM"):
                raise InputError(f"task {idx}: unknown mode '{a}'")
            if kind == "int":
                try:
                    int(a)
                except (TypeError, ValueError):
                    raise InputError(f"task {idx}: expected an integer, "
                                     f"got {a!r}") from None


def _get(p, name):
    return p.modules[name] if name in p.modules else p.complexes[name]


def _check(what, value, expected):
    return {"kind": "check", "what": what, "value": _jsonable(value),
            "expected": _jsonable(expected),
            "status": "PASS" if value == expected else "FAIL"}


def _op_betti(p, a, b, rng):
    return _jsonable(betti_table(_get(p, a[0]), b))


def _op_bass(p, a, b, rng):
    return _jsonable(bass_table(_get(p, a[0]), b))


def _op_depth(p, a, b, rng):
    return {"kind": "value", "value": depth(_get(p, a[0]))}


def _op_dim(p, a, b, rng):
    return {"kind": "value", "value": kdim_complex(_get(p, a[0]))}


def _op_type(p, a, b, rng):
    return {"kind": "value", "value": type_of(_get(p, a[0]))}


def _op_nu(p, a, b, rng):
    return {"kind": "value", "value": nu(p.modules[a[0]])}


def _op_check_depth(p, a, b, rng):
    return _check("depth", depth(_get(p, a[0])), int(a[1]))


def _op_check_dim(p, a, b, rng):
    return _check("dim", kdim_complex(_get(p, a[0])), int(a[1]))


def _op_check_type(p, a, b, rng):
    return _check("type", type_of(_get(p, a[0])), int(a[1]))


def _op_hilbert(p, a, b, rng):
    hs = p.modules[a[0]].hilbert_series()
    return {"kind": "series", "coefficients": hs.coeffs(0, b)}


def _op_pd(p, a, b, rng):
    return _jsonable(pd_verdict(_get(p, a[0]), b))


def _op_id(p, a, b, rng):
    return _jsonable(id_verdict(_get(p, a[0]), b))


def _op_ext(p, a, b, rng):
    return {"kind": "dims", "values": _jsonable(
        ext_dims(p.modules[a[0]], p.modules[a[1]], 0, b))}


def _op_tor(p, a, b, rng):
    return {"kind": "dims", "values": _jsonable(
        tor_dims(p.modules[a[0]], p.modules[a[1]], 0, b))}


def _op_gcdim(p, a, b, rng):
    x, c = _get(p, a[0]), p.modules[a[1]]
    if isinstance(x, ModulePresentation):
        return _jsonable(gcdim_module(x, c, b))
    return _jsonable(gcdim_complex(x, c, b))


def _op_semidualizing(p, a, b, rng):
    return _jsonable(semidualizing_certificate(_get(p, a[0]), b))


def _op_dualizing(p, a, b, rng):
    return _jsonable(dualizing_verdict(_get(p, a[0]), b))


def _op_membership(p, a, b, rng):
    return _jsonable(in_auslander_class(_get(p, a[0]), p.modules[a[1]], b))


def _op_v_type(p, a, b, rng):
    return _jsonable(verify_type_formula(_get(p, a[0]), _get(p, a[1]), b))


def _op_v_dualizing(p, a, b, rng):
    return _jsonable(verify_dualizing_criteria(_get(p, a[0]),
                                               p.modules[a[1]], b))


def _op_v_fin_inj(p, a, b, rng):
    return _jsonable(verify_finite_injective_from_homology(
        p.complexes[a[0]], b))


def _op_v_descent(p, a, b, rng):
    return _jsonable(verify_ext_vanishing_descent(p.modules[a[0]],
                                                  p.modules[a[1]], b))


def _op_v_ar(p, a, b, rng):
    return _jsonable(verify_auslander_reiten(p.modules[a[0]], a[1], b))


def _op_v_conv(p, a, b, rng):
    return _jsonable(verify_betti_bass_convolution(_get(p, a[0]),
                                                   _get(p, a[1]), b))


def _op_v_gencount(p, a, b, rng):
    return _jsonable(verify_generator_count_formula(p.modules[a[0]],
                                                    p.modules[a[1]], b))


def _op_shift_spot(p, a, b, rng):
    """Seeded spot-check of the shift identities on a module's resolution
    complex: beta and mu indices translate with the shift, depth drops by
    it.  Comparison stays inside the intersection of certified windows."""
    m = p.modules[a[0]]
    n = rng.choice([-2, -1, 1, 2])
    S = shift_complex(from_module(m, b + abs(n) + 2), n)
    bt_m = betti_table(m, b)
    bt_s = betti_table(S, b + n)
    mu_m = bass_table(m, b)
    mu_s = bass_table(S, b)
    ok = depth(S) == depth(m) - n
    checked = 0
    for j in range(n, min(bt_s.certified_range[1],
                          bt_m.certified_range[1] + n) + 1):
        ok = ok and bt_s.value(j) == bt_m.value(j - n)   # beta_j(S) = beta_{j-n}
        checked += 1
    for j in range(-n, min(mu_s.certified_range[1],
                           mu_m.certified_range[1] - n) + 1):
        ok = ok and mu_s.value(j) == mu_m.value(j + n)   # mu^j(S) = mu^{j+n}
        checked += 1
    if checked == 0:
        ok = False
    return {"kind": "check", "what": "shift-identity", "n": n,
            "checked": checked, "status": "PASS" if ok else "FAIL"}


_OPS = {
    "betti": _Op(_op_betti, ("obj",)),
    "bass": _Op(_op_bass, ("obj",)),
    "depth": _Op(_op_depth, ("obj",)),
    "dim": _Op(_op_dim, ("obj",)),
    "type": _Op(_op_type, ("obj",)),
    "nu": _Op(_op_nu, ("module",)),
    "check-depth": _Op(_op_check_depth, ("obj", "int")),
    "check-dim": _Op(_op_check_dim, ("obj", "int")),
    "check-type": _Op(_op_check_type, ("obj", "int")),
    "hilbert": _Op(_op_hilbert, ("module",)),
    "pd": _Op(_op_pd, ("obj",)),
    "id": _Op(_op_id, ("obj",)),
    "ext": _Op(_op_ext, ("module", "module")),
    "tor": _Op(_op_tor, ("module", "module")),
    "gcdim": _Op(_op_gcdim, ("obj", "module")),
    "semidualizing": _Op(_op_semidualizing, ("obj",)),
    "dualizing": _Op(_op_dualizing, ("obj",)),
    "auslander-membership": _Op(_op_membership, ("obj", "module")),
    "verify-type-formula": _Op(_op_v_type, ("obj", "obj")),
    "verify-dualizing-criteria": _Op(_op_v_dualizing, ("obj", "module")),
    "verify-finite-injective": _Op(_op_v_fin_inj, ("obj",)),
    "verify-descent": _Op(_op_v_descent, ("module", "module")),
    "verify-auslander-reiten": _Op(_op_v_ar, ("module", "mode")),
    "verify-convolution": _Op(_op_v_conv, ("obj", "obj")),
    "verify-generator-count": _Op(_op_v_gencount, ("module", "module")),
    "shift-identity-spot": _Op(_op_shift_spot, ("module",)),
}


# ---------------------------------------------------------------------------
# runners


def run_tasks(problem: Problem, default_bound: int = 10,
              seed: int = 0) -> dict:
    """Execute every task; per-task errors are recorded and the run
    continues.  Entries appear in task order.  An error that is not a
    domain refusal is marked "internal"."""
    rng = random.Random(seed)
    entries = []
    t0 = time.monotonic()
    for idx, task in enumerate(problem.tasks):
        bound = task["bound"] if task["bound"] is not None else default_bound
        entry = {"index": idx, "op": task["op"], "args": list(task["args"]),
                 "bound": bound}
        try:
            entry["result"] = _OPS[task["op"]].run(problem, task["args"],
                                                   bound, rng)
        except Exception as e:
            entry["error"] = f"{type(e).__name__}: {e}"
            if not isinstance(e, DOMAIN_REFUSALS):
                entry["internal"] = True
        entries.append(entry)
    return {"schema": SCHEMA, "engine": __version__,
            "problem": problem.name, "field": problem.field_desc,
            "default_bound": default_bound, "seed": seed, "entries": entries,
            "timing": {"seconds": round(time.monotonic() - t0, 3)}}


def corpus_run(filter_expr=None, default_bound: int = 10, seed: int = 0,
               field_override=None, problems=None) -> dict:
    """Run the shipped fixture suite; filter keeps tasks whose operation
    name contains the given substring."""
    from .corpus import corpus_problems
    docs = problems if problems is not None else corpus_problems()
    runs = []
    t0 = time.monotonic()
    for doc in docs:
        if filter_expr:
            doc = dict(doc)
            doc["tasks"] = [t for t in doc["tasks"]
                            if filter_expr in t["op"]]
            if not doc["tasks"]:
                continue
        p = build_problem(doc, field_override=field_override,
                          default_bound=default_bound)
        runs.append(run_tasks(p, default_bound=default_bound, seed=seed))
    return {"schema": SCHEMA, "engine": __version__, "corpus": True,
            "filter": filter_expr or "", "runs": runs,
            "timing": {"seconds": round(time.monotonic() - t0, 3)}}


# ---------------------------------------------------------------------------
# report emission


def _strip_timing(doc):
    if isinstance(doc, dict):
        return {k: _strip_timing(v) for k, v in doc.items() if k != "timing"}
    if isinstance(doc, list):
        return [_strip_timing(v) for v in doc]
    return doc


def emit_report(doc: dict, include_timing: bool = False) -> str:
    """Canonical machine form: sorted keys, timing stripped."""
    body = doc if include_timing else _strip_timing(doc)
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def parse_report(text: str) -> dict:
    return json.loads(text)


def has_fail(doc) -> bool:
    """True when any FAIL verdict or status appears anywhere."""
    if isinstance(doc, dict):
        if doc.get("verdict") == "FAIL" or doc.get("status") == "FAIL":
            return True
        return any(has_fail(v) for v in doc.values())
    if isinstance(doc, list):
        return any(has_fail(v) for v in doc)
    return False


def has_internal_error(doc) -> bool:
    """True when any entry records an internal fault."""
    runs = doc["runs"] if "runs" in doc else [doc]
    return any(e.get("internal") for run in runs for e in run["entries"])


def _summary_line(entry):
    head = f"[{entry['index']}] {entry['op']}({', '.join(map(str, entry['args']))})" \
           f" bound={entry['bound']}"
    if "error" in entry:
        return f"{head}  ERROR {entry['error']}"
    r = entry["result"]
    kind = r.get("kind")
    if kind == "table":
        vals = ", ".join(f"{i}:{v}" for i, v in sorted(
            r["values"].items(), key=lambda kv: int(kv[0])))
        return f"{head}  {r['table']} {{{vals}}} certified={r['certified']}"
    if kind == "value":
        return f"{head}  = {r['value']}"
    if kind == "check":
        return f"{head}  {r['status']} ({r['what']})"
    if kind == "series":
        return f"{head}  {r['coefficients']}"
    if kind == "report":
        return f"{head}  {r['verdict']} left={r['left']} right={r['right']}"
    if kind == "finiteness":
        n = r["n"] if r["n"] is not None else f">={r['bound']}"
        return f"{head}  {r['status']} {n}"
    if kind in ("gcdim", "membership"):
        return f"{head}  {r['status']}"
    if kind == "semidualizing":
        return f"{head}  {'ok' if r['ok'] else r['reason']}"
    if kind == "dualizing":
        return f"{head}  {'dualizing' if r['dualizing'] else r['reason']}"
    if kind == "dims":
        return f"{head}  {r['values']}"
    return f"{head}  {r}"


def render_text(doc: dict) -> str:
    lines = [f"homcalc {doc['engine']} report"]
    runs = doc["runs"] if "runs" in doc else [doc]
    for run in runs:
        lines.append("")
        lines.append(f"== {run['problem'] or '(unnamed)'} over {run['field']}")
        for entry in run["entries"]:
            lines.append("  " + _summary_line(entry))
        if "timing" in run:
            lines.append(f"  -- {run['timing']['seconds']}s")
    if "timing" in doc and "runs" in doc:
        lines.append("")
        lines.append(f"total {doc['timing']['seconds']}s")
    lines.append("")
    if has_internal_error(doc):
        lines.append("result: ERROR")
    else:
        lines.append("result: FAIL" if has_fail(doc) else "result: ok")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="homcalc",
        description="exact homological invariants over graded quotient rings")
    ap.add_argument("--input", metavar="PATH",
                    help="problem file to run (default: shipped corpus)")
    ap.add_argument("--bound", type=int, default=10, metavar="N",
                    help="default truncation bound for tasks without one")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--filter", metavar="EXPR", default=None,
                    help="corpus mode: keep operations containing EXPR")
    ap.add_argument("--field", metavar="F", default=None,
                    help="override the field: a prime, or 'rational'")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized spot checks")
    args = ap.parse_args(argv)

    override = None
    if args.field is not None:
        if args.field == "rational":
            override = "rational"
        else:
            try:
                override = {"prime": int(args.field)}
            except ValueError:
                print(f"error: --field expects a prime or 'rational', "
                      f"got {args.field!r}", file=sys.stderr)
                return 2
    if args.bound < 1:
        print(f"error: --bound must be at least 1, got {args.bound}",
              file=sys.stderr)
        return 2

    try:
        if args.input:
            with open(args.input) as fh:
                text = fh.read()
            problem = parse_problem(text, field_override=override,
                                    default_bound=args.bound)
            report = run_tasks(problem, default_bound=args.bound,
                               seed=args.seed)
        else:
            report = corpus_run(filter_expr=args.filter,
                                default_bound=args.bound, seed=args.seed,
                                field_override=override)
    except (InputError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.format == "json":
        sys.stdout.write(emit_report(report))
    else:
        sys.stdout.write(render_text(report))
    if has_internal_error(report):
        return 3
    return 1 if has_fail(report) else 0


if __name__ == "__main__":
    sys.exit(main())
