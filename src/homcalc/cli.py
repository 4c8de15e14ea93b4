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
from .ring import (PolyRing, GradedFree, GradedMatrix, HomogeneityError,
                   TermRangeError)
from .groebner import NotArtinianError, QuotientRing
from .complexes import (multiplication_map, shift_complex, direct_sum, cone,
                        UncertifiedDegreeError)
from .modules import (ModulePresentation, syzygy, canonical_module,
                      resolution, NotCohenMacaulayError)
from .invariants import (betti_table, bass_table, depth, kdim_complex,
                         type_of, nu, residue_field, pd_verdict, id_verdict,
                         ext_dims, tor_dims, ZeroModuleError,
                         WindowInsufficientError)
from .semidualizing import (NotSemidualizingError,
                            semidualizing_certificate, dualizing_verdict,
                            gcdim, verify_type_formula,
                            verify_dualizing_criteria,
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
                   NotArtinianError, TermRangeError)


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


_EXPECTED = {dict: "an object", list: "a list", str: "a name"}


def _expect(value, kind, where):
    """value when it is an object (kind dict), a list (list; a tuple
    also passes) or a name (str); else a located InputError."""
    ok = isinstance(value, (list, tuple) if kind is list else kind)
    if not ok:
        raise InputError(f"{where}: expected {_EXPECTED[kind]}, "
                         f"got {value!r}")
    return value


def _ref(value, declared, where, what="name"):
    """value when it is a name declared in `declared`; else a located
    InputError."""
    if _expect(value, str, where) not in declared:
        raise InputError(f"{where}: undefined {what} '{value}'")
    return value


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
    where = f"module '{name}'"
    if not isinstance(spec, dict) or len(spec) != 1:
        raise InputError(f"{where}: expected a single-key form")
    form, payload = next(iter(spec.items()))
    if form == "cyclic":
        polys = [_parse_poly(qr, s, where)
                 for s in _expect(payload, list, where)]
        return ModulePresentation.cyclic(qr, polys)
    if form == "free":
        return ModulePresentation.free(
            qr, [_int(t, where) for t in _expect(payload, list, where)])
    if form == "canonical":
        return canonical_module(qr)
    if form == "syzygy":
        base, g = _pair(payload, where)
        _ref(base, modules, where)
        g = _int(g, where)
        if g < 0:
            raise InputError(f"{where}: syzygy index {g} is negative")
        return syzygy(modules[base], g)
    if form == "presentation":
        _expect(payload, dict, where)
        twists = [_int(t, where)
                  for t in _expect(payload.get("gens"), list, f"{where} gens")]
        gens = GradedFree.of(twists)
        cols = _expect(payload.get("columns"), list, f"{where} columns")
        entries, src = {}, []
        for j, col in enumerate(cols):
            if len(_expect(col, list, f"{where} column {j}")) != len(twists):
                raise InputError(f"{where}: column {j} has "
                                 f"{len(col)} entries, expected {len(twists)}")
            parsed = [(_parse_poly(qr, s, f"{where} column {j}"), i)
                      for i, s in enumerate(col)]
            nz = [(p, i) for p, i in parsed if not p.is_zero()]
            if not nz:
                raise InputError(f"{where}: column {j} is zero")
            src.append(nz[0][0].degree() + twists[nz[0][1]])
            for p, i in nz:
                entries[(i, j)] = p
        m = GradedMatrix(qr, GradedFree.of(src), gens, entries)
        try:
            m.validate_homogeneous()
        except ValueError as e:
            raise InputError(f"{where}: {e}") from None
        return ModulePresentation(qr, m)
    raise InputError(f"{where}: unknown form '{form}'")


def _build_map(qr, spec, name):
    if not isinstance(spec, dict) or "multiply" not in spec:
        raise InputError(f"map '{name}': expected {{\"multiply\": poly}}")
    p = _parse_poly(qr, spec["multiply"], f"map '{name}'")
    twists = [_int(t, f"map '{name}'")
              for t in _expect(spec.get("twists", [0]), list, f"map '{name}'")]
    return multiplication_map(qr, p, twists)


def _build_complex(modules, complexes, maps, name, spec, default_bound):
    where = f"complex '{name}'"
    _expect(spec, dict, where)
    if "module" in spec:
        base = _ref(spec["module"], modules, where)
        return resolution(modules[base], _bound(
            spec.get("bound", default_bound), where))
    if "shift" in spec:
        base, n = _pair(spec["shift"], where)
        return shift_complex(complexes[_ref(base, complexes, where)],
                             _int(n, where))
    if "sum" in spec:
        a, b = _pair(spec["sum"], where)
        return direct_sum(complexes[_ref(a, complexes, where)],
                          complexes[_ref(b, complexes, where)])
    if "cone" in spec:
        return cone(maps[_ref(spec["cone"], maps, where)])
    raise InputError(f"{where}: unknown form {sorted(spec)}")


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
    variables = [str(v) for v in
                 _expect(ring_spec["variables"], list, "ring: variables")]
    weights = [_int(w, "ring: weights")
               for w in _expect(ring_spec.get("weights", [1] * len(variables)),
                                list, "ring: weights")]
    try:
        ambient = PolyRing(field, variables, weights=weights)
    except Exception as e:
        raise InputError(f"ring: {e}") from None
    rels = []
    for s in _expect(ring_spec.get("relations", []), list, "ring: relations"):
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
    for mname, spec in _expect(doc.get("modules", {}), dict,
                               "modules").items():
        modules[mname] = _build_module(qr, modules, mname, spec)
    maps = {}
    for fname, spec in _expect(doc.get("maps", {}), dict, "maps").items():
        maps[fname] = _build_map(qr, spec, fname)
    complexes = {}
    for cname, spec in _expect(doc.get("complexes", {}), dict,
                               "complexes").items():
        complexes[cname] = _build_complex(modules, complexes, maps,
                                          cname, spec, default_bound)
    tasks = []
    for idx, t in enumerate(_expect(doc.get("tasks", []), list, "tasks")):
        _expect(t, dict, f"task {idx}")
        op = _expect(t.get("op"), str, f"task {idx} op")
        if op not in _OPS:
            raise InputError(f"task {idx}: unknown operation '{op}'")
        args = list(_expect(t.get("args", []), list, f"task {idx} args"))
        _OPS[op].check(modules, complexes, args, idx)
        bound = t.get("bound")
        tasks.append({"op": op, "args": args, "bound": None if bound is None
                      else _bound(bound, f"task {idx}")})
    return Problem(doc.get("name", ""), field_desc, qr, modules, complexes,
                   maps, tasks)


# ---------------------------------------------------------------------------
# result serialization


def _jsonable(x):
    """Plain JSON data of a value: a result (see invariants.Result) maps
    to its KIND and FIELDS, containers map element by element."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return x if x == x and abs(x) != float("inf") else str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(),
                                                        key=lambda kv: str(kv[0]))}
    if hasattr(x, "FIELDS"):
        return {"kind": x.KIND,
                **{f: _jsonable(getattr(x, f)) for f in x.FIELDS}}
    raise TypeError(f"cannot serialize {type(x).__name__}")


# ---------------------------------------------------------------------------
# operations


class _Op:
    """One row of the operation table.

    fn names the function to call; it is looked up among this module's
    globals at call time, so a rebinding of that name (say, by a tracer
    or a test) is seen.  kinds gives each argument's kind: "obj" (a
    module or a complex), "module", "complex", "mode" or "int".  shape
    says what is done with the arguments and the result:
      "verdict"  fn(*args, bound), serialized by _jsonable;
      "value"    fn(*args) as a value;
      "check"    fn(*args) against the trailing integer argument;
      "dims"     fn(*args, 0, bound), a table of dimensions;
      "body"     fn(*args, bound, rng), already a result.
    """

    __slots__ = ("fn", "kinds", "shape", "what")

    def __init__(self, fn, kinds, shape="verdict", what=None):
        self.fn = fn
        self.kinds = kinds
        self.shape = shape
        self.what = what

    def check(self, modules, complexes, args, idx):
        if len(args) != len(self.kinds):
            raise InputError(f"task {idx}: expected {len(self.kinds)} "
                             f"argument(s), got {len(args)}")
        declared = {"obj": modules.keys() | complexes.keys(),
                    "module": modules, "complex": complexes}
        for a, kind in zip(args, self.kinds):
            if kind in declared:
                _ref(a, declared[kind], f"task {idx}",
                     "name" if kind == "obj" else kind)
            if kind == "mode" and a not in ("hom-MR", "hom-MM"):
                raise InputError(f"task {idx}: unknown mode '{a}'")
            if kind == "int":
                _int(a, f"task {idx}")

    def run(self, p, args, bound, rng):
        vals = [_argument(p, kind, a) for kind, a in zip(self.kinds, args)]
        fn = globals()[self.fn]
        if self.shape == "value":
            return {"kind": "value", "value": fn(*vals)}
        if self.shape == "check":
            *objs, expected = vals
            value = fn(*objs)
            return {"kind": "check", "what": self.what,
                    "value": _jsonable(value), "expected": expected,
                    "status": "PASS" if value == expected else "FAIL"}
        if self.shape == "dims":
            return {"kind": "dims", "values": _jsonable(fn(*vals, 0, bound))}
        if self.shape == "body":
            return fn(*vals, bound, rng)
        return _jsonable(fn(*vals, bound))


def _argument(p, kind, a):
    if kind == "obj":
        return p.modules[a] if a in p.modules else p.complexes[a]
    if kind == "module":
        return p.modules[a]
    if kind == "complex":
        return p.complexes[a]
    if kind == "int":
        return int(a)
    return a


def _hilbert(m, b, rng):
    return {"kind": "series", "coefficients": m.hilbert_series().coeffs(0, b)}


def _shift_spot(m, b, rng):
    """Seeded spot-check of the shift identities on a module's resolution
    complex: beta and mu indices translate with the shift, depth drops by
    it.  Comparison stays inside the intersection of certified windows."""
    n = rng.choice([-2, -1, 1, 2])
    S = shift_complex(resolution(m, b + abs(n) + 2), n)
    bt_m = betti_table(m, b)
    bt_s = betti_table(S, b + n)
    mu_m = bass_table(m, b)
    mu_s = bass_table(S, b)
    ok = depth(S) == depth(m) - n
    checked = 0
    for j in range(n, min(bt_s.certified[1], bt_m.certified[1] + n) + 1):
        ok = ok and bt_s.value(j) == bt_m.value(j - n)   # beta_j(S) = beta_{j-n}
        checked += 1
    for j in range(-n, min(mu_s.certified[1], mu_m.certified[1] - n) + 1):
        ok = ok and mu_s.value(j) == mu_m.value(j + n)   # mu^j(S) = mu^{j+n}
        checked += 1
    if checked == 0:
        ok = False
    return {"kind": "check", "what": "shift-identity", "n": n,
            "checked": checked, "status": "PASS" if ok else "FAIL"}


_OPS = {
    "betti": _Op("betti_table", ("obj",)),
    "bass": _Op("bass_table", ("obj",)),
    "depth": _Op("depth", ("obj",), "value"),
    "dim": _Op("kdim_complex", ("obj",), "value"),
    "type": _Op("type_of", ("obj",), "value"),
    "nu": _Op("nu", ("module",), "value"),
    "check-depth": _Op("depth", ("obj", "int"), "check", "depth"),
    "check-dim": _Op("kdim_complex", ("obj", "int"), "check", "dim"),
    "check-type": _Op("type_of", ("obj", "int"), "check", "type"),
    "hilbert": _Op("_hilbert", ("module",), "body"),
    "pd": _Op("pd_verdict", ("obj",)),
    "id": _Op("id_verdict", ("obj",)),
    "ext": _Op("ext_dims", ("module", "module"), "dims"),
    "tor": _Op("tor_dims", ("module", "module"), "dims"),
    "gcdim": _Op("gcdim", ("obj", "module")),
    "semidualizing": _Op("semidualizing_certificate", ("obj",)),
    "dualizing": _Op("dualizing_verdict", ("obj",)),
    "verify-type-formula": _Op("verify_type_formula", ("obj", "obj")),
    "verify-dualizing-criteria": _Op("verify_dualizing_criteria",
                                     ("obj", "module")),
    "verify-finite-injective": _Op("verify_finite_injective_from_homology",
                                   ("complex",)),
    "verify-descent": _Op("verify_ext_vanishing_descent",
                          ("module", "module")),
    "verify-auslander-reiten": _Op("verify_auslander_reiten",
                                   ("module", "mode")),
    "verify-convolution": _Op("verify_betti_bass_convolution", ("obj", "obj")),
    "verify-generator-count": _Op("verify_generator_count_formula",
                                  ("module", "module")),
    "shift-identity-spot": _Op("_shift_spot", ("module",), "body"),
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
               field_override=None) -> dict:
    """Run the shipped fixture suite; filter keeps tasks whose operation
    name contains the given substring."""
    from .corpus import corpus_problems
    runs = []
    t0 = time.monotonic()
    for doc in corpus_problems():
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


def emit_report(doc: dict) -> str:
    """Canonical machine form: sorted keys, timing stripped."""
    return json.dumps(_strip_timing(doc), sort_keys=True, indent=2) + "\n"


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
        if r["n"] is not None:
            return f"{head}  {r['status']} {r['n']}"
        if r["status"] == "unknown":
            return f"{head}  unknown >={r['bound']}"
        return f"{head}  {r['status']} ({r['witness']})"
    if kind == "gcdim":
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
