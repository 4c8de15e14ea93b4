"""Task lists of the benchmark workloads.

Each workload is a list of problem documents in the form the homcalc
problem-file reader accepts (see ``homcalc.cli``), built from a seed.
``corpus`` and ``resolution-2x`` are fixed task lists: the seed does not
change them.
``random-complexes`` draws fresh rings from the seed.
"""

import random
import re

#: seed used while tuning the generator; claims are made on HELD_OUT_SEED
DEV_SEED = 1
HELD_OUT_SEED = 20260


def corpus(homcalc_corpus, seed):
    """The shipped corpus at its own bounds, in its own order."""
    return homcalc_corpus()


def resolution_2x(homcalc_corpus, seed):
    """The corpus's betti/bass/pd tasks on k, R and omega at twice their
    bounds: every invariant is asked for once, over larger resolutions."""
    docs = []
    for doc in homcalc_corpus():
        tasks = [dict(t, bound=2 * t["bound"]) for t in doc["tasks"]
                 if t["op"] in ("betti", "bass", "pd")
                 and t["args"][0] in ("k", "R", "omega")]
        if tasks:
            docs.append(dict(doc, tasks=tasks))
    return docs


# -- random-complexes --------------------------------------------------------
#
# Two variables of weight one, exponents at most 3, bounds at most 4: a
# three-variable prototype had a heavy tail (one ring took 45 s), and even
# with two variables a random non-complete-intersection artinian ring can
# take 30 s at bound 4, because its Betti numbers grow exponentially.  So
# each pass runs a fixed menu of templates in variables (u, v), and the
# seed draws a random invertible linear change of coordinates
# u = x + a*y, v = c*x + y for each one.  Every ring is new (caches keyed
# per ring start cold), its cost hardly depends on the seed, and since the
# generated ring is isomorphic to its template every answer must equal the
# template's answer: a second correctness route besides the oracle.

PRIME = 32003

# (name, field, relations, module generator, cone map, bound, finite_pd)
# finite_pd marks templates where the module generator is a
# nonzerodivisor, so the module's resolution is a complete complex and the
# complex-route Bass, depth and G-dimension tasks are well posed.
TEMPLATES = [
    ("ci22", "p", ["u^2", "v^2"], "u", "u + v", 4, False),
    ("ci23", "p", ["u^2", "v^3"], "u + v", "v", 4, False),
    ("golod", "p", ["u^2", "u*v", "v^3"], "v", "u + v", 3, False),
    ("node", "p", ["u*v"], "u + v", "u - v", 4, True),
    ("cubic", "p", ["u^2*v + v^3"], "u", "u + v", 4, True),
    ("node-q", "q", ["u*v"], "u + v", "u - v", 4, True),
    ("cubic-q", "q", ["u^2*v + v^3"], "u", "u + v", 4, True),
    ("embedded", "p", ["u^2", "u*v"], "v", "u + v", 4, False),
    ("embedded-q", "q", ["u^2", "u*v"], "v", "u + v", 4, False),
]

_COMMON = [("betti", ["X"]), ("betti", ["Z"]), ("betti", ["C"]),
           ("bass", ["C"]), ("depth", ["C"]), ("gcdim", ["C", "R"]),
           ("verify-type-formula", ["C", "R"]),
           ("verify-finite-injective", ["C"]),
           ("verify-convolution", ["C", "R"])]
_FINITE_PD = [("bass", ["X"]), ("depth", ["Z"]), ("gcdim", ["X", "R"]),
              ("verify-type-formula", ["X", "R"]),
              ("verify-convolution", ["X", "R"])]


def _parse(text):
    """'u^2*v + v^3' -> {(2, 1): 1, (0, 3): 1}; templates use + and -
    between unit-coefficient monomials only."""
    out = {}
    for sign, mono in re.findall(r"([+-]?)\s*([uv^0-9*]+)", text):
        e = [0, 0]
        for part in mono.split("*"):
            name, _, k = part.partition("^")
            e["uv".index(name)] += int(k or 1)
        out[tuple(e)] = out.get(tuple(e), 0) + (-1 if sign == "-" else 1)
    return out


def _mul(f, g):
    out = {}
    for (a, b), c in f.items():
        for (d, e), k in g.items():
            out[(a + d, b + e)] = out.get((a + d, b + e), 0) + c * k
    return out


def _substitute(text, u, v, prime):
    """The form with u, v replaced by linear forms in x, y, as a dict."""
    out = {}
    for (i, j), c in _parse(text).items():
        term = {(0, 0): c}
        for _ in range(i):
            term = _mul(term, u)
        for _ in range(j):
            term = _mul(term, v)
        for e, k in term.items():
            out[e] = out.get(e, 0) + k
    if prime:
        out = {e: c % prime for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def _dense(poly):
    """Every monomial of the form's degree has a nonzero coefficient."""
    return len(poly) == sum(next(iter(poly))) + 1


def _format(poly):
    parts = []
    for (i, j), c in sorted(poly.items(), reverse=True):
        mono = "*".join(s for s in (_power("x", i), _power("y", j)) if s)
        mag = abs(c)
        body = mono if mag == 1 else f"{mag}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _power(name, k):
    return "" if k == 0 else name if k == 1 else f"{name}^{k}"


def _coordinates(rng, template):
    """Invertible u = x + a*y, v = c*x + y with a, c nonzero, under which
    every form of the template has all its monomials: a sparse form (say
    a = 1, c = -1 turns u*v into x^2 - y^2) is cheaper, and would make a
    run's cost depend on its seed."""
    rational = template[1] == "q"
    while True:
        if rational:
            # one magnitude each keeps the coefficient sizes, and with
            # them the cost of Q arithmetic, the same for every seed
            a, c = rng.choice([-2, 2]), rng.choice([-3, 3])
        else:
            a, c = (rng.randrange(1, PRIME) for _ in range(2))
        det = 1 - a * c
        if (det if rational else det % PRIME) == 0:
            continue
        u, v = {(1, 0): 1, (0, 1): a}, {(1, 0): c, (0, 1): 1}
        if all(_dense(f) for f in _forms(template, u, v).values()):
            return u, v, (a, c)


def _forms(template, u, v):
    """Relations, module generator and cone map of a template in the
    coordinates u, v."""
    _, field, rels, gen, fmap, _, _ = template
    prime = PRIME if field == "p" else None
    out = {f"rel{i}": _substitute(r, u, v, prime) for i, r in enumerate(rels)}
    out["gen"] = _substitute(gen, u, v, prime)
    out["map"] = _substitute(fmap, u, v, prime)
    return out


def template_doc(template, u=None, v=None, tag=""):
    """Problem document of a template, in the coordinates u, v (identity
    when not given)."""
    name, field, rels, _, _, bound, finite_pd = template
    forms = {k: _format(f) for k, f in
             _forms(template, u or {(1, 0): 1}, v or {(0, 1): 1}).items()}
    tasks = _COMMON + (_FINITE_PD if finite_pd else [])
    return {
        "name": f"{name}{tag}",
        "field": {"prime": PRIME} if field == "p" else "rational",
        "ring": {"variables": ["x", "y"], "weights": [1, 1],
                 "relations": [forms[f"rel{i}"] for i in range(len(rels))]},
        "modules": {"M": {"cyclic": [forms["gen"]]}},
        "maps": {"f": {"multiply": forms["map"]}},
        "complexes": {"X": {"module": "M", "bound": bound},
                      "Y": {"shift": ["X", 1]},
                      "Z": {"sum": ["X", "Y"]},
                      "C": {"cone": "f"}},
        "tasks": [{"op": op, "args": list(args), "bound": bound}
                  for op, args in tasks],
    }


def random_complexes(homcalc_corpus, seed):
    """One fresh ring per template, each in random coordinates."""
    rng = random.Random(seed)
    docs = []
    for t in TEMPLATES:
        u, v, (a, c) = _coordinates(rng, t)
        docs.append(template_doc(t, u, v, tag=f"@{a},{c}"))
    return docs


WORKLOADS = {
    "corpus": corpus,
    "resolution-2x": resolution_2x,
    "random-complexes": random_complexes,
}
