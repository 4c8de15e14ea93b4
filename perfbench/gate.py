"""Correctness gate, run outside the timed region.

``corpus`` compares every entry with a reference taken from the seed
engine and kept in ``reference/``.  ``random-complexes`` compares every
entry with the answer of the ring's template (the generated ring is the
template in other coordinates, so every answer must agree), and on
artinian rings over F_p also checks the Betti numbers of the module and of
X (+) X[1] against the dense oracle.  Every workload rejects an
``error`` entry and any FAIL status.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def reference_path(workload):
    return os.path.join(HERE, "reference", f"{workload}.json")


def load_reference(workload):
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def canonical(entry):
    return json.dumps(entry, sort_keys=True)


def check_pass(workload, docs, problems, entries, reference, has_fail,
               oracle):
    """Reasons each entry of one pass is wrong, as {(doc, index): reason}.

    entries[d] holds the entries of docs[d], in task order.
    """
    bad = {}
    for d, (doc, rows) in enumerate(zip(docs, entries)):
        key = doc["name"].split("@")[0]
        expected = reference.get(key)
        for e in rows:
            where = (doc["name"], e["index"])
            if "error" in e:
                bad[where] = f"error: {e['error']}"
            elif has_fail(e):
                bad[where] = "FAIL status"
            elif expected is None or e["index"] >= len(expected):
                bad[where] = "no reference entry"
            elif canonical(e) != canonical(expected[e["index"]]):
                bad[where] = "differs from the reference"
        if workload == "random-complexes":
            for idx, reason in _oracle_check(doc, problems[d], rows, oracle):
                bad.setdefault((doc["name"], idx), reason)
    return bad


def _oracle_check(doc, problem, rows, oracle):
    """Betti numbers of X (the module M) and of Z = X (+) X[1] against the
    oracle, inside each table's certified range."""
    qr = problem.qr
    if doc["field"] == "rational" or not qr.is_artinian():
        return []
    bound = doc["complexes"]["X"]["bound"]
    alg = oracle.realize(qr)
    beta = oracle.oracle_betti(oracle.from_presentation(alg,
                                                        problem.modules["M"]),
                               bound + 1)
    expect = {
        "X": lambda i: beta[i],
        "Z": lambda i: beta[i] + (beta[i - 1] if i >= 1 else 0),
    }
    out = []
    for e in rows:
        if e["op"] != "betti" or e["args"][0] not in expect or "result" not in e:
            continue
        r = e["result"]
        lo, hi = r["certified"]
        lo = 0 if lo is None else max(lo, 0)
        want = expect[e["args"][0]]
        for i in range(lo, min(hi, bound + 1) + 1):
            if r["values"].get(str(i), 0) != want(i):
                out.append((e["index"], f"betti_{i} disagrees with the oracle"))
                break
    return out
