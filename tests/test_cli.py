"""Problem files, task running, report plumbing, and exit codes."""

import json

import pytest

from homcalc import cli
from homcalc.cli import (InputError, parse_problem, build_problem, run_tasks,
                         corpus_run, emit_report, has_fail,
                         render_text, main)
from homcalc.corpus import corpus_problems

MINIMAL = """
{
  "field": {"prime": 32003},
  "ring": {"variables": ["x", "y"], "weights": [1, 1],
           "relations": ["x^2", "x*y", "y^2"]},
  "tasks": [{"op": "betti", "args": ["k"], "bound": 6}]
}
"""


def _dn_doc(tasks):
    return {"field": {"prime": 7},
            "ring": {"variables": ["x"], "weights": [1],
                     "relations": ["x^2"]},
            "tasks": tasks}


# ------------------------------------------------------------------- parsing

def test_parse_minimal_file():
    p = parse_problem(MINIMAL)
    assert p.field_desc == "F_32003"
    assert sorted(p.modules) == ["R", "k"]
    assert p.tasks == [{"op": "betti", "args": ["k"], "bound": 6}]


def test_parse_syntax_error_located():
    with pytest.raises(InputError) as e:
        parse_problem("{\n  \"field\": {,}\n}")
    assert "line 2" in str(e.value)
    assert "column" in str(e.value)


def test_parse_undefined_module_name():
    doc = _dn_doc([{"op": "betti", "args": ["W"], "bound": 3}])
    with pytest.raises(InputError) as e:
        build_problem(doc)
    assert "'W'" in str(e.value)


def test_parse_inhomogeneous_relation():
    doc = {"field": {"prime": 7},
           "ring": {"variables": ["x", "y"], "weights": [1, 1],
                    "relations": ["x^2 + y"]},
           "tasks": []}
    with pytest.raises(InputError) as e:
        build_problem(doc)
    assert "inhomogeneous" in str(e.value)


def test_parse_unknown_operation(tmp_path, capsys):
    # auslander-membership is no operation: refused as any unknown name
    for op, args in (("frobnicate", ["k"]),
                     ("auslander-membership", ["k", "R"])):
        doc = _dn_doc([{"op": op, "args": args}])
        with pytest.raises(InputError):
            build_problem(doc)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["--input", str(path)]) == 2
        assert op in capsys.readouterr().err


def test_parse_wrong_arity():
    doc = _dn_doc([{"op": "ext", "args": ["k"], "bound": 3}])
    with pytest.raises(InputError) as e:
        build_problem(doc)
    assert "argument" in str(e.value)


def test_parse_bad_mode():
    doc = _dn_doc([{"op": "verify-auslander-reiten", "args": ["R", "sideways"],
                    "bound": 3}])
    with pytest.raises(InputError) as e:
        build_problem(doc)
    assert "sideways" in str(e.value)


def test_parse_module_forms():
    doc = _dn_doc([])
    doc["modules"] = {"M": {"cyclic": ["x"]},
                      "F": {"free": [0, -2]},
                      "S": {"syzygy": ["M", 1]},
                      "P": {"presentation": {"gens": [0, 1],
                                             "columns": [["x", "0"]]}}}
    p = build_problem(doc)
    assert p.modules["F"].gens.rank == 2
    assert p.modules["P"].gens.rank == 2


def test_parse_presentation_zero_column_rejected():
    doc = _dn_doc([])
    doc["modules"] = {"P": {"presentation": {"gens": [0],
                                             "columns": [["0"]]}}}
    with pytest.raises(InputError) as e:
        build_problem(doc)
    assert "zero" in str(e.value)


def test_parse_complex_forms_and_cone():
    doc = {"field": {"prime": 7},
           "ring": {"variables": ["x", "y"], "weights": [1, 1],
                    "relations": ["x*y"]},
           "maps": {"f": {"multiply": "x + y"}},
           "complexes": {"X": {"module": "k", "bound": 4},
                         "Y": {"shift": ["X", 2]},
                         "Z": {"sum": ["X", "Y"]},
                         "C": {"cone": "f"}},
           "tasks": [{"op": "betti", "args": ["C"], "bound": 3}]}
    p = build_problem(doc)
    assert p.complexes["Y"].term(2).rank == p.complexes["X"].term(0).rank
    assert p.complexes["C"].term(1).rank == 1


def test_parse_undefined_map_for_cone():
    doc = _dn_doc([])
    doc["complexes"] = {"C": {"cone": "nope"}}
    with pytest.raises(InputError) as e:
        build_problem(doc)
    assert "nope" in str(e.value)


def test_field_override():
    p = build_problem(json.loads(MINIMAL), field_override={"prime": 5})
    assert p.field_desc == "F_5"
    assert p.qr.ambient.field.p == 5


# ------------------------------------------------------------------- running

def test_run_bass_table_example():
    doc = _dn_doc([{"op": "bass", "args": ["R"], "bound": 6}])
    rep = run_tasks(build_problem(doc))
    r = rep["entries"][0]["result"]
    assert r["kind"] == "table"
    # (1, 0, 0, 0, 0, 0): only mu^0 = 1 inside the certified window
    assert r["values"] == {"0": 1}
    assert r["certified"] == [None, 6]


def test_run_type_formula_example():
    doc = {"field": {"prime": 7},
           "ring": {"variables": ["x", "y"], "weights": [1, 1],
                    "relations": ["x^2", "y^2"]},
           "modules": {"M": {"cyclic": ["x"]}},
           "tasks": [{"op": "verify-type-formula", "args": ["M", "R"],
                      "bound": 4}]}
    rep = run_tasks(build_problem(doc))
    r = rep["entries"][0]["result"]
    assert r["verdict"] == "PASS"
    assert r["left"] == 1 and r["right"] == 1


def test_run_empty_task_list():
    rep = run_tasks(build_problem(_dn_doc([])))
    assert rep["entries"] == []
    assert not has_fail(rep)


def test_run_records_error_and_continues():
    doc = _dn_doc([{"op": "gcdim", "args": ["R", "k"], "bound": 3},
                   {"op": "depth", "args": ["R"], "bound": 3}])
    rep = run_tasks(build_problem(doc))
    assert "error" in rep["entries"][0]
    assert rep["entries"][1]["result"]["value"] == 0


def test_run_default_bound_applies():
    doc = _dn_doc([{"op": "bass", "args": ["R"]}])
    rep = run_tasks(build_problem(doc), default_bound=3)
    assert rep["entries"][0]["bound"] == 3
    assert rep["entries"][0]["result"]["certified"] == [None, 3]


def test_answers_do_not_depend_on_earlier_tasks():
    # a longer resolution of k computed first used to certify pd 2 and
    # betti [null, 2] at bound 2, where a run of its own reads [null, 1]
    def entries(tasks):
        doc = {"field": {"prime": 7},
               "ring": {"variables": ["x", "y"], "relations": []},
               "tasks": tasks}
        return [{k: v for k, v in e.items() if k != "index"}
                for e in run_tasks(build_problem(doc))["entries"]]

    pd2 = {"op": "pd", "args": ["k"], "bound": 2}
    betti2 = {"op": "betti", "args": ["k"], "bound": 2}
    after = entries([{"op": "pd", "args": ["k"], "bound": 3}, pd2, betti2])
    alone = entries([pd2, betti2])
    assert after[1:] == alone
    assert alone[1]["result"]["certified"] == [None, 1]


def test_shift_spot_seeded_deterministic():
    doc = _dn_doc([{"op": "shift-identity-spot", "args": ["k"], "bound": 4}])
    p = build_problem(doc)
    a = run_tasks(p, seed=11)
    b = run_tasks(p, seed=11)
    assert a["entries"][0]["result"] == b["entries"][0]["result"]
    assert a["entries"][0]["result"]["status"] == "PASS"


# ------------------------------------------------------------------- reports

def test_report_round_trip():
    doc = _dn_doc([{"op": "betti", "args": ["k"], "bound": 4},
                   {"op": "check-type", "args": ["R", 1], "bound": 3}])
    rep = run_tasks(build_problem(doc))
    text = emit_report(rep)
    again = json.loads(text)
    assert emit_report(again) == text
    assert "timing" not in again


def test_report_determinism_bytes():
    doc = _dn_doc([{"op": "betti", "args": ["k"], "bound": 4},
                   {"op": "dualizing", "args": ["R"], "bound": 3},
                   {"op": "shift-identity-spot", "args": ["k"], "bound": 3}])
    r1 = emit_report(run_tasks(build_problem(doc), seed=5))
    r2 = emit_report(run_tasks(build_problem(doc), seed=5))
    assert r1 == r2


def test_render_text_mentions_result():
    rep = run_tasks(build_problem(_dn_doc([{"op": "depth", "args": ["R"],
                                            "bound": 3}])))
    out = render_text(rep)
    assert "result: ok" in out
    assert "depth(R)" in out


def test_text_summary_of_zero_module_pd_names_its_witness():
    doc = _dn_doc([{"op": "pd", "args": ["Z"], "bound": 3}])
    doc["modules"] = {"Z": {"cyclic": ["1"]}}
    out = render_text(run_tasks(build_problem(doc)))
    assert "pd(Z) bound=3  finite-certified (zero module)\n" in out
    assert "None" not in out


def test_has_fail_spots_nested_fail():
    assert has_fail({"runs": [{"entries": [
        {"result": {"kind": "check", "status": "FAIL"}}]}]})
    assert not has_fail({"runs": [{"entries": [
        {"result": {"kind": "report", "verdict": "UNCERTIFIED"}}]}]})


# -------------------------------------------------------------------- corpus

def test_corpus_has_enough_rings():
    probs = corpus_problems()
    assert len(probs) >= 10
    names = [p["name"] for p in probs]
    assert len(set(names)) == len(names)
    weighted = [p for p in probs if set(p["ring"]["weights"]) != {1}]
    assert weighted  # the numerical semigroup ring is present
    rational = [p for p in probs if p["field"] == "rational"]
    assert rational


def test_corpus_filter_keeps_matching_ops():
    doc = corpus_run(filter_expr="check-", default_bound=4)
    ops = {e["op"] for r in doc["runs"] for e in r["entries"]}
    assert ops and all(op.startswith("check-") for op in ops)
    assert not has_fail(doc)


def test_corpus_broken_fixture_surfaces_fail(tmp_path, monkeypatch):
    broken = {"name": "broken", "field": {"prime": 7},
              "ring": {"variables": ["x"], "weights": [1],
                       "relations": ["x^2"]},
              "tasks": [{"op": "check-type", "args": ["R", 3], "bound": 3}]}
    monkeypatch.setattr("homcalc.corpus.corpus_problems", lambda: [broken])
    doc = corpus_run()
    assert has_fail(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    assert main(["--input", str(path), "--format", "json"]) == 1


# ----------------------------------------------------------------- exit codes

def test_main_ok_and_output(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_dn_doc([{"op": "depth", "args": ["R"],
                                         "bound": 3}])))
    code = main(["--input", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "homcalc-report/1"


def test_main_depth_above_ring_depth_is_no_internal_fault(tmp_path, capsys):
    doc = {"field": {"prime": 7},
           "ring": {"variables": ["x", "y"], "weights": [1, 1],
                    "relations": ["x^2", "x*y"]},
           "modules": {"M": {"cyclic": ["x"]}},
           "tasks": [{"op": "verify-type-formula", "args": ["M", "R"],
                      "bound": 3}]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path), "--format", "json"]) == 0
    r = json.loads(capsys.readouterr().out)["entries"][0]["result"]
    assert r["verdict"] == "HYPOTHESES-NOT-MET"
    assert r["hypotheses"]["finite-gcdim"] == "failed"


@pytest.mark.parametrize("relations", [["x^2", "x*y", "y^2"], ["x^2", "y^2"]])
def test_main_descent_refuses_the_zero_module(tmp_path, capsys, relations):
    # the theorem is about nonzero M and N, so a zero one is refused in
    # either place, over a ring that is Gorenstein and one that is not
    doc = {"field": {"prime": 7},
           "ring": {"variables": ["x", "y"], "weights": [1, 1],
                    "relations": relations},
           "modules": {"Z": {"cyclic": ["1"]}},
           "tasks": [{"op": "verify-descent", "args": args, "bound": 3}
                     for args in (["Z", "R"], ["R", "Z"], ["Z", "Z"])]}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path), "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [e.get("error") for e in entries] == \
        ["ZeroModuleError: Ext-descent needs nonzero M and N"] * 3
    assert all("result" not in e for e in entries)


def test_main_missing_file_is_input_error(capsys):
    assert main(["--input", "/nonexistent/problem.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_main_bad_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope}")
    assert main(["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_main_bad_field_flag(capsys):
    assert main(["--field", "six"]) == 2


def test_main_prime_one_is_input_error(tmp_path, capsys):
    doc = _dn_doc([{"op": "betti", "args": ["k"], "bound": 3}])
    doc["field"] = {"prime": 1}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path)]) == 2
    assert "field:" in capsys.readouterr().err


@pytest.mark.parametrize("bound", [-1, 0])
def test_main_bound_below_one_is_input_error(tmp_path, capsys, bound):
    # at bound -1 ext(k, k) used to report {}, and at 0 or -1 pd(k) over
    # the dual numbers read finite-certified 0
    path = tmp_path / "p.json"
    for task in ({"op": "ext", "args": ["k", "k"], "bound": bound},
                 {"op": "pd", "args": ["k"], "bound": bound}):
        path.write_text(json.dumps(_dn_doc([task])))
        assert main(["--input", str(path)]) == 2
        assert f"task 0: bound must be at least 1, got {bound}" \
            in capsys.readouterr().err
    path.write_text(json.dumps(_dn_doc([{"op": "pd", "args": ["k"]}])))
    assert main(["--input", str(path), "--bound", str(bound)]) == 2


def _malformed(key, value):
    doc = _dn_doc([])
    if key in ("variables", "weights", "relations"):
        doc["ring"][key] = value
    else:
        doc[key] = value
    return doc


@pytest.mark.parametrize("doc, message", [
    (_malformed("weights", ["a"]), "ring: weights: expected an integer"),
    (_malformed("modules", {"S": {"syzygy": ["M"]}}),
     "module 'S': expected a two-element list"),
    (_malformed("tasks", [5]), "task 0: expected an object"),
    (_malformed("complexes", {"X": {"module": "k", "bound": 0}}),
     "complex 'X': bound must be at least 1"),
    (_malformed("modules", []), "modules: expected an object"),
    (_malformed("maps", []), "maps: expected an object"),
    (_malformed("complexes", []), "complexes: expected an object"),
    (_malformed("relations", 5), "ring: relations: expected a list"),
    (_malformed("variables", 5), "ring: variables: expected a list"),
    (_malformed("weights", 5), "ring: weights: expected a list"),
    (_malformed("modules", {"M": {"cyclic": 5}}),
     "module 'M': expected a list"),
    (_malformed("modules", {"M": {"free": 5}}),
     "module 'M': expected a list"),
    (_malformed("modules", {"P": {"presentation": {"columns": []}}}),
     "module 'P' gens: expected a list, got None"),
    (_malformed("modules", {"P": {"presentation": {"gens": [0],
                                                   "columns": 5}}}),
     "module 'P' columns: expected a list"),
    (_malformed("maps", {"f": {"multiply": "x", "twists": 3}}),
     "map 'f': expected a list"),
    (_malformed("tasks", [{"op": "betti", "args": 5}]),
     "task 0 args: expected a list"),
    (_malformed("tasks", [{"op": "ext", "args": "kk"}]),
     "task 0 args: expected a list, got 'kk'"),
    (_malformed("tasks", [{"op": ["betti"], "args": ["k"]}]),
     "task 0 op: expected a name"),
    (_malformed("modules", {"S": {"syzygy": [["k"], 1]}}),
     "module 'S': expected a name"),
    (_malformed("complexes", {"X": {"module": ["k"]}}),
     "complex 'X': expected a name"),
    (_malformed("tasks", [{"op": "betti", "args": [["k"]]}]),
     "task 0: expected a name"),
    (_malformed("weights", [2 ** 31]),
     "ring: need one integer weight in 1..2^30 per variable"),
])
def test_main_malformed_file_is_input_error(tmp_path, capsys, doc, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_complex_argument_kind_is_checked(tmp_path, capsys):
    # verify-finite-injective takes a complex; a module name used to end
    # in KeyError: 'k' and exit 3
    doc = _dn_doc([{"op": "verify-finite-injective", "args": ["k"]}])
    with pytest.raises(InputError, match="task 0: undefined complex 'k'"):
        build_problem(doc)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path)]) == 2
    assert "task 0: undefined complex 'k'" in capsys.readouterr().err


def test_internal_fault_is_not_ok(tmp_path, capsys, monkeypatch):
    def broken(obj):
        raise ArithmeticError("S-pair of a Groebner basis did not reduce to zero")

    monkeypatch.setattr(cli, "depth", broken)
    doc = _dn_doc([{"op": "depth", "args": ["R"], "bound": 3},
                   {"op": "gcdim", "args": ["R", "k"], "bound": 3}])
    rep = run_tasks(build_problem(doc))
    fault, refusal = rep["entries"]
    assert fault["error"].startswith("ArithmeticError: S-pair")
    assert fault["internal"] is True
    assert "internal" not in refusal and "error" in refusal
    assert render_text(rep).endswith("result: ERROR\n")
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path), "--format", "json"]) == 3
    assert json.loads(capsys.readouterr().out)["entries"][0]["internal"]
    assert main(["--input", str(path)]) == 3
    assert capsys.readouterr().out.endswith("result: ERROR\n")


@pytest.mark.parametrize("op", ["ext", "tor"])
def test_infinite_length_is_a_refusal(tmp_path, capsys, op):
    # over F_7[x] Ext and Tor of R with itself have positive dimension;
    # this used to end as an internal fault with exit 3
    doc = {"field": {"prime": 7},
           "ring": {"variables": ["x"], "relations": []},
           "tasks": [{"op": op, "args": ["R", "R"], "bound": 2}]}
    (entry,) = run_tasks(build_problem(doc))["entries"]
    assert entry["error"].startswith("NotArtinianError: ")
    assert "internal" not in entry
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path)]) == 0
    assert not capsys.readouterr().out.endswith("result: ERROR\n")


@pytest.mark.parametrize("where, text, message", [
    ("relations", "x^2147483648", "relation 'x^2147483648': exponent "
     "2147483648 is above 2^30"),
    ("relations", "x^1073741824*x", "relation 'x^1073741824*x': monomial "
     "x^1073741825 has weighted degree 1073741825, above 2^30"),
    ("modules", "x^2147483648", "module 'M': cannot parse 'x^2147483648': "
     "exponent 2147483648 is above 2^30"),
])
def test_polynomial_too_large_to_pack_is_input_error(tmp_path, capsys, where,
                                                      text, message):
    # the Groebner kernel packs each monomial into 32-bit fields; a larger
    # one is refused where it is read, not wrapped
    doc = _dn_doc([{"op": "betti", "args": ["k"], "bound": 3}])
    if where == "relations":
        doc["ring"]["relations"] = [text]
    else:
        doc["modules"] = {"M": {"cyclic": [text]}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_twist_too_large_to_pack_is_a_refusal(tmp_path, capsys):
    doc = _dn_doc([{"op": "depth", "args": ["F"]},
                   {"op": "betti", "args": ["k"], "bound": 3}])
    doc["modules"] = {"F": {"free": [0, 2 ** 29]}}
    big, small = run_tasks(build_problem(doc))["entries"]
    assert big["error"] == "TermRangeError: twist 536870912 is not inside ±2^29"
    assert "internal" not in big and "result" in small
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path)]) == 0
    assert capsys.readouterr().out.endswith("result: ok\n")


def test_main_field_override_runs(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_dn_doc([{"op": "betti", "args": ["k"],
                                         "bound": 3}])))
    code = main(["--input", str(path), "--field", "rational",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["field"] == "rational"
