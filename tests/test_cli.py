import ast
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from entroplab import cli, conditions, graphs, inequalities
from entroplab.cli import run
from entroplab.distributions import JointDistribution, load_distribution
from entroplab.families import gen_distinct_pairs, gen_field_lines, sample_cond2c
from entroplab.graphs import dump_cover, extend_with_cover_index, gen_gnk, min_biclique_cover

from conftest import copied_bit, pairs_triple, xor_triple


def invoke(*argv):
    return run(list(argv))


def invoke_json(*argv):
    outcome = invoke(*argv)
    return outcome.exit_code, json.loads(outcome.text)


@pytest.fixture
def dist_file(tmp_path):
    def write(d, name="d.json"):
        path = tmp_path / name
        path.write_text(d.dumps(), encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="g.json"):
        path = tmp_path / name
        path.write_text(g.dumps(), encoding="utf-8")
        return str(path)

    return write


# ---------------------------------------------------------------------------
# pinned examples


def test_check_unique_common_value_on_distinct_pairs(dist_file):
    code, doc = invoke_json(
        "check", "--dist", dist_file(pairs_triple(3)), "--condition", "cond-2-C"
    )
    assert code == 0
    (verdict,) = doc["verdicts"]
    assert verdict["holds"] is False
    assert set(verdict["witness"]) == {"a", "a2", "x", "y"}


def test_verify_theorem1_on_sampled_distribution(tmp_path):
    outcome = invoke(
        "catalog", "gen", "--family", "random-cond2c", "--sizes", "3,2,3,3",
        "--seed", "7", "--out", str(tmp_path / "d.json"),
    )
    assert outcome.exit_code == 0
    code, doc = invoke_json("verify", "--dist", str(tmp_path / "d.json"), "--theorem", "1")
    assert code == 0
    assert doc["status"] == "PASS"
    assert doc["power_sum_at_most_one"] is True
    assert Fraction(doc["gamma"]["power_sum"]) <= 1


def test_graph_bcc_all_methods(graph_file):
    code, doc = invoke_json(
        "graph", "bcc", "--graph", graph_file(gen_gnk(4, 1)),
        "--method", "entropy,dual,color,exact",
    )
    assert code == 0
    assert doc["entropy"]["integer_bound"] == 2
    assert doc["dual"]["integer_bound"] == 2
    assert doc["color"]["integer_bound"] == 2
    assert doc["exact"]["value"] == 4


# ---------------------------------------------------------------------------
# catalog


def test_catalog_matches_library_generator():
    outcome = invoke("catalog", "gen", "--family", "distinct-pairs", "--n", "3")
    assert outcome.exit_code == 0
    assert outcome.text == gen_distinct_pairs(3).dumps()


def test_catalog_round_trip_is_fixed_point():
    outcome = invoke(
        "catalog", "gen", "--family", "random-support", "--sizes", "2,3,2", "--seed", "4"
    )
    assert load_distribution(outcome.text).dumps() == outcome.text


def test_catalog_out_file_matches_stdout(tmp_path):
    path = tmp_path / "d.json"
    outcome = invoke(
        "catalog", "gen", "--family", "field-lines", "--q-exp", "2", "--delta", "1/2",
        "--out", str(path),
    )
    assert path.read_text(encoding="utf-8") == outcome.text


def test_catalog_b_extension_adds_column():
    code, doc = invoke_json(
        "catalog", "gen", "--family", "distinct-pairs", "--n", "3",
        "--b-size", "2", "--seed", "9",
    )
    assert code == 0
    assert doc["variables"] == ["A", "B", "X", "Y"]


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog", "gen", "--family", "distinct-pairs"),  # missing --n
        ("catalog", "gen", "--family", "random-support", "--sizes", "2,2"),  # no seed
        ("catalog", "gen", "--family", "distinct-pairs", "--n", "3", "--b-size", "2"),
        ("catalog", "gen", "--family", "random-support", "--sizes", "x", "--seed", "1"),
        ("catalog", "gen", "--family", "field-lines", "--q-exp", "2", "--delta", "2"),
        ("catalog", "gen", "--family", "distinct-pairs", "--n", "1"),
    ],
)
def test_catalog_usage_errors(argv):
    assert invoke(*argv).exit_code == 2


@pytest.mark.parametrize("n, code, message", [
    ("1", "BAD_PARAM", "distinct-pairs needs n >= 2, got n=1"),
    ("2000", "TOO_LARGE", "distinct-pairs needs n(n-1) <= 1000000 ordered pairs, got n=2000"),
])
def test_distinct_pairs_refusals_name_the_family(n, code, message):
    assert invoke_json("catalog", "gen", "--family", "distinct-pairs", "--n", n) == (
        2, {"error": {"code": code, "message": message}})


# ---------------------------------------------------------------------------
# info / check


def test_info_report_xor(dist_file):
    code, doc = invoke_json("info", "report", "--dist", dist_file(xor_triple()))
    assert code == 0
    m = doc["measures"]
    assert m["I(X:Y)"] == pytest.approx(0.0, abs=1e-12)
    assert m["I(X:Y|A)"] == pytest.approx(1.0)
    assert m["I(X:Y:A)"] == pytest.approx(-1.0)
    assert doc["error_terms"]["gamma"]["bits"] == pytest.approx(1.0)
    assert doc["error_terms"]["delta"]["bits"] == pytest.approx(0.0)
    assert doc["conditions"]["cond-2-C"]["holds"] is False


def test_info_report_coupled_field_lines(tmp_path):
    path = tmp_path / "fl.json"
    invoke(
        "catalog", "gen", "--family", "field-lines", "--q-exp", "2", "--delta", "1/2",
        "--out", str(path),
    )
    code, doc = invoke_json("info", "report", "--dist", str(path))
    assert code == 0
    assert doc["conditions"]["cond-2-B"]["holds"] is True
    assert doc["conditions"]["pointwise-product"]["equality"] is True
    assert doc["measures"]["I(X:Y)"] > 0.01


def test_info_report_single_atom(dist_file):
    d = JointDistribution(("A",), {("0",): 1}, 1)
    code, doc = invoke_json("info", "report", "--dist", dist_file(d))
    assert code == 0
    assert all(value == 0.0 for value in doc["measures"].values())


def test_check_all_lists_every_condition(dist_file):
    code, doc = invoke_json("check", "--dist", dist_file(xor_triple()), "--all")
    assert code == 0
    names = [v["condition"] for v in doc["verdicts"]]
    assert names == [
        "independence",
        "conditional-independence",
        "functional",
        "cond-2-B",
        "cond-2-C",
        "pointwise-product",
    ]


def test_condition_ids_follow_the_condition_table():
    """The parser's copy of the condition ids cannot drift from `conditions`."""
    constants = (conditions.COND_INDEPENDENCE, conditions.COND_CI_GIVEN,
                 conditions.COND_FUNCTIONAL, conditions.COND_SUPPORT_SATURATION,
                 conditions.COND_UNIQUE_COMMON_VALUE, conditions.COND_POINTWISE_PRODUCT)
    assert cli._CONDITION_IDS == constants
    assert tuple(cli._conditions()) == constants


def test_check_requires_condition_or_all(dist_file):
    assert invoke("check", "--dist", dist_file(xor_triple())).exit_code == 2


def test_check_strict_fails_on_violation(dist_file):
    path = dist_file(pairs_triple(3))
    assert invoke("check", "--dist", path, "--condition", "cond-2-C").exit_code == 0
    assert (
        invoke("check", "--dist", path, "--condition", "cond-2-C", "--strict").exit_code
        == 1
    )


# ---------------------------------------------------------------------------
# verify


def test_verify_theorem2_not_applicable_strict(dist_file):
    path = dist_file(pairs_triple(3))
    code, doc = invoke_json("verify", "--dist", path, "--theorem", "2")
    assert code == 0
    assert doc["status"] == "NOT_APPLICABLE"
    assert invoke("verify", "--dist", path, "--theorem", "2", "--strict").exit_code == 1


@pytest.mark.parametrize("token", ["lemma1", "lemma2"])
def test_verify_lemmas_pass(dist_file, token):
    code, doc = invoke_json("verify", "--dist", dist_file(xor_triple()), "--theorem", token)
    assert code == 0


def test_verify_lemma3_needs_seed(dist_file):
    path = dist_file(gen_distinct_pairs(2))
    assert invoke("verify", "--dist", path, "--theorem", "lemma3").exit_code == 2
    code, doc = invoke_json(
        "verify", "--dist", path, "--theorem", "lemma3", "--seed", "1", "--trials", "20"
    )
    assert code == 0
    assert doc["status"] == "PASS"


def test_verify_lemma3_not_applicable_without_condition(dist_file):
    path = dist_file(pairs_triple(3))
    code, doc = invoke_json("verify", "--dist", path, "--theorem", "lemma3", "--seed", "1")
    assert code == 0
    assert doc["status"] == "NOT_APPLICABLE"


def test_verify_fail_exits_three(monkeypatch, dist_file):
    """A verifier returning FAIL is a math regression, not a user error."""

    class Regression:
        status = "FAIL"

        def to_json_dict(self):
            return {"status": "FAIL"}

    monkeypatch.setattr("entroplab.inequalities.verify_theorem1", lambda d: Regression())
    assert invoke("verify", "--dist", dist_file(xor_triple()), "--theorem", "1").exit_code == 3


@pytest.mark.parametrize(
    "theorem, term, fault",
    [
        ("1", "entropy_split_gap", lambda report: report._replace(gap=-1.0)),
        ("1", "gamma_term", lambda cert: cert._replace(power_sum=Fraction(2))),
        ("2", "reduced_ingleton_gap", lambda report: report._replace(gap=-1.0)),
        ("2", "check_pointwise_product", lambda report: report._replace(equality=False)),
    ],
    ids=["split-gap", "gamma", "reduced-gap", "pointwise-equality"],
)
def test_verify_fails_when_one_term_fails(monkeypatch, dist_file, theorem, term, fault):
    """Each theorem PASSes on field-lines only while every term it decides on
    does: one faulted term, the others still true, makes it FAIL with exit 3."""
    path = dist_file(gen_field_lines(2, Fraction(1, 2)))
    code, doc = invoke_json("verify", "--dist", path, "--theorem", theorem)
    assert (code, doc["status"]) == (0, "PASS")
    original = getattr(inequalities, term)
    monkeypatch.setattr(inequalities, term, lambda d: fault(original(d)))
    code, doc = invoke_json("verify", "--dist", path, "--theorem", theorem)
    assert (code, doc["status"]) == (3, "FAIL")


def _failed(verdict):
    return verdict._replace(witness={"a": "0"})


@pytest.mark.parametrize(
    "check, violation",
    [
        ("check_support_saturation", "conditional-independence->cond-2-B"),
        ("check_unique_common_value", "functional+cond-2-B->cond-2-C"),
        ("check_functional", "cond-2-C->functional"),
    ],
)
def test_lemma1_audit_fails_when_one_check_fails(monkeypatch, dist_file, check, violation):
    """Every condition holds on the copied bit; one faulted check, the others
    still true, breaks exactly one implication, and verify exits 3."""
    d = copied_bit()
    assert conditions.audit_lemma1(d).violations == ()
    original = getattr(conditions, check)
    monkeypatch.setattr(conditions, check, lambda d: _failed(original(d)))
    assert conditions.audit_lemma1(d).violations == (violation,)
    code, doc = invoke_json("verify", "--dist", dist_file(d), "--theorem", "lemma1")
    assert (code, doc["violations"], doc["ok"]) == (3, [violation], False)


def test_lemma3_audit_fails_when_a_conditioned_check_fails(monkeypatch, dist_file):
    """cond-2-C faulted on every call after the audit's precondition: each
    trial is a failure record carrying its trial, event and witness, and
    verify exits 3."""
    d = copied_bit()
    original = conditions.check_unique_common_value

    def fault():
        calls = itertools.count()
        monkeypatch.setattr(conditions, "check_unique_common_value",
                            lambda d: _failed(original(d)) if next(calls) else original(d))

    fault()
    audit = conditions.audit_lemma3(d, trials=3, seed=5)
    assert audit.status == "FAIL"
    assert [(f["trial"], f["witness"]) for f in audit.failures] == [(t, {"a": "0"}) for t in range(3)]
    assert all(f["event"].endswith(" retained atoms") for f in audit.failures)
    fault()
    code, doc = invoke_json("verify", "--dist", dist_file(d), "--theorem", "lemma3",
                            "--trials", "3", "--seed", "5")
    assert (code, doc["status"], doc["failures"]) == (3, "FAIL", 3)


def _negative_split(g, cover):
    ext, report = extend_with_cover_index(g, cover)
    return ext, report._replace(split_slack=-1.0, split_holds=False)


@pytest.mark.parametrize(
    "argv, patch, code",
    [
        (("graph", "min-partition", "--graph", "@g"),
         ("entroplab.graphs.min_valid_matching_partition", lambda g, limit: 0), 3),
        (("fuzz", "--target", "lemma2", "--trials", "2", "--seed", "1"),
         ("entroplab.inequalities.verify_lemma2", lambda d: SimpleNamespace(status="FAIL")),
         3),
        (("graph", "verify-cover", "--graph", "@g", "--cover", "@half", "--strict"), None, 1),
        (("graph", "z-extend", "--graph", "@g", "--cover", "@c", "--strict"),
         ("entroplab.graphs.extend_with_cover_index", _negative_split), 1),
        (("check", "--all", "--strict", "--dist", "@pairs"), None, 1),
    ],
)
def test_exit_codes_of_failed_and_strict_statements(tmp_path, monkeypatch, argv, patch, code):
    """Exit 3 when a verifier or a proved bound fails, 1 when --strict meets
    a statement that does not hold."""
    g = gen_gnk(4, 1)
    cover = min_biclique_cover(g)
    files = {"g": g.dumps(), "c": dump_cover(cover), "half": dump_cover(cover[:1]),
             "pairs": gen_distinct_pairs(3).dumps()}
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    if patch is not None:
        monkeypatch.setattr(*patch)
    outcome = invoke(*(str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv))
    assert outcome.exit_code == code


# ---------------------------------------------------------------------------
# fuzz


@pytest.mark.parametrize("target", ["theorem1", "theorem2", "lemma1", "lemma2", "lemma3"])
def test_fuzz_targets_pass(target):
    code, doc = invoke_json("fuzz", "--target", target, "--trials", "5", "--seed", "14")
    assert code == 0
    assert doc["failures"] == 0
    assert sum(doc["counts"].values()) == 5


def test_fuzz_is_byte_deterministic():
    first = invoke("fuzz", "--target", "lemma2", "--trials", "6", "--seed", "42")
    second = invoke("fuzz", "--target", "lemma2", "--trials", "6", "--seed", "42")
    assert first.text == second.text


def test_fuzz_csv_shape():
    outcome = invoke("fuzz", "--target", "theorem1", "--trials", "4", "--seed", "2", "--csv")
    lines = outcome.text.splitlines()
    assert lines[0] == "trial,fingerprint,status"
    assert len(lines) == 5
    assert all(line.endswith(",PASS") for line in lines[1:])


def test_fuzz_fingerprints_only_what_it_prints(monkeypatch):
    """None on a passing JSON run, one per trial with --csv, and one for the
    first failure of a JSON run."""
    calls = []
    fingerprint = JointDistribution.fingerprint
    monkeypatch.setattr(JointDistribution, "fingerprint",
                        lambda d: calls.append(d) or fingerprint(d))
    argv = ("fuzz", "--target", "lemma1", "--trials", "12", "--seed", "5")
    assert invoke_json(*argv)[1]["failures"] == 0
    assert calls == []
    assert len(invoke(*argv, "--csv").text.splitlines()) == 13
    assert len(calls) == 12
    calls.clear()
    trial = cli._fuzz_trial
    monkeypatch.setattr(cli, "_fuzz_trial", lambda target, rng: (trial(target, rng)[0], "FAIL"))
    code, doc = invoke_json(*argv)
    assert (code, doc["failures"], len(calls)) == (3, 12, 1)
    assert doc["first_failure"] == {"trial": 0, "fingerprint": fingerprint(calls[0])}


def test_fuzz_rejects_bad_trials():
    assert invoke("fuzz", "--target", "lemma2", "--trials", "0", "--seed", "1").exit_code == 2


# ---------------------------------------------------------------------------
# graph


def test_graph_partition_workflow(tmp_path, graph_file):
    g = gen_gnk(4, 1)
    path = graph_file(g)
    singletons = {"matchings": [[[e.x, e.y]] for e in g.edges]}
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps(singletons), encoding="utf-8")
    code, doc = invoke_json("graph", "verify-partition", "--graph", path, "--partition", str(ppath))
    assert code == 0
    assert doc["partition"]["valid"] is True
    assert doc["corollary"]["product_bound_holds"] is True
    assert doc["corollary"]["theorem1_status"] == "PASS"


def test_graph_invalid_partition_strict(tmp_path, graph_file):
    g = gen_gnk(4, 1)
    path = graph_file(g)
    doubled = {"matchings": [[[e.x, e.y]] for e in g.edges] + [[[g.edges[0].x, g.edges[0].y]]]}
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps(doubled), encoding="utf-8")
    code, doc = invoke_json("graph", "verify-partition", "--graph", path, "--partition", str(ppath))
    assert code == 0
    assert doc["partition"]["valid"] is False
    assert doc["corollary"] is None
    assert (
        invoke(
            "graph", "verify-partition", "--graph", path, "--partition", str(ppath), "--strict"
        ).exit_code
        == 1
    )


def test_graph_min_partition(graph_file):
    code, doc = invoke_json("graph", "min-partition", "--graph", graph_file(gen_gnk(4, 1)))
    assert code == 0
    assert doc == {"K": 10, "L": 3, "R": 3, "product_bound_holds": True}


def test_graph_limit_env_and_flag(graph_file):
    path = graph_file(gen_gnk(4, 1))
    outcome = invoke("graph", "min-partition", "--graph", path, "--limit", "5")
    assert outcome.exit_code == 2
    assert json.loads(outcome.text)["error"]["code"] == "TOO_LARGE"
    code, doc = invoke_json("graph", "min-partition", "--graph", path, "--limit", "20")
    assert code == 0 and doc["K"] == 10


def test_graph_cover_workflow(tmp_path, graph_file):
    path = graph_file(gen_gnk(4, 1))
    code, doc = invoke_json("graph", "bcc", "--graph", path, "--method", "exact")
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"bicliques": doc["exact"]["cover"]}), encoding="utf-8")
    code, doc = invoke_json("graph", "verify-cover", "--graph", path, "--cover", str(cpath))
    assert code == 0 and doc["holds"] is True
    code, doc = invoke_json("graph", "z-extend", "--graph", path, "--cover", str(cpath))
    assert code == 0
    assert doc["split_holds"] is True
    assert doc["size_floor_holds"] is True
    assert doc["per_clique_status"] == ["PASS"] * 4


def test_graph_z_extend_rejects_non_cover(tmp_path, graph_file):
    path = graph_file(gen_gnk(4, 1))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"bicliques": [{"left": ["{1}"], "right": ["{2}"]}]}),
                     encoding="utf-8")
    outcome = invoke("graph", "z-extend", "--graph", path, "--cover", str(cpath))
    assert outcome.exit_code == 2
    assert json.loads(outcome.text)["error"]["code"] == "NOT_A_COVER"


def test_graph_bcc_monochrome_bound_not_applicable(tmp_path):
    g = {
        "left": ["x1", "x2"],
        "right": ["y1", "y2"],
        "edges": [
            {"x": x, "y": y, "color": "c"} for x in ("x1", "x2") for y in ("y1", "y2")
        ],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g), encoding="utf-8")
    code, doc = invoke_json("graph", "bcc", "--graph", str(path), "--method", "color,exact")
    assert code == 0
    assert doc["color"]["applicable"] is False
    assert doc["exact"]["value"] == 1


def test_graph_bcc_unknown_method(graph_file):
    path = graph_file(gen_gnk(2, 1))
    assert invoke("graph", "bcc", "--graph", path, "--method", "magic").exit_code == 2


def test_graph_bcc_checks_every_method_before_any_work(graph_file, monkeypatch):
    def search(g, limit):
        raise AssertionError("the exact search ran before the method list was checked")

    monkeypatch.setattr("entroplab.graphs.min_biclique_cover", search)
    code, doc = invoke_json("graph", "bcc", "--graph", graph_file(gen_gnk(4, 1)),
                            "--method", "exact,bogus")
    assert code == 2
    assert doc["error"]["code"] == "BAD_PARAM"


def test_graph_bcc_checks_the_limit_before_any_work(graph_file, monkeypatch):
    def bound(g):
        raise AssertionError("the entropy bound ran before --limit was checked")

    monkeypatch.setattr("entroplab.graphs.bcc_entropy_bound", bound)
    code, doc = invoke_json("graph", "bcc", "--graph", graph_file(gen_gnk(4, 1)),
                            "--method", "entropy,exact", "--limit", "-5")
    assert code == 2
    assert doc["error"]["code"] == "BAD_PARAM"


def test_graph_bcc_checks_the_edge_cap_before_any_work(graph_file, monkeypatch):
    def bound(g):
        raise AssertionError("the entropy bound ran before the edge cap was checked")

    monkeypatch.setattr("entroplab.graphs.bcc_entropy_bound", bound)
    code, doc = invoke_json("graph", "bcc", "--graph", graph_file(gen_gnk(4, 1)),
                            "--method", "entropy,exact", "--limit", "11")
    assert code == 2
    assert doc["error"] == {"code": "TOO_LARGE",
                            "message": "12 edges exceed the cover search limit 11"}


def test_graph_bcc_shares_property_checks_and_edge_distribution(graph_file, monkeypatch):
    """The exact search's root floor and the printed bounds share one check
    of each coloring property and one edge distribution."""
    argv = ("graph", "bcc", "--graph", graph_file(gen_gnk(4, 1)),
            "--method", "exact,entropy,dual,color")
    plain = invoke(*argv)
    names = ("check_property_star", "check_property_doublestar", "edge_distribution")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(g, name=name, original=getattr(graphs, name)):
            calls[name] += 1
            return original(g)

        monkeypatch.setattr(graphs, name, counted)
    assert invoke(*argv) == plain
    assert calls == dict.fromkeys(names, 1)


# ---------------------------------------------------------------------------
# plumbing


@pytest.mark.parametrize(
    "argv",
    [
        ("frobnicate",),
        ("check", "--nope"),
        ("check", "--dist", "/nonexistent/d.json", "--all"),
        ("verify", "--dist", "/nonexistent/d.json", "--theorem", "1"),
        ("graph", "bcc", "--graph", "/nonexistent/g.json"),
    ],
)
def test_usage_errors_exit_two(argv):
    assert invoke(*argv).exit_code == 2


@pytest.mark.parametrize("n, k", [(20000, 10000), (10**6, 5 * 10**5)])
@pytest.mark.parametrize("command", [("graph", "gen"),
                                     ("catalog", "gen", "--family", "disjoint-sets")])
def test_oversized_generators_are_refused_at_once(command, n, k):
    """Past the atom budget both generators refuse before any large binomial,
    with a message that prints."""
    start = time.monotonic()
    code, doc = invoke_json(*command, "--n", str(n), "--k", str(k))
    assert time.monotonic() - start < 1
    assert (code, doc["error"]["code"]) == (2, "TOO_LARGE")


def test_malformed_file_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert invoke("info", "report", "--dist", str(path)).exit_code == 2


def _atoms(names, masses):
    # one atom per (values, mass) pair, the values string one symbol per name
    atoms = [{"values": dict(zip(names, values)), "p": p} for values, p in masses]
    return json.dumps({"variables": list(names), "atoms": atoms})


def _one_atom(p):
    return _atoms("A", [("a", p)])


# Two masses that parse but print over a denominator of 4,301 digits, and
# five masses of at most 2,801 digits whose power sums and pointwise ratio
# need more than 5,000: each input loads, and a value too long to print
# exits 2 instead of crashing.
_WIDE_PAIR = _atoms("A", [("a", "1e-4300"), ("b", "0." + "9" * 4300)])
_NEAR = [Fraction(1, 10**1400 + 1), Fraction(1, 10**1400 + 3)]
_WIDE_SUMS = _atoms(
    "ABXY",
    zip(["0011", "0100", "1001", "1010", "1011"],
        map(str, _NEAR + [(1 - sum(_NEAR)) / 3] * 3)),
)


_REPEATED_VERTEX = json.dumps({"bicliques": [
    {"left": ["{1}", "{1}"], "right": ["{2}", "{3}"]},
    {"left": ["{2}"], "right": ["{1}", "{3}"]},
    {"left": ["{3}"], "right": ["{1}", "{2}"]},
]})


# A value nested 100,000 lists deep, past the JSON decoder's recursion limit.
_DEEP = "[" * 100_000 + "]" * 100_000


def _one_edge(w):
    edge = {"x": "x1", "y": "y1", "color": "c", "w": w}
    return json.dumps({"left": ["x1"], "right": ["y1"], "edges": [edge]})


@pytest.mark.parametrize(
    "argv, files, env, code",
    [
        (("graph", "bcc", "--graph", "@bad"),
         {"bad": '{"left": ["x1"], "right": ["y1"], "edges": [{"x"'}, {}, "SCHEMA_ERROR"),
        (("graph", "bcc", "--graph", "@bad"),
         {"bad": '{"left": 5, "right": [], "edges": []}'}, {}, "SCHEMA_ERROR"),
        (("graph", "verify-partition", "--graph", "@g", "--partition", "@bad"),
         {"bad": '{"matchings": [[["x1"]]]}'}, {}, "SCHEMA_ERROR"),
        (("graph", "verify-cover", "--graph", "@g", "--cover", "@bad"),
         {"bad": '{"bicliques": 5}'}, {}, "SCHEMA_ERROR"),
        (("check", "--all", "--dist", "@bad"), {"bad": b"\xff\xfe"}, {}, "IO_ERROR"),
        (("catalog", "gen", "--family", "distinct-pairs", "--n", "3", "--out", "@no/d.json"),
         {}, {}, "IO_ERROR"),
        (("graph", "gen", "--n", "4", "--k", "1", "--out", "@no/g.json"), {}, {}, "IO_ERROR"),
        (("graph", "z-extend", "--graph", "@g", "--cover", "@c", "--out", "@no/z.json"),
         {}, {}, "IO_ERROR"),
        (("graph", "min-partition", "--graph", "@g", "--limit", "-1"), {}, {}, "BAD_PARAM"),
        (("graph", "bcc", "--graph", "@g", "--method", "exact", "--limit", "-5"),
         {}, {}, "BAD_PARAM"),
        (("verify", "--dist", "@d", "--theorem", "lemma3", "--trials", "-3", "--seed", "1"),
         {"d": sample_cond2c(3, (2, 2, 2, 2)).dumps()}, {}, "BAD_PARAM"),
        (("verify", "--dist", "@d", "--theorem", "lemma3", "--trials", "0", "--seed", "1"),
         {"d": sample_cond2c(3, (2, 2, 2, 2)).dumps()}, {}, "BAD_PARAM"),
        (("graph", "gen", "--n", "10000", "--k", "1"), {}, {}, "TOO_LARGE"),
        (("graph", "gen", "--n", "30", "--k", "5"), {}, {}, "TOO_LARGE"),
        # masses, weights and --delta past the int digit limit, or with an
        # exponent that Fraction would expand into a huge power of ten
        (("info", "report", "--dist", "@bad"),
         {"bad": _one_atom("7" * 4400 + "/" + "9" * 4400)}, {}, "SCHEMA_ERROR"),
        (("info", "report", "--dist", "@bad"), {"bad": _one_atom("1e-100000000")}, {},
         "SCHEMA_ERROR"),
        (("info", "report", "--dist", "@bad"), {"bad": _one_atom("1E+99999")}, {},
         "SCHEMA_ERROR"),
        (("info", "report", "--dist", "@bad"), {"bad": _one_atom("1e-4300")}, {}, "SUM_NOT_ONE"),
        (("info", "report", "--dist", "@bad"), {"bad": _one_atom("-1e-4300")}, {},
         "NEGATIVE_PROB"),
        (("graph", "bcc", "--graph", "@bad"), {"bad": _one_edge("1e-100000000")}, {},
         "SCHEMA_ERROR"),
        (("graph", "bcc", "--graph", "@bad"), {"bad": _one_edge("1e-1_000_000")}, {},
         "SCHEMA_ERROR"),
        (("graph", "bcc", "--graph", "@bad"), {"bad": _one_edge("1e-4300")}, {}, "SUM_NOT_ONE"),
        (("catalog", "gen", "--family", "field-lines", "--q-exp", "2", "--delta", "1e-100000000"),
         {}, {}, "SCHEMA_ERROR"),
        (("info", "report", "--dist", "@bad"), {"bad": _WIDE_PAIR}, {}, "TOO_LARGE"),
        (("check", "--all", "--dist", "@bad"), {"bad": _WIDE_PAIR}, {}, "TOO_LARGE"),
        (("catalog", "gen", "--family", "field-lines", "--q-exp", "2",
          "--delta", "1/1" + "0" * 4299), {}, {}, "TOO_LARGE"),
        (("verify", "--theorem", "lemma2", "--dist", "@bad"), {"bad": _WIDE_SUMS}, {},
         "TOO_LARGE"),
        (("info", "report", "--dist", "@bad"), {"bad": _WIDE_SUMS}, {}, "TOO_LARGE"),
        (("check", "--all", "--dist", "@bad"), {"bad": _WIDE_SUMS}, {}, "TOO_LARGE"),
        (("catalog", "gen", "--family", "distinct-pairs", "--n", "2", "--b-size", "500001",
          "--seed", "1"), {}, {}, "TOO_LARGE"),
        # "_" separators load from Python 3.11 on only, so they are refused
        (("info", "report", "--dist", "@bad"),
         {"bad": _atoms("A", [("a", "1e-1_0"), ("b", "9999999999/10000000000")])}, {},
         "SCHEMA_ERROR"),
        (("graph", "bcc", "--graph", "@bad", "--method", "color"),
         {"bad": '{"left": ["x1"], "right": ["y1"], "edges": []}'}, {}, "EMPTY_GRAPH"),
        # a biclique side that names a vertex twice would split its edges twice
        (("graph", "verify-cover", "--graph", "@g31", "--cover", "@bad"),
         {"g31": gen_gnk(3, 1).dumps(), "bad": _REPEATED_VERTEX}, {}, "SCHEMA_ERROR"),
        (("graph", "z-extend", "--graph", "@g31", "--cover", "@bad"),
         {"g31": gen_gnk(3, 1).dumps(), "bad": _REPEATED_VERTEX}, {}, "SCHEMA_ERROR"),
        (("catalog", "gen", "--family", "random-support", "--sizes", "400,400", "--seed", "1"),
         {}, {}, "TOO_LARGE"),
        (("catalog", "gen", "--family", "random-cond2c", "--sizes", "20,20,20,20",
          "--seed", "1"), {}, {}, "TOO_LARGE"),
        (("info", "report", "--dist", "@bad"),
         {"bad": '{"variables": ' + _DEEP + ', "atoms": []}'}, {}, "SCHEMA_ERROR"),
        (("graph", "min-partition", "--graph", "@bad"),
         {"bad": '{"left": ' + _DEEP + ', "right": [], "edges": []}'}, {}, "SCHEMA_ERROR"),
        (("info", "report", "--dist", "@bad"),
         {"bad": '{"variables": ["A"], "atoms": [{"values": {"A": 1}, "p": "1"}]}'}, {},
         "SCHEMA_ERROR"),
        (("info", "report", "--dist", "@bad"),
         {"bad": '{"variables": ["A"], "atoms": [{"values": {"A": "a"}, "p": "1"}], "x": []}'},
         {}, "SCHEMA_ERROR"),
        (("info", "report", "--dist", "@bad"), {"bad": '{"variables": ["A"], "atoms": {}}'}, {},
         "SCHEMA_ERROR"),
    ],
)
def test_malformed_input_and_io_errors_exit_two(tmp_path, monkeypatch, argv, files, env, code):
    g = gen_gnk(4, 1)
    files = {"g": g.dumps(), "c": dump_cover(min_biclique_cover(g)), **files}
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    outcome = invoke(*(str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv))
    assert outcome.exit_code == 2
    assert json.loads(outcome.text)["error"]["code"] == code


def test_partition_search_past_the_recursion_limit_finishes(graph_file):
    """The partition search nests no call per edge, so a perfect matching
    with more edges than the recursion limit finishes, in process and in a
    fresh interpreter."""
    n = sys.getrecursionlimit() + 100
    path = graph_file(graphs.ColoredBipartiteGraph(
        [f"x{i}" for i in range(n)], [f"y{i}" for i in range(n)],
        [(f"x{i}", f"y{i}", "c") for i in range(n)]))
    argv = ["graph", "min-partition", "--graph", path, "--limit", "5000"]
    code, doc = invoke_json(*argv)
    assert (code, doc["K"]) == (0, 1)
    result = subprocess.run([sys.executable, "-m", "entroplab", *argv],
                            capture_output=True, text=True, encoding="utf-8")
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["K"] == 1


def test_memory_error_exits_two_as_too_large(monkeypatch):
    """The one net in `cli.run`: a process out of memory exits 2."""
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("entroplab.families.gen_field_lines", exhausted)
    code, doc = invoke_json("catalog", "gen", "--family", "field-lines", "--q-exp", "5",
                            "--delta", "1/2", "--b-size", "2", "--seed", "1")
    assert (code, doc["error"]) == (2, {"code": "TOO_LARGE", "message": "out of memory"})


def _self_calls(tree):
    """(name, line) of each call a function makes to itself, by its bare name
    or as ``self.<its name>``."""
    return [
        (f.name, call.lineno)
        for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(f) if isinstance(call, ast.Call) and (
            isinstance(call.func, ast.Name) and call.func.id == f.name
            or isinstance(call.func, ast.Attribute) and call.func.attr == f.name
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "self")
    ]


def test_no_function_in_the_package_calls_itself():
    """No command path nests a Python call per item of its input, so no
    input can reach the recursion limit and `cli.run` needs no net for it."""
    calls = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for name, _ in _self_calls(ast.parse(path.read_text(encoding="utf-8"))):
            calls[f"{path.stem}.{name}"] = calls.get(f"{path.stem}.{name}", 0) + 1
    assert calls == {}
    assert _self_calls(ast.parse("def walk(n):\n    walk(n - 1)\n"
                                 "class C:\n    def f(self):\n        self.f()\n")) == [
        ("walk", 2), ("f", 5)]


def _unused_imports(tree):
    """(name, line) of each name a ``from ... import`` binds, other than from
    ``__future__``, that the module never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        (alias.asname or alias.name, node.lineno)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and node.module != "__future__"
        for alias in node.names if (alias.asname or alias.name) not in read
    ]


def test_no_module_in_the_package_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for name, line in _unused_imports(ast.parse(path.read_text(encoding="utf-8"))):
            unused[f"{path.stem}.{name}"] = line
    assert unused == {}
    assert _unused_imports(ast.parse("from __future__ import annotations\n"
                                     "from os import path, sep as s\n"
                                     "def f():\n    from sys import argv\n    return s\n")) == [
        ("path", 2), ("argv", 4)]


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _precondition_raises(node, scope=""):
    """(scope, line) of each ``raise PreconditionFailed`` under ``node``, the
    scope being the dotted names of the classes and functions around it."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFINITIONS):
            found += _precondition_raises(child, f"{scope}.{child.name}".lstrip("."))
            continue
        exc = child.exc if isinstance(child, ast.Raise) else None
        exc = exc.func if isinstance(exc, ast.Call) else exc
        if getattr(exc, "id", getattr(exc, "attr", None)) == "PreconditionFailed":
            found.append((scope, child.lineno))
        found += _precondition_raises(child, scope)
    return found


def test_only_verdict_require_raises_precondition_failed():
    """A failed precondition is a `Verdict` with its witness, and
    `Verdict.require` is the one place that raises it."""
    raises = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for scope, line in _precondition_raises(ast.parse(path.read_text(encoding="utf-8"))):
            raises[f"{path.stem}.{scope}"] = line
    assert sorted(raises) == ["errors.Verdict.require"], raises
    assert _precondition_raises(ast.parse(
        "def f():\n    raise PreconditionFailed('x')\n"
        "class C:\n    def g(self):\n"
        "        def h():\n            raise errors.PreconditionFailed\n"
        "        raise LabError('x')\n")) == [("f", 2), ("C.g.h", 6)]


def _unreached(trees):
    """``module.name`` of each module-level function and class in ``trees``
    (module name -> parsed source) whose name no other statement reads, as a
    bare name or as an attribute."""
    read = set()
    for tree in trees.values():
        for top in tree.body:
            names = {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
            read |= names - {top.name if isinstance(top, _DEFINITIONS) else None}
    return sorted(f"{module}.{top.name}" for module, tree in trees.items()
                  for top in tree.body if isinstance(top, _DEFINITIONS) and top.name not in read)


# Kept though no command reaches them yet.
UNREACHED_ALLOWED = {
    "graphs.dump_cover": "ROADMAP item 12 gives it a command",
    "graphs.dump_partition": "ROADMAP item 12 gives it a command",
}


def test_no_module_level_name_in_the_package_is_reached_only_from_tests():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))}
    assert _unreached(trees) == sorted(UNREACHED_ALLOWED)
    assert _unreached({"m": ast.parse("def f():\n    f()\nclass C:\n    pass\n"
                                      "def g():\n    return h\n"),
                       "n": ast.parse("def h():\n    pass\nx = m.C\n")}) == ["m.f", "m.g"]


def test_exact_cover_ignores_hash_seed(graph_file):
    path = graph_file(gen_gnk(6, 1))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "entroplab", "graph", "bcc", "--graph", path,
             "--method", "exact", "--limit", "30"],
            capture_output=True, text=True, encoding="utf-8",
            env=dict(os.environ, PYTHONHASHSEED=seed),
        )
        for seed in ("1", "2")
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout


# Modules a command never needs, which together cost about 20 ms of every
# process start: ``dataclasses`` pulls in ``inspect`` (and with it ``ast``,
# ``dis`` and ``tokenize``), and ``hashlib`` serves only fingerprints.
STARTUP_FORBIDDEN = ("dataclasses", "inspect", "hashlib")


def _loaded_in_child(code):
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         encoding="utf-8", check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_startup_imports_stay_lean():
    probe = ("\nimport json, sys\n"
             f"print(json.dumps([m for m in {STARTUP_FORBIDDEN!r} if m in sys.modules]))")
    # a module the interpreter's own start-up or the stdlib already loads
    # on this Python version is not the program's doing
    baseline = _loaded_in_child("import argparse, json, fractions, random, typing" + probe)
    loaded = _loaded_in_child(
        "from entroplab.cli import main\n"
        "codes = [main(['graph', 'gen', '--n', '4', '--k', '1']),\n"
        "         main(['catalog', 'gen', '--family', 'distinct-pairs', '--n', '2'])]\n"
        "assert codes == [0, 0], codes" + probe
    )
    assert loaded <= baseline, sorted(loaded - baseline)
    # the package root re-exports nothing, so importing it loads no submodule
    submodules = _loaded_in_child(
        "import json, sys, entroplab\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('entroplab.')]))"
    )
    assert submodules == set(), sorted(submodules)


INPUTS = Path(__file__).parent / "golden" / "inputs"


@pytest.mark.parametrize(
    "argv, modules",
    [
        (("catalog", "gen", "--family", "distinct-pairs", "--n", "2"),
         {"distributions", "families"}),
        (("check", "--all", "--dist", "@distinct-pairs-4.json"),
         {"distributions", "conditions"}),
        (("info", "report", "--dist", "@distinct-pairs-4.json"),
         {"distributions", "conditions", "inequalities"}),
        (("verify", "--theorem", "1", "--dist", "@cond2c.json"),
         {"distributions", "conditions", "inequalities"}),
        (("fuzz", "--target", "theorem2", "--trials", "2", "--seed", "1"),
         {"distributions", "conditions", "inequalities", "families"}),
        (("graph", "gen", "--n", "4", "--k", "1"), {"graphs", "distributions", "families"}),
        (("graph", "min-partition", "--graph", "@gnk-4-1.json"), {"graphs"}),
        (("graph", "verify-partition", "--graph", "@gnk-4-1.json",
          "--partition", "@gnk-4-1-partition.json"), {"graphs"}),
        (("graph", "verify-partition", "--graph", "@gnk-4-1.json",
          "--partition", "@gnk-4-1-singletons.json"),
         {"graphs", "distributions", "conditions", "inequalities"}),
        (("graph", "verify-cover", "--graph", "@gnk-4-1.json", "--cover", "@gnk-4-1-cover.json"),
         {"graphs"}),
        (("graph", "bcc", "--graph", "@gnk-4-1.json", "--method", "exact,entropy,dual,color"),
         {"graphs", "distributions"}),
        (("graph", "z-extend", "--graph", "@gnk-4-1.json", "--cover", "@gnk-4-1-cover.json"),
         {"graphs", "distributions", "conditions", "inequalities"}),
    ],
    ids=["catalog-gen", "check", "info", "verify", "fuzz", "graph-gen", "graph-min-partition",
         "graph-verify-partition-invalid", "graph-verify-partition-valid", "graph-verify-cover",
         "graph-bcc", "graph-z-extend"],
)
def test_each_command_loads_only_its_modules(argv, modules):
    """A process imports, and so compiles, only the modules its subcommand
    runs, besides `cli` and `errors`."""
    argv = [str(INPUTS / a[1:]) if a.startswith("@") else a for a in argv]
    loaded = _loaded_in_child(
        "import json, sys\n"
        "from entroplab.cli import run\n"
        f"assert run({argv!r}).exit_code == 0\n"
        "print(json.dumps([m[len('entroplab.'):] for m in sys.modules\n"
        "                  if m.startswith('entroplab.')]))"
    )
    assert loaded == {"cli", "errors", *modules}


def _run_unwritable(argv, stdout, stderr):
    """Run ``python -m entroplab`` with each of stdout and stderr a pipe
    ("pipe"), on a full device ("full") or closed ("closed")."""
    if "full" in (stdout, stderr) and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    closing = [fd for fd, how in ((1, stdout), (2, stderr)) if how == "closed"]
    sinks = [subprocess.PIPE if how == "pipe"
             else open("/dev/full" if how == "full" else os.devnull, "w", encoding="utf-8")
             for how in (stdout, stderr)]
    try:
        return subprocess.run([sys.executable, "-m", "entroplab", *argv],
                              stdout=sinks[0], stderr=sinks[1], text=True, encoding="utf-8",
                              preexec_fn=lambda: [os.close(fd) for fd in closing])
    finally:
        for sink in sinks:
            if sink != subprocess.PIPE:
                sink.close()


@pytest.mark.parametrize("stdout, stderr", [
    pytest.param("full", "pipe", id="dev-full"),
    pytest.param("closed", "pipe", id="closed"),
    pytest.param("full", "full", id="dev-full-both"),
    pytest.param("closed", "closed", id="closed-both"),
    pytest.param("full", "closed", id="dev-full-stdout-closed-stderr"),
    pytest.param("closed", "full", id="closed-stdout-dev-full-stderr"),
])
def test_unwritable_stdout_exits_two_with_an_error_on_stderr(stdout, stderr):
    """Stdout on a full device, or closed: exit 2 with an IO_ERROR document on
    stderr where stderr can be written, and no second failure when the
    interpreter flushes either stream at exit."""
    result = _run_unwritable(["catalog", "gen", "--family", "distinct-pairs", "--n", "3"],
                             stdout, stderr)
    assert result.returncode == 2, result.stderr
    if stderr == "pipe":
        assert json.loads(result.stderr)["error"]["code"] == "IO_ERROR"


def test_help_exits_zero():
    assert invoke("--help").exit_code == 0


def test_help_is_argparse_text_written_like_any_output(monkeypatch):
    """`--help` prints argparse's help byte for byte, through the same guarded
    write as every document: on a full device it exits 2, not 0."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    expected = cli._build_parser().format_help()
    assert invoke("--help") == (0, expected)
    result = subprocess.run([sys.executable, "-m", "entroplab", "--help"],
                            capture_output=True, text=True, encoding="utf-8",
                            env=dict(os.environ, COLUMNS="80"))
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")
    result = _run_unwritable(["--help"], "full", "pipe")
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stderr)["error"]["code"] == "IO_ERROR"


def test_file_io_does_not_depend_on_the_locale(tmp_path):
    """--dist reads and --out writes name UTF-8, so they run with every
    default-encoding warning made an error and give the same bytes."""
    dist = tmp_path / "d.json"
    dist.write_text('{"variables": ["A", "X", "Y"], "atoms": [{"values": '
                    '{"A": "\u03b1", "X": "\u00e9", "Y": "\u2192"}, "p": "1"}]}',
                    encoding="utf-8")
    strict = dict(os.environ, PYTHONWARNDEFAULTENCODING="1",
                  PYTHONWARNINGS="error::EncodingWarning")

    def stdout(*argv):
        runs = [subprocess.run([sys.executable, "-m", "entroplab", *argv],
                               capture_output=True, env=env) for env in (os.environ, strict)]
        assert [(r.returncode, r.stderr) for r in runs] == [(0, b"")] * 2, runs[1].stderr
        assert runs[0].stdout == runs[1].stdout
        return runs[1].stdout

    stdout("check", "--all", "--dist", str(dist))
    out = tmp_path / "out.json"
    assert stdout("catalog", "gen", "--family", "distinct-pairs", "--n", "3",
                  "--out", str(out)) == out.read_bytes()


def test_module_entry_point(tmp_path):
    first = subprocess.run(
        [sys.executable, "-m", "entroplab", "catalog", "gen", "--family",
         "random-cond2c", "--sizes", "2,2,2,2", "--seed", "31"],
        capture_output=True, text=True, encoding="utf-8",
    )
    second = subprocess.run(
        [sys.executable, "-m", "entroplab", "catalog", "gen", "--family",
         "random-cond2c", "--sizes", "2,2,2,2", "--seed", "31"],
        capture_output=True, text=True, encoding="utf-8",
    )
    assert first.returncode == 0
    assert first.stdout == second.stdout
    load_distribution(first.stdout)
