"""Batch command-line front end.

Every operation is exposed as a subcommand emitting one JSON document (or
a CSV table for fuzz runs) on stdout.  Randomized commands require an
explicit --seed and are byte-reproducible.

Exit codes:
  0  the command ran; verdicts, violations, and not-applicable results
     are reported in the body
  1  --strict was given and a checked statement does not hold
  2  usage errors, malformed or unreadable inputs, unwritable output
     files, out-of-budget requests
  3  a verifier returned FAIL, i.e. a mathematically impossible event;
     kept separate from 2 so CI can flag regressions in the math

Each handler imports what it runs when it starts, so a process loads, and
compiles, only the modules of its subcommand.
"""

import argparse
import io
import json
import os
import random
import sys
from pathlib import Path
from typing import NamedTuple

from .errors import FAIL, NOT_APPLICABLE, PASS, LabError, PreconditionFailed

SEED_SPAN = 2**32

DEFAULT_ROLE_BY_ARITY = {
    1: ("A",),
    2: ("A", "X"),
    3: ("A", "X", "Y"),
    4: ("A", "B", "X", "Y"),
    5: ("A", "B", "X", "Y", "Z"),
}


class CommandOutcome(NamedTuple):
    exit_code: int
    text: str


def _document(doc, exit_code=0) -> CommandOutcome:
    return CommandOutcome(exit_code, json.dumps(doc, indent=2) + "\n")


def _exit_code(failed=False, holds=True, strict=False) -> int:
    """3 when a verifier failed, 1 when --strict was given and a checked
    statement does not hold, 0 otherwise."""
    if failed:
        return 3
    return 1 if strict and not holds else 0


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise LabError("IO_ERROR", f"cannot read {path}: {exc}")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise LabError("IO_ERROR", f"cannot write {path}: {exc}")


def _load_dist(path: str):
    from .distributions import load_distribution
    return load_distribution(_read(path))


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise LabError("BAD_PARAM", f"--sizes expects a comma list of integers, got {text!r}")
    return sizes


def _require_flag(value, flag: str):
    if value is None:
        raise LabError("BAD_PARAM", f"this invocation requires {flag}")
    return value


# ---------------------------------------------------------------------------
# catalog


def _cmd_catalog_gen(args) -> CommandOutcome:
    from .families import (extend_with_random_B, gen_disjoint_sets, gen_distinct_pairs,
                           gen_field_lines, sample_cond2c, sample_random_distribution)
    family = args.family
    if family == "distinct-pairs":
        d = gen_distinct_pairs(_require_flag(args.n, "--n"))
    elif family == "disjoint-sets":
        d = gen_disjoint_sets(_require_flag(args.n, "--n"), _require_flag(args.k, "--k"))
    elif family == "field-lines":
        d = gen_field_lines(_require_flag(args.q_exp, "--q-exp"), args.delta)
    elif family == "random-support":
        sizes = _parse_sizes(_require_flag(args.sizes, "--sizes"))
        if len(sizes) not in DEFAULT_ROLE_BY_ARITY:
            raise LabError("BAD_PARAM", f"--sizes supports 1..5 variables, got {len(sizes)}")
        seed = _require_flag(args.seed, "--seed")
        d = sample_random_distribution(DEFAULT_ROLE_BY_ARITY[len(sizes)], sizes, seed)
    else:  # random-cond2c
        sizes = _parse_sizes(_require_flag(args.sizes, "--sizes"))
        d = sample_cond2c(_require_flag(args.seed, "--seed"), sizes)
    if args.b_size is not None:
        d = extend_with_random_B(d, args.b_size, _require_flag(args.seed, "--seed"))
    text = d.dumps()
    if args.out:
        _write(args.out, text)
    return CommandOutcome(0, text)


# ---------------------------------------------------------------------------
# info / check


# The ids of the condition table, in its order: `check --condition` takes its
# choices from here, so that building the parser loads no `conditions`.
_CONDITION_IDS = ("independence", "conditional-independence", "functional", "cond-2-B",
                  "cond-2-C", "pointwise-product")


def _conditions() -> dict:
    """Condition id -> checker; a checker patched into `conditions` is the one that runs."""
    from . import conditions as c
    return {
        c.COND_INDEPENDENCE: lambda d: c.check_independence(d, "X", "Y"),
        c.COND_CI_GIVEN: lambda d: c.check_ci_given(d, "X", "Y", "A"),
        c.COND_FUNCTIONAL: c.check_functional,
        c.COND_SUPPORT_SATURATION: c.check_support_saturation,
        c.COND_UNIQUE_COMMON_VALUE: c.check_unique_common_value,
        c.COND_POINTWISE_PRODUCT: c.check_pointwise_product,
    }


def _cmd_info(args) -> CommandOutcome:
    from .conditions import COND_POINTWISE_PRODUCT, COND_SUPPORT_SATURATION
    from .distributions import info_report
    from .inequalities import (_delta_prime, delta_term, entropy_split_gap, gamma_term,
                               ingleton_gap, reduced_ingleton_gap)
    d = _load_dist(args.dist)
    verdicts = {name: check(d) for name, check in _conditions().items()}
    gaps = {
        report.inequality: report.to_json_dict()
        for report in (ingleton_gap(d), reduced_ingleton_gap(d), entropy_split_gap(d))
    }
    terms = {
        "gamma": gamma_term(d).to_json_dict(),
        "delta": delta_term(d).to_json_dict(),
    }
    try:
        terms["delta-prime"] = _delta_prime(
            verdicts[COND_SUPPORT_SATURATION], verdicts[COND_POINTWISE_PRODUCT]
        ).to_json_dict()
    except PreconditionFailed as exc:
        terms["delta-prime"] = {"applicable": False, "witness": exc.witness}
    doc = {
        "variables": list(d.variables),
        "atoms": len(d.counts),
        "fingerprint": d.fingerprint(),
        "measures": info_report(d),
        "conditions": {name: verdict.to_json_dict() for name, verdict in verdicts.items()},
        "gaps": gaps,
        "error_terms": terms,
    }
    return _document(doc)


def _cmd_check(args) -> CommandOutcome:
    checks = _conditions()
    d = _load_dist(args.dist)
    if args.condition is not None:
        names = [args.condition]
    elif args.all:
        names = list(checks)
    else:
        raise LabError("BAD_PARAM", "pass --condition <id> or --all")
    verdicts = [checks[name](d).to_json_dict() for name in names]
    doc = {"fingerprint": d.fingerprint(), "verdicts": verdicts}
    holds = all(v["holds"] for v in verdicts)
    return _document(doc, _exit_code(holds=holds, strict=args.strict))


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> CommandOutcome:
    from .conditions import audit_lemma1, audit_lemma3
    from .inequalities import verify_lemma2, verify_theorem1, verify_theorem2
    d = _load_dist(args.dist)
    token = args.theorem
    if token == "lemma1":
        audit = audit_lemma1(d)
        status = audit.status
        doc = {**audit.to_json_dict(), "fingerprint": d.fingerprint()}
    elif token == "lemma3":
        seed = _require_flag(args.seed, "--seed")
        if args.trials < 1:
            raise LabError("BAD_PARAM", "--trials must be positive")
        try:
            audit = audit_lemma3(d, trials=args.trials, seed=seed)
        except PreconditionFailed as exc:
            status = NOT_APPLICABLE
            doc = {"status": status, "witness": exc.witness}
        else:
            status = audit.status
            doc = {"status": status, "trials": audit.trials, "failures": len(audit.failures)}
    else:
        cert = {"1": verify_theorem1, "2": verify_theorem2, "lemma2": verify_lemma2}[token](d)
        status, doc = cert.status, cert.to_json_dict()
    return _document(doc, _exit_code(status == FAIL, status == PASS, args.strict))


# ---------------------------------------------------------------------------
# fuzz


def _sparse_sample(rng: random.Random):
    from .families import sample_random_distribution
    sizes = tuple(rng.randint(1, 3) for _ in range(4))
    d = sample_random_distribution(("A", "B", "X", "Y"), sizes, rng.randrange(SEED_SPAN))
    outcomes = sorted(d.counts)
    keep = rng.randint(1, len(outcomes))
    return d.condition(rng.sample(outcomes, keep))


def _fuzz_trial(target: str, rng: random.Random):
    from .conditions import audit_lemma1, audit_lemma3
    from .families import extend_with_random_B, sample_cond2c, sample_random_distribution
    from .inequalities import verify_lemma2, verify_theorem1, verify_theorem2
    inner = rng.randrange(SEED_SPAN)
    if target == "theorem1":
        sizes = tuple(rng.randint(1, 4) for _ in range(4))
        d = sample_cond2c(inner, sizes)
        result = verify_theorem1(d)
    elif target == "theorem2":
        sizes = tuple(rng.randint(1, 3) for _ in range(3))
        base = sample_random_distribution(("A", "X", "Y"), sizes, inner)
        d = extend_with_random_B(base, rng.randint(1, 3), rng.randrange(SEED_SPAN))
        result = verify_theorem2(d)
    elif target == "lemma1":
        d = _sparse_sample(rng)
        result = audit_lemma1(d)
    elif target == "lemma2":
        d = _sparse_sample(rng)
        result = verify_lemma2(d)
    else:  # lemma3
        sizes = tuple(rng.randint(1, 3) for _ in range(4))
        d = sample_cond2c(inner, sizes)
        result = audit_lemma3(d, trials=3, seed=rng.randrange(SEED_SPAN))
    return d, result.status


def _cmd_fuzz(args) -> CommandOutcome:
    if args.trials < 1:
        raise LabError("BAD_PARAM", "--trials must be positive")
    rng = random.Random(args.seed)
    rows = []
    counts: dict[str, int] = {}
    first_failure = None
    for trial in range(args.trials):
        d, status = _fuzz_trial(args.target, rng)
        counts[status] = counts.get(status, 0) + 1
        if args.csv:  # a fingerprint hashes the whole emission: made only to print
            rows.append(f"{trial},{d.fingerprint()},{status}")
        if status == FAIL and first_failure is None:
            first_failure = {"trial": trial, "fingerprint": d.fingerprint()}
    failures = counts.get(FAIL, 0)
    exit_code = _exit_code(failed=failures > 0)
    if args.csv:
        return CommandOutcome(exit_code, "\n".join(["trial,fingerprint,status", *rows]) + "\n")
    doc = {
        "target": args.target,
        "trials": args.trials,
        "seed": args.seed,
        "counts": counts,
        "failures": failures,
    }
    if first_failure is not None:
        doc["first_failure"] = first_failure
    return _document(doc, exit_code)


# ---------------------------------------------------------------------------
# graph


def _cmd_graph_gen(args) -> CommandOutcome:
    from .graphs import gen_gnk
    g = gen_gnk(args.n, args.k)
    text = g.dumps()
    if args.out:
        _write(args.out, text)
    return CommandOutcome(0, text)


def _cmd_graph(args) -> CommandOutcome:
    from .graphs import (_min_degrees, bcc_color_bound, bcc_dual_entropy_bound,
                         bcc_entropy_bound, corollary_bound_check, extend_with_cover_index,
                         load_cover, load_graph, load_partition, min_biclique_cover,
                         min_valid_matching_partition, verify_biclique_cover,
                         verify_matching_partition)
    g = load_graph(_read(args.graph))
    action = args.graph_command
    if action == "verify-partition":
        partition = load_partition(_read(args.partition))
        report = verify_matching_partition(g, partition)
        doc = {"partition": report.to_json_dict(), "corollary": None}
        if report.valid:
            doc["corollary"] = corollary_bound_check(g, partition).to_json_dict()
        return _document(doc, _exit_code(holds=report.valid, strict=args.strict))
    if action == "min-partition":
        k = min_valid_matching_partition(g, args.limit)
        left_min, right_min = _min_degrees(g)
        doc = {
            "K": k,
            "L": left_min,
            "R": right_min,
            "product_bound_holds": k >= left_min * right_min,
        }
        return _document(doc, _exit_code(failed=not doc["product_bound_holds"]))
    if action == "verify-cover":
        cover = load_cover(_read(args.cover))
        verdict = verify_biclique_cover(g, cover)
        doc = verdict.to_json_dict()
        return _document(doc, _exit_code(holds=verdict.holds, strict=args.strict))
    if action == "bcc":
        methods = args.method.split(",")
        bounds = {"entropy": bcc_entropy_bound, "dual": bcc_dual_entropy_bound,
                  "color": bcc_color_bound}
        for method in methods:  # every name is checked before any work
            if method != "exact" and method not in bounds:
                raise LabError("BAD_PARAM", f"unknown bcc method {method!r}")
        doc = dict.fromkeys(methods)
        if "exact" in doc:  # first, so that its edge cap refuses before any bound runs
            cover = min_biclique_cover(g, args.limit)
            doc["exact"] = {"value": len(cover), "cover": [b.to_json_dict() for b in cover]}
        for method in doc:
            if method == "exact":
                continue
            try:
                doc[method] = bounds[method](g).to_json_dict()
            except PreconditionFailed as exc:
                doc[method] = {"applicable": False, "witness": exc.witness}
        return _document(doc)
    # z-extend
    cover = load_cover(_read(args.cover))
    report = extend_with_cover_index(g, cover)
    doc = report.to_json_dict()
    doc["fingerprint"] = report.distribution.fingerprint()
    if args.out:
        _write(args.out, report.distribution.dumps())
    holds = report.split_holds and report.size_floor_holds
    return _document(doc, _exit_code(holds=holds, strict=args.strict))


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroplab",
        description="Exact checks for conditional information inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="deterministic generators and samplers")
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)
    gen = catalog_sub.add_parser("gen", help="emit a distribution as JSON")
    gen.add_argument(
        "--family",
        required=True,
        choices=[
            "distinct-pairs",
            "disjoint-sets",
            "field-lines",
            "random-support",
            "random-cond2c",
        ],
    )
    gen.add_argument("--n", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--q-exp", dest="q_exp", type=int)
    gen.add_argument("--delta", default="0")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--b-size", dest="b_size", type=int)
    gen.add_argument("--sizes")
    gen.add_argument("--out")
    gen.set_defaults(handler=_cmd_catalog_gen)

    info = sub.add_parser("info", help="measure panel for a distribution")
    info_sub = info.add_subparsers(dest="info_command", required=True)
    report = info_sub.add_parser("report", help="entropies, verdicts, gaps, error terms")
    report.add_argument("--dist", required=True)
    report.set_defaults(handler=_cmd_info)

    check = sub.add_parser("check", help="support and product condition verdicts")
    check.add_argument("--dist", required=True)
    check.add_argument("--condition", choices=_CONDITION_IDS)
    check.add_argument("--all", action="store_true")
    check.add_argument("--strict", action="store_true")
    check.set_defaults(handler=_cmd_check)

    verify = sub.add_parser("verify", help="run a theorem or lemma verifier")
    verify.add_argument("--dist", required=True)
    verify.add_argument(
        "--theorem", required=True, choices=["1", "2", "lemma1", "lemma2", "lemma3"]
    )
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--strict", action="store_true")
    verify.set_defaults(handler=_cmd_verify)

    fuzz = sub.add_parser("fuzz", help="seeded property fuzzing")
    fuzz.add_argument(
        "--target",
        required=True,
        choices=["theorem1", "theorem2", "lemma1", "lemma2", "lemma3"],
    )
    fuzz.add_argument("--trials", type=int, required=True)
    fuzz.add_argument("--seed", type=int, required=True)
    fuzz.add_argument("--csv", action="store_true")
    fuzz.set_defaults(handler=_cmd_fuzz)

    graph = sub.add_parser("graph", help="matching partitions and biclique covers")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    gg = graph_sub.add_parser("gen", help="disjointness graph on k-subsets of {1..n}")
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--k", type=int, required=True)
    gg.add_argument("--out")
    gg.set_defaults(handler=_cmd_graph_gen)
    vp = graph_sub.add_parser("verify-partition")
    vp.add_argument("--graph", required=True)
    vp.add_argument("--partition", required=True)
    vp.add_argument("--strict", action="store_true")
    vp.set_defaults(handler=_cmd_graph)
    mp = graph_sub.add_parser("min-partition")
    mp.add_argument("--graph", required=True)
    mp.add_argument("--limit", type=int)
    mp.set_defaults(handler=_cmd_graph)
    vc = graph_sub.add_parser("verify-cover")
    vc.add_argument("--graph", required=True)
    vc.add_argument("--cover", required=True)
    vc.add_argument("--strict", action="store_true")
    vc.set_defaults(handler=_cmd_graph)
    bcc = graph_sub.add_parser("bcc")
    bcc.add_argument("--graph", required=True)
    bcc.add_argument("--method", default="entropy,dual,color")
    bcc.add_argument("--limit", type=int)
    bcc.set_defaults(handler=_cmd_graph)
    ze = graph_sub.add_parser("z-extend")
    ze.add_argument("--graph", required=True)
    ze.add_argument("--cover", required=True)
    ze.add_argument("--out")
    ze.add_argument("--strict", action="store_true")
    ze.set_defaults(handler=_cmd_graph)

    return parser


def run(argv) -> CommandOutcome:
    parser = _build_parser()
    stdout, sys.stdout = sys.stdout, io.StringIO()  # argparse prints --help itself
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # the help goes back to `main`, to be written like any output
        return CommandOutcome(0 if exc.code in (0, None) else 2, sys.stdout.getvalue())
    finally:
        sys.stdout = stdout
    try:
        return args.handler(args)
    except LabError as exc:
        doc = {"error": {"code": exc.code, "message": str(exc)}}
        if exc.witness is not None:
            doc["error"]["witness"] = exc.witness
        return _document(doc, exit_code=2)
    except MemoryError:
        # inside the size budgets, but past the memory of this process
        return _document({"error": {"code": "TOO_LARGE", "message": "out of memory"}}, 2)


def main(argv=None) -> int:
    outcome = run(sys.argv[1:] if argv is None else argv)
    if outcome.text:
        try:
            if sys.stdout is None:  # the process started with fd 1 closed
                raise OSError("stdout is closed")
            sys.stdout.write(outcome.text)
            sys.stdout.flush()
        except OSError as exc:
            doc = {"error": {"code": "IO_ERROR", "message": f"cannot write stdout: {exc}"}}
            try:
                sys.stderr.write(_document(doc).text)
                sys.stderr.flush()
            except (AttributeError, OSError):  # stderr is closed (None) or full as well
                pass
            # the Python docs' SIGPIPE recipe: the flushes at exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            return 2
    return outcome.exit_code
