"""The benchmark's span tracer (``perfbench/tracer.py``) still installs on
the package and leaves its output alone.  The tracer finds what it wraps by
name, so a deleted or renamed entry point would otherwise show only in a
benchmark run."""

import importlib.util
from pathlib import Path

import entroplab
from entroplab import cli, conditions, distributions, families, graphs, inequalities

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "tests" / "golden" / "inputs"

MODULES = {"cli": cli, "distributions": distributions, "conditions": conditions,
           "inequalities": inequalities, "families": families, "graphs": graphs}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_match_untraced_and_count_work():
    argvs = [
        ["info", "report", "--dist", str(INPUTS / "field-lines-4-b2.json")],
        ["graph", "bcc", "--graph", str(INPUTS / "gnk-6-1.json"),
         "--method", "exact,entropy,dual,color", "--limit", "30"],
    ]
    plain = [cli.run(argv) for argv in argvs]
    original_init = distributions.JointDistribution.__init__
    recorder = _load_tracer().Tracer()
    recorder.install(entroplab, MODULES)
    try:
        traced = [cli.run(argv) for argv in argvs]
    finally:
        recorder.uninstall()
    assert distributions.JointDistribution.__init__ is original_init
    assert [o.exit_code for o in traced] == [o.exit_code for o in plain] == [0, 0]
    assert [o.text for o in traced] == [o.text for o in plain]
    for name in ("distributions.construct_atoms", "distributions.input_atoms",
                 "inequalities.index_terms", "graphs.bicliques"):
        assert recorder.counts[name] > 0, name
