"""Replay one CLI invocation in process, untraced and then traced.

Usage: python3 perfbench/trace_child.py '<argv as JSON>' '<no-work argv as JSON>'

Run from the repository root with ``src`` on PYTHONPATH and the same
PYTHONHASHSEED as the subprocess it mirrors.  The untraced run times
``entroplab.cli.run`` alone, so the subprocess wall minus it is the cost of
process start, import and exit; the traced run records spans.  Prints one
JSON object on stdout.
"""

import hashlib
import json
import sys
import time

import tracer


def main() -> int:
    argv = json.loads(sys.argv[1])
    import entroplab
    from entroplab import cli, conditions, distributions, families, graphs, inequalities

    modules = {"cli": cli, "distributions": distributions, "conditions": conditions,
               "inequalities": inequalities, "families": families, "graphs": graphs}

    # A no-work command first, so that neither timed run pays for argparse,
    # json and regex caches filling on first use; the subprocess does pay,
    # which lands in cli.process_s.
    cli.run(json.loads(sys.argv[2]))
    start = time.perf_counter()
    plain = cli.run(argv)
    untraced_s = time.perf_counter() - start

    rec = tracer.Tracer()
    rec.install(entroplab, modules)
    try:
        start = time.perf_counter()
        traced = cli.run(argv)
        traced_s = time.perf_counter() - start
    finally:
        rec.uninstall()

    digest = [hashlib.sha256(o.text.encode()).hexdigest() for o in (plain, traced)]
    json.dump({
        "exit_codes": [plain.exit_code, traced.exit_code],
        "stdout_sha256": digest,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "self_s": rec.self_s,
        "counts": rec.counts,
        "spans": rec.spans,
    }, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
