"""Span recording around the program's public functions, and the per-layer
metrics computed from the spans.

``Tracer.install`` wraps every public function of the traced modules in
every ``entroplab`` namespace that holds it (``cli`` imports
``verify_lemma2`` by name, so patching only ``inequalities`` would miss its
calls), and the public methods of ``JointDistribution`` on the class.  A
span records its name, start, end and parent span; run.py adds the
invocation id.  Spans stay in memory until the traced run ends.  A span's
self time is its duration minus the time covered by its child spans.

Nothing in this module imports the program; ``trace_child.py`` passes the
modules in.
"""

from __future__ import annotations

import functools
import inspect
import time

# as_fraction runs once per atom inside every construction and load; a span
# around it would cost more than the work it measures, so its time stays in
# the caller's self time.  Generator functions are skipped because a span
# around the call would end before any of their work runs.
UNTRACED = {"distributions.as_fraction"}

JD = "distributions.JointDistribution."

# per-layer metric -> spans whose self times it sums
LAYER_SPANS = {
    "cli.self_s": ["cli.run"],
    "distributions.table_s": [JD + "table"],
    "distributions.construct_s": [JD + "__init__"],
    "distributions.entropy_s": [JD + "entropy", JD + "cond_entropy", JD + "mutual_info",
                                JD + "triple_mutual_info"],
    "distributions.load_s": ["distributions.load_distribution"],
    "distributions.dumps_s": [JD + "dumps", JD + "to_json_dict", JD + "fingerprint"],
    "conditions.independence_s": ["conditions.check_independence"],
    "conditions.ci_s": ["conditions.check_ci_given"],
    "conditions.functional_s": ["conditions.check_functional"],
    "conditions.cond2b_s": ["conditions.check_support_saturation"],
    "conditions.cond2c_s": ["conditions.check_unique_common_value"],
    "conditions.pointwise_s": ["conditions.check_pointwise_product"],
    "conditions.audit_s": ["conditions.audit_lemma1", "conditions.audit_lemma3"],
    "inequalities.gamma_s": ["inequalities.gamma_term"],
    "inequalities.delta_s": ["inequalities.delta_term"],
    "inequalities.gaps_s": ["inequalities.ingleton_gap", "inequalities.reduced_ingleton_gap",
                            "inequalities.entropy_split_gap"],
    "inequalities.delta_prime_s": ["inequalities.delta_prime_term"],
    "inequalities.verify_self_s": ["inequalities.verify_lemma2", "inequalities.verify_theorem1",
                                   "inequalities.verify_theorem2"],
    "families.gen_s": ["families.gen_distinct_pairs", "families.gen_disjoint_sets",
                       "families.gen_field_lines"],
    "families.sample_s": ["families.sample_random_distribution", "families.sample_cond2c"],
    "families.extend_b_s": ["families.extend_with_random_B"],
    "graphs.cover_search_s": ["graphs.min_biclique_cover", "graphs.bcc_exact"],
    "graphs.partition_search_s": ["graphs.min_valid_matching_partition"],
    "graphs.bicliques_s": ["graphs.maximal_bicliques"],
    "graphs.bounds_s": ["graphs.bcc_entropy_bound", "graphs.bcc_color_bound",
                        "graphs.bcc_dual_entropy_bound", "graphs.check_property_star",
                        "graphs.check_property_doublestar"],
    "graphs.z_extend_s": ["graphs.extend_with_cover_index"],
    "graphs.load_s": ["graphs.load_graph", "graphs.load_cover", "graphs.load_partition"],
}

# Counts that must repeat exactly between runs of one seed: a change in
# any of them means the inputs or the work drifted, not the speed.
STABLE_COUNTS = (
    "distributions.input_atoms",
    "distributions.max_den_bits",
    "distributions.construct_atoms",
    "inequalities.index_terms",
    "graphs.bicliques",
    "cli.stdout_bytes",
)


def _names(variables) -> tuple:
    return (variables,) if isinstance(variables, str) else tuple(variables)


def _den_bits(masses) -> int:
    return max((getattr(m, "denominator", 1).bit_length() for m in masses), default=0)


def index_terms(d) -> int:
    """Size of the gamma/delta index set: the sum over (a, b) of |xs| * |ys|,
    xs and ys the x and y values with p(a,b,x) > 0 and p(a,b,y) > 0.  Read
    from the atom keys, so it calls nothing that could fill a table cache."""
    cols = {v: i for i, v in enumerate(d.variables)}
    a, x, y = cols["A"], cols["X"], cols["Y"]
    b = cols.get("B")
    xs: dict = {}
    ys: dict = {}
    for outcome in d.atoms:
        key = (outcome[a], None if b is None else outcome[b])
        xs.setdefault(key, set()).add(outcome[x])
        ys.setdefault(key, set()).add(outcome[y])
    return sum(len(xs[key]) * len(ys[key]) for key in xs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.self_s: dict[str, float] = {}
        self.counts = {name: 0 for name in STABLE_COUNTS if name != "cli.stdout_bytes"}
        self.counts.update({"distributions.table_calls": 0, "table_misses": 0,
                            "cond2c_samples": 0, "cond2c_constructions": 0})
        self._stack: list[int] = []
        self._inner: list[float] = []
        self._seen_tables: set = set()
        self._alive: list = []  # keeps ids in _seen_tables unique for the run
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_exit=None):
        spans, stack, inner, self_s = self.spans, self._stack, self._inner, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            inner.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                covered = inner.pop()
                record = spans[index]
                record[1], record[2] = start, end
                self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
                if inner:
                    inner[-1] += end - start
            if on_exit is not None:
                # Bookkeeping is charged to no span: it counts as child
                # time of the enclosing span, so only the total (and the
                # overhead ratio) sees it.
                begin = clock()
                on_exit(args, kwargs, result, record[3])
                if inner:
                    inner[-1] += clock() - begin
            return result

        return traced

    def _on_table(self, args, kwargs, result, parent):
        self.counts["distributions.table_calls"] += 1
        d = args[0]
        variables = args[1] if len(args) > 1 else kwargs.get("variables", ())
        key = (id(d), _names(variables))
        if key not in self._seen_tables:
            self._seen_tables.add(key)
            self._alive.append(d)
            self.counts["table_misses"] += 1
            bits = _den_bits(result.values())
            if bits > self.counts["distributions.max_den_bits"]:
                self.counts["distributions.max_den_bits"] = bits

    def _on_construct(self, args, kwargs, result, parent):
        self.counts["distributions.construct_atoms"] += len(args[0].atoms)
        if parent >= 0 and self.spans[parent][0] == "families.sample_cond2c":
            self.counts["cond2c_constructions"] += 1

    def _on_load(self, args, kwargs, result, parent):
        self.counts["distributions.input_atoms"] += len(result.atoms)
        bits = _den_bits(result.atoms.values())
        if bits > self.counts["distributions.max_den_bits"]:
            self.counts["distributions.max_den_bits"] = bits

    def _on_index(self, args, kwargs, result, parent):
        self.counts["inequalities.index_terms"] += index_terms(args[0])

    def _on_cond2c(self, args, kwargs, result, parent):
        self.counts["cond2c_samples"] += 1

    def _on_bicliques(self, args, kwargs, result, parent):
        self.counts["graphs.bicliques"] += len(result)

    # -- installation ------------------------------------------------------

    def install(self, package, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (short name -> module)
        in every namespace of ``package`` that holds them."""
        hooks = {
            "distributions.load_distribution": self._on_load,
            "inequalities.gamma_term": self._on_index,
            "inequalities.delta_term": self._on_index,
            "families.sample_cond2c": self._on_cond2c,
            "graphs.maximal_bicliques": self._on_bicliques,
        }
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__ or name in UNTRACED
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[obj] = self.wrap(name, obj, hooks.get(name))
        for namespace in [package, *modules.values()]:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])

        cls = modules["distributions"].JointDistribution
        method_hooks = {"table": self._on_table, "__init__": self._on_construct}
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                self._patched.append((cls, attr, obj))
                setattr(cls, attr, self.wrap(JD + attr, obj, method_hooks.get(attr)))

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._patched):
            setattr(namespace, attr, obj)
        self._patched.clear()
        self._alive.clear()


def layer_metrics(self_s: dict, counts: dict) -> dict:
    """Per-layer values from summed self times and counts."""
    out = {metric: sum(self_s.get(span, 0.0) for span in spans)
           for metric, spans in LAYER_SPANS.items()}
    calls = counts.get("distributions.table_calls", 0)
    out["distributions.table_calls"] = calls
    out["distributions.table_miss_ratio"] = counts.get("table_misses", 0) / calls if calls else 0.0
    samples = counts.get("cond2c_samples", 0)
    out["families.cond2c_attempts_ratio"] = (
        counts.get("cond2c_constructions", 0) / samples if samples else 0.0)
    for name in STABLE_COUNTS:
        out[name] = counts.get(name, 0)
    return out
