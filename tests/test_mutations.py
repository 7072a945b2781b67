"""The exit-code contract under mutated input documents.

Each example mutates one valid distribution, graph, cover or partition
document, in its JSON tree or in its text, and feeds it to every
subcommand that reads that kind of document.  Without --strict the exit
code must be 0 or 2, exit 2 must come with a JSON error document, and no
exception may escape ``cli.run``.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entroplab.cli import run

INPUTS = Path(__file__).parent / "golden" / "inputs"

# kind -> (the valid document to mutate, the commands that read it); in
# each argv "@" stands for the mutated file and "@name" for a valid input
READERS = {
    "distribution": ("cond2c.json", [
        ["info", "report", "--dist", "@"],
        ["check", "--dist", "@", "--all"],
        ["verify", "--dist", "@", "--theorem", "1"],
        ["verify", "--dist", "@", "--theorem", "2"],
        ["verify", "--dist", "@", "--theorem", "lemma1"],
        ["verify", "--dist", "@", "--theorem", "lemma2"],
        ["verify", "--dist", "@", "--theorem", "lemma3", "--seed", "1", "--trials", "3"],
    ]),
    "graph": ("gnk-4-1.json", [
        ["graph", "verify-partition", "--graph", "@", "--partition", "@gnk-4-1-singletons.json"],
        ["graph", "min-partition", "--graph", "@"],
        ["graph", "verify-cover", "--graph", "@", "--cover", "@gnk-4-1-cover.json"],
        ["graph", "bcc", "--graph", "@", "--method", "exact,entropy,dual,color"],
        ["graph", "z-extend", "--graph", "@", "--cover", "@gnk-4-1-cover.json"],
    ]),
    "cover": ("gnk-4-1-cover.json", [
        ["graph", "verify-cover", "--graph", "@gnk-4-1.json", "--cover", "@"],
        ["graph", "z-extend", "--graph", "@gnk-4-1.json", "--cover", "@"],
    ]),
    "partition": ("gnk-4-1-singletons.json", [
        ["graph", "verify-partition", "--graph", "@gnk-4-1.json", "--partition", "@"],
    ]),
}

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=True),
    st.sampled_from(["", "0", "1", "-1/2", "1/0", "2", "nan", "A", "B", "Z", "*", "x0"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=6,
)


def _paths(node, path=()):
    """(path, node) for every node of a JSON tree, the root first."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _leaves(node, key=None):
    """(key, string) for each string leaf; a list item takes its list's key."""
    if isinstance(node, str):
        yield key, node
    elif isinstance(node, dict):
        for k, value in node.items():
            yield from _leaves(value, k)
    elif isinstance(node, list):
        for value in node:
            yield from _leaves(value, key)


def _mutate(data, doc) -> bytes:
    doc = copy.deepcopy(doc)
    leaves = list(_leaves(doc))
    for _ in range(data.draw(st.integers(1, 2))):
        paths = [path for path, _ in _paths(doc)]
        strings = [path for path, node in _paths(doc) if isinstance(node, str)] or paths
        path = data.draw(st.sampled_from(strings) | st.sampled_from(paths))
        action = data.draw(st.sampled_from(["replace", "reuse", "reuse", "delete", "duplicate"]))
        if action == "replace":
            value = data.draw(VALUES)
        else:
            # a string found under the same key (a symbol for a symbol, a
            # mass for a mass) mostly keeps the schema and reaches the
            # checks behind it
            key = next((step for step in reversed(path) if isinstance(step, str)), None)
            pool = sorted({s for k, s in leaves if k == key}) or sorted({s for _, s in leaves})
            value = data.draw(st.sampled_from(pool))
        if not path:
            doc = value if action in ("replace", "reuse") else doc
            continue
        *head, last = path
        parent = doc
        for step in head:
            parent = parent[step]
        if action in ("replace", "reuse"):
            parent[last] = value
        elif action == "delete":
            del parent[last]
        elif isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
        else:
            parent[value] = copy.deepcopy(parent[last])
    raw = json.dumps(doc).encode()
    cut = data.draw(st.sampled_from(["none", "none", "none", "truncate", "splice"]))
    at = data.draw(st.integers(0, len(raw)))
    if cut == "truncate":
        raw = raw[:at]
    elif cut == "splice":
        byte = data.draw(st.sampled_from([b"\xff", b"{", b"]", b",", b'"', b"\x00"]))
        raw = raw[:at] + byte + raw[at:]
    return raw


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(kind, data):
    name, commands = READERS[kind]
    raw = _mutate(data, json.loads((INPUTS / name).read_text(encoding="utf-8")))
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / "mutated.json"
        mutated.write_bytes(raw)
        for argv in commands:
            argv = [str(mutated) if a == "@" else str(INPUTS / a[1:]) if a.startswith("@") else a
                    for a in argv]
            outcome = run(argv)
            assert outcome.exit_code in (0, 2), (argv, raw, outcome.text)
            if outcome.exit_code == 2:
                error = json.loads(outcome.text)["error"]
                assert isinstance(error["code"], str) and isinstance(error["message"], str)
