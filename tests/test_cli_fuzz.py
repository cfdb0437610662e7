"""Seeded single-field mutations of stream specs, traces and theorem
instances, run through ``main()`` in process.

Each mutation replaces, deletes or duplicates one field of a valid
document; a second set moves every tail ratio toward 1.  Every case
must return exit code 0, 1 or 2 without raising, print no traceback,
and leave stdout empty when it exits 2.
"""

import copy
import json
import subprocess
import sys
from importlib import resources
from random import Random

import pytest

from qshift.cli import main

SPECS = resources.files("qshift").joinpath("specs")

# replacement values: each JSON type, and look-alikes of the fields read
FILLERS = (None, True, False, 0, 1, -1, 2 ** 70, 0.5, "", "0", "1", "-1",
           "1/2", "-3/7", "1/0", "2/4", "x", [], {}, ["0"], [["0", "0"]],
           {"points": [], "tails": []}, {"atom": "0"})

# 1 - 10**-j for j = 1..12: ratios whose powers shrink ever more slowly,
# so the powers below a bound grow ever longer
NEAR_ONE = tuple(f"{10 ** j - 1}/{10 ** j}" for j in range(1, 13))


def _paths(obj, path=()):
    """The path of every field below the root: dict keys and list indices."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def mutate(doc, rng):
    """A copy of ``doc`` with one field replaced (by a filler or by another
    value of the same document), deleted or duplicated."""
    out = copy.deepcopy(doc)
    paths = list(_paths(out))
    path = rng.choice(paths)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = rng.randrange(4)
    if op == 0:
        parent[key] = copy.deepcopy(rng.choice(FILLERS))
    elif op == 1:
        donor = out
        for k in rng.choice(paths):
            donor = donor[k]
        parent[key] = copy.deepcopy(donor)
    elif op == 2:
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key + "_"] = copy.deepcopy(parent[key])
    return out


def ratios_toward_one(doc):
    """Copies of ``doc`` with one ``ratio`` field set to each of
    ``NEAR_ONE``."""
    for path in _paths(doc):
        if path[-1] != "ratio":
            continue
        for ratio in NEAR_ONE:
            out = copy.deepcopy(doc)
            parent = out
            for key in path[:-1]:
                parent = parent[key]
            parent["ratio"] = ratio
            yield out


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in captured.err, argv
    if code == 2:
        assert captured.out == "", argv
    return code


def _cases(tmp_path, capsys):
    """(command line builder, valid document, mutation count, ratio flag)
    per input kind: a builder takes the path a mutated document is
    written to; the flag marks the documents whose ``ratio`` fields reach
    the tail search (``verify`` replays from the unmutated stream, so a
    trace's ratios never do)."""
    tail = str(SPECS / "tail_start.json")
    trace = tmp_path / "valid.trace.json"
    assert main(["construct", "--stream", tail, "--steps", "3",
                 "--out", str(trace)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out.json")
    construct = lambda path: ["construct", "--stream", path, "--steps", "3",
                              "--out", out]
    theorem = lambda path: ["theorem", "--stream", path]
    return [
        (construct, json.loads((SPECS / "tail_start.json").read_text()), 300,
         True),
        (construct, json.loads((SPECS / "dense_singletons.json").read_text()),
         200, True),
        (lambda path: ["verify", "--stream", tail, "--out", path],
         json.loads(trace.read_text()), 900, False),
        (theorem, json.loads((SPECS / "theorem_translation.json").read_text()),
         300, True),
        (theorem, json.loads((SPECS / "theorem_identity.json").read_text()),
         300, True),
    ]


def test_single_field_mutations_end_in_a_defined_exit_code(tmp_path, capsys):
    rng = Random(26)
    doc_path = tmp_path / "mutated.json"
    codes = {0: 0, 1: 0, 2: 0}
    for argv, doc, count, ratios in _cases(tmp_path, capsys):
        # the valid document itself passes
        doc_path.write_text(json.dumps(doc))
        assert _run(capsys, argv(str(doc_path))) == 0
        for _ in range(count):
            doc_path.write_text(json.dumps(mutate(doc, rng)))
            codes[_run(capsys, argv(str(doc_path)))] += 1
        for near in ratios_toward_one(doc) if ratios else ():
            doc_path.write_text(json.dumps(near))
            codes[_run(capsys, argv(str(doc_path)))] += 1
    # the corpus reaches every exit code
    assert min(codes.values()) >= 20, codes


@pytest.mark.parametrize("ratio, code", [
    ("999/1000", 0), ("9999/10000", 2), ("99999/100000", 2)])
def test_ratio_near_one_ends_quickly(tmp_path, ratio, code):
    stream = tmp_path / "stream.json"
    stream.write_text(json.dumps({"increments": [
        {"points": [], "tails": [{"limit": "0", "coeff": "1",
                                  "ratio": ratio, "headDrop": 0}]},
        {"points": ["1/3"], "tails": []},
        {"points": ["1/5"], "tails": []}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "qshift.cli", "construct",
         "--stream", str(stream), "--steps", "2",
         "--out", str(tmp_path / "trace.json")],
        capture_output=True, text=True, timeout=3)
    assert proc.returncode == code, proc.stderr
    # a term whose denominator has more than 4300 digits is refused
    assert proc.stderr.startswith("limit error:") if code else \
        proc.stderr == ""
