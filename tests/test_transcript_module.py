"""The transcript format lives in `forcingbench.transcript`, a leaf module,
and the run trees in `forcingbench.machine`, so the auditor's independence
from the constructions is a fact of its imports.

`forcingbench.transcript` imports nothing from `forcingbench`, also in a
fresh interpreter; `verify.py` takes names only from `transcript`,
`machine` and `brute`, and `find_halt_witness` from `forcing.base`; and
every name that moved is re-exported from `forcing.base` or
`harness.transcripts` as the same object, so a patch of it there (the
`fuels` fixture's, or perfbench's tracer) reaches the code that runs.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from forcingbench import machine, transcript
from forcingbench.forcing import base, verify, verify_transcript
from forcingbench.harness import transcripts

from test_forged_oracles import em_run, fuels  # noqa: F401  (fixtures)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(transcript.__file__)))

FORMAT_NAMES = (
    "ABORT", "CASE1", "CASE2", "D_RESTRICTION", "E_EXTENSION", "SKIP",
    "CohCondition", "D2Condition", "StageRecord", "Transcript",
    "condition_dict", "digest", "extends", "parse_label",
)
RUN_TREE_NAMES = (
    "RUN_TREE_CAP", "_RunTree", "_run_tree", "bounded_halt",
    "finite_oracle", "queries_oracle", "query_free_status",
)
HARNESS_NAMES = (
    "TranscriptFormatError", "canonical_json", "emit_transcript",
    "load_transcript", "transcript_hash",
)


def _from_imports(module):
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]


def _imports(module):
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
            for a in n.names]


def test_transcript_imports_only_the_standard_library():
    for n in _from_imports(transcript):
        assert n.level == 0, ast.dump(n)
        assert not n.module.startswith("forcingbench"), ast.dump(n)
    assert not [m for m in _imports(transcript)
                if m.startswith("forcingbench")]


def test_transcript_loads_no_other_forcingbench_module():
    code = ("import json, sys, forcingbench.transcript; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('forcingbench'))))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == ["forcingbench",
                                      "forcingbench.transcript"]


def test_verify_imports_only_the_format_the_machine_and_brute():
    sources = {}
    for n in _from_imports(verify):
        if n.level == 0:
            assert not n.module.startswith("forcingbench"), ast.dump(n)
            continue
        sources.setdefault((n.level, n.module), set()).update(
            a.name for a in n.names)
    assert set(sources) <= {(2, "transcript"), (2, "machine"),
                            (2, "brute"), (1, "base")}, sources
    assert sources[(1, "base")] == {"find_halt_witness"}
    assert "Transcript" in sources[(2, "transcript")]
    assert "bounded_halt" in sources[(2, "machine")]
    assert not [m for m in _imports(verify) if m.startswith("forcingbench")]


@pytest.mark.parametrize("name", FORMAT_NAMES)
def test_base_reexports_the_format(name):
    assert getattr(base, name) is getattr(transcript, name)


@pytest.mark.parametrize("name", RUN_TREE_NAMES)
def test_base_reexports_the_run_trees(name):
    assert getattr(base, name) is getattr(machine, name)


@pytest.mark.parametrize("name", HARNESS_NAMES)
def test_harness_reexports_the_writer_and_reader(name):
    assert getattr(transcripts, name) is getattr(transcript, name)


def test_fuels_fixture_observes_the_auditors_run_trees(em_run, fuels):
    # the fixture patches `base._RunTree.outcome`; the auditor asks
    # `machine.bounded_halt`, whose trees are of that same class
    t, c = em_run
    assert fuels[0] == 0
    report = verify_transcript(t, audit_fuel=2, instance=c)
    assert report.counts["refuted"] == 0
    assert 0 < fuels[0] <= t.config["window"]
