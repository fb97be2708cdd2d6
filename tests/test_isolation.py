"""A construction's transcript depends on (instance, config) alone: not on
what ran earlier in the process, and no batch length exhausts hidden
state.  The same holds for an audit's findings, although the process
keeps a run tree per program that every bounded halting question reads
and grows."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from forcingbench.approx import SetPresentation
from forcingbench.forcing import (
    CohConfig,
    rt2_pipeline,
    run_coh,
    run_d2,
    run_em,
    verify_transcript,
)
from forcingbench.harness import (
    gen_coloring,
    gen_d2_partition,
    gen_stable_coloring,
)

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORTS = (
    "from forcingbench.forcing import rt2_pipeline, run_d2, run_em, "
    "verify_transcript\n"
    "from forcingbench.forcing.base import digest\n"
    "from forcingbench.harness import gen_coloring, gen_d2_partition, "
    "gen_stable_coloring, transcript_hash\n"
)

HASHES = {
    "d2": "transcript_hash(run_d2(gen_d2_partition(0), 300)[0])",
    "em": "transcript_hash(run_em(gen_stable_coloring(0), 200)[0])",
    "rt2": "transcript_hash(rt2_pipeline(gen_coloring(0), 60)[1])",
}

# sha256 of the findings list of the EM run of seed 0, audited with its
# coloring; EM's audit asks the most questions of query programs
EM_FINDINGS = (
    "digest(verify_transcript(run_em(gen_stable_coloring(0), 200)[0], "
    "audit_fuel=2, instance=gen_stable_coloring(0)).findings)"
)


def _fresh_hash(expr: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", IMPORTS + f"print({expr})"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def _other_runs():
    run_em(gen_stable_coloring(1), 50)
    run_d2(gen_d2_partition(1), 150)
    for seed in (1, 2, 3):
        rt2_pipeline(gen_coloring(seed), 60)
    family = [SetPresentation.from_set(range(0, 64, 2), 64)]
    run_coh(family, 20, config=CohConfig(window=64, density_min=4))


@pytest.mark.parametrize("kind", sorted(HASHES))
def test_hash_independent_of_process_history(kind):
    fresh = _fresh_hash(HASHES[kind])
    _other_runs()
    scope = {}
    exec(IMPORTS + f"warm = {HASHES[kind]}", scope)  # same code, warm process
    warm = scope["warm"]
    assert len(fresh) == 64
    assert warm == fresh


def test_findings_independent_of_process_history():
    fresh = _fresh_hash(EM_FINDINGS)
    _other_runs()
    for seed in (1, 2, 3):  # audits grow the trees of other sets
        c = gen_stable_coloring(seed)
        verify_transcript(run_em(c, 200)[0], audit_fuel=2, instance=c)
    scope = {}
    exec(IMPORTS + f"warm = {EM_FINDINGS}", scope)
    assert len(fresh) == 64
    assert scope["warm"] == fresh


def test_rt2_batch_of_1000_in_one_process():
    for seed in range(1000):
        rt2_pipeline(gen_coloring(seed), 60)
