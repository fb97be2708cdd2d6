"""Cohesive-set construction."""

import pytest

from forcingbench.approx import SetPresentation
from forcingbench.forcing import CohConfig, run_coh, verify_transcript
from forcingbench.forcing.base import ABORT, D_RESTRICTION
from forcingbench.harness import brute_oracle
from forcingbench.harness.transcripts import transcript_hash


def _family():
    return [
        SetPresentation.from_set(range(0, 64, 2), 64),
        SetPresentation.from_set(range(0, 64, 3), 64),
    ]


def _cfg(**kw):
    base = dict(window=64, density_min=4)
    base.update(kw)
    return CohConfig(**base)


def test_run_coh_two_sets():
    t, c = run_coh(_family(), 40, config=_cfg())
    assert len(c) >= 8
    # both restrictions settled on the complement side here, so C avoids
    # the evens and the multiples of three past its committed prefix
    for side_label in ("D_0", "D_1"):
        assert side_label in t.extraction["decided"]
    for x in c:
        assert x % 2 == 1 and x % 3 != 0


def test_coh_exceptions_inside_committed_prefix():
    t, c = run_coh(_family(), 40, config=_cfg())
    rep = brute_oracle("cohesive_check", _family(), members=c)
    decided = t.extraction["decided"]
    for idx, info in rep.detail.items():
        d = decided.get(f"D_{idx}")
        if d is None or d.get("aborted"):
            continue
        allowed = set(d["F_at_decision"])
        assert set(info["exceptions"]) <= allowed


def test_coh_audit_clean():
    t, _ = run_coh(_family(), 40, config=_cfg())
    report = verify_transcript(t, audit_fuel=2)
    assert report.counts["refuted"] == 0


def test_coh_density_abort():
    thin = SetPresentation.from_set([0], 64)
    t, c = run_coh([thin] + _family(), 30, config=_cfg(density_min=4))
    aborted = [r for r in t.stages if r.branch == ABORT and
               r.requirement == "D_0"]
    restricted = [r for r in t.stages if r.branch == D_RESTRICTION and
                  r.requirement == "D_0"]
    # confining to {0} cannot keep the density witness; the complement can
    assert restricted or aborted
    for r in restricted:
        assert r.certificates["side"] == 0


def test_coh_committed_columns_schedule():
    t, c = run_coh(_family(), 40, config=_cfg(schedule="committed-columns"))
    decided = t.extraction["decided"]
    sides = {int(k[2:]): v["side"] for k, v in decided.items()
             if k.startswith("D_") and "side" in v}
    fam = _family()
    assert set(sides) <= {0, 1}
    # every decided D keeps all later commits on its recorded side
    for k, v in decided.items():
        if k.startswith("D_") and "side" in v:
            idx = int(k[2:])
            later = [y for y in c if y > max(v["F_at_decision"], default=-1)]
            bits = fam[idx].window.bits
            for y in later:
                if y < len(bits):
                    assert bits[y] == v["side"]


def test_coh_deterministic():
    t1, _ = run_coh(_family(), 40, config=_cfg())
    t2, _ = run_coh(_family(), 40, config=_cfg())
    assert transcript_hash(t1) == transcript_hash(t2)


def test_coh_chain_valid():
    t, _ = run_coh(_family(), 40, config=_cfg())
    from forcingbench.forcing.base import CohCondition, extends
    from conditions import whole
    prev = None
    for d in whole(t.stages):
        cond = CohCondition(tuple(d["F"]), tuple(d["reservoir"]),
                            d["window_bound"])
        assert cond.valid()
        if prev is not None:
            assert extends(cond, prev)
        prev = cond
