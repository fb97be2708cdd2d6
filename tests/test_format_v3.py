"""Transcript format version 3: each condition written as its delta.

A run writes its first condition whole and each later one as its delta
from the one before: `added`, the members it commits (one list per part
for D2), and `removed`, the other members it drops from the reservoir.
The record pass reads each condition once, in the form written, and
refutes at its record a list that is not strictly increasing naturals
below the window, or a delta that breaks the extension order; a
condition that does not extend the one before is written whole and
refuted with the extension order's note.  `tools/transcript_v2_to_v3.py` maps every version 2
transcript of the manifest to what the constructions write now, byte for
byte; `fixtures/v2/manifest_hashes.json` holds their version 2 hashes.
The instance digests a run writes are kept on the instance, so the audit
reuses them, and a coloring refuses a negative colour.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from forcingbench import transcript
from forcingbench.approx import Coloring, MalformedInstanceError
from forcingbench.forcing import verify_transcript
from forcingbench.forcing.pipeline import column_family
from forcingbench.harness import (
    canonical_json,
    emit_transcript,
    gen_coloring,
    gen_d2_partition,
    gen_stable_coloring,
    load_transcript,
)
from forcingbench.transcript import (
    coloring_digest,
    digest,
    parse_label,
    partition_digest,
)

from conditions import whole
from test_forged_oracles import d2_run, em_run  # noqa: F401  (fixtures)
from test_transcript_hashes import GOLDEN, _run
from test_verify import _reload

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import transcript_manifest  # noqa: E402
import transcript_v2_to_v3  # noqa: E402

V2_HASHES = json.loads((Path(__file__).with_name("fixtures") / "v2"
                        / "manifest_hashes.json").read_text())

LISTS = ("condition's delta is not increasing lists of naturals below the "
         "window")
ADDED = "added member is not in the reservoir before it, above its " \
    "committed set"
REMOVED = "removed member is not in the reservoir before it"


def _refuted(report):
    return [(f["stage"], f["note"]) for f in report.findings
            if f["grade"] == "refuted"]


def _site(t):
    """(i, j, the condition before record i whole) for the first record i
    whose condition is a delta that commits to a part j already holding
    members (coh's and EM's one committed set is part None), where the
    reservoir before it keeps two members the delta does not touch, and
    some member above the part lies outside that reservoir."""
    conditions = whole(t.stages)
    for i, rec in enumerate(t.stages):
        c = rec.condition
        if not i or c is None or "added" not in c:
            continue
        before = conditions[i - 1]
        parts = (enumerate(c["added"]) if t.kind == "d2"
                 else [(None, c["added"])])
        for j, added in parts:
            held = _committed(before, j)
            if not (added and held):
                continue
            free = set(before["reservoir"]) - set(added) - set(c["removed"])
            outside = set(range(held[-1] + 1, before["window_bound"])) \
                - set(before["reservoir"])
            if len(free) >= 2 and outside:
                return i, j, before
    raise AssertionError("no delta to forge")


def _committed(before, part):
    return before["F"] if part is None else before["F_parts"][part]


def _forged_delta(t, key: str, forge):
    """A copy of `t` in which `forge` rewrites the `key` list of the delta
    at `_site` (for D2's `added`, its part's); and that record's stage."""
    i, j, before = _site(t)
    bad = _reload(t)
    c = bad.stages[i].condition
    added = c["added"][j] if t.kind == "d2" else c["added"]
    free = sorted(set(before["reservoir"]) - set(added) - set(c["removed"]))
    held = _committed(before, j)
    outside = min(set(range(held[-1] + 1, before["window_bound"]))
                  - set(before["reservoir"]))
    new = forge(added if key == "added" else c["removed"],
                {"free": free, "held": held, "outside": outside,
                 "window": before["window_bound"]})
    if key == "removed":
        c["removed"] = new
    elif t.kind == "d2":
        c["added"][j] = new
    else:
        c["added"] = new
    return bad, i


FORGERIES = {
    # name: (list, forge, note)
    "removed-repeated": ("removed",
                         lambda xs, s: sorted(xs + s["free"][:1] * 2), LISTS),
    "removed-swapped": ("removed",
                        lambda xs, s: xs + s["free"][1::-1], LISTS),
    "removed-float": ("removed", lambda xs, s: xs + [float(s["free"][0])],
                      LISTS),
    "removed-negative": ("removed", lambda xs, s: [-1] + xs, LISTS),
    "removed-at-window": ("removed", lambda xs, s: xs + [s["window"]],
                          LISTS),
    "added-repeated": ("added", lambda xs, s: xs + xs[-1:], LISTS),
    "added-float": ("added", lambda xs, s: [float(xs[0])] + xs[1:], LISTS),
    "added-negative": ("added", lambda xs, s: [-1] + xs, LISTS),
    "added-at-window": ("added", lambda xs, s: xs + [s["window"]], LISTS),
    "added-outside-reservoir": (
        "added", lambda xs, s: sorted(xs + [s["outside"]]), ADDED),
    "added-not-above-F": ("added", lambda xs, s: s["held"][-1:] + xs, ADDED),
    "removed-outside-reservoir": (
        "removed", lambda xs, s: sorted(xs + [s["outside"]]), REMOVED),
}


@pytest.mark.parametrize("name", sorted(FORGERIES))
@pytest.mark.parametrize("kind", ("em", "d2"))
def test_forged_delta_refuted_at_its_record(em_run, d2_run, kind, name):
    t, instance = em_run if kind == "em" else d2_run[:2]
    key, forge, note = FORGERIES[name]
    bad, i = _forged_delta(t, key, forge)
    assert canonical_json(bad.stages[i].condition) != canonical_json(
        t.stages[i].condition)
    report = verify_transcript(bad, audit_fuel=2, instance=instance)
    # the chain is unread after it, so nothing later is asked on it
    assert _refuted(report) == [(i, note)]


@pytest.mark.parametrize("kind", ("em", "d2"))
def test_forged_lists_of_a_whole_condition_refuted(em_run, d2_run, kind):
    t, instance = em_run if kind == "em" else d2_run[:2]
    for forge in ((lambda xs: xs + xs[-1:]), (lambda xs: xs[::-1]),
                  (lambda xs: [float(xs[0])] + xs[1:])):
        bad = _reload(t)
        first = bad.stages[0].condition
        first["reservoir"] = forge(first["reservoir"])
        report = verify_transcript(bad, audit_fuel=2, instance=instance)
        assert _refuted(report) == [
            (0, "condition's sets are not increasing lists of naturals "
             "below its window bound")]


@pytest.mark.parametrize("kind", ("em", "d2"))
def test_forged_non_extension_written_whole_refuted(em_run, d2_run, kind):
    # a committed member dropped: the condition no longer extends the one
    # before it, so it is written whole
    t, instance = em_run if kind == "em" else d2_run[:2]
    i, j, _ = _site(t)
    cond = whole(t.stages)[i]
    _committed(cond, j).pop(0)
    bad = _reload(t)
    bad.stages[i].condition = cond
    report = verify_transcript(bad, audit_fuel=2, instance=instance)
    assert (i, "extension order violated: clause check") in _refuted(report)


def test_delta_without_a_condition_before_refuted(em_run):
    t, c = em_run
    bad = _reload(t)
    bad.stages[0].condition = {"added": [], "removed": []}
    report = verify_transcript(bad, audit_fuel=2, instance=c)
    assert _refuted(report) == [
        (0, "first stage's condition is a delta of no earlier one")]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_written_form_gives_the_runs_findings(name, tmp_path):
    t, instance = _run(name)
    path, _ = emit_transcript(t, str(tmp_path / "t.json"))
    assert (verify_transcript(load_transcript(path), audit_fuel=2,
                              instance=instance).findings
            == verify_transcript(t, audit_fuel=2,
                                 instance=instance).findings)


def _start(doc):
    window = doc["config"]["window"]
    committed = ({"F_parts": [[] for _ in range(doc["config"]["k"])]}
                 if doc["kind"] == "d2" else {"F": []})
    return {**committed, "reservoir": list(range(window)),
            "window_bound": window}


def _as_v2(doc):
    """The version 2 form of a version 3 transcript dict of a run, as the
    constructions wrote it before format 3: every condition whole with
    `I`, the reservoirs the run installed before it, and `null` when it
    equals the last one written; each Case-2 certificate restating the
    committed set (D2: the record's part) and the reservoir before it;
    EM's and D2's `blocked` labels, and coh's `final_reservoir`."""
    out = json.loads(json.dumps(doc))  # a deep copy of plain JSON
    out["version"] = 2
    ext, kind = out["extraction"], out["kind"]
    if kind == "rt2":
        for nested in ("coh", "d2"):
            ext[nested] = _as_v2(ext[nested])
        return out
    befores = [_start(doc)] + whole(doc["stages"])
    installed, last = 0, None
    for stage, before, cond in zip(out["stages"], befores, befores[1:]):
        branch, cert = stage["branch"], stage["certificates"]
        if branch == "Case2":
            color = parse_label(stage["requirement"])[2]
            restated = {"F_at_decision": (before["F_parts"][color]
                                          if kind == "d2" else before["F"]),
                        "reservoir_at_decision": before["reservoir"]}
            cert.update(restated)
            if kind == "coh":
                ext["decided"][stage["requirement"].replace("N", "R", 1)
                               ].update(restated)
        # each commit and each restriction installs a reservoir, and so
        # does EM's and D2's Case 2 on a non-empty one
        installed += branch in ("Case1", "E-extension", "D-restriction") or (
            branch == "Case2" and kind != "coh" and bool(before["reservoir"]))
        cond = {"I": installed, **cond}
        stage["condition"] = None if cond == last else cond
        last = cond
    if kind == "coh":
        ext["final_reservoir"] = befores[-1]["reservoir"]
    else:
        ext["blocked"] = [s["requirement"] for s in doc["stages"]
                          if s["branch"] == "abort"]
    return out


def test_every_v2_manifest_transcript_converts_to_the_run_output():
    # the version 2 form is rebuilt from the run and checked against its
    # hash, so the converter reads exactly what version 2 wrote
    assert len(V2_HASHES) == 401
    for name in sorted(V2_HASHES):
        family, seed = name.split("-")
        t, _ = transcript_manifest.run_case(family, int(seed))
        v3 = t.to_dict()
        v2 = transcript_v2_to_v3.canonical(_as_v2(v3))
        assert hashlib.sha256(v2).hexdigest() == V2_HASHES[name], name
        assert (transcript_v2_to_v3.canonical(
            transcript_v2_to_v3.convert(json.loads(v2)))
            == canonical_json(v3).encode("ascii")), name


def test_converter_refuses_version_3():
    t, _ = _run("em-0")
    with pytest.raises(ValueError, match="not a version 2 transcript"):
        transcript_v2_to_v3.convert(t.to_dict())


def _payload(instance):
    """The digest of an instance, taken from its fields, never kept."""
    if isinstance(instance, Coloring):
        return digest({"k": instance.k,
                       "table": [list(r) for r in instance.table or ()],
                       "bound": instance.bound,
                       "declared_bound": instance.declared_bound})
    return digest({"k": instance.k, "table": [list(r) for r in instance.table],
                   "bound": instance.bound,
                   "promised_bound": instance.promised_bound})


def test_every_manifest_instance_digest_is_its_own():
    instances = ([gen_stable_coloring(s) for s in range(100)]
                 + [gen_coloring(s) for s in range(250)])
    parts = [gen_d2_partition(s) for s in range(50)]
    for c in instances:
        assert coloring_digest(c) == coloring_digest(c) == _payload(c)
    for d in parts:
        assert partition_digest(d) == partition_digest(d) == _payload(d)


def test_replace_makes_an_instance_with_its_own_digest():
    c = gen_stable_coloring(0)
    kept = coloring_digest(c)
    other = dataclasses.replace(c, declared_bound=c.declared_bound + 1)
    assert coloring_digest(other) == _payload(other) != kept
    assert coloring_digest(dataclasses.replace(c)) == kept
    d = gen_d2_partition(0)
    kept = partition_digest(d)
    other = dataclasses.replace(d, promised_bound=d.promised_bound + 1)
    assert partition_digest(other) == _payload(other) != kept
    # a digest of another kind is not the kept one
    with pytest.raises(AttributeError):
        partition_digest(c)


def test_audit_reuses_the_runs_instance_digest(em_run, monkeypatch):
    t, c = em_run
    coloring_digest(c)
    calls = []
    monkeypatch.setattr(transcript, "digest",
                        lambda payload: calls.append(payload))
    assert verify_transcript(t, audit_fuel=2, instance=c).ok
    assert calls == []


def _with_color(c, x: int, y: int, v: int) -> Coloring:
    table = [list(r) for r in c.table]
    table[x][y - x - 1] = v
    return dataclasses.replace(c, table=tuple(map(tuple, table)))


@pytest.mark.parametrize("v", (-1, 2))
def test_coloring_refuses_a_colour_out_of_range(v):
    c = _with_color(gen_coloring(0, bound=10), 2, 5, v)
    with pytest.raises(MalformedInstanceError,
                       match=rf"^color {v} out of range at \(2, 5\)$"):
        c.value(2, 5)


@pytest.mark.parametrize("v", (-1, 2))
def test_column_family_refuses_a_colour_out_of_range(v):
    c = _with_color(gen_coloring(0, bound=10), 2, 5, v)
    with pytest.raises(MalformedInstanceError,
                       match=rf"^color {v} out of range at \(2, 5\)$"):
        column_family(c)
