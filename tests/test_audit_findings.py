"""Whole findings lists pinned: grade, note, stage, requirement and order.

The golden table of `test_transcript_hashes.py` and the transcript manifest
compare only the audit counts; what `forcingbench verify` prints is the
findings list itself.  Each digest is sha256 of the canonical JSON of
`report.findings`, for the twelve golden transcripts and for forged
variants of some of them that reach the auditor's refutation paths.  Each
forgery changes the transcript in memory, where every stage holds its
condition, before it is written out and read back (`_forged`).
"""

import copy

import pytest

from forcingbench.forcing import verify_transcript
from forcingbench.forcing.base import CASE1, Transcript, digest

from test_transcript_hashes import GOLDEN, _run
from test_verify import _forged


def _first_positive(t: Transcript):
    return next(rec for rec in t.stages
                if rec.branch == CASE1 and rec.requirement.startswith("R"))


def _identical_run(t: Transcript, length: int) -> int:
    """Index of the first stage that starts `length` stages recording the
    same condition, after a stage recording another."""
    st = t.stages
    for i in range(1, len(st) - length + 1):
        if (st[i].condition != st[i - 1].condition
                and all(st[j].condition == st[i].condition
                        for j in range(i, i + length))):
            return i
    raise AssertionError(f"no {length} stages with one condition")


def f_reaching_into_reservoir(t):
    for rec in reversed(t.stages):
        if rec.condition.get("reservoir"):
            rec.condition["F"].append(rec.condition["reservoir"][0])
            return


def grown_reservoir(t):
    last = t.stages[-1].condition
    last["reservoir"] = sorted(set(last["reservoir"])
                               | {last["window_bound"] - 1})


def changed_window_bound(t):
    t.stages[len(t.stages) // 2].condition["window_bound"] += 1


def repeated_invalid_condition(length):
    """Make `length` identical stages record one condition whose committed
    set reaches into its reservoir."""
    def forge(t):
        i = _identical_run(t, length)
        bad = copy.deepcopy(t.stages[i].condition)
        part = bad["F_parts"][0] if "F_parts" in bad else bad["F"]
        if bad["reservoir"]:
            part.append(bad["reservoir"][0])
        else:
            bad["reservoir"].append(max(part))
        for j in range(i, i + length):
            t.stages[j].condition.update(copy.deepcopy(bad))
    return forge


def swapped_parts(t):
    # the union stays the same, so only the per-part rule can see it
    for rec in t.stages[len(t.stages) // 2:]:
        parts = rec.condition["F_parts"]
        if parts[0] != parts[1]:
            parts[0], parts[1] = parts[1], parts[0]
            return
    raise AssertionError("no stage with two different parts")


def forged_steps(t):
    _first_positive(t).certificates["steps"] += 1


def tampered_extraction(t):
    oracle = _first_positive(t).certificates["oracle"]
    key = "C" if t.kind == "coh" else "B"
    t.extraction[key] = [x for x in t.extraction[key] if x != oracle[0]]


def nested_window_bound(t):
    # the nested transcript is kept written out: give every stage its
    # condition, forge one, and write it out again
    nested, last = t.extraction["d2"], None
    for stage in nested["stages"]:
        if stage["condition"] is None:
            stage["condition"] = copy.deepcopy(last)
        last = stage["condition"]
    stages = nested["stages"]
    stages[len(stages) // 2]["condition"]["window_bound"] += 1
    t.extraction["d2"] = Transcript.from_dict(nested).to_dict()


FORGED = {
    # name: (golden transcript, forgery)
    "coh-f-in-reservoir": ("coh", f_reaching_into_reservoir),
    "coh-grown-reservoir": ("coh", grown_reservoir),
    "coh-forged-steps": ("coh", forged_steps),
    "coh-tampered-extraction": ("coh", tampered_extraction),
    "coh-repeated-invalid": ("coh", repeated_invalid_condition(4)),
    "em-0-window-bound": ("em-0", changed_window_bound),
    "em-0-repeated-invalid": ("em-0", repeated_invalid_condition(2)),
    "em-0-forged-steps": ("em-0", forged_steps),
    "em-0-tampered-extraction": ("em-0", tampered_extraction),
    "d2-0-repeated-invalid": ("d2-0", repeated_invalid_condition(7)),
    "d2-0-swapped-parts": ("d2-0", swapped_parts),
    "d2-0-grown-reservoir": ("d2-0", grown_reservoir),
    "rt2-0-nested-window-bound": ("rt2-0", nested_window_bound),
}

# name: sha256 of the canonical JSON of the findings list
DIGESTS = {
    "coh":
        "19010092f3be4eb05522e9d6180392cd25a3949d80b42807be93465e47fdcc22",
    "coh-f-in-reservoir":
        "128fc8a0a64dc566496353f4dde5127bb39ba387239664fd346d1e07060237e3",
    "coh-forged-steps":
        "0aa80e982091212f12e67707be691b6914286f59e332159aeecea5f2ba1e145c",
    "coh-grown-reservoir":
        "3374aae90c5ee4d54389f37ad472fd9a8930f44c8442e69c99eec7c72d266f40",
    "coh-repeated-invalid":
        "dc1670ac15cc80c0992cc14333300c6255f2700caa545c62cd9337fb0cc84bd4",
    "coh-tampered-extraction":
        "8eeb58795b40a1d881b427ac3ec96247423a375409e5cdd2dc6955fecdd2800d",
    "d2-0":
        "62b2263751ab4fab75ed9cff287f2901ef1623239709afde545de27ba1f1fdc8",
    "d2-0-grown-reservoir":
        "a52476ec73b1d32f8beeb6ac97e3374da9b22cf67694fde979692d4c051d22d1",
    "d2-0-repeated-invalid":
        "f42c2436b6b192f13d53560f999c7ccc42f3d69be8a78318f685a769ab2b924e",
    "d2-0-swapped-parts":
        "c811c9d718a8b0b97bc915595a8928a9566e8e3cf566367603fbcbe0ae68dd77",
    "d2-1":
        "5c0f86062a58a5b39349a1ebb648dcfb3d7a7ba4bb2820bd1f050df8d6887489",
    "d2-2":
        "8beaecd8c7017030f322219fb1d99ca4ca2d846097de39889e2e49716976f53c",
    "em-0":
        "95cd548f95cbfa207deee439e589e1bdff12eec9713c827d3022e2192eec08cf",
    "em-0-forged-steps":
        "016a83a600ec654212233f16c9c3fb5b5f3ec187214df77a527fdd92485e0946",
    "em-0-repeated-invalid":
        "05366dfa06ebd4da16e0934d82f8e7c3790014ff1851da13bd315650925d9318",
    "em-0-tampered-extraction":
        "24a60ecc2e894fd7df6833511257a28fbba8a53a9a68c4f456268730cefa7eb4",
    "em-0-window-bound":
        "6922c44b41b64f4dcd68c44fc51c19684848ca318ea9729ebea2fcb5eecd1da4",
    "em-1":
        "c9f8c9a9f8c59ea8fdfbe4d1ce81c8ad628dc0be27342c50b9dbc93b320a13b2",
    "em-2":
        "91187acef0c9480e7e71166ad808626087d407b0946d26b504757e1b8aac1aee",
    "rt2-0":
        "ccb967c7d09e192805f5773192fe296ad3e6ff8b91da5cfb858c7d85dff83a22",
    "rt2-0-nested-window-bound":
        "a7ed22c27b855a9df13d029cc05371c8f3f0de5493f2f4d07e13f888d03ad057",
    "rt2-1":
        "f00af9a98e424d43e2096f826c3ebaeecc0109a22a79063bce2bdf75da2e38f4",
    "rt2-2":
        "1a0ec76829515b5c439a0e7058006ea8cef93cff524c5633aff4b303293ea4f3",
    "rt2-3":
        "007efe9d3b8da8a9c0390021ec513fc8cb6c9f66c9971b51927a79e4af921328",
    "rt2-4":
        "6148c91c423f19dfc77b0bc6c661019bf2aa194b4090b08d002ee89e462440d7",
}


def _findings_digest(t, instance) -> str:
    return digest(verify_transcript(t, audit_fuel=2,
                                    instance=instance).findings)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_findings(name):
    t, instance = _run(name)
    assert _findings_digest(t, instance) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FORGED))
def test_forged_findings(name):
    golden, forge = FORGED[name]
    t, instance = _run(golden)
    report = verify_transcript(_forged(t, forge), audit_fuel=2,
                               instance=instance)
    assert report.counts["refuted"] > 0
    assert digest(report.findings) == DIGESTS[name]
