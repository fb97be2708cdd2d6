"""Golden transcripts: canonical hashes and audit counts pinned per instance.

A change that is meant to keep the constructions' behaviour must leave
every byte of these transcripts, and every audit verdict on them, as it
was.  A change that alters transcripts on purpose updates the table and
says why.
"""

import pytest

from forcingbench import programs
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
    transcript_hash,
)

# name: (transcript hash, (certified, provisional, refuted))
GOLDEN = {
    "coh": ("4559c751914519d5e6bc1104b8d65a699c60f5c080754e61acf7736bb974a104",
            (29, 26, 0)),
    "em-0": ("72949a17cc26984581f7a5ad6d21e811b8eeee41d753850826e29253e9f41170",
             (106, 185, 0)),
    "em-1": ("a11eccfa0fcafc0b9158b56807451f21093a9cee8763c9d5dea2abc28dc0ab0f",
             (106, 166, 0)),
    "em-2": ("95a1b5d12b1e39d26bb4e113180aaa3d48237c630eb56e15177c31fc67e95547",
             (106, 170, 0)),
    "d2-0": ("99fcd54b3d8207d7e00cf5bf9238a685917d13ce2353e04f6455a16f852c7ba1",
             (126, 102, 0)),
    "d2-1": ("f3998e4e8a947a6282e914f64eb39b34fc4bbc56f8a6a936945fc23451e9c067",
             (126, 102, 0)),
    "d2-2": ("46095f15e3102f804eefed39263f31376d69bb00493f2a11e8f350fd7dde6169",
             (126, 102, 0)),
    "rt2-0": ("256ae0a96240a5ec35af669308f3b3b09abf1d2d1bd1fd48cfaf4e4cecbb1a4a",
              (41, 39, 0)),
    "rt2-1": ("5f10f0ff674b1f4d465d6b92f2720acc5e361b9d8cd6d62a0d330bbfb3222645",
              (43, 35, 0)),
    "rt2-2": ("5764df439a0c02ea273d0cf066eaebee733db7dc050e90cb7c4b016f4078b298",
              (43, 41, 0)),
    "rt2-3": ("d5f0e0ad98893038a108f8579fbe72f2879eeee6c8382f9f15af7f9abaec1256",
              (45, 37, 0)),
    "rt2-4": ("f29e1e6fe7a9d62cbbaee436efaf69b1b97ca21fe20b412c4f6bd99d9aa7e356",
              (43, 39, 0)),
}


def _coh():
    # the family and configuration of acceptance criterion 5
    family = [
        SetPresentation.from_set(range(0, 128, 2), 128),
        SetPresentation.from_set(range(0, 128, 3), 128),
        SetPresentation.from_set([x for x in range(128) if x % 5 < 2], 128),
        SetPresentation.from_program(programs.EVENS_DECIDER.index, 128, 512),
    ]
    t, _ = run_coh(family, 60, config=CohConfig(window=128, density_min=8))
    return t, None


def _em(seed):
    c = gen_stable_coloring(seed)
    return run_em(c, 200)[0], c


def _d2(seed):
    d = gen_d2_partition(seed)
    return run_d2(d, 300)[0], d


def _rt2(seed):
    c = gen_coloring(seed)
    return rt2_pipeline(c, 60)[1], c


def _run(name):
    if name == "coh":
        return _coh()
    kind, seed = name.split("-")
    return {"em": _em, "d2": _d2, "rt2": _rt2}[kind](int(seed))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_transcript_matches_golden(name):
    t, instance = _run(name)
    counts = verify_transcript(t, audit_fuel=2, instance=instance).counts
    assert (transcript_hash(t),
            (counts["certified"], counts["provisional"], counts["refuted"])
            ) == GOLDEN[name]
