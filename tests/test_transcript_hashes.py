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
    "coh": ("1c37b109f7f0b72a0215610c8aa2406f4f706e7533875c6209d5e61b5b8af91c",
            (29, 26, 0)),
    "em-0": ("bab0e3b02339b839692387f0dafa80a7726c31c9d29f24ad9a869513d930bbac",
             (106, 185, 0)),
    "em-1": ("b1c40a500e72657d6f4aa092b361950e6b2d613b5aab9ef97aa39ab7eb050355",
             (106, 166, 0)),
    "em-2": ("95111e157eb67d5ef5ea33df2abb65b8e864c965273c7325d03a5d21f8e53d14",
             (106, 170, 0)),
    "d2-0": ("a5e2dfb3bb4dcc98a33e0e8b2a647d8d62d55ea67a9b4aa4bcf1e22605266a72",
             (126, 102, 0)),
    "d2-1": ("027d03836374849ac6407e49e118fa502b505f864be9a1ce4d24332a4be06d21",
             (126, 102, 0)),
    "d2-2": ("f8c7281a6dee308ef07adf20a925911cb4d74ca878ad9f9c23ac381c6050ef61",
             (126, 102, 0)),
    "rt2-0": ("40bbfbff803d5c9513f86f7a5cb6ad692fd113d285cf93476583a01790116397",
              (41, 39, 0)),
    "rt2-1": ("2d48e3633e8a16cdda87863b32ee5cdff948089661c197476fd7340d44b848c2",
              (43, 35, 0)),
    "rt2-2": ("13e25bc25646b9ceaa59e0093413faacecbbfeebb079cb3757c9dd078e22b603",
              (43, 41, 0)),
    "rt2-3": ("f4aaa33b92462589de7d9be62f2d4dede4eebe30881786ed22eefd25454c9713",
              (45, 37, 0)),
    "rt2-4": ("f1f6e42a19aede7777c9759d323d90f9bf87f6a720ddde4524670bb8be42cd98",
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
