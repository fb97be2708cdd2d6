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
    "coh": ("7dfaed794ad61a32626fd24d295c5cd249459d42498c9060b2f1125375c93c48",
            (29, 26, 0)),
    "em-0": ("281e47280ff775c1167746f1c670ee01c0dab392bd956bb2d8cbebc3760eaee4",
             (106, 185, 0)),
    "em-1": ("5e53acbfff6d864ac79e8fe2d8fadff7aae3c3d5d241f44207a9a1088b52d0c6",
             (106, 166, 0)),
    "em-2": ("09734d3e1761ec3a7decb92af48e3795da46f1e5d4a80bf57b77b811ee220426",
             (106, 170, 0)),
    "d2-0": ("5b5fd87d5916444a8e1750c6baae795f676f7e119d9501df1c44c43ebff35ae3",
             (126, 102, 0)),
    "d2-1": ("94d3c0bf9774021901f975fc5cc924451e7b6ee8f16b21707caf2c139819491e",
             (126, 102, 0)),
    "d2-2": ("3aa4b38402db60346911b48560f01e71dac9271d15eba01628232f20a8266e03",
             (126, 102, 0)),
    "rt2-0": ("f280990fc3f4d0c084ea4e004b50de33d5bec988915035ed9f3e7b39226033a2",
              (41, 39, 0)),
    "rt2-1": ("11a44235b6aa979e69364513a0cec7d028b99f250f13629bfd078ba04458c05f",
              (43, 35, 0)),
    "rt2-2": ("2b94c013b5875cd7cb082313ab982bcebeb1e5aff5d4d60036d2ae9c959eef43",
              (43, 41, 0)),
    "rt2-3": ("f9ef0c9aae1b3bc5f1c26b076e26bce290d33c872d5699b6de7fd66cc09c4cf8",
              (45, 37, 0)),
    "rt2-4": ("85099e4ea64ad62b5b6956eb0fcbae98658180f4dd27a8c8400c7b4ebeac8451",
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
