"""`base.parse_label` reads every requirement label a schedule gives out,
and nothing else."""

import pytest

from forcingbench.forcing import CohConfig, rt2_pipeline, run_coh, run_d2, run_em
from forcingbench.forcing.base import SKIP, parse_label
from forcingbench.forcing.pipeline import column_family
from forcingbench.harness import (
    gen_coloring,
    gen_d2_partition,
    gen_stable_coloring,
)


def _runs(seed):
    """(kinds the run's labels may have, colors they may carry, transcript)
    for each scheduler: coh's least-first schedule, EM, D2, and the coh and
    D2 transcripts nested in an RT2 run (committed-columns schedule)."""
    pairs = gen_coloring(seed)
    coh = run_coh(column_family(pairs), 60,
                  CohConfig(window=pairs.bound, density_min=2))[0]
    d = gen_d2_partition(seed)
    rt2 = rt2_pipeline(pairs, 60)[1].extraction
    return [
        ({"D", "E", "R", "N"}, {None}, coh.to_dict()),
        ({"E+", "R", "N"}, {None}, run_em(gen_stable_coloring(seed), 200)[0]
         .to_dict()),
        ({"E", "R", "N"}, set(range(d.k)), run_d2(d, 300)[0].to_dict()),
        ({"D", "E", "R", "N"}, {None}, rt2["coh"]),
        ({"E", "R", "N"}, {0, 1}, rt2["d2"]),
    ]


def _written(kind, index, color):
    return f"{kind}_{index}" + ("" if color is None else f"^{color}")


@pytest.mark.parametrize("seed", range(5))
def test_every_scheduled_label_reads_back(seed):
    for kinds, colors, doc in _runs(seed):
        labels = {s["requirement"] for s in doc["stages"]
                  if s["branch"] != SKIP}
        assert labels
        for label in labels:
            kind, index, color = parse_label(label)
            assert _written(kind, index, color) == label
            assert kind in kinds and color in colors, label


@pytest.mark.parametrize("label", ["R_x", "R_3^x", "R_", "", "R_²", "R_٣",
                                   "R_3^", "R_-1", "R_+3", "R_03", "X_3",
                                   "R_3 ", "-", None, 3, ["R_3"]],
                         ids=repr)
def test_anything_else_reads_as_none(label):
    assert parse_label(label) is None
