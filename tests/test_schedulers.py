"""The cursor-based requirement schedulers of coh, EM and D2 against
rescans from code 0.

Each scheduler starts its scan at `State.cursor`, which is exact only
because the committed sets, `decided` and `blocked` never shrink; coh's
cursor is the round of its least schedule, or the R index of its
committed-columns one.  Here every call is also answered by a copy that
rescans every code from 0, as the schedulers did before the cursor, and
the two must agree on every stage of whole runs.
"""

import pytest

from forcingbench import programs
from forcingbench.approx import SetPresentation
from forcingbench.forcing import (CohConfig, coh, d2, em, rt2_pipeline,
                                  run_coh, run_d2, run_em)
from forcingbench.harness import (gen_coloring, gen_d2_partition,
                                  gen_stable_coloring)


def rescan_coh(state, family_size, stage, schedule):
    cond = state.condition
    if schedule == "committed-columns":
        for x in cond.F:
            if x < family_size and f"D_{x}" not in state.decided:
                return f"D_{x}"
        if stage % 2 == 0:
            return f"E_{len(cond.F) + 1}"
        e = 0
        while f"R_{e}" in state.decided:
            e += 1
        return f"R_{e}"
    for t in range(2 * stage + 2):
        if t < family_size and f"D_{t}" not in state.decided:
            return f"D_{t}"
        if len(cond.F) < t + 1:
            return f"E_{t + 1}"
        if f"R_{t}" not in state.decided:
            return f"R_{t}"
    return None


def rescan_em(state):
    horizon = len(state.decided) + len(state.blocked) + len(state.condition.F)
    for code in range(2 * horizon + 4):
        if code % 2 == 0:
            label = f"E+_{code // 2 + 1}"
            if len(state.condition.F) >= code // 2 + 1:
                continue
        else:
            label = f"R_{code // 2}"
            if label in state.decided:
                continue
        if label not in state.blocked:
            return label
    return None


def rescan_d2(state, k):
    horizon = len(state.decided) + len(state.blocked) + 4
    for code in range(2 * horizon):
        kind = "E" if code % 2 == 0 else "R"
        for i in range(k):
            label = f"{kind}_{code // 2}^{i}"
            if label not in state.decided and label not in state.blocked:
                return label
    return None


def twin(monkeypatch, module, name, rescan):
    """Patch `module.name` so every call is checked against `rescan`;
    returns the list of labels the run was given."""
    fast = getattr(module, name)
    given = []

    def both(state, *args):
        want = rescan(state, *args)  # before the cursor moves
        got = fast(state, *args)
        assert got == want, (len(given), got, want)
        given.append(got)
        return got

    monkeypatch.setattr(module, name, both)
    return given


@pytest.mark.parametrize("seed", range(5))
def test_em_cursor_matches_rescan(monkeypatch, seed):
    given = twin(monkeypatch, em, "_next_em_requirement", rescan_em)
    t, _ = run_em(gen_stable_coloring(seed), 200)
    assert len(given) == 200
    assert [r.requirement.replace("N_", "R_") for r in t.stages] == given


@pytest.mark.parametrize("seed", range(5))
def test_d2_cursor_matches_rescan(monkeypatch, seed):
    given = twin(monkeypatch, d2, "_next_d2_requirement", rescan_d2)
    t, _ = run_d2(gen_d2_partition(seed), 300)
    assert len(given) == 300
    assert [r.requirement.replace("N_", "R_") for r in t.stages] == given


def test_coh_least_cursor_matches_rescan(monkeypatch):
    given = twin(monkeypatch, coh, "_next_requirement", rescan_coh)
    family = [  # the family of acceptance criterion 5
        SetPresentation.from_set(range(0, 128, 2), 128),
        SetPresentation.from_set(range(0, 128, 3), 128),
        SetPresentation.from_set([x for x in range(128) if x % 5 < 2], 128),
        SetPresentation.from_program(programs.EVENS_DECIDER.index, 128, 512),
    ]
    t, _ = run_coh(family, 60, config=CohConfig(window=128, density_min=8))
    assert t.config["schedule"] == "least"
    assert len(given) == 60
    assert [r.requirement.replace("N_", "R_") for r in t.stages] == \
        [g or "-" for g in given]


@pytest.mark.parametrize("seed", range(5))
def test_coh_committed_columns_cursor_matches_rescan(monkeypatch, seed):
    given = twin(monkeypatch, coh, "_next_requirement", rescan_coh)
    _, t = rt2_pipeline(gen_coloring(seed), 60)
    nested = t.extraction["coh"]
    assert nested["config"]["schedule"] == "committed-columns"
    assert len(given) == 60
    assert [r["requirement"].replace("N_", "R_")
            for r in nested["stages"]] == [g or "-" for g in given]
