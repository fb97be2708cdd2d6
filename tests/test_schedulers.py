"""The cursor-based requirement schedulers of EM and D2 against rescans
from code 0.

Each scheduler starts its scan at `State.cursor`, which is exact only
because the committed sets, `decided` and `blocked` never shrink.  Here
every call is also answered by a copy that rescans every code from 0, as
the schedulers did before the cursor, and the two must agree on every
stage of whole runs.
"""

import pytest

from forcingbench.forcing import d2, em, run_d2, run_em
from forcingbench.harness import gen_d2_partition, gen_stable_coloring


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
