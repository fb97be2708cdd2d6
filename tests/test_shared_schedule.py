"""The one requirement scan every engine's schedule runs on
(`base.next_free`), the schedules built on it against the rescans of
`test_schedulers` on more instance shapes, and the two run checks that
share the stage skeleton: a stage count must be a natural number, and coh
reads no set past its bound."""

import pytest

from forcingbench import programs
from forcingbench.approx import SetPresentation
from forcingbench.forcing import (CohConfig, coh, d2, em, rt2_pipeline,
                                  run_coh, run_d2, run_em)
from forcingbench.forcing.base import State, next_free, start
from forcingbench.harness import (gen_coloring, gen_d2_partition,
                                  gen_stable_coloring)
from forcingbench.harness.cli import main
from test_schedulers import rescan_coh, rescan_d2, rescan_em, twin


def test_next_free_skips_taken_labels_from_the_cursor_on():
    state = State(start(4))
    state.decided["b1"] = {}
    state.blocked["a2"] = None
    state.cursor = 1
    asked = []

    def labels(code):
        asked.append(code)
        return [f"a{code}", f"b{code}"]

    assert next_free(state, labels) == "a1"  # b1 is decided, a1 is free
    assert state.cursor == 1 and asked == [1]
    state.decided["a1"] = {}
    assert next_free(state, labels) == "b2"  # a2 is blocked
    assert state.cursor == 2 and asked == [1, 1, 2]
    state.blocked["b2"] = None
    assert next_free(state, lambda code: () if code < 5 else [code]) == 5
    assert state.cursor == 5


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("window", [16, 24, 32])
def test_em_schedule_matches_rescan(monkeypatch, k, window):
    given = twin(monkeypatch, em, "_next_em_requirement", rescan_em)
    t, _ = run_em(gen_stable_coloring(1, k=k, bound=window), 120)
    assert [r.requirement.replace("N_", "R_") for r in t.stages] == given


@pytest.mark.parametrize("k", [1, 3, 4])
def test_d2_schedule_matches_rescan(monkeypatch, k):
    given = twin(monkeypatch, d2, "_next_d2_requirement", rescan_d2)
    t, _ = run_d2(gen_d2_partition(2, k=k), 200)
    assert len(given) == 200
    assert [r.requirement.replace("N_", "R_") for r in t.stages] == given


def test_coh_least_schedule_matches_rescan_on_another_family(monkeypatch):
    given = twin(monkeypatch, coh, "_next_requirement", rescan_coh)
    family = [SetPresentation.from_set(range(1, 96, 4), 96),
              SetPresentation.from_program(programs.EVENS_DECIDER.index, 96,
                                           512)]
    t, _ = run_coh(family, 50, config=CohConfig(window=96, density_min=4))
    assert len(given) == 50
    assert [r.requirement.replace("N_", "R_") for r in t.stages] == \
        [g or "-" for g in given]


def test_committed_columns_schedule_matches_rescan(monkeypatch):
    given = twin(monkeypatch, coh, "_next_requirement", rescan_coh)
    _, t = rt2_pipeline(gen_coloring(7, bound=40), 60)
    nested = t.extraction["coh"]
    assert [r["requirement"].replace("N_", "R_")
            for r in nested["stages"]] == [g or "-" for g in given]


def test_coh_window_is_clamped_to_the_family_bound():
    family = [SetPresentation.from_set(range(0, 32, 2), 32),
              SetPresentation.from_set(range(0, 32, 3), 32)]
    wide, c_wide = run_coh(family, 60, CohConfig(window=512, density_min=4))
    exact, c_exact = run_coh(family, 60, CohConfig(window=32, density_min=4))
    assert wide.config["window"] == 32
    assert wide.to_dict() == exact.to_dict() and c_wide == c_exact
    assert all(x < 32 for x in c_wide)
    empty, _ = run_coh([], 3, CohConfig(window=40))
    assert empty.config["window"] == 40


@pytest.mark.parametrize("stages", [-1, 2.0, True])
def test_stage_count_must_be_a_natural_number(stages):
    family = [SetPresentation.from_set(range(0, 32, 2), 32)]
    runs = [lambda: run_em(gen_stable_coloring(0), stages),
            lambda: run_d2(gen_d2_partition(0), stages),
            lambda: run_coh(family, stages),
            lambda: rt2_pipeline(gen_coloring(0), stages)]
    for run in runs:
        with pytest.raises(ValueError, match="stages"):
            run()
    assert len(run_em(gen_stable_coloring(0), 0)[0].stages) == 0


def test_cli_refuses_a_negative_stage_count(tmp_path, capsys):
    inst, out = tmp_path / "c.yaml", tmp_path / "t.json"
    assert main(["gen", "stable-coloring", "--seed", "3",
                 "--out", str(inst)]) == 0
    assert main(["run-em", str(inst), "--stages", "-1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stages" in err and len(err.splitlines()) == 1
    assert not out.exists()


def test_build_model_refuses_a_family_with_no_sets(tmp_path, capsys):
    path = tmp_path / "f.yaml"
    path.write_text("kind: RFamily\nsets: []\n", encoding="utf-8")
    assert main(["build-model", str(path)]) == 2
    err = capsys.readouterr().err
    assert "at least one set" in err and len(err.splitlines()) == 1
