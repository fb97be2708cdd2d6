"""RT2's `color` and `H` are tied to its nested D2 run, and the pipeline's
own self-check refuses a set that is not monochromatic.

The pipeline maps the nested D2 run's selected set `B` through
`stable_columns` into `H`, in the D2 run's colour.  An `H` emptied or cut,
`stable_columns` emptied, or `color` flipped used to audit as honest on
seed 0 (41/39/0); each is now refuted, with the coloring and without it,
and no JSON value in those fields makes the audit raise.
"""

import json

import pytest

from forcingbench.forcing import pipeline, rt2_pipeline, verify_transcript
from forcingbench.harness import gen_coloring
from forcingbench.transcript import Transcript

FORGERIES = {
    "H emptied": lambda x: x.update(H=[]),
    "H cut to 2": lambda x: x.update(H=x["H"][:2]),
    "stable_columns emptied": lambda x: x.update(stable_columns=[]),
    "color flipped": lambda x: x.update(color=1 - x["color"]),
}


@pytest.fixture(scope="module")
def seed0():
    c = gen_coloring(0)
    return rt2_pipeline(c, 60)[1].to_dict(), c


def _audit(doc, instance):
    return verify_transcript(Transcript.from_dict(doc), instance=instance)


def _forged(doc, forge):
    doc = json.loads(json.dumps(doc))
    forge(doc["extraction"])
    return doc


def test_seed_0_is_honest(seed0):
    doc, c = seed0
    assert _audit(doc, c).counts == {
        "certified": 41, "provisional": 39, "refuted": 0}
    assert _audit(doc, None).counts["refuted"] == 0


@pytest.mark.parametrize("with_instance", [True, False])
@pytest.mark.parametrize("name", sorted(FORGERIES))
def test_forgery_refuted(seed0, name, with_instance):
    doc, c = seed0
    instance = c if with_instance else None
    report = _audit(_forged(doc, FORGERIES[name]), instance)
    assert report.counts["refuted"] >= 1
    honest = _audit(doc, instance)
    assert report.counts["certified"] <= honest.counts["certified"]


def test_cut_h_names_the_image(seed0):
    doc, _ = seed0
    notes = [f["note"] for f in _audit(_forged(doc, FORGERIES["H cut to 2"]),
                                      None).findings
             if f["grade"] == "refuted"]
    assert notes == ["extracted set misses the image of the nested d2 "
                     "run's under the stable columns"]


def test_flipped_color_names_the_nested_run(seed0):
    doc, _ = seed0
    notes = [f["note"] for f in _audit(
        _forged(doc, FORGERIES["color flipped"]), None).findings
        if f["grade"] == "refuted"]
    assert notes == ["color is not the nested d2 run's"]


@pytest.mark.parametrize("with_instance", [True, False])
def test_nested_index_past_the_stable_columns_refuted(seed0, with_instance):
    doc, c = seed0

    def forge(x):
        b = x["d2"]["extraction"]["B"]
        x["stable_columns"] = x["stable_columns"][:max(b)]

    report = _audit(_forged(doc, forge), c if with_instance else None)
    assert "nested d2 run's extracted set does not index the stable " \
        "columns" in [f["note"] for f in report.findings
                      if f["grade"] == "refuted"]


VALUES = (None, "x", -1, 10**6, [], {}, 1.5, True, [None], {"a": 1},
          [[1]], [{}], [-1], [True])


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("field", ["color", "H", "stable_columns", "d2.B",
                                   "d2.color"])
def test_no_json_value_makes_the_ties_raise(seed0, field, value):
    doc, c = seed0

    def forge(x):
        *path, key = field.split(".")
        for p in path:
            x = x[p]["extraction"]
        x[key] = value

    for instance in (c, None):
        _audit(_forged(doc, forge), instance)


def test_honest_seeds_0_to_29_audit_with_nothing_refuted():
    for s in range(30):
        c = gen_coloring(s)
        h, t = rt2_pipeline(c, 60)
        for instance in (c, None):
            assert verify_transcript(t, instance=instance).counts[
                "refuted"] == 0, s


def test_self_check_refuses_columns_of_both_sides(monkeypatch):
    """With the nested D2 run made to select the least stable column x0
    and the first one of the other side, x1, in the colour x0 does not
    take to x1, the only pair off that colour is (x0, x1): the greedy
    closure adds only members that agree with every member already in."""
    c = gen_coloring(1)
    x = rt2_pipeline(c, 60)[1].extraction
    cols = x["stable_columns"]
    sides = [x["sides"][str(col)] for col in cols]
    j1 = sides.index(1 - sides[0])
    real = pipeline.run_d2

    def both_sides(induced, stages, config):
        t, _ = real(induced, stages, config)
        return t, (1 - sides[0], (0, j1))

    monkeypatch.setattr(pipeline, "run_d2", both_sides)
    with pytest.raises(pipeline.PipelineInconclusive) as got:
        rt2_pipeline(c, 60)
    assert str(got.value) == \
        f"extracted set not monochromatic at ({cols[0]}, {cols[j1]})"
    assert c.value(cols[0], cols[j1]) == sides[0]
