"""End-to-end pair-coloring pipeline."""

import pytest

from forcingbench.approx import Coloring, MalformedInstanceError
from forcingbench.forcing import rt2_pipeline, verify_transcript
from forcingbench.forcing.pipeline import column_family
from forcingbench.harness import gen_coloring, monochromatic
from forcingbench.harness.transcripts import transcript_hash


def test_pipeline_min_parity():
    c = Coloring.from_function(2, 40, lambda x, y: min(x, y) % 2)
    h, t = rt2_pipeline(c, 40)
    assert len(h) >= 4
    assert monochromatic(c, h) is not None


def test_pipeline_constant_coloring():
    c = Coloring.from_function(2, 40, lambda x, y: 1)
    h, t = rt2_pipeline(c, 40)
    assert len(h) >= 4
    assert monochromatic(c, h) == 1


def test_pipeline_generated_colorings():
    for seed in range(5):
        c = gen_coloring(seed)
        h, t = rt2_pipeline(c, 60)
        assert len(h) >= 4, f"seed {seed}"
        assert monochromatic(c, h) is not None, f"seed {seed}"
        report = verify_transcript(t, audit_fuel=2, instance=c)
        assert report.counts["refuted"] == 0, f"seed {seed}"


def test_column_family_matches_color_one():
    c = gen_coloring(3)
    fam = column_family(c)
    assert len(fam) == c.bound
    for x in (0, 5, 17):
        bits = fam[x].window.bits
        for y in range(c.bound):
            expected = 1 if y > x and c.value(x, y) == 1 else 0
            assert bits[y] == expected


def test_column_family_keeps_the_colour_range_check():
    c = Coloring.from_function(2, 12, lambda x, y: 3 if (x, y) == (4, 9) else 1)
    with pytest.raises(MalformedInstanceError) as got:
        c.value(4, 9)
    with pytest.raises(MalformedInstanceError) as fam:
        column_family(c)
    assert str(fam.value) == str(got.value)


def test_pipeline_embeds_sub_transcripts():
    c = gen_coloring(1)
    h, t = rt2_pipeline(c, 60)
    assert t.extraction["coh"]["kind"] == "coh"
    assert t.extraction["d2"]["kind"] == "d2"
    assert t.extraction["color"] in (0, 1)
    assert list(h) == list(t.extraction["H"])


def test_pipeline_rejects_many_colors():
    c = Coloring.from_function(3, 20, lambda x, y: 0)
    with pytest.raises(ValueError):
        rt2_pipeline(c, 20)


def test_pipeline_deterministic():
    c = gen_coloring(2)
    h1, t1 = rt2_pipeline(c, 60)
    h2, t2 = rt2_pipeline(c, 60)
    assert h1 == h2
    assert transcript_hash(t1) == transcript_hash(t2)
