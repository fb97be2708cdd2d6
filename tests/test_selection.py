"""Side selection on plain windows and the Case-2 certificates built on it."""

from forcingbench.forcing import rt2_pipeline, run_d2, run_em
from forcingbench.forcing.base import CASE2, Transcript
from forcingbench.harness import (
    gen_coloring,
    gen_d2_partition,
    gen_stable_coloring,
)
from forcingbench.omega_model import (
    COMPLEMENT_SIDE,
    INTERSECT_SIDE,
    select_part,
    select_side,
)


def _bits(members, bound):
    return tuple(1 if x in set(members) else 0 for x in range(bound))


def test_select_side_counts_only_the_common_window():
    wi = _bits(range(10), 10)
    wj = _bits(range(0, 40, 2), 40)  # longer than window i
    out = select_side(wi, wj)
    assert (out.count_intersect, out.count_complement) == (5, 5)
    assert out.side in (INTERSECT_SIDE, COMPLEMENT_SIDE)


def test_select_part_keeps_a_piece_of_the_window():
    bound = 30
    parts = [_bits([x for x in range(bound) if x % 3 == r], bound)
             for r in range(3)]
    pos, kept, outcomes = select_part(_bits(range(bound), bound), parts)
    assert kept == parts[pos]
    assert len(outcomes) == min(pos + 1, len(parts) - 1)
    assert all(o.side == COMPLEMENT_SIDE for o in outcomes[:pos])


def _case2_certificates(t):
    return [r.certificates for r in t.stages
            if r.branch == CASE2 and "selection" in r.certificates]


def _assert_counts_inside_reservoir(cert):
    rest = set(cert["reservoir_at_decision"])
    first = cert["selection"][0]
    assert first["count_intersect"] + first["count_complement"] == len(rest)
    for sel, piece in zip(cert["selection"], cert["partition"]):
        assert sel["count_intersect"] + sel["count_complement"] == len(rest)
        assert sel["count_intersect"] == len(rest & set(piece))
        rest -= set(piece)


def test_case2_selection_counts_only_reservoir_members():
    transcripts = [run_em(gen_stable_coloring(s), 200)[0] for s in range(3)]
    transcripts += [run_d2(gen_d2_partition(s), 300)[0] for s in range(3)]
    nested = [rt2_pipeline(gen_coloring(s), 60)[1].extraction["d2"]
              for s in range(5)]
    certs = [c for t in transcripts for c in _case2_certificates(t)]
    nested_certs = [c for d in nested
                    for c in _case2_certificates(Transcript.from_dict(d))]
    assert certs and nested_certs
    for cert in certs + nested_certs:
        _assert_counts_inside_reservoir(cert)
