"""Refusals: a negative selection fuel, instance files the loader must
refuse by naming the bad field, and the removed `--audit-fuel` flag.

A negative fuel leaves no room for the tail search, and used to make the
selection rule pick an empty side; each selection entry point now raises
`PreconditionViolation` on it.  The loader promises to audit every payload
at load, so a short `declared_limits`, an empty partition row or a missing
field is a `MalformedInstanceError`, not an `IndexError` at load or a bare
`KeyError` in a later run.
"""

import pytest

from forcingbench.approx import MalformedInstanceError, SetPresentation
from forcingbench.harness import (gen_d2_partition, gen_stable_coloring,
                                  parse_instance)
from forcingbench.harness.cli import main
from forcingbench.harness.instances import (coloring_to_doc, dump_instance,
                                            partition_to_doc)
from forcingbench.omega_model import (
    INTERSECT_SIDE,
    PreconditionViolation,
    build_model,
    derived_index,
    pi2_select,
    select_infinite_part,
    select_part,
    select_part_mask,
    select_side,
    select_side_mask,
)

TWO = (1, 1, 0, 0)


@pytest.fixture(scope="module")
def evens_model():
    return build_model(SetPresentation.from_set(range(0, 64, 2), 64), 200)


@pytest.mark.parametrize("fuel", [-1, -5])
def test_negative_fuel_refused_by_side_selection(fuel):
    with pytest.raises(PreconditionViolation, match="negative fuel"):
        select_side(TWO, TWO, fuel=fuel)
    with pytest.raises(PreconditionViolation, match="negative fuel"):
        select_side_mask(0b11, 0b11, 4, fuel)


@pytest.mark.parametrize("parts", [[TWO, (0, 0, 1, 1)], [(1, 1, 1, 1)]])
def test_negative_fuel_refused_by_part_selection(parts):
    # one part asks no side question, and is refused all the same
    with pytest.raises(PreconditionViolation, match="negative fuel"):
        select_part((1, 1, 1, 1), parts, fuel=-1)
    with pytest.raises(PreconditionViolation, match="negative fuel"):
        select_part_mask(0b1111, 4, [(0b1111, 4)], -1)


def test_zero_and_no_fuel_still_select():
    # the complement side of TWO in itself is empty, and no fuel picks it
    for fuel in (0, 1, None):
        out = select_side(TWO, TWO, fuel=fuel)
        assert (out.side, out.count_intersect) == (INTERSECT_SIDE, 2)
    pos, kept, _ = select_part((1, 1, 1, 1), [TWO, (0, 0, 1, 1)], fuel=0)
    assert any(kept)  # the kept part is never empty


def test_negative_fuel_refused_on_model_rows(evens_model):
    m = evens_model
    with pytest.raises(PreconditionViolation, match="negative fuel"):
        pi2_select(m, 0, 0, fuel=-1)
    parts = [derived_index(m, ("explicit", tuple(
        1 if x % 2 == r else 0 for x in range(64)))) for r in range(2)]
    full = derived_index(m, ("explicit", (1,) * 64))
    with pytest.raises(PreconditionViolation, match="negative fuel"):
        select_infinite_part(m, full, parts, fuel=-1)


def _short_limits(doc):
    doc["declared_limits"] = doc["declared_limits"][:5]
    return dump_instance(doc)


@pytest.mark.parametrize("source", [
    _short_limits(coloring_to_doc(gen_stable_coloring(0))),
    _short_limits(partition_to_doc(gen_d2_partition(0))),
], ids=["coloring", "partition"])
def test_short_declared_limits_refused(source):
    with pytest.raises(MalformedInstanceError,
                       match="declared_limits has 5 entries"):
        parse_instance(source)


def test_empty_partition_row_refused(tmp_path, capsys):
    doc = partition_to_doc(gen_d2_partition(0))
    doc["table"][3] = []
    with pytest.raises(MalformedInstanceError, match="row 3 .* empty"):
        parse_instance(dump_instance(doc))
    path = tmp_path / "d.yaml"
    path.write_text(dump_instance(doc))
    assert main(["run-d2", str(path)]) == 2
    assert "row 3 of the table is empty" in capsys.readouterr().err


@pytest.mark.parametrize("source, field", [
    ("kind: RFamily\nsets:\n  - members: [0, 2, 4]\n", "bound"),
    ("kind: RFamily\nsets:\n  - program: 'halt r0'\n", "bound"),
    ("kind: RFamily\n", "sets"),
    ("kind: Coloring\nk: 2\nbound: 2\n", "table"),
    ("kind: Delta2Partition\nbound: 1\ntable: [[0]]\n", "k"),
    ("kind: Tree\n", "levels"),
], ids=["members", "program", "sets", "table", "k", "levels"])
def test_missing_field_named(source, field):
    with pytest.raises(MalformedInstanceError,
                       match=f"missing field '{field}'"):
        parse_instance(source)


def test_family_without_bound_through_run_coh(tmp_path, capsys):
    path = tmp_path / "f.yaml"
    path.write_text("kind: RFamily\nsets:\n  - members: [0, 2, 4]\n")
    assert main(["run-coh", str(path)]) == 2
    assert "error: missing field 'bound'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "run-coh", "run-em", "run-d2", "run-rt2", "verify"])
def test_audit_fuel_flag_is_gone(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "x"), "--audit-fuel", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --audit-fuel" in capsys.readouterr().err
