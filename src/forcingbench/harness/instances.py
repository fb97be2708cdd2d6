"""Instance files: a small YAML surface with explicit kind tags.

Every payload is audited at load time: each field must have its type
(integers, lists, mappings, program text), tables must be total on the
declared domain, declared limits must be colors or parts below k, tree
nodes must be 0/1 strings as long as their level, and declared
stabilization data must actually hold, with the field or a counterexample
in the error message when it does not.  Program payloads embed assembler
text verbatim.  PyYAML is imported only by `parse_instance` and
`dump_instance`, so a run that reads no instance file never loads it, and
`forcingbench.trees` only by `_tree_from`, so one that reads no tree never
loads that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..approx import (Coloring, Delta2Partition, MalformedInstanceError,
                      SetPresentation)
from ..machine import assemble

if TYPE_CHECKING:
    from ..trees import TableTree

KINDS = ("RFamily", "StableColoring", "Delta2Partition", "Coloring", "Tree")


@dataclass
class Instance:
    kind: str
    payload: object


def _require(cond: bool, msg: str):
    if not cond:
        raise MalformedInstanceError(msg)


def _int(v, field: str) -> int:
    # YAML reads `2.5` as a float and `yes` as a bool; neither is an integer
    _require(isinstance(v, int) and not isinstance(v, bool),
             f"{field} must be an integer, not {type(v).__name__}")
    return v


def _list(v, field: str) -> list:
    _require(isinstance(v, list),
             f"{field} must be a list, not {type(v).__name__}")
    return v


def _ints(v, field: str) -> Tuple[int, ...]:
    # an element that is itself a list, as in a YAML alias cycle, is refused
    return tuple(_int(x, f"an entry of {field}") for x in _list(v, field))


def _limits(doc: Dict, k: int, bound: int) -> Optional[Tuple[int, ...]]:
    """The declared limits, if any: one value below k for each of bound."""
    if doc.get("declared_limits") is None:
        return None
    limits = _ints(doc["declared_limits"], "declared_limits")
    _require(len(limits) == bound,
             f"declared_limits has {len(limits)} entries, bound {bound}")
    for i, v in enumerate(limits):
        _require(0 <= v < k, f"declared limit {v} out of range at {i}")
    return limits


def _coloring_from(doc: Dict, require_bound: bool) -> Coloring:
    k = _int(doc["k"], "k")
    bound = _int(doc["bound"], "bound")
    table = _list(doc["table"], "table")
    _require(len(table) == bound, f"table has {len(table)} rows, bound {bound}")
    rows = []
    for x, row in enumerate(table):
        row = _ints(row, f"table row {x}")
        _require(
            len(row) == bound - x - 1,
            f"row {x} has {len(row)} entries, expected {bound - x - 1}",
        )
        for j, v in enumerate(row):
            _require(0 <= v < k,
                     f"color {v} out of range at ({x}, {x + 1 + j})")
        rows.append(row)
    declared = doc.get("declared_bound")
    _require(not (require_bound and declared is None),
             "stable coloring requires declared_bound")
    c = Coloring(k=k, table=tuple(rows), bound=bound,
                 declared_bound=(None if declared is None
                                 else _int(declared, "declared_bound")),
                 declared_limits=_limits(doc, k, bound))
    if c.declared_bound is not None:
        for x in range(bound):
            base_y = max(c.declared_bound, x + 1)
            if base_y >= bound:
                continue
            settled = c.value(x, base_y)
            for y in range(base_y + 1, bound):
                _require(
                    c.value(x, y) == settled,
                    f"declared bound violated: c({x},{y}) = {c.value(x, y)} "
                    f"but c({x},{base_y}) = {settled}",
                )
            if c.declared_limits is not None:
                _require(settled == c.declared_limits[x],
                         f"declared limit of column {x} is wrong")
    return c


def _partition_from(doc: Dict) -> Delta2Partition:
    k = _int(doc["k"], "k")
    bound = _int(doc["bound"], "bound")
    table = tuple(_ints(row, f"table row {n}")
                  for n, row in enumerate(_list(doc["table"], "table")))
    _require(len(table) == bound, f"table has {len(table)} rows, bound {bound}")
    promised = doc.get("promised_bound")
    d = Delta2Partition(
        k=k, table=table, bound=bound,
        promised_bound=(None if promised is None
                        else _int(promised, "promised_bound")),
        declared_limits=_limits(doc, k, bound),
    )
    for n in range(bound):
        _require(len(table[n]) > 0, f"row {n} of the table is empty")
        for s in range(len(table[n])):
            _require(0 <= table[n][s] < k,
                     f"part value {table[n][s]} out of range at ({n},{s})")
        if d.promised_bound is not None:
            settled = d.value(n, d.promised_bound)
            for s in range(d.promised_bound, len(table[n])):
                _require(
                    table[n][s] == settled,
                    f"promised bound violated: f({n},{s}) = {table[n][s]} "
                    f"but f({n},{d.promised_bound}) = {settled}",
                )
            if d.declared_limits is not None:
                _require(settled == d.declared_limits[n],
                         f"declared limit of row {n} is wrong")
    return d


def _family_from(doc: Dict) -> List[SetPresentation]:
    fam = []
    for i, entry in enumerate(_list(doc["sets"], "sets")):
        _require(isinstance(entry, dict),
                 f"sets entry {i} must be a mapping, not {type(entry).__name__}")
        if "program" in entry:
            _require(isinstance(entry["program"], str),
                     f"program must be text, not "
                     f"{type(entry['program']).__name__}")
            # the program itself: its index squares once per instruction
            fam.append(SetPresentation.from_program(
                assemble(entry["program"]), _int(entry["bound"], "bound"),
                _int(entry.get("budget", 512), "budget")))
        elif "members" in entry:
            fam.append(SetPresentation.from_set(
                _ints(entry["members"], "members"),
                _int(entry["bound"], "bound")))
        else:
            fam.append(SetPresentation.from_table(_ints(entry["bits"], "bits")))
    return fam


def _tree_from(doc: Dict):
    from ..trees import ExcludedSubstringTree, TableTree

    if "excluded" in doc:
        return ExcludedSubstringTree(tuple(
            _ints(pat, "excluded pattern")
            for pat in _list(doc["excluded"], "excluded")))
    levels = []
    for i, lv in enumerate(_list(doc["levels"], "levels")):
        nodes = [_ints(node, f"a node at level {i}")
                 for node in _list(lv, f"level {i}")]
        for node in nodes:
            _require(len(node) == i and set(node) <= {0, 1},
                     f"node {list(node)} at level {i} is not a 0/1 string "
                     f"of length {i}")
        levels.append(set(nodes))
    return TableTree.from_level_sets(levels)


def parse_instance(source: str) -> Instance:
    import yaml

    try:
        doc = yaml.safe_load(source)
    except yaml.YAMLError as exc:
        raise MalformedInstanceError(f"instance syntax: {exc}") from exc
    _require(isinstance(doc, dict), "instance must be a mapping")
    kind = doc.get("kind")
    _require(kind in KINDS, f"unknown instance kind {kind!r}")
    try:
        if kind in ("Coloring", "StableColoring"):
            payload = _coloring_from(doc, kind == "StableColoring")
        elif kind == "Delta2Partition":
            payload = _partition_from(doc)
        elif kind == "RFamily":
            payload = _family_from(doc)
        else:
            payload = _tree_from(doc)
    except KeyError as exc:  # a field the kind needs is absent
        raise MalformedInstanceError(f"missing field {exc}") from exc
    return Instance(kind=kind, payload=payload)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def coloring_to_doc(c: Coloring, kind: str = "StableColoring") -> Dict:
    doc = {"kind": kind, "k": c.k, "bound": c.bound,
           "table": [list(r) for r in c.table]}
    if c.declared_bound is not None:
        doc["declared_bound"] = c.declared_bound
    if c.declared_limits is not None:
        doc["declared_limits"] = list(c.declared_limits)
    return doc


def partition_to_doc(d: Delta2Partition) -> Dict:
    doc = {"kind": "Delta2Partition", "k": d.k, "bound": d.bound,
           "table": [list(r) for r in d.table]}
    if d.promised_bound is not None:
        doc["promised_bound"] = d.promised_bound
    if d.declared_limits is not None:
        doc["declared_limits"] = list(d.declared_limits)
    return doc


def tree_to_doc(tree: TableTree) -> Dict:
    return {"kind": "Tree",
            "levels": [[list(n) for n in sorted(lv)] for lv in tree.levels]}


def dump_instance(doc: Dict) -> str:
    import yaml

    return yaml.safe_dump(doc, sort_keys=True)
