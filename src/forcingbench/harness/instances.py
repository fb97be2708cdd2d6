"""Instance files: a small YAML surface with explicit kind tags.

Every payload is audited at load time: tables must be total on the
declared domain and declared stabilization data must actually hold, with
a counterexample in the error message when it does not.  Program payloads
embed assembler text verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import yaml

from ..approx import Coloring, MalformedInstanceError, SetPresentation
from ..forcing.d2 import Delta2Partition
from ..machine import assemble
from ..trees import ExcludedSubstringTree, TableTree

KINDS = ("RFamily", "StableColoring", "Delta2Partition", "Coloring", "Tree")


@dataclass
class Instance:
    kind: str
    payload: object


def _require(cond: bool, msg: str):
    if not cond:
        raise MalformedInstanceError(msg)


def _coloring_from(doc: Dict, require_bound: bool) -> Coloring:
    k = int(doc["k"])
    bound = int(doc["bound"])
    table = doc["table"]
    _require(len(table) == bound, f"table has {len(table)} rows, bound {bound}")
    rows = []
    for x, row in enumerate(table):
        _require(
            len(row) == bound - x - 1,
            f"row {x} has {len(row)} entries, expected {bound - x - 1}",
        )
        for j, v in enumerate(row):
            _require(0 <= int(v) < k,
                     f"color {v} out of range at ({x}, {x + 1 + j})")
        rows.append(tuple(int(v) for v in row))
    declared = doc.get("declared_bound")
    _require(not (require_bound and declared is None),
             "stable coloring requires declared_bound")
    limits = doc.get("declared_limits")
    _require(limits is None or len(limits) == bound,
             f"declared_limits has {len(limits or ())} entries, bound {bound}")
    c = Coloring(k=k, table=tuple(rows), bound=bound,
                 declared_bound=None if declared is None else int(declared),
                 declared_limits=None if limits is None else tuple(limits))
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
    k = int(doc["k"])
    bound = int(doc["bound"])
    table = tuple(tuple(int(v) for v in row) for row in doc["table"])
    _require(len(table) == bound, f"table has {len(table)} rows, bound {bound}")
    promised = doc.get("promised_bound")
    limits = doc.get("declared_limits")
    _require(limits is None or len(limits) == bound,
             f"declared_limits has {len(limits or ())} entries, bound {bound}")
    d = Delta2Partition(
        k=k, table=table, bound=bound,
        promised_bound=None if promised is None else int(promised),
        declared_limits=None if limits is None else tuple(limits),
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
    for entry in doc["sets"]:
        if "program" in entry:
            # the program itself: its index squares once per instruction
            fam.append(SetPresentation.from_program(
                assemble(entry["program"]), int(entry["bound"]),
                int(entry.get("budget", 512))))
        elif "members" in entry:
            fam.append(SetPresentation.from_set(
                [int(m) for m in entry["members"]], int(entry["bound"])))
        else:
            fam.append(SetPresentation.from_table(entry["bits"]))
    return fam


def _tree_from(doc: Dict):
    if "excluded" in doc:
        return ExcludedSubstringTree(tuple(
            tuple(int(b) for b in pat) for pat in doc["excluded"]))
    levels = [set(tuple(int(b) for b in node) for node in lv)
              for lv in doc["levels"]]
    return TableTree.from_level_sets(levels)


def parse_instance(source: str) -> Instance:
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
    return yaml.safe_dump(doc, sort_keys=True)
