"""Finite-depth approximations of effectively coded models of tree compactness.

A model over a base set A is one bit string ("the node").  Bit position
p = cantor(i, x) stores whether x lies in the model's i-th row.  Row index
conventions, fixed bit-exactly:

    row 0                      = A itself
    join_index(i, j)  (odd)    = 2*cantor(i, j) + 1, the row W_i (+) W_j
    class_index(e, i) (even>0) = 2*cantor(e, i) + 2, a member of the e-th
                                 program-defined tree class over oracle W_i

The i-th row's decided window is the contiguous x-range with
cantor(i, x) < depth.  Rows above DERIVED_BASE form the derived-index
region: explicit windows allocated on demand for set operations whose
result matches no structural row.

This module holds the model alone: it serves `build-model` and the model
audit, and no construction in `forcing/` imports it.  Side selection is
`forcingbench.selection`'s; its names are re-exported here, and
`pi2_select` and `select_infinite_part` apply it to the decided windows of
model rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .approx import SetPresentation
from .machine import HALTED, OracleWindow, run_program
from .pairing import cantor, encode_bits, uncantor
from .selection import (  # noqa: F401  (re-exports)
    COMPLEMENT_SIDE, INTERSECT_SIDE, PreconditionViolation, SelectOutcome,
    select_part, select_part_mask, select_side, select_side_mask, set_mask,
    window_mask)
from .trees import (
    NoPathError,
    leftmost_member,
    low_basis_path,
    tree_level,
)

CLASS_PROBE_CAP = 12  # class-member rows are certified to this depth
CLASS_PROBE = 8  # depth of the nonemptiness probe of an unbuilt class row
PI1_FUEL = 512  # steps of each program run a universal-statement check makes

DERIVED_BASE = 1_000_000
DERIVED_CAPACITY = 4096  # rows the derived-index region holds

IN = "in"
OUT = "out"
BEYOND = "beyond"

ModelIndex = int


class InconclusiveModelError(RuntimeError):
    """Model construction could not certify a node."""


class UnrealizedOperatorError(RuntimeError):
    """No index realizes the requested operation within the search bound."""


def join_index(i: int, j: int) -> int:
    return 2 * cantor(i, j) + 1


def class_index(e: int, i: int) -> int:
    return 2 * cantor(e, i) + 2


def decode_row(r: int):
    if r == 0:
        return ("base",)
    if r % 2 == 1:
        i, j = uncantor((r - 1) // 2)
        return ("join", i, j)
    e, i = uncantor((r - 2) // 2)
    return ("class", e, i)


def row_window_length(row: int, depth: int) -> int:
    length = 0
    while cantor(row, length) < depth:
        length += 1
    return length


@dataclass(frozen=True)
class ClassTree:
    """Tree of strings the e-th program fails to reject against an oracle.

    A node survives when the program, fed the node's string code with the
    row oracle, does not halt within |node| steps.  Downward closure is
    enforced by level expansion.
    """

    e: int
    oracle: OracleWindow

    def accepts(self, node) -> bool:
        if not node:
            return True
        out = run_program(self.e, encode_bits(node), self.oracle, len(node))
        return out.tag != HALTED


@dataclass
class CodedModelApprox:
    base: SetPresentation
    depth: int
    node: Tuple[int, ...]  # len == depth; bit at cantor(i, x) is x in W_i
    low: bool = False
    class_info: Dict[int, dict] = field(default_factory=dict)
    derived: Dict[int, OracleWindow] = field(default_factory=dict)
    derived_ops: Dict[tuple, int] = field(default_factory=dict)

    def row_length(self, i: int) -> int:
        if i in self.derived:
            return self.derived[i].bound
        return row_window_length(i, self.depth)

    def row_window(self, i: int) -> OracleWindow:
        if i in self.derived:
            return self.derived[i]
        length = row_window_length(i, self.depth)
        return OracleWindow(tuple(self.node[cantor(i, x)] for x in range(length)))


def build_model(a: SetPresentation, depth: int, low: bool = False) -> CodedModelApprox:
    """Construct the leftmost (or divergence-forcing, when `low`) node.

    Per-row leftmost choice equals the leftmost surviving node of the
    constraint tree because distinct rows occupy disjoint bit positions and
    a row's bits appear in increasing x-order; the audit below re-checks
    the node conditions without trusting this argument.
    """
    base_len = row_window_length(0, depth)
    if a.window.bound < base_len:
        raise InconclusiveModelError(
            f"base window bound {a.window.bound} below required {base_len}"
        )
    rows: Dict[int, Tuple[int, ...]] = {}
    class_info: Dict[int, dict] = {}

    def row_bits(r: int) -> Tuple[int, ...]:
        if r in rows:
            return rows[r]
        length = row_window_length(r, depth)
        kind = decode_row(r)
        if kind[0] == "base":
            bits = a.window.bits[:length]
        elif kind[0] == "join":
            _, i, j = kind
            wi, wj = row_bits(i), row_bits(j)
            bits = tuple(
                (wi[x // 2] if x % 2 == 0 else wj[x // 2])
                if (x // 2) < (len(wi) if x % 2 == 0 else len(wj))
                else 0
                for x in range(length)
            )
        else:
            _, e, i = kind
            oracle = OracleWindow(row_bits(i))
            tree = ClassTree(e, oracle)
            probe = min(length, CLASS_PROBE_CAP)
            try:
                if low:
                    member, _log = low_basis_path(tree, e_bound=2, depth=probe)
                else:
                    member = leftmost_member(tree, probe)
                nonempty = True
            except NoPathError:
                member, nonempty = (0,) * probe, False
            bits = tuple(member) + (0,) * (length - probe)
            class_info[r] = {"nonempty": nonempty, "probe": probe}
        rows[r] = bits
        return bits

    node: List[int] = [0] * depth
    for p in range(depth):
        r, x = uncantor(p)
        node[p] = row_bits(r)[x]
    return CodedModelApprox(
        base=a, depth=depth, node=tuple(node), low=low, class_info=class_info
    )


def nested_model(outer: CodedModelApprox) -> CodedModelApprox:
    """Build a model from the outer model's own copy of the base (row 0);
    the inner model must pass the same audit over the same base."""
    return build_model(SetPresentation(outer.row_window(0)), outer.depth)


def model_member(m: CodedModelApprox, i: ModelIndex, n: int) -> str:
    if i in m.derived:
        w = m.derived[i]
        if n >= w.bound:
            return BEYOND
        return IN if w.bits[n] else OUT
    p = cantor(i, n)
    if p >= m.depth:
        return BEYOND
    return IN if m.node[p] else OUT


def _op_window(m: CodedModelApprox, op: tuple) -> Tuple[int, ...]:
    name = op[0]
    if name == "explicit":
        return tuple(op[1])
    if name == "complement":
        w = m.row_window(op[1]).bits
        return tuple(1 - b for b in w)
    if name == "drop_least":
        _, i, k = op
        bits = list(m.row_window(i).bits)
        dropped = 0
        for x, b in enumerate(bits):
            if dropped == k:
                break
            if b:
                bits[x] = 0
                dropped += 1
        return tuple(bits)
    _, i, j = op
    wi, wj = m.row_window(i).bits, m.row_window(j).bits
    length = min(len(wi), len(wj))
    if name == "union":
        return tuple(wi[x] | wj[x] for x in range(length))
    if name == "intersect":
        return tuple(wi[x] & wj[x] for x in range(length))
    raise ValueError(f"unknown operation {name!r}")


def derived_index(m: CodedModelApprox, op: tuple) -> ModelIndex:
    """Index whose row realizes a set operation on the decided windows.

    ops: ("join", i, j) | ("union", i, j) | ("intersect", i, j) |
         ("complement", i) | ("drop_least", i, k) | ("explicit", bits)

    Join is structural.  The rest search the structural rows for a match
    and fall back to allocating in the derived region.
    """
    if op[0] == "join":
        return join_index(op[1], op[2])
    key = op if op[0] != "explicit" else ("explicit", tuple(op[1]))
    if key in m.derived_ops:
        return m.derived_ops[key]
    target = _op_window(m, op)
    for r in range(m.depth):  # structural rows with any decided window
        length = row_window_length(r, m.depth)
        if length < len(target):
            break  # lengths only shrink as r grows
        if all(m.node[cantor(r, x)] == target[x] for x in range(len(target))):
            m.derived_ops[key] = r
            return r
    if len(m.derived) >= DERIVED_CAPACITY:
        raise UnrealizedOperatorError(f"derived region full for op {op[0]}")
    idx = DERIVED_BASE + len(m.derived)
    m.derived[idx] = OracleWindow(target)
    m.derived_ops[key] = idx
    return idx


def class_member_index(m: CodedModelApprox, e: int, i: ModelIndex) -> ModelIndex:
    g = class_index(e, i)
    info = m.class_info.get(g)
    if info is not None:
        if not info["nonempty"]:
            raise PreconditionViolation(
                f"class e={e} over row {i} empty at probe {info['probe']}"
            )
        return g
    tree = ClassTree(e, m.row_window(i))
    if not tree_level(tree, CLASS_PROBE):
        raise PreconditionViolation(f"class e={e} over row {i} empty at probe {CLASS_PROBE}")
    return g


@dataclass(frozen=True)
class Pi1Verdict:
    truth: bool
    witness: Optional[int]
    probe: int
    provisional: bool  # True verdicts are provisional at finite probe


def pi1_truth(m: CodedModelApprox, e: int, probe: int) -> Pi1Verdict:
    """Universal-statement check against the node: position n < probe is a
    counterexample when the program halts there with output 0."""
    oracle = OracleWindow(m.node)
    for n in range(probe):
        out = run_program(e, n, oracle, PI1_FUEL)
        if out.tag == HALTED and out.value == 0:
            return Pi1Verdict(False, n, probe, provisional=False)
    return Pi1Verdict(True, None, probe, provisional=True)


def pi2_select(m: CodedModelApprox, i: ModelIndex, j: ModelIndex,
               fuel: int) -> SelectOutcome:
    """select_side on the decided windows of rows i and j."""
    return select_side(m.row_window(i).bits, m.row_window(j).bits, fuel)


def select_infinite_part(m: CodedModelApprox, i: ModelIndex, parts, fuel: int):
    """select_part on the decided windows of row i and the part rows;
    returns (part position, index of the selected remainder, outcomes)."""
    pos, bits, outcomes = select_part(
        m.row_window(i).bits, [m.row_window(p).bits for p in parts], fuel)
    return pos, derived_index(m, ("explicit", bits)), outcomes


def model_audit(m: CodedModelApprox) -> List[str]:
    """Re-check the three node conditions independently of construction."""
    findings = []
    base_len = row_window_length(0, m.depth)
    for x in range(base_len):
        if m.node[cantor(0, x)] != m.base.window.bits[x]:
            findings.append(f"base row disagrees with A at x={x}")
    for r in range(1, m.depth):
        length = row_window_length(r, m.depth)
        if length == 0:
            break
        kind = decode_row(r)
        if kind[0] == "join":
            _, i, j = kind
            for x in range(length):
                src = i if x % 2 == 0 else j
                q = cantor(src, x // 2)
                if q < m.depth and m.node[cantor(r, x)] != m.node[q]:
                    findings.append(f"join row {r} wrong at x={x}")
        else:
            _, e, i = kind
            tree = ClassTree(e, m.row_window(i))
            probe = min(length, CLASS_PROBE_CAP)
            row = tuple(m.node[cantor(r, x)] for x in range(probe))
            if not all(tree.accepts(row[:d]) for d in range(probe + 1)):
                # row is no member; only fine when the class is empty
                try:
                    leftmost_member(tree, probe)
                    findings.append(f"class row {r} not a member at probe {probe}")
                except NoPathError:
                    pass
    return findings
