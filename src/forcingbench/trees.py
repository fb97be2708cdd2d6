"""Binary trees as predicates, bounded path search, and divergence forcing.

Nodes are tuples of 0/1 bits; the root is the empty tuple.  "Infinite at
desk scale" means: survives at the probe depth.  Every divergence verdict
below records the depth it was certified at, so an audit can deepen it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .machine import HALTED, OracleWindow, run_program

MAX_DEPTH = 24

Node = Tuple[int, ...]


class NoPathError(RuntimeError):
    """The tree died before the requested depth."""


@dataclass(frozen=True)
class TableTree:
    """Explicit accepted-node list per level (not necessarily closed)."""

    levels: Tuple[Tuple[Node, ...], ...]

    def accepts(self, node: Node) -> bool:
        d = len(node)
        if d >= len(self.levels):
            return False
        return node in self.levels[d]

    @staticmethod
    def from_level_sets(levels: Sequence[Set[Node]]) -> "TableTree":
        return TableTree(tuple(tuple(sorted(lv)) for lv in levels))


@dataclass(frozen=True)
class ExcludedSubstringTree:
    """Accepts exactly the strings avoiding every excluded substring."""

    excluded: Tuple[Tuple[int, ...], ...]

    def accepts(self, node: Node) -> bool:
        for pat in self.excluded:
            L = len(pat)
            if L == 0:
                return False
            for i in range(len(node) - L + 1):
                if node[i : i + L] == pat:
                    return False
        return True


@dataclass(frozen=True)
class FullTree:
    def accepts(self, node: Node) -> bool:
        return True


def tree_level(t, depth: int, orphans: Optional[List[Node]] = None) -> Set[Node]:
    """Strings of the given length in the downward closure of `t`.

    Level-by-level expansion enforces downward closure; for table trees,
    listed nodes whose parent died are pruned and reported via `orphans`.
    """
    if depth > MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds configured maximum {MAX_DEPTH}")
    level: Set[Node] = {()} if t.accepts(()) else set()
    for d in range(depth):
        nxt: Set[Node] = set()
        for node in level:
            for b in (0, 1):
                child = node + (b,)
                if t.accepts(child):
                    nxt.add(child)
        if orphans is not None and isinstance(t, TableTree) and d + 1 < len(t.levels):
            for listed in t.levels[d + 1]:
                if listed not in nxt and t.accepts(listed):
                    orphans.append(listed)
        level = nxt
        if not level:
            break
    return level if depth == 0 or all(len(n) == depth for n in level) else set()


def leftmost_member(t, depth: int) -> Node:
    """Leftmost string of the given length all of whose prefixes are
    accepted; depth-first, so cheap when the tree is fat."""
    stack: List[Node] = [()]
    while stack:
        node = stack.pop()
        if not t.accepts(node):
            continue
        if len(node) == depth:
            return node
        stack.append(node + (1,))
        stack.append(node + (0,))
    raise NoPathError(f"no surviving node at depth {depth}")


def wkl_path_prefix(t, depth: int) -> Node:
    """Leftmost string of the given length in the downward closure of `t`."""
    level = tree_level(t, depth)
    if not level:
        raise NoPathError(f"no surviving node at depth {depth}")
    return min(level)


@dataclass(frozen=True)
class PathDecision:
    e: int
    verdict: str  # "halts" | "diverges"
    depth_committed: int
    provisional: bool
    certificate: Dict

    DIVERGES = "diverges"
    HALTS = "halts"


@dataclass(frozen=True)
class PathDecisionLog:
    decisions: Tuple[PathDecision, ...]


def forces_halt(e: int, node: Node):
    """Bounded self-halting along a path prefix: fuel and oracle both come
    from the prefix itself.  Monotone in the prefix."""
    return run_program(e, e, OracleWindow(node), max(len(node), 1))


def low_basis_path(t, e_bound: int, depth: int) -> Tuple[Node, PathDecisionLog]:
    """Greedy divergence-forcing path selection.

    For e = 0..e_bound in order: restrict to the subtree forcing program e
    to diverge on itself when that subtree survives at the probe depth;
    otherwise commit to the leftmost node (all of which force halting) and
    record the replayable run.  The final leftmost survivor is the path.
    """
    survivors = sorted(tree_level(t, depth))
    if not survivors:
        raise NoPathError(f"no surviving node at depth {depth}")
    decisions = []
    for e in range(e_bound + 1):
        diverging = [n for n in survivors if forces_halt(e, n).tag != HALTED]
        if diverging:
            survivors = diverging
            decisions.append(
                PathDecision(
                    e=e,
                    verdict=PathDecision.DIVERGES,
                    depth_committed=depth,
                    provisional=True,
                    certificate={"witness": survivors[0], "subtree_size": len(survivors)},
                )
            )
        else:
            chosen = survivors[0]
            out = forces_halt(e, chosen)
            survivors = [chosen]
            decisions.append(
                PathDecision(
                    e=e,
                    verdict=PathDecision.HALTS,
                    depth_committed=depth,
                    provisional=False,
                    certificate={"steps": out.steps, "use": out.use, "value": out.value},
                )
            )
    return survivors[0], PathDecisionLog(tuple(decisions))


def replay_decision_log(t, path: Node, log: PathDecisionLog, depth: int) -> List[str]:
    """Independent soundness re-check of a decision log; returns findings."""
    findings = []
    for d in range(len(path) + 1):
        if not t.accepts(path[:d]):
            findings.append(f"path prefix of length {d} rejected by membership")
    level = tree_level(t, depth)
    for dec in log.decisions:
        if dec.verdict == PathDecision.HALTS:
            out = forces_halt(dec.e, path[: dec.depth_committed])
            if out.tag != HALTED or out.steps != dec.certificate["steps"]:
                findings.append(f"halting certificate for e={dec.e} does not replay")
        else:
            if not any(forces_halt(dec.e, n).tag != HALTED for n in level):
                findings.append(f"divergence subtree for e={dec.e} empty on re-enumeration")
    return findings
