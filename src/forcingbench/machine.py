"""Deterministic oracle-machine interpreter with an explicit use principle.

The machine is a minimal register bytecode: 4 registers holding naturals,
8 opcodes, a single oracle-query instruction.  Every natural number decodes
to a program (total numbering); invalid control flow parks the machine in a
diverging idle loop.  Every instruction costs exactly one fuel unit.

Instruction set (raw operands a, b are arbitrary naturals; register
operands are taken mod 4 at execution time so the numbering stays bijective):

    halt rA         op 0   stop, output = rA
    set  rA n       op 1   rA = n
    inc  rA         op 2   rA += 1
    dec  rA         op 3   rA = max(rA - 1, 0)
    add  rA rB      op 4   rA += rB
    jz   rA n       op 5   if rA == 0 jump to instruction n
    jmp  n          op 6   jump to instruction n
    qry  rA         op 7   rA = oracle bit at index rA

An instruction codes as 8 * cantor(a, b) + op; a program codes as the
bijective list encoding of its instruction codes.

Execution cost: `decode_program` decodes each index once and keeps the
frozen program in a bounded cache, so a program asked about again and
again (every bounded halting question, every audit replay) is decoded
once.  There is one interpreter loop, `Machine.run`, which keeps the
machine's state in locals until it stops; `step` is `run(1)`.  A pc past
the end of the code idles forever, so `run` burns the fuel left at once
and reports the same step count as stepping through it would.  A run
without a window stops at its first query; `Machine.answered` goes on
from there with a supplied bit, so one run per program, branched at its
queries, answers a question about any oracle (by the use principle that
`run_program` states).  `forcing.base.bounded_halt` answers every bounded
halting question that way, from one such run tree per program kept for
the life of the process; `run_program` runs from step 0 each time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Tuple

from .pairing import cantor, decode_list, encode_list, uncantor

NUM_REGS = 4

OP_HALT = 0
OP_SET = 1
OP_INC = 2
OP_DEC = 3
OP_ADD = 4
OP_JZ = 5
OP_JMP = 6
OP_QRY = 7

_MNEMONICS = {
    OP_HALT: "halt",
    OP_SET: "set",
    OP_INC: "inc",
    OP_DEC: "dec",
    OP_ADD: "add",
    OP_JZ: "jz",
    OP_JMP: "jmp",
    OP_QRY: "qry",
}
_OPCODES = {name: op for op, name in _MNEMONICS.items()}

HALTED = "halted"
OUT_OF_FUEL = "out_of_fuel"
ORACLE_INSUFFICIENT = "oracle_insufficient"


class AssemblerError(ValueError):
    """Raised on malformed program text."""


@dataclass(frozen=True)
class Instruction:
    op: int
    a: int = 0
    b: int = 0

    def encode(self) -> int:
        return 8 * cantor(self.a, self.b) + self.op


def decode_instruction(code: int) -> Instruction:
    a, b = uncantor(code // 8)
    return Instruction(code % 8, a, b)


@dataclass(frozen=True)
class OracleProgram:
    code: Tuple[Instruction, ...]

    @property
    def index(self) -> int:
        return encode_list([ins.encode() for ins in self.code])


@lru_cache(maxsize=4096)
def decode_program(index: int) -> OracleProgram:
    return OracleProgram(tuple(decode_instruction(c) for c in decode_list(index)))


@dataclass(frozen=True)
class OracleWindow:
    """Membership verdicts for every n < bound; undefined at or above bound."""

    bits: Tuple[int, ...]

    @property
    def bound(self) -> int:
        return len(self.bits)

    @staticmethod
    def from_set(members: Iterable[int], bound: int) -> "OracleWindow":
        bits = [0] * bound
        for n in members:
            if 0 <= n < bound:
                bits[n] = 1
        return OracleWindow(tuple(bits))

    def members(self) -> Tuple[int, ...]:
        return tuple(n for n, b in enumerate(self.bits) if b)


EMPTY_WINDOW = OracleWindow(())


@dataclass(frozen=True)
class RunOutcome:
    tag: str
    value: Optional[int] = None
    steps: int = 0
    use: int = 0
    missing: Optional[int] = None  # first out-of-window index queried

    @property
    def halted(self) -> bool:
        return self.tag == HALTED


@dataclass
class Machine:
    """Resumable single-step execution; `steps` completed so far.

    The machine is deterministic, so its state after f steps is exactly the
    state of a fresh fuel-f run.
    """

    program: OracleProgram
    x: int
    window: OracleWindow
    regs: list = field(init=False)
    pc: int = 0
    steps: int = 0
    max_query: int = -1
    outcome_tag: Optional[str] = None
    value: Optional[int] = None
    missing: Optional[int] = None

    def __post_init__(self) -> None:
        self.regs = [0] * NUM_REGS
        self.regs[0] = self.x

    def step(self) -> bool:
        """Execute one instruction; False once halted or oracle-starved."""
        return self.run(1)

    def run(self, fuel: int) -> bool:
        """Execute up to `fuel` instructions; False once halted or
        oracle-starved.  The state lives in locals until the loop stops."""
        if self.outcome_tag is not None:
            return False
        code = self.program.code
        size = len(code)
        bits = self.window.bits
        bound = len(bits)
        regs = self.regs
        pc = self.pc
        steps = self.steps
        max_query = self.max_query
        stop = steps + fuel
        running = True
        while steps < stop:
            if pc >= size:
                steps = stop  # diverging idle; burns fuel without progress
                break
            steps += 1
            ins = code[pc]
            op = ins.op
            if op == OP_HALT:
                self.outcome_tag = HALTED
                self.value = regs[ins.a % NUM_REGS]
                running = False
                break
            if op == OP_SET:
                regs[ins.a % NUM_REGS] = ins.b
            elif op == OP_INC:
                regs[ins.a % NUM_REGS] += 1
            elif op == OP_DEC:
                r = ins.a % NUM_REGS
                if regs[r]:
                    regs[r] -= 1
            elif op == OP_ADD:
                regs[ins.a % NUM_REGS] += regs[ins.b % NUM_REGS]
            elif op == OP_JZ:
                if regs[ins.a % NUM_REGS] == 0:
                    pc = ins.b
                    continue
            elif op == OP_JMP:
                pc = ins.a
                continue
            elif op == OP_QRY:
                r = ins.a % NUM_REGS
                idx = regs[r]
                if idx >= bound:
                    self.outcome_tag = ORACLE_INSUFFICIENT
                    self.missing = idx
                    running = False
                    break
                if idx > max_query:
                    max_query = idx
                regs[r] = bits[idx]
            pc += 1
        self.pc, self.steps, self.max_query = pc, steps, max_query
        return running

    def answered(self, bit: int) -> "Machine":
        """A copy of this oracle-starved machine past the query it stopped
        at, with `bit` as the answer: the state a run reaches when its
        window holds `bit` at that index.  The copy keeps this machine's
        window, so it starves again at its next query outside it."""
        if self.outcome_tag != ORACLE_INSUFFICIENT:
            raise ValueError("only an oracle-starved machine takes an answer")
        m = Machine(self.program, self.x, self.window)
        m.regs = self.regs.copy()
        m.regs[self.program.code[self.pc].a % NUM_REGS] = bit
        m.pc, m.steps = self.pc + 1, self.steps
        m.max_query = max(self.max_query, self.missing)
        return m

    def outcome(self) -> RunOutcome:
        use = self.max_query + 1
        if self.outcome_tag is None:
            return RunOutcome(OUT_OF_FUEL, steps=self.steps, use=use)
        return RunOutcome(
            self.outcome_tag, value=self.value, steps=self.steps, use=use,
            missing=self.missing,
        )


def _as_program(e) -> OracleProgram:
    if isinstance(e, OracleProgram):
        return e
    return decode_program(e)


def run_program(e, x: int, oracle: OracleWindow, fuel: int) -> RunOutcome:
    """Run program `e` (index or program) on input x against an oracle window.

    Deterministic and monotone: a Halted outcome is preserved verbatim under
    any fuel increase and any window agreeing below its use.
    """
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    m = Machine(_as_program(e), x, oracle)
    m.run(fuel)
    return m.outcome()


def fuel_sweep(e, x: int, oracle: OracleWindow, max_fuel: int):
    """Outcomes at every fuel 1..max_fuel, from one resumed execution."""
    m = Machine(_as_program(e), x, oracle)
    outcomes = []
    for _ in range(max_fuel):
        m.step()
        outcomes.append(m.outcome())
    return outcomes


IN = "in"
OUT = "out"
CONFLICT = "conflict"
UNKNOWN = "unknown"


def turing_reduce_eval(e1, e2, n: int, y: OracleWindow, fuel: int) -> str:
    """Evaluate a reduction given by a pair of indices at one point.

    e1 decides membership positively, e2 negatively; both halting is a
    contract violation at this n, neither halting within fuel is unknown.
    """
    pos = run_program(e1, n, y, fuel).halted
    neg = run_program(e2, n, y, fuel).halted
    if pos and neg:
        return CONFLICT
    if pos:
        return IN
    if neg:
        return OUT
    return UNKNOWN


def assemble(text: str) -> OracleProgram:
    """Parse assembler text, one instruction per line, '#' comments.

    A line of the form `name:` defines a label usable as a jump target.
    """
    stripped = []
    labels = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        while line.endswith(":") or (line.split()[0].endswith(":")):
            head, _, rest = line.partition(":")
            head = head.strip()
            if not head or " " in head:
                raise AssemblerError(f"line {lineno}: bad label {head!r}")
            if head in labels:
                raise AssemblerError(f"line {lineno}: duplicate label {head!r}")
            labels[head] = len(stripped)
            line = rest.strip()
            if not line:
                break
        if line:
            stripped.append((lineno, line))

    code = []
    for lineno, line in stripped:
        parts = line.split()
        name = parts[0].lower()
        if name not in _OPCODES:
            raise AssemblerError(f"line {lineno}: unknown mnemonic {name!r}")
        op = _OPCODES[name]
        args = parts[1:]
        try:
            if op in (OP_HALT, OP_INC, OP_DEC, OP_QRY):
                (a,) = args
                code.append(Instruction(op, _reg(a, lineno)))
            elif op in (OP_SET, OP_JZ):
                a, b = args
                code.append(Instruction(op, _reg(a, lineno), _nat(b, lineno, labels)))
            elif op == OP_ADD:
                a, b = args
                code.append(Instruction(op, _reg(a, lineno), _reg(b, lineno)))
            else:  # OP_JMP
                (a,) = args
                code.append(Instruction(op, _nat(a, lineno, labels)))
        except ValueError as exc:
            if isinstance(exc, AssemblerError):
                raise
            raise AssemblerError(f"line {lineno}: bad operands {args!r}") from exc
    return OracleProgram(tuple(code))


def _reg(tok: str, lineno: int) -> int:
    if not tok.startswith("r"):
        raise AssemblerError(f"line {lineno}: expected register, got {tok!r}")
    try:
        return int(tok[1:])
    except ValueError:
        raise AssemblerError(f"line {lineno}: bad register {tok!r}") from None


def _nat(tok: str, lineno: int, labels=None) -> int:
    if labels is not None and tok in labels:
        return labels[tok]
    try:
        value = int(tok)
    except ValueError:
        raise AssemblerError(f"line {lineno}: unknown label or number {tok!r}") from None
    if value < 0:
        raise AssemblerError(f"line {lineno}: negative operand {tok!r}")
    return value


def disassemble(program: OracleProgram) -> str:
    lines = []
    for ins in program.code:
        name = _MNEMONICS[ins.op]
        if ins.op in (OP_HALT, OP_INC, OP_DEC, OP_QRY):
            lines.append(f"{name} r{ins.a}")
        elif ins.op in (OP_SET, OP_JZ):
            lines.append(f"{name} r{ins.a} {ins.b}")
        elif ins.op == OP_ADD:
            lines.append(f"{name} r{ins.a} r{ins.b}")
        else:
            lines.append(f"{name} {ins.a}")
    return "\n".join(lines)
