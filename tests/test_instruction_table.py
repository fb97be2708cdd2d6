"""The assembler and the disassembler read one instruction format.

Every program index disassembles to text that assembles back to the same
program, but for the raw operand that a one-operand instruction carries
and never reads (index 137 is `halt r0` with b = 1), which the text does
not write and which assembles as 0.  Each malformed line is refused with
the message pinned here, word for word.  `finite_oracle` is the window of
a finite set, bounded just past its largest member, with negative members
skipped.
"""

import pytest

from forcingbench.machine import (
    OP_ADD,
    OP_JZ,
    OP_SET,
    AssemblerError,
    Instruction,
    OracleProgram,
    assemble,
    decode_program,
    disassemble,
    finite_oracle,
)

# the opcodes that read a second operand; every other one reads only a
TWO_OPERANDS = (OP_SET, OP_ADD, OP_JZ)


def _written(prog: OracleProgram) -> OracleProgram:
    """`prog` with each operand its instruction does not read set to 0."""
    return OracleProgram(tuple(
        ins if ins.op in TWO_OPERANDS else Instruction(ins.op, ins.a)
        for ins in prog.code))


def test_every_program_below_5000_round_trips():
    exact = 0
    for i in range(5000):
        prog = decode_program(i)
        back = assemble(disassemble(prog))
        assert back == _written(prog), i
        assert disassemble(back) == disassemble(prog), i
        exact += back == prog
    assert exact > 0


def test_index_137_drops_only_its_unread_operand():
    prog = decode_program(137)
    assert prog.code == (Instruction(0, 0, 1),)
    assert disassemble(prog) == "halt r0"
    assert assemble("halt r0").code == (Instruction(0, 0, 0),)


def test_round_trip_keeps_a_written_index():
    for text in ("set r1 3\nadd r0 r1\njz r0 4\nqry r2\nhalt r0",
                 "inc r5\ndec r0\njmp 0", ""):
        prog = assemble(text)
        assert assemble(disassemble(prog)).index == prog.index


MALFORMED = [
    # wrong operand count
    ("halt r0 r1", "line 1: bad operands ['r0', 'r1']"),
    ("set r1", "line 1: bad operands ['r1']"),
    ("set r0 1 2", "line 1: bad operands ['r0', '1', '2']"),
    ("add r0", "line 1: bad operands ['r0']"),
    ("jmp", "line 1: bad operands []"),
    ("qry", "line 1: bad operands []"),
    # a number where a register goes, and a bad register
    ("inc 3", "line 1: expected register, got '3'"),
    ("set 3 4", "line 1: expected register, got '3'"),
    ("add r0 7", "line 1: expected register, got '7'"),
    ("jz 1 2", "line 1: expected register, got '1'"),
    ("add r0 rx", "line 1: bad register 'rx'"),
    ("inc r", "line 1: bad register 'r'"),
    # an unknown label
    ("jmp nowhere", "line 1: unknown label or number 'nowhere'"),
    ("jz r0 nowhere", "line 1: unknown label or number 'nowhere'"),
    # a negative operand
    ("set r0 -1", "line 1: negative operand '-1'"),
    ("jmp -4", "line 1: negative operand '-4'"),
    # bad and duplicate labels
    ("a b:\nhalt r0", "line 1: bad label 'a b'"),
    (": halt r0", "line 1: bad label ''"),
    ("x:\nx:\nhalt r0", "line 2: duplicate label 'x'"),
    ("x: y: x: halt r0", "line 1: duplicate label 'x'"),
    # an unknown mnemonic
    ("frob r0", "line 1: unknown mnemonic 'frob'"),
]


@pytest.mark.parametrize("text,message", MALFORMED)
def test_assembler_error_messages(text, message):
    with pytest.raises(AssemblerError) as got:
        assemble(text)
    assert str(got.value) == message


def test_finite_oracle_of_the_empty_set():
    assert finite_oracle([]).bits == (0,)
    assert finite_oracle(()).bits == (0,)


def test_finite_oracle_of_a_negative_only_set():
    assert finite_oracle([-1]).bits == ()
    assert finite_oracle([-3, -1]).bits == ()


def test_finite_oracle_of_a_mixed_set():
    assert finite_oracle([-2, 0, 3]).bits == (1, 0, 0, 1)
    assert finite_oracle([4, -7, 1]).bits == (0, 1, 0, 0, 1)
