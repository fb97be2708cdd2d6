"""Named assembler snippets used across the constructions and tests."""

from __future__ import annotations

from functools import lru_cache

from .machine import OracleProgram, assemble

# Halts immediately with output 0, any input, no queries.
HALT_ZERO = assemble("set r0 0\nhalt r0")

# Halts with output = input.
ECHO = assemble("halt r0")

# Diverges on every input.
LOOP = assemble("jmp 0")

# Halts iff the input is even (diverges on odd inputs).
HALT_IFF_EVEN = assemble(
    """
    top: jz r0 done
         dec r0
         jz r0 spin
         dec r0
         jmp top
    done: halt r0
    spin: jmp spin
    """
)

# Halts iff the input is odd.
HALT_IFF_ODD = assemble(
    """
    top: jz r0 spin
         dec r0
         jz r0 done
         dec r0
         jmp top
    done: halt r0
    spin: jmp spin
    """
)

# Total 0/1 decider for the even numbers.
EVENS_DECIDER = assemble(
    """
    top: jz r0 yes
         dec r0
         jz r0 no
         dec r0
         jmp top
    yes: set r0 1
         halt r0
    no:  halt r0
    """
)


@lru_cache(maxsize=None)
def output_oracle_bit(index: int) -> OracleProgram:
    """Halts with the oracle bit at a fixed index."""
    return assemble(f"set r0 {index}\nqry r0\nhalt r0")


@lru_cache(maxsize=None)
def halt_if_member(index: int) -> OracleProgram:
    """Halts iff the fixed index is in the oracle; diverges otherwise."""
    return assemble(
        f"""
        set r0 {index}
        qry r0
        jz r0 spin
        halt r0
        spin: jmp spin
        """
    )


@lru_cache(maxsize=None)
def halt_at_step(k: int) -> OracleProgram:
    """Halts at exactly step k (k >= 1), output 0, no queries."""
    if k < 1:
        raise ValueError("k must be >= 1")
    body = "inc r1\n" * (k - 1)
    return assemble(body + "halt r3")


@lru_cache(maxsize=None)
def mod_member_decider(k: int) -> OracleProgram:
    """Total 0/1 decider for the multiples of k (generalizes EVENS_DECIDER)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    src = ["top: jz r0 yes"]
    for _ in range(k - 1):
        src.append("dec r0")
        src.append("jz r0 no")
    src.append("dec r0")
    src.append("jmp top")
    src.append("yes: set r0 1")
    src.append("halt r0")
    src.append("no:  set r0 0")
    src.append("halt r0")
    return assemble("\n".join(src))


# Decider programs computing n mod k by repeated subtraction, halting with
# the residue; used for program-presented sets and colorings.
@lru_cache(maxsize=None)
def mod_decider(k: int) -> OracleProgram:
    if k < 1:
        raise ValueError("k must be >= 1")
    src = ["top:"]
    for i in range(k):
        src.append(f"jz r0 out{i}")
        src.append("dec r0")
    src.append("jmp top")
    for i in range(k):
        src.append(f"out{i}: set r0 {i}")
        src.append("jmp fin")
    src.append("fin: halt r0")
    return assemble("\n".join(src))
