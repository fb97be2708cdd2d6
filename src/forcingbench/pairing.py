"""Bijective codings shared by every module.

Conventions (fixed once, used everywhere):

* pairs:   cantor(x, y) = (x+y)(x+y+1)/2 + y
* lists:   0 <-> [], n+1 <-> [head] + decode(tail) with (head, tail) = uncantor(n)
* strings: a binary string b0..b_{L-1} is coded as cantor(L, sum b_i 2^i)
"""

from __future__ import annotations

from math import isqrt
from typing import List, Sequence, Tuple


def cantor(x: int, y: int) -> int:
    s = x + y
    return s * (s + 1) // 2 + y


def uncantor(z: int) -> Tuple[int, int]:
    s = (isqrt(8 * z + 1) - 1) // 2
    y = z - s * (s + 1) // 2
    return s - y, y


def encode_list(items: Sequence[int]) -> int:
    code = 0
    for item in reversed(items):
        code = cantor(item, code) + 1
    return code


def decode_list(code: int) -> List[int]:
    items: List[int] = []
    while code:
        head, code = uncantor(code - 1)
        items.append(head)
    return items


def encode_bits(bits: Sequence[int]) -> int:
    packed = 0
    for i, b in enumerate(bits):
        if b:
            packed |= 1 << i
    return cantor(len(bits), packed)

