"""k-of-n secret sharding: Shamir's scheme, byte-wise over GF(256).

Deterministic: the polynomial coefficients come from a caller-seeded generator.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import index, xor
from typing import Iterable, NamedTuple

from overhang import checked

GF_REDUCTION_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1

MAX_SECRET_LEN = 64


class ShamirError(ValueError):
    """Raised for invalid sharding parameters, shares or share lines."""


class InsufficientSharesError(ShamirError):
    """Raised when fewer than the threshold number of shares is supplied."""


def _gf_tables() -> tuple[list[int], list[int]]:
    """Powers of the generator 3 and their logarithms in GF(256).

    The power table runs to 2 x 255 entries so that a sum of two logarithms
    indexes it without reduction mod 255.
    """
    exp, log = [0] * 510, [0] * 256
    x = 1
    for power in range(255):
        exp[power] = exp[power + 255] = x
        log[x] = power
        x ^= x << 1  # x * 3 = x * 2 + x
        if x & 0x100:
            x ^= GF_REDUCTION_POLY
    return exp, log


_GF_EXP, _GF_LOG = _gf_tables()


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _gf_inv(a: int) -> int:
    if a == 0:
        raise ShamirError("zero has no inverse in GF(256)")
    return _GF_EXP[255 - _GF_LOG[a]]


@checked
class Share(NamedTuple):
    """One shard: evaluation point index and a byte-wise payload."""

    index: int
    payload: bytes

    def _check(self) -> None:
        try:
            index(self.index)  # a numpy integer passes, a float does not
        except TypeError:
            raise ShamirError(f"non-integer share index {self.index!r}") from None
        if not 1 <= self.index <= 255:
            raise ShamirError(f"share index {self.index} outside 1..255")

    def serialize(self) -> str:
        return f"{self.index}:{self.payload.hex()}"

    @classmethod
    def deserialize(cls, line: str) -> "Share":
        try:  # a missing or second colon fails the unpacking
            index_str, hex_payload = line.strip().split(":")
            share_index, payload = int(index_str), bytes.fromhex(hex_payload)
        except ValueError:
            raise ShamirError(f"share line {line!r} is not index:hex") from None
        return cls(index=share_index, payload=payload)


def split(secret: bytes, k: int, n: int, rng: random.Random) -> list[Share]:
    """Split a secret into n shares with reconstruction threshold k.

    Byte-wise Shamir over GF(256): each secret byte is the constant term of
    a degree-(k-1) polynomial with rng-drawn coefficients, evaluated at
    x = 1..n by Horner's rule. Deterministic given the rng state.
    """
    if not secret or len(secret) > MAX_SECRET_LEN:
        raise ShamirError(f"secret must be 1..{MAX_SECRET_LEN} bytes")
    if not 1 <= k <= n <= 255:
        raise ShamirError(f"require 1 <= k <= n <= 255, got k={k}, n={n}")
    # drawn byte by byte, lowest degree first: this order fixes the seeded output
    coeffs = [
        [byte] + [rng.randrange(256) for _ in range(k - 1)] for byte in secret
    ]
    shares = []
    for x in range(1, n + 1):
        payload = bytearray()
        for poly in coeffs:
            acc = 0
            for coeff in reversed(poly):
                acc = _gf_mul(acc, x) ^ coeff
            payload.append(acc)
        shares.append(Share(index=x, payload=bytes(payload)))
    return shares


def reconstruct(shares: Iterable[Share], k: int) -> bytes:
    """Recover the secret from the first k of the shares by interpolation at zero.

    Every share given must have a distinct index and a payload of the same
    length, 1..MAX_SECRET_LEN bytes.
    """
    if k < 1:
        raise ShamirError(f"threshold k must be at least 1, got {k}")
    shares = list(shares)
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise ShamirError("duplicate share indices")
    if len(shares) < k:
        raise InsufficientSharesError(f"need {k} shares, got {len(shares)}")
    lengths = {len(s.payload) for s in shares}
    if len(lengths) != 1 or not 1 <= min(lengths) <= MAX_SECRET_LEN:
        raise ShamirError(f"share payloads must share one length of 1..{MAX_SECRET_LEN} bytes")
    xs = indices[:k]
    # Lagrange basis at x=0: prod_{j!=i} x_j / (x_i ^ x_j), the same for every byte
    weights = []
    for i, x_i in enumerate(xs):
        num, den = 1, 1
        for j, x_j in enumerate(xs):
            if i != j:
                num = _gf_mul(num, x_j)
                den = _gf_mul(den, x_i ^ x_j)
        weights.append(_gf_mul(num, _gf_inv(den)))
    return bytes(
        reduce(xor, map(_gf_mul, column, weights))
        for column in zip(*(s.payload for s in shares[:k]))
    )
