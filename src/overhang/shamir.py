"""k-of-n secret sharding: Shamir's scheme, byte-wise over GF(256).

Deterministic: the polynomial coefficients come from a caller-seeded generator.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, NamedTuple

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
# Byte tables for bytes.translate: a byte's logarithm, with 0 sent to 255, a
# slot no power uses; and the powers, sliced per weight into a row of 255
# powers and a 0 that takes the 255 back to 0.
_LOG_BYTES = bytes([255, *_GF_LOG[1:]])
_EXP_BYTES = bytes(_GF_EXP)


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def parse_hex(text: str) -> bytes:
    """The bytes that text spells as an even number of ASCII hex digits and
    nothing else. Any other text raises ValueError; callers word the error."""
    data = bytes.fromhex(text)
    if 2 * len(data) != len(text):  # fromhex skips whitespace
        raise ValueError(f"{text!r} is not hex")
    return data


@checked
class Share(NamedTuple):
    """One shard: an evaluation point index, an int in 1..255, and a
    byte-wise payload, bytes."""

    index: int
    payload: bytes

    def _check(self) -> None:
        if type(self.index) is not int:  # a bool, a float or a numpy integer is not
            raise ShamirError(f"non-integer share index {self.index!r}")
        if not 1 <= self.index <= 255:
            raise ShamirError(f"share index {self.index} outside 1..255")
        if type(self.payload) is not bytes:
            raise ShamirError(f"share payload {self.payload!r} is not bytes")

    def serialize(self) -> str:
        return f"{self.index}:{self.payload.hex()}"

    @classmethod
    def deserialize(cls, line: str) -> "Share":
        """Read `index:hex`, ASCII digits, one colon and parse_hex's hex, once
        stripped of surrounding whitespace."""
        try:  # a missing or second colon fails the unpacking
            index_str, hex_payload = line.strip().split(":")
            if not (index_str.isascii() and index_str.isdigit()):  # int() takes "+2", "1_0"
                raise ValueError
            share_index, payload = int(index_str), parse_hex(hex_payload)
        except ValueError:
            raise ShamirError(f"share line {line!r} is not index:hex") from None
        return cls(index=share_index, payload=payload)


def split(secret: bytes, k: int, n: int, rng: random.Random) -> list[Share]:
    """Split a secret into n shares with reconstruction threshold k.

    Byte-wise Shamir over GF(256): each secret byte is the constant term of
    a degree-(k-1) polynomial with rng-drawn coefficients, evaluated at
    x = 1..n by Horner's rule. Deterministic given the rng state.
    """
    if type(secret) is not bytes or not 1 <= len(secret) <= MAX_SECRET_LEN:
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


def _polynomial(xs: bytes, payloads: list[bytes]) -> Callable[[int], int]:
    """The byte-wise polynomial of degree below k through the k points
    (xs[i], payloads[i]), as a function from a point to the payload there,
    packed big-endian into an int.

    Lagrange's form, p(a) = sum_i w_i(a) * payloads[i], with each weight
    w_i(a) = prod_{j!=i} (a ^ x_j) / (x_i ^ x_j) taken as its logarithm,
    sum_{j!=i} log(a ^ x_j) - sum_{j!=i} log(x_i ^ x_j) mod 255. Each product
    is one translate of a payload's logarithms through the row of powers
    that starts at the weight's. The point must not be one of the xs.
    """
    k = len(xs)
    packed, ones = int.from_bytes(xs, "big"), int.from_bytes(b"\1" * k, "big")

    def logs_from(point: int) -> bytes:
        # log(point ^ x_j) for each j; 255, which is 0 mod 255, where point is x_j
        return (packed ^ point * ones).to_bytes(k, "big").translate(_LOG_BYTES)

    log_denominators = [sum(logs_from(x)) for x in xs]
    log_payloads = [payload.translate(_LOG_BYTES) for payload in payloads]

    def at(point: int) -> int:
        log_diffs = logs_from(point)
        log_numerator = sum(log_diffs)
        value = 0
        for log_diff, log_denominator, logs in zip(log_diffs, log_denominators, log_payloads):
            weight = (log_numerator - log_diff - log_denominator) % 255
            value ^= int.from_bytes(logs.translate(_EXP_BYTES[weight:weight + 255] + b"\0"), "big")
        return value

    return at


def reconstruct(shares: Iterable[Share], k: int) -> bytes:
    """Recover the secret from the first k of the shares by interpolation at zero.

    Every share given must have a distinct index and a payload of the same
    length, 1..MAX_SECRET_LEN bytes. Each share beyond the first k must lie
    on the polynomial through the first k, or ShamirError names its index:
    extra shares detect a corrupt or foreign share. With exactly k shares no
    such check is possible, and a corrupt share yields a wrong secret.
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
    polynomial = _polynomial(bytes(indices[:k]), [s.payload for s in shares[:k]])
    for x, payload in shares[k:]:
        if polynomial(x) != int.from_bytes(payload, "big"):
            raise ShamirError(f"share {x} does not lie on the polynomial of the first {k} shares")
    return polynomial(0).to_bytes(lengths.pop(), "big")
