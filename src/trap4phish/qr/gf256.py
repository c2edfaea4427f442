"""GF(256) arithmetic (primitive polynomial 0x11D, generator 2) and
Reed-Solomon encoding/decoding over it, first root alpha^0 as QR requires.

Polynomials are coefficient lists with index 0 = highest degree term.
Encoding and the syndromes work in the log domain: `rs_encode` divides by a
generator whose coefficient logs are cached per parity length, and
`_syndromes` evaluates a block at all roots at once from the `_LOG`/`_EXP`
tables. Berlekamp-Massey, the Chien search and Forney run on the plain
polynomial helpers; they run only for blocks with errors.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_EXP = [0] * 512
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]
_EXP_ARR = np.array(_EXP, dtype=np.uint8)
_LOG_ARR = np.array(_LOG, dtype=np.int64)


class RsDecodeError(Exception):
    """Errors exceed the correction capacity of the block."""


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("GF division by zero")
    if a == 0:
        return 0
    return _EXP[(_LOG[a] - _LOG[b]) % 255]


def gf_pow(base: int, power: int) -> int:
    return _EXP[(_LOG[base] * power) % 255]


def gf_inverse(a: int) -> int:
    return _EXP[255 - _LOG[a]]


def poly_scale(p: list[int], s: int) -> list[int]:
    return [gf_mul(c, s) for c in p]


def poly_add(p: list[int], q: list[int]) -> list[int]:
    out = [0] * max(len(p), len(q))
    out[len(out) - len(p):] = p
    for i, c in enumerate(q):
        out[i + len(out) - len(q)] ^= c
    return out


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] ^= gf_mul(a, b)
    return out


def poly_eval(p: list[int], x: int) -> int:
    y = p[0]
    for c in p[1:]:
        y = gf_mul(y, x) ^ c
    return y


def poly_divmod(dividend: list[int], divisor: list[int]) -> tuple[list[int], list[int]]:
    out = list(dividend)
    for i in range(len(dividend) - len(divisor) + 1):
        coef = out[i]
        if coef == 0:
            continue
        for j in range(1, len(divisor)):
            if divisor[j] != 0:
                out[i + j] ^= gf_mul(divisor[j], coef)
    sep = -(len(divisor) - 1)
    return out[:sep], out[sep:]


def generator_poly(nsym: int) -> list[int]:
    g = [1]
    for i in range(nsym):
        g = poly_mul(g, [1, gf_pow(2, i)])
    return g


@lru_cache(maxsize=None)
def _generator_logs(nsym: int) -> tuple[int, ...]:
    """Logs of the generator's coefficients below the leading 1; none of
    them is zero for any parity length QR uses."""
    return tuple(_LOG[c] for c in generator_poly(nsym)[1:])


def rs_encode(data: list[int], nsym: int) -> list[int]:
    """Parity codewords for `data` (nsym of them): the remainder of
    data * x^nsym divided by the generator, shifted through one byte at a
    time with each product taken from the log tables."""
    gen = _generator_logs(nsym)
    remainder = [0] * nsym
    for byte in data:
        coef = byte ^ remainder.pop(0)
        remainder.append(0)
        if coef:
            log_coef = _LOG[coef]
            remainder = [r ^ _EXP[log_coef + g] for r, g in zip(remainder, gen)]
    return remainder


def _syndromes(msg: list[int], nsym: int) -> list[int]:
    """msg(alpha^i) for i < nsym: the XOR over nonzero coefficients c of
    degree d of alpha^(log c + i*d), for all i at once."""
    coefs = np.asarray(msg, dtype=np.int64)[::-1]
    degrees = np.flatnonzero(coefs)
    powers = (_LOG_ARR[coefs[degrees]] + np.arange(nsym)[:, None] * degrees) % 255
    synd = np.bitwise_xor.reduce(_EXP_ARR[powers], axis=1)
    # leading zero pad keeps index arithmetic in BM and Forney uniform
    return [0] + synd.tolist()


def _error_locator(synd: list[int], nsym: int) -> list[int]:
    # Berlekamp-Massey; locator returned with index 0 = highest degree
    err_loc = [1]
    old_loc = [1]
    synd_shift = len(synd) - nsym
    for i in range(nsym):
        k = i + synd_shift
        delta = synd[k]
        for j in range(1, len(err_loc)):
            delta ^= gf_mul(err_loc[-(j + 1)], synd[k - j])
        old_loc = old_loc + [0]
        if delta != 0:
            if len(old_loc) > len(err_loc):
                new_loc = poly_scale(old_loc, delta)
                old_loc = poly_scale(err_loc, gf_inverse(delta))
                err_loc = new_loc
            err_loc = poly_add(err_loc, poly_scale(old_loc, delta))
    while err_loc and err_loc[0] == 0:
        err_loc = err_loc[1:]
    if not err_loc:
        raise RsDecodeError("degenerate error locator")
    errs = len(err_loc) - 1
    if errs * 2 > nsym:
        raise RsDecodeError(f"{errs} errors exceed capacity {nsym // 2}")
    return err_loc


def _find_errors(err_loc: list[int], nmess: int) -> list[int]:
    # roots of the reciprocal locator sit at alpha^(coefficient degree)
    errs = len(err_loc) - 1
    reciprocal = err_loc[::-1]
    positions = []
    for i in range(nmess):
        if poly_eval(reciprocal, gf_pow(2, i)) == 0:
            positions.append(nmess - 1 - i)
    if len(positions) != errs:
        raise RsDecodeError("Chien search found a different error count than the locator degree")
    return positions


def _correct_errata(msg: list[int], synd: list[int], err_pos: list[int]) -> list[int]:
    coef_pos = [len(msg) - 1 - p for p in err_pos]
    # errata locator from known positions
    loc = [1]
    for p in coef_pos:
        loc = poly_mul(loc, poly_add([1], [gf_pow(2, p), 0]))
    # error evaluator omega = synd * loc mod x^(len(loc))
    _, omega = poly_divmod(poly_mul(synd[::-1], loc), [1] + [0] * len(loc))
    xs = [gf_pow(2, -(255 - p)) for p in coef_pos]
    out = list(msg)
    for i, xi in enumerate(xs):
        xi_inv = gf_inverse(xi)
        loc_prime = 1
        for j, xj in enumerate(xs):
            if j != i:
                loc_prime = gf_mul(loc_prime, 1 ^ gf_mul(xi_inv, xj))
        if loc_prime == 0:
            raise RsDecodeError("Forney: zero locator derivative")
        y = gf_mul(xi, poly_eval(omega, xi_inv))
        out[err_pos[i]] ^= gf_div(y, loc_prime)
    return out


def rs_decode(received: list[int], nsym: int) -> list[int]:
    """Correct up to nsym//2 errors in `received` (data + parity); returns the
    corrected data part. Raises RsDecodeError when correction fails."""
    msg = list(received)
    synd = _syndromes(msg, nsym)
    if max(synd) == 0:
        return msg[:-nsym]
    err_loc = _error_locator(synd, nsym)
    positions = _find_errors(err_loc, len(msg))
    msg = _correct_errata(msg, synd, positions)
    if max(_syndromes(msg, nsym)) != 0:
        raise RsDecodeError("syndromes nonzero after correction")
    return msg[:-nsym]
