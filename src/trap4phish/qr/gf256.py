"""GF(256) arithmetic (primitive polynomial 0x11D, generator 2) and
Reed-Solomon encoding/decoding over it, first root alpha^0 as QR requires.

Polynomials are coefficient lists with index 0 = highest degree term.
Encoding, the syndromes and the Chien search read small tables cached per
block shape, and each is one table product: the logs of the coefficients
are added to a cached table of logs, looked up in the antilog table, and
XOR-reduced. The parity of a block is the XOR of each data byte times
x^(its degree + nsym) mod the generator (`_parity_logs`), and a polynomial
evaluated at alpha^0, alpha^1, ... is the XOR of each coefficient times
alpha^(i * its degree) (`_power_logs`). A zero coefficient has the log
`_ZERO_LOG`, which carries any sum into the zero tail of `_EXP_X`, so zero
bytes need no mask. Berlekamp-Massey and Forney run on the plain
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

# Logs as uint16, with zero mapped to _ZERO_LOG. Two nonzero logs sum to at
# most 508, and a sum with _ZERO_LOG in it to at least 512, where _EXP_X
# holds zeros.
_ZERO_LOG = 512
_LOG_X = np.array([_ZERO_LOG] + _LOG[1:], dtype=np.uint16)
_EXP_X = np.zeros(2 * _ZERO_LOG + 1, dtype=np.uint8)
_EXP_X[:510] = _EXP[:510]


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


# QR uses 47 block shapes; the bound matters only to callers of other shapes
@lru_cache(maxsize=128)
def _parity_logs(length: int, nsym: int) -> np.ndarray:
    """(length, nsym) uint16 logs of the parity that data byte i of a
    length-byte block adds per unit: x^(length - 1 - i + nsym) mod the
    generator, with `_ZERO_LOG` for a zero coefficient. Row by row from
    x^nsym mod g = g minus its leading 1, by r -> x * r mod g."""
    gen = generator_poly(nsym)[1:]
    gen_logs = [_LOG[c] for c in gen]  # no generator coefficient is zero
    row = gen
    rows = [row]
    for _ in range(length - 1):
        top = row[0]
        row = row[1:] + [0]
        if top:
            log_top = _LOG[top]
            row = [r ^ _EXP[log_top + g] for r, g in zip(row, gen_logs)]
        rows.append(row)
    table = _LOG_X[np.array(rows[::-1])]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=128)
def _power_logs(length: int, count: int) -> np.ndarray:
    """(count, length) uint8 table of i * degree mod 255, the log of
    (alpha^i)^degree, for coefficient k of a length-term polynomial, whose
    degree is length - 1 - k."""
    degrees = np.arange(length - 1, -1, -1)
    table = (np.arange(count)[:, None] * degrees % 255).astype(np.uint8)
    table.setflags(write=False)
    return table


def _evaluate_at_powers(poly: list[int], count: int) -> np.ndarray:
    """poly(alpha^i) for i < count, as a uint8 array."""
    products = _EXP_X[_power_logs(len(poly), count) + _LOG_X[np.array(poly)]]
    return np.bitwise_xor.reduce(products, axis=1)


def rs_encode(data: list[int], nsym: int) -> list[int]:
    """Parity codewords for `data` (nsym of them): the remainder of
    data * x^nsym divided by the generator, the XOR over the data bytes of
    each byte times its row of `_parity_logs`."""
    if not data:
        return [0] * nsym
    products = _EXP_X[_LOG_X[np.array(data)][:, None] + _parity_logs(len(data), nsym)]
    return np.bitwise_xor.reduce(products, axis=0).tolist()


def _syndromes(msg: list[int], nsym: int) -> list[int]:
    """msg(alpha^i) for i < nsym."""
    # leading zero pad keeps index arithmetic in BM and Forney uniform
    return [0] + _evaluate_at_powers(msg, nsym).tolist()


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
    """Chien search: the reciprocal locator has a root at alpha^i for an
    error at position nmess - 1 - i; all nmess powers are tried at once."""
    errs = len(err_loc) - 1
    roots = np.flatnonzero(_evaluate_at_powers(err_loc[::-1], nmess) == 0)
    positions = (nmess - 1 - roots).tolist()
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
