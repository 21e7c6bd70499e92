"""Vectorized modular arithmetic and negacyclic NTT over word-sized primes.

All residues are numpy uint64 arrays, and every kernel works on a whole
(..., rows, N) batch of residue matrices at once, broadcasting against
a (rows, 1) column of primes. Products that would overflow 64 bits go
through Shoup multiplication (Harvey 2014): the fixed operand w carries
the constant floor(w << 64 / q), stored as its two 32-bit halves, so
its high product word takes 32-bit limb products and no 128-bit type.
Reductions are branch-free: for r < 2q, min(r, r - q) is r mod q,
because r - q wraps above r when r < q. Primes must be below 2^62 so
that sums of two residues stay clear of the wrap point. Only one-off key
generation multiplies two varying residues, through Python-int
arithmetic (mulmod).
"""

from __future__ import annotations

import copy

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

# Deterministic Miller-Rabin witness set for n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_ntt_primes(bits: int, count: int, two_n: int, skip: tuple[int, ...] = ()) -> list[int]:
    """Smallest `count` primes q > 2^bits with q = 1 (mod two_n).

    Searching upward from 2^bits keeps rescale ratios close to 1 and
    guarantees q exceeds a scale of 2^bits, as the parameter invariants
    require.
    """
    found: list[int] = []
    k = (1 << bits) // two_n + 1
    while len(found) < count:
        q = k * two_n + 1
        if q not in skip and q not in found and is_prime(q):
            found.append(q)
        k += 1
    return found


def _find_2nth_root(q: int, two_n: int) -> int:
    """Primitive two_n-th root of unity mod q (requires two_n | q-1)."""
    if (q - 1) % two_n != 0:
        raise ValueError(f"{two_n} does not divide q-1 for q={q}")
    cofactor = (q - 1) // two_n
    n = two_n // 2
    for x in range(2, q):
        r = pow(x, cofactor, q)
        # two_n is a power of two, so r^n == -1 pins the order to two_n.
        if pow(r, n, q) == q - 1:
            return r
    raise ValueError(f"no primitive {two_n}-th root mod {q}")


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _mulhi_into(hi, a, b_lo, b_hi, t0, t1, t2):
    """hi = high 64 bits of a * b, where b = b_hi << 32 | b_lo is given as
    its 32-bit halves; t0, t1 and t2 are scratch of hi's shape."""
    np.bitwise_and(a, _M32, out=t0)
    np.right_shift(a, _S32, out=hi)
    np.multiply(t0, b_lo, out=t1)
    t1 >>= _S32
    np.multiply(hi, b_lo, out=t2)
    t1 += t2                  # a_hi * b_lo + carry, below 2^64
    t0 *= b_hi
    np.bitwise_and(t1, _M32, out=t2)
    t0 += t2                  # a_lo * b_hi + low half of t1
    t1 >>= _S32
    hi *= b_hi
    hi += t1
    t0 >>= _S32
    hi += t0
    return hi


def _shoup_into(out, a, w, w_lo, w_hi, q, hi, t0, t1, t2):
    """out = a * w mod q for any a < 2^64 and a fixed w < q whose Shoup
    constant floor(w << 64 / q) has the 32-bit halves w_lo, w_hi.

    The quotient estimate is off by at most one, so the raw remainder lies
    in [0, 2q) and one branch-free subtraction finishes the reduction.
    out may alias a; hi, t0, t1 and t2 are scratch of out's shape.
    """
    _mulhi_into(hi, a, w_lo, w_hi, t0, t1, t2)
    hi *= q
    np.multiply(a, w, out=t0)
    t0 -= hi
    np.subtract(t0, q, out=hi)
    return np.minimum(t0, hi, out=out)


def mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product, elementwise."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.uint64),
                               np.asarray(b, dtype=np.uint64))
    hi = np.empty(a.shape, dtype=np.uint64)
    return _mulhi_into(hi, a, b & _M32, b >> _S32,
                       *np.empty((3,) + a.shape, dtype=np.uint64))


def shoup_constant(w, q) -> tuple[np.ndarray, np.ndarray]:
    """floor(w << 64 / q) for a fixed multiplier w < q, as its 32-bit
    halves (lo, hi) so that no product has to split it again.

    w and q are ints or uint64 arrays that broadcast. The division runs
    in Python ints, once per table.
    """
    big = ((np.asarray(w, dtype=np.uint64).astype(object) << 64)
           // np.asarray(q, dtype=np.uint64).astype(object))
    big = np.asarray(big, dtype=np.uint64)
    return big & _M32, big >> _S32


def shoup_mul(a: np.ndarray, w, w_shoup, q) -> np.ndarray:
    """a * w mod q for any a < 2^64, with w < q fixed and
    w_shoup = shoup_constant(w, q). All operands broadcast."""
    a = np.asarray(a, dtype=np.uint64)
    shape = np.broadcast_shapes(a.shape, np.shape(w), np.shape(w_shoup[0]),
                                np.shape(q))
    out = np.empty(shape, dtype=np.uint64)
    return _shoup_into(out, a, w, *w_shoup, q,
                       *np.empty((4,) + shape, dtype=np.uint64))


def mulmod(a: np.ndarray, b, q: int) -> np.ndarray:
    """Generic a * b mod q via object arithmetic (both operands varying):
    exact but slow, so only one-off key generation uses it."""
    if isinstance(b, np.ndarray):
        r = (a.astype(object) * b.astype(object)) % int(q)
    else:
        r = (a.astype(object) * int(b)) % int(q)
    return r.astype(np.uint64)


def addmod(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """(a + b) mod q for a + b < 2q."""
    r = a + b
    return np.minimum(r, r - q)


def submod(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """(a - b) mod q for a < q and b <= q."""
    r = a - b
    return np.minimum(r, r + q)


class PrimeNtt:
    """Negacyclic NTT tables for one prime q = 1 (mod 2n): the powers of a
    primitive 2n-th root psi and of its inverse in bit-reversed order,
    each with its Shoup constants. StackedNtt runs the transforms."""

    def __init__(self, q: int, n: int):
        if n & (n - 1) != 0:
            raise ValueError("ring degree must be a power of two")
        if not is_prime(q) or (q - 1) % (2 * n) != 0:
            raise ValueError(f"q={q} is not an NTT prime for degree {n}")
        self.q = q
        self.n = n

        psi = _find_2nth_root(q, 2 * n)
        ipsi = pow(psi, q - 2, q)
        rev = _bit_reverse_indices(n)
        pows = np.empty(n, dtype=np.uint64)
        ipows = np.empty(n, dtype=np.uint64)
        acc = 1
        iacc = 1
        for i in range(n):
            pows[i] = acc
            ipows[i] = iacc
            acc = acc * psi % q
            iacc = iacc * ipsi % q
        self.psi_br = pows[rev]
        self.ipsi_br = ipows[rev]
        self.psi_br_shoup = shoup_constant(self.psi_br, q)
        self.ipsi_br_shoup = shoup_constant(self.ipsi_br, q)


class StackedNtt:
    """Negacyclic NTT over (..., rows, n) residues, one prime per row.

    forward() maps natural-order coefficients to the bit-reversed
    evaluation order; inverse() undoes it. Pointwise products in the
    transformed domain correspond to multiplication in Z_q[X]/(X^n + 1).
    Each butterfly stage is one set of in-place broadcast operations over
    all rows, against the stacked per-row twiddle tables.
    """

    def __init__(self, contexts: tuple[PrimeNtt, ...]):
        self.n = contexts[0].n
        self.q = np.array([c.q for c in contexts], dtype=np.uint64)[:, None]
        self.q.flags.writeable = False
        # (3, rows, n) tables: twiddles w and the halves of their Shoup
        # constants, for forward and inverse, and (3, rows, 1) for 1/n
        self.psi = np.array([[c.psi_br for c in contexts],
                             *zip(*(c.psi_br_shoup for c in contexts))])
        self.ipsi = np.array([[c.ipsi_br for c in contexts],
                              *zip(*(c.ipsi_br_shoup for c in contexts))])
        n_inv = np.array([pow(self.n, -1, c.q) for c in contexts],
                         dtype=np.uint64)[:, None]
        self.n_inv = np.array([n_inv, *shoup_constant(n_inv, self.q)])

    def rows(self, sel) -> "StackedNtt":
        """The context for the rows `sel` (a slice shares the tables)."""
        sub = copy.copy(self)
        sub.q = self.q[sel]
        sub.q.flags.writeable = False
        sub.psi, sub.ipsi, sub.n_inv = (t[:, sel] for t in (
            self.psi, self.ipsi, self.n_inv))
        return sub

    def _stages(self, out: np.ndarray, table, forward: bool):
        """Per butterfly stage over m blocks of 2t coefficients in each row
        (m doubles going forward, halves going back): the halves u and v,
        the stage's twiddle rows of `table` shaped to broadcast against
        them, and five scratch arrays of their shape."""
        *lead, rows, n = out.shape
        buf = np.empty((5, *lead, rows, n // 2), dtype=np.uint64)
        ms = [1 << s for s in range(n.bit_length() - 1)]
        for m in ms if forward else ms[::-1]:
            t = n // (2 * m)
            blk = out.reshape(*lead, rows, m, 2, t)
            u, v, tw = blk[..., 0, :], blk[..., 1, :], np.s_[:, m:2 * m, None]
            if t < 16:
                # numpy runs a short inner loop slowly, so put the longer
                # block axis innermost
                u, v = u.swapaxes(-1, -2), v.swapaxes(-1, -2)
                tw = np.s_[:, None, m:2 * m]
            yield (u, v, [w[tw] for w in table],
                   [b.reshape(u.shape) for b in buf])

    def forward(self, mat: np.ndarray) -> np.ndarray:
        out = np.array(mat, dtype=np.uint64, order="C")
        q = self.q[:, :, None]
        for u, v, w, (x, hi, t0, t1, t2) in self._stages(out, self.psi, True):
            _shoup_into(x, v, *w, q, hi, t0, t1, t2)
            np.subtract(u, x, out=hi)
            np.add(hi, q, out=t0)
            np.minimum(hi, t0, out=v)
            u += x
            np.subtract(u, q, out=hi)
            np.minimum(u, hi, out=u)
        return out

    def inverse(self, mat: np.ndarray) -> np.ndarray:
        out = np.array(mat, dtype=np.uint64, order="C")
        q = self.q[:, :, None]
        for u, v, w, (x, hi, t0, t1, t2) in self._stages(out, self.ipsi,
                                                         False):
            np.subtract(u, v, out=x)
            x += q                # lazy, below 2q; the Shoup product takes it
            u += v
            np.subtract(u, q, out=hi)
            np.minimum(u, hi, out=u)
            _shoup_into(v, x, *w, q, hi, t0, t1, t2)
        n_inv, *n_inv_shoup = self.n_inv
        return shoup_mul(out, n_inv, n_inv_shoup, self.q)
