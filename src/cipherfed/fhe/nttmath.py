"""Vectorized modular arithmetic and negacyclic NTT over word-sized primes.

All residues are numpy uint64 arrays, and every kernel works on a whole
(..., rows, N) batch of residue matrices at once, broadcasting against
a (rows, 1) column of primes. Products that would overflow 64 bits go
through Shoup multiplication (Harvey 2014): the fixed operand w carries
the constant floor(w << 64 / q), stored as its two 32-bit halves, so
its high product word takes 32-bit limb products and no 128-bit type.
Reductions are branch-free: for r < 2q, min(r, r - q) is r mod q,
because r - q wraps above r when r < q. Primes must be below 2^62 so
that sums of two residues stay clear of the wrap point. No table or
multiply uses object dtype: only shoup_constant's few per-prime
constants run in Python ints (in fhe/, only encrypt's seed array does
too). poly.ShoupPoly carries a fixed polynomial with its tables.
"""

from __future__ import annotations

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

# trial divisors, which settle most composites before any power
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Sinclair's Miller-Rabin bases: no composite n < 2^64 is a strong
# probable prime to all seven, each taken mod n
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
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

    w and q are ints or uint64 arrays that broadcast; a scalar comes back
    as shape (1,). With 2^64 = R*q + S, the constant is w*R + floor(w*S/q),
    a Shoup quotient by the fixed S.
    """
    w, q = (np.atleast_1d(np.asarray(a, dtype=np.uint64)) for a in (w, q))
    # R, S and the Shoup constant of S: Python ints, once per prime
    r, s = (1 << 64) // q.astype(object), (1 << 64) % q.astype(object)
    s_shoup = (s << 64) // q.astype(object)
    r, s, s_shoup = (c.astype(np.uint64) for c in (r, s, s_shoup))
    quot = mulhi64(w, s_shoup)
    quot += (w * s - quot * q) >= q    # the estimate is off by at most one
    big = w * r + quot
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


def fixed_multiplier(k: int, q) -> tuple[np.ndarray, tuple]:
    """The integer k as a fixed multiplier mod each prime of
    the uint64 array q: its residues, shaped as q, and their
    shoup_constant."""
    w = np.array([k % int(p) for p in q.flat],
                 dtype=np.uint64).reshape(q.shape)
    return w, shoup_constant(w, q)


def multipliers(weights, q) -> list:
    """Each non-negative integer weight as its fixed_multiplier mod the
    primes q, or None for a weight of 1, which multiplies nothing: the
    factors of weighted_sum, built once for every sum with these
    weights."""
    return [None if w == 1 else fixed_multiplier(w, q) for w in weights]


def weighted_sum(arrays, factors, q) -> np.ndarray:
    """sum_k w_k * arrays[k] mod q, added in order, for residue arrays
    below q (a uint64 array of primes that broadcasts against them) and
    factors = multipliers(weights, q). A weight of 1 adds its array
    without a product."""
    acc = None
    for a, f in zip(arrays, factors):
        if f is not None:
            a = shoup_mul(a, *f, q)
        acc = a if acc is None else addmod(acc, a, q)
    return acc


def sum_mod(stack: np.ndarray, q) -> np.ndarray:
    """stack.sum(0) mod q for a stack of residues below q: a u64 sum
    holds (2^64 - 1) // q of them, 15 at q0 = 2^60 + 57,345, so more are
    summed in blocks of that many, each reduced, and then those sums. A
    stack of one is its own sum."""
    if len(stack) == 1:
        return stack[0]
    per = ((1 << 64) - 1) // int(np.max(q))
    sums = [np.sum(stack[i:i + per], axis=0) % q
            for i in range(0, len(stack), per)]
    return sums[0] if len(sums) == 1 else sum_mod(np.stack(sums), q)


def addmod(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """(a + b) mod q for a + b < 2q."""
    r = a + b
    return np.minimum(r, r - q)


def submod(a: np.ndarray, b: np.ndarray, q) -> np.ndarray:
    """(a - b) mod q for a < q and b <= q."""
    r = a - b
    return np.minimum(r, r + q)


def prime_column(primes) -> np.ndarray:
    """The primes as a read-only (rows, 1) uint64 column."""
    q = np.array(primes, dtype=np.uint64)[:, None]
    q.flags.writeable = False
    return q


class StackedNtt:
    """Negacyclic NTT over (..., rows, n) residues, one prime per row.

    forward() maps natural-order coefficients to the bit-reversed
    evaluation order; inverse() undoes it. Pointwise products in the
    transformed domain correspond to multiplication in Z_q[X]/(X^n + 1).
    Each butterfly stage is one set of in-place broadcast operations over
    all rows, against the stacked per-row twiddle tables: the powers of a
    primitive 2n-th root psi of each prime and of its inverse, in
    bit-reversed order, each with its Shoup constants.
    """

    def __init__(self, primes: tuple[int, ...], n: int):
        if n & (n - 1) != 0:
            raise ValueError("ring degree must be a power of two")
        for q in primes:
            if not is_prime(q) or (q - 1) % (2 * n) != 0:
                raise ValueError(f"q={q} is not an NTT prime for degree {n}")
        self.n = n
        self.q = prime_column(primes)
        psi = [_find_2nth_root(q, 2 * n) for q in primes]
        ipsi = [pow(p, -1, q) for p, q in zip(psi, primes)]
        # (3, rows, n) tables: twiddles w and the halves of their Shoup
        # constants, for forward and inverse, and (3, rows, 1) for 1/n
        self.psi, self.ipsi = np.empty((2, 3, len(primes), n),
                                       dtype=np.uint64)
        steps = [1 << i for i in range(n.bit_length() - 1)]
        for table, roots in ((self.psi, psi), (self.ipsi, ipsi)):
            # slot rev(i) holds root^i, so each doubling step is one
            # strided product: the slots of i < k are every (n/k)-th one,
            # and the slot of i + k lies n/2k past that of i; the (steps,
            # rows, 1) powers root^k take their constants in one call
            rk = np.array([[[pow(r, k, q)] for r, q in zip(roots, primes)]
                           for k in steps], dtype=np.uint64)
            rk_lo, rk_hi = shoup_constant(rk, self.q)
            w = table[0]
            w[:, 0] = 1
            for i, k in enumerate(steps):
                gap = n // k
                w[:, gap // 2::gap] = shoup_mul(
                    w[:, ::gap], rk[i], (rk_lo[i], rk_hi[i]), self.q)
            table[1], table[2] = shoup_constant(w, self.q)
        n_inv = np.array([[pow(n, -1, q)] for q in primes], dtype=np.uint64)
        self.n_inv = np.array([n_inv, *shoup_constant(n_inv, self.q)])

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
