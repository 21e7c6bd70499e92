"""Bitwise oracles for the word-size RNS kernel.

Every modular primitive and Shoup constant, the NTT, scalar encoding,
the plaintext multiply and decode's CRT reconstruction are checked
against Python-int references, with Hypothesis leaning on edge
residues: 0, 1, q - 1, q and the lazy values up to 2q - 1 that the
butterflies and Shoup products feed each other. All three primes of the
default chain are covered.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherfed.fhe import default_params, encode, encode_scalar, encrypt
from cipherfed.fhe import keygen, mul_plain
from cipherfed.fhe.encoding import _centered_float_coeffs
from cipherfed.fhe.nttmath import (StackedNtt, addmod, find_ntt_primes,
                                   is_prime, mulhi64, shoup_constant,
                                   shoup_mul, submod)
from cipherfed.fhe.poly import COEFF, NTT, RingPoly, ShoupPoly

PARAMS = default_params()
PRIMES = PARAMS.modulus_chain
U64 = 2 ** 64


def edge_ints(high: int, edges) -> st.SearchStrategy:
    """Integers in [0, high], drawn often from the given edge values."""
    picks = sorted({e for e in edges if 0 <= e <= high})
    return st.one_of(st.sampled_from(picks), st.integers(0, high))


def residue_lists(q: int, high: int, size: int):
    edges = (0, 1, q - 1, q, q + 1, 2 * q - 1, 2 * q, U64 - 1)
    return st.lists(edge_ints(high, edges), min_size=size, max_size=size)


def u64(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


prime = st.sampled_from(PRIMES)


@settings(max_examples=200, deadline=None)
@given(q=prime, data=st.data())
def test_addmod_submod_match_python(q, data):
    a = data.draw(residue_lists(q, q - 1, 16))
    b = data.draw(residue_lists(q, q - 1, 16))
    assert addmod(u64(a), u64(b), np.uint64(q)).tolist() == \
        [(x + y) % q for x, y in zip(a, b)]
    assert submod(u64(a), u64(b), np.uint64(q)).tolist() == \
        [(x - y) % q for x, y in zip(a, b)]
    # addmod takes a lazy operand as long as the sum stays below 2q
    lazy = [2 * q - 1 - y for y in b]
    assert addmod(u64(lazy), u64(b), np.uint64(q)).tolist() == \
        [(x + y) % q for x, y in zip(lazy, b)]
    # submod takes a subtrahend of exactly q
    assert submod(u64(a), u64([q] * len(a)), np.uint64(q)).tolist() == a


@settings(max_examples=200, deadline=None)
@given(q=prime, data=st.data())
def test_shoup_mul_matches_python_on_lazy_inputs(q, data):
    a = data.draw(residue_lists(q, U64 - 1, 16))
    w = data.draw(edge_ints(q - 1, (0, 1, 2, q - 2, q - 1)))
    got = shoup_mul(u64(a), np.uint64(w), shoup_constant(w, q), np.uint64(q))
    assert got.tolist() == [x * w % q for x in a]


@settings(max_examples=200, deadline=None)
@given(q=prime, data=st.data())
def test_shoup_mul_with_per_row_constants(q, data):
    # a (rows, n) matrix against a (rows, 1) column, as mul_plain and
    # rescale use it
    rows = data.draw(st.lists(residue_lists(q, 2 * q - 1, 8), min_size=2,
                              max_size=3))
    ws = data.draw(st.lists(edge_ints(q - 1, (0, 1, q - 1)),
                            min_size=len(rows), max_size=len(rows)))
    w = u64(ws)[:, None]
    qq = np.full((len(rows), 1), q, dtype=np.uint64)
    got = shoup_mul(u64(rows), w, shoup_constant(w, qq), qq)
    assert got.tolist() == [[x * wk % q for x in r] for r, wk in zip(rows, ws)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mulhi64_matches_python_at_the_edges(data):
    edges = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, U64 - 1)
    a = data.draw(st.lists(edge_ints(U64 - 1, edges), min_size=8, max_size=8))
    b = data.draw(st.lists(edge_ints(U64 - 1, edges), min_size=8, max_size=8))
    assert mulhi64(u64(a), u64(b)).tolist() == \
        [x * y >> 64 for x, y in zip(a, b)]


# the default primes, small NTT primes and the largest primes below 2^62
SHOUP_PRIMES = (*PRIMES, *find_ntt_primes(13, 2, 16), 17, 97,
                *[q for q in range(2 ** 62 - 1, 2 ** 62 - 400, -2)
                  if is_prime(q)][:2])


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from([(), (3, 1), (3, 8), (2, 3, 8)]),
       data=st.data())
def test_shoup_constant_matches_python_division(shape, data):
    # a scalar, a (rows, 1) column, a (rows, n) table and a batch of
    # tables, one prime per row
    rows = shape[-2] if shape else 1
    qs = data.draw(st.lists(st.sampled_from(SHOUP_PRIMES), min_size=rows,
                            max_size=rows))
    row_q = [qs[(i // shape[-1]) % rows] if shape else qs[0]
             for i in range(math.prod(shape))]
    ws = [data.draw(edge_ints(q - 1, (0, 1, q - 1))) for q in row_q]
    if shape:
        lo, hi = shoup_constant(u64(ws).reshape(shape), u64(qs)[:, None])
    else:
        lo, hi = shoup_constant(ws[0], qs[0])
    assert (hi << 32 | lo).ravel().tolist() == \
        [(w << 64) // q for w, q in zip(ws, row_q)]


def bit_reverse(j: int, bits: int) -> int:
    return int(format(j, f"0{bits}b")[::-1], 2) if bits else 0


def evaluations(coeffs, q: int, psi: int) -> list[int]:
    """The negacyclic NTT by definition: slot j holds a(psi^(2 rev(j) + 1))
    mod q, for a primitive 2n-th root psi."""
    n = len(coeffs)
    bits = n.bit_length() - 1
    out = []
    for j in range(n):
        x = pow(psi, 2 * bit_reverse(j, bits) + 1, q)
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % q
        out.append(acc)
    return out


def root_of(ntt: StackedNtt, row: int) -> int:
    """psi of row `row` from the bit-reversed table (slot n/2 holds
    psi^1), checked to be a primitive 2n-th root."""
    psi, q = int(ntt.psi[0, row, ntt.n // 2]), int(ntt.q[row, 0])
    assert pow(psi, ntt.n, q) == q - 1
    return psi


@pytest.mark.parametrize("n", [16, 64])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ntt_matches_evaluation_on_every_prime(n, data):
    stacked = StackedNtt(PRIMES, n)
    mat = [data.draw(residue_lists(q, q - 1, n)) for q in PRIMES]
    fwd = stacked.forward(u64(mat))
    expect = [evaluations(row, q, root_of(stacked, r))
              for r, (row, q) in enumerate(zip(mat, PRIMES))]
    assert fwd.tolist() == expect
    assert stacked.inverse(u64(expect)).tolist() == mat


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_full_size_ntt_of_monomials(data):
    # c * X^k transforms to c * psi^((2 rev(j) + 1) k) in slot j: this
    # checks every stage layout of the N = 4096 transform without an
    # O(N^2) reference
    n = PARAMS.ring_degree
    stacked = PARAMS.ntt
    k = data.draw(st.sampled_from([0, 1, n // 2, n - 1])
                  | st.integers(0, n - 1))
    cs = [data.draw(edge_ints(q - 1, (0, 1, q - 1))) for q in PRIMES]
    mat = np.zeros((len(PRIMES), n), dtype=np.uint64)
    mat[:, k] = cs
    fwd = stacked.forward(mat)
    bits = n.bit_length() - 1
    for row, (c, q) in enumerate(zip(cs, PRIMES)):
        psi = root_of(stacked, row)
        expect = [c * pow(psi, (2 * bit_reverse(j, bits) + 1) * k, q) % q
                  for j in range(n)]
        assert fwd[row].tolist() == expect
    assert np.array_equal(stacked.inverse(fwd), mat)


FRACTIONS = sorted({Fraction(k, t) for t in range(1, 65) for k in range(t + 1)})


@pytest.mark.parametrize("level", range(PARAMS.max_level + 1))
def test_encode_scalar_equals_fft_encode_for_every_fraction(level):
    slots = PARAMS.slot_count
    for f in FRACTIONS:
        c = f.numerator / f.denominator
        got = encode_scalar(c, PARAMS, level=level)
        ref = encode(np.full(slots, c), PARAMS, level=level)
        assert np.array_equal(got.poly.residues, ref.poly.residues), f
        assert (got.scale, got.level) == (ref.scale, ref.level)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(-2.0 ** 20, 2.0 ** 20, allow_nan=False),
       level=st.integers(0, PARAMS.max_level))
def test_encode_scalar_equals_fft_encode_for_floats(c, level):
    got = encode_scalar(c, PARAMS, level=level)
    ref = encode(np.full(PARAMS.slot_count, c), PARAMS, level=level)
    assert np.array_equal(got.poly.residues, ref.poly.residues)


@pytest.fixture(scope="module")
def keys():
    return keygen(PARAMS, rng_seed=41)


def object_product(residues: np.ndarray, w: np.ndarray, primes) -> np.ndarray:
    q = np.array(primes, dtype=object)[:, None]
    return ((residues.astype(object) * w.astype(object)) % q).astype(np.uint64)


@settings(max_examples=25, deadline=None)
@given(w=st.floats(0.0, 1.0), level=st.integers(0, PARAMS.max_level),
       seed=st.integers(0, 2 ** 32))
def test_mul_plain_matches_object_reference(keys, w, level, seed):
    vals = np.random.default_rng(seed).uniform(-8, 8, 64)
    ct = encrypt(encode(vals, PARAMS, level=level), keys, rng_seed=seed)
    for pt in (encode_scalar(w, PARAMS, level=level),
               encode(vals, PARAMS, level=level)):
        got = mul_plain(ct, pt)
        primes = ct.c0.primes
        for half, ref in ((got.c0, ct.c0), (got.c1, ct.c1)):
            assert np.array_equal(
                half.residues,
                object_product(ref.residues, pt.poly.residues, primes))
        assert got.scale == ct.scale * pt.scale and got.level == level


SMALL = default_params(ring_degree=1024)
CHAIN = tuple(range(len(SMALL.modulus_chain)))
# runs of the chain: the prefix of each level, and runs that start later
SUB_BASES = [(0,), (0, 1), (0, 1, 2), (1, 2), (2,)]


def random_ntt_poly(rng, basis, batch=()) -> RingPoly:
    """Uniform residues with 0 and q - 1 in the first two slots of every
    row."""
    q = np.array([SMALL.modulus_chain[i] for i in basis],
                 dtype=np.uint64)[:, None]
    res = rng.integers(0, q, (*batch, len(basis), SMALL.ring_degree),
                       dtype=np.uint64)
    res[..., 0] = 0
    res[..., 1] = (q - np.uint64(1))[:, 0]
    return RingPoly(SMALL, basis, res, NTT)


@settings(max_examples=30, deadline=None)
@given(batch=st.sampled_from([1, 2, 7]), sub=st.sampled_from(SUB_BASES),
       batched=st.booleans(), seed=st.integers(0, 2 ** 32))
def test_mul_fixed_matches_python_on_a_sub_basis(batch, sub, batched, seed):
    # a receiver on some rows of a chain-basis multiplier, as keys meet
    # ciphertexts; the multiplier is a single polynomial or a batch
    rng = np.random.default_rng(seed)
    fixed = ShoupPoly.wrap(random_ntt_poly(
        rng, CHAIN, (batch,) if batched else ()))
    p = random_ntt_poly(rng, sub, (batch,))
    got = p.mul_fixed(fixed)
    w = fixed.poly.residues[..., list(sub), :]
    assert got.prime_indices == sub
    assert np.array_equal(got.residues,
                          object_product(p.residues, w, p.primes))


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from([0, 1, -1]) | st.integers(-2 ** 200, 2 ** 200),
       sub=st.sampled_from(SUB_BASES), seed=st.integers(0, 2 ** 32))
def test_constant_mul_fixed_matches_python(k, sub, seed):
    p = random_ntt_poly(np.random.default_rng(seed), sub, (2,))
    got = p.mul_fixed(ShoupPoly.constant(k, SMALL, CHAIN))
    q = np.array(p.primes, dtype=object)[:, None]
    assert np.array_equal(
        got.residues, ((p.residues.astype(object) * k) % q).astype(np.uint64))


@settings(max_examples=30, deadline=None)
@given(level=st.integers(0, SMALL.max_level), batch=st.sampled_from([1, 5]),
       edges=st.lists(st.integers(0, 4), max_size=8),
       seed=st.integers(0, 2 ** 32))
def test_centered_crt_matches_python_ints(level, batch, edges, seed):
    # full-range residues, whose CRT values reach far beyond 2^53, against
    # the centered Python-int CRT value within the docstring's 2^-50
    basis = tuple(range(level + 1))
    qs = [SMALL.modulus_chain[i] for i in basis]
    res = np.random.default_rng(seed).integers(
        0, u64(qs)[:, None], (batch, len(qs), SMALL.ring_degree),
        dtype=np.uint64)
    for j, e in enumerate(edges):
        res[..., j] = [(0, 1, q - 1, q // 2, q // 2 + 1)[e] for q in qs]
    got = _centered_float_coeffs(RingPoly(SMALL, basis, res, COEFF))
    big_q = math.prod(qs)
    crt = [big_q // q * pow(big_q // q, -1, q) for q in qs]
    x = sum(res[..., i, :].astype(object) * c
            for i, c in enumerate(crt)) % big_q
    exact = np.where(x > big_q // 2, x - big_q, x).astype(np.float64)
    assert np.all(np.abs(got - exact) <= 2.0 ** -50 * np.abs(exact))
