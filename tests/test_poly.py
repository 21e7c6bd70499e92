import numpy as np
import pytest

from cipherfed.errors import DomainError
from cipherfed.fhe.poly import (COEFF, NTT, ShoupPoly, from_signed_coeffs,
                                ntt_forward, ntt_inverse, sample_gaussian,
                                sample_ternary)


def random_poly(params, rng, basis=None):
    basis = basis if basis is not None else (0, 1, 2)
    v = rng.integers(-1000, 1000, params.ring_degree).astype(np.int64)
    return from_signed_coeffs(v, params, tuple(basis))


def test_domain_tags_enforced(small_params, rng):
    p = random_poly(small_params, rng)
    assert p.domain_tag == COEFF
    with pytest.raises(DomainError, match="coefficient"):
        ntt_forward(ntt_forward(p))
    with pytest.raises(DomainError, match="NTT"):
        ntt_inverse(p)
    q = ntt_forward(p)
    assert q.domain_tag == NTT
    with pytest.raises(DomainError, match="domain"):
        p.add(q)


def test_ntt_roundtrip_on_ring_poly(small_params, rng):
    p = random_poly(small_params, rng)
    back = ntt_inverse(ntt_forward(p))
    assert np.array_equal(back.residues, p.residues)


def test_mixed_bases_rejected(small_params, rng):
    a = random_poly(small_params, rng, basis=(0, 1, 2))
    b = random_poly(small_params, rng, basis=(0, 1))
    with pytest.raises(DomainError, match="prime sets"):
        a.add(b)


def test_pointwise_requires_ntt_domain(small_params, rng):
    a = random_poly(small_params, rng)
    with pytest.raises(DomainError, match="NTT"):
        a.mul_fixed(ShoupPoly.wrap(ntt_forward(a)))


def test_add_neg_cancels(small_params, rng):
    a = random_poly(small_params, rng)
    z = a.add(a.neg())
    assert np.all(z.residues == 0)


def test_automorphism_needs_coeff_domain(small_params, rng):
    a = ntt_forward(random_poly(small_params, rng))
    with pytest.raises(DomainError, match="coefficient"):
        a.automorphism(5)


def test_automorphism_identity(small_params, rng):
    a = random_poly(small_params, rng)
    assert np.array_equal(a.automorphism(1).residues, a.residues)


def test_automorphism_composition(small_params, rng):
    two_n = 2 * small_params.ring_degree
    a = random_poly(small_params, rng)
    g1, g2 = 5, 25
    left = a.automorphism(g1).automorphism(g2)
    right = a.automorphism(g1 * g2 % two_n)
    assert np.array_equal(left.residues, right.residues)


def test_sampling_shapes_and_ranges(small_params):
    rng = np.random.default_rng(0)
    t = sample_ternary(small_params, (0, 1), rng)
    g = sample_gaussian(small_params, (0, 1), rng)
    assert t.residues.shape == (2, small_params.ring_degree)
    q0 = small_params.modulus_chain[0]
    row = t.residues[0].astype(np.int64)
    centered = np.where(row > q0 // 2, row - q0, row)
    assert set(np.unique(centered)).issubset({-1, 0, 1})
    grow = g.residues[0].astype(np.int64)
    gcent = np.where(grow > q0 // 2, grow - q0, grow)
    assert np.abs(gcent).max() < 30  # ~9 sigma of the 3.2 gaussian
