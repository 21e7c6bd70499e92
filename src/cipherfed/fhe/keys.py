"""Key generation: the secret key and the public encryption key.

The public key and s's NTT rows are poly.ShoupPolys; the public key's
uniform pk1 = a travels as a 32-byte seed. A run encrypts, sums and
decrypts mod Q = 2^k alone, in the coefficient domain, so key material
builds only s's FFT spectrum (fftmath.TernaryProduct) and builds each
NTT row of s, and the public key, on first use.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

import numpy as np

from .fftmath import TernaryProduct
from .params import EncryptionParams
from .poly import (NTT, RingPoly, ShoupPoly, expand_seed, from_signed_coeffs,
                   ntt_forward, sample_gaussian)


def expand_a(seed: bytes, params: EncryptionParams) -> ShoupPoly:
    """pk1 = a over the chain basis: row i is the NTT-domain expansion
    under prime i of SHA-256(tag || seed || u8 i), one stream a row; the
    tag keeps the bytes it had under `CKP2`, so a key seed gives the
    same a under `CKP3`."""
    rows = [expand_seed(hashlib.sha256(b"cipherfed CKP2 a" + seed
                                       + bytes([i])).digest(), q,
                        params.ring_degree)
            for i, q in enumerate(params.modulus_chain)]
    return ShoupPoly.wrap(RingPoly(params, tuple(range(len(rows))),
                                   np.stack(rows), NTT))


@dataclass(frozen=True)
class PublicMaterial:
    """Everything the aggregation server is allowed to hold: parameters
    and the encryption key. No decryption capability."""
    params: EncryptionParams
    pk0: ShoupPoly
    pk1: ShoupPoly  # a, expanded from seed
    seed: bytes


class KeyMaterial:
    """The ternary secret's N coefficients `secret`, `times_secret`
    (x -> x*s mod Q for coefficient-domain x), and its public material:
    `public`, or else pk0 = -(a*s) + e and pk1 = a, built on first read
    from `draws`, keygen's generator where the draw of s left it: the
    seed of a, then e. `nonce`, which seeded encryption folds into every
    seed it draws, is empty for keys drawn from a seed, and new to each
    load of key files."""

    def __init__(self, params: EncryptionParams, secret: np.ndarray,
                 public: PublicMaterial | None = None, draws=None,
                 nonce: bytes = b""):
        self.params, self.secret = params, secret  # int64 in {-1, 0, 1}
        self.nonce = nonce
        self._public, self._draws = public, draws
        self._lock, self._rows = threading.Lock(), {}
        self.times_secret = TernaryProduct(secret, params)

    @property
    def public(self) -> PublicMaterial:
        with self._lock:
            if self._public is None:
                seed = self._draws.bytes(32)
                a = expand_a(seed, self.params)
                e = ntt_forward(sample_gaussian(
                    self.params, a.poly.prime_indices, self._draws))
                pk0 = a.poly.mul_fixed(self.secret_key).neg().add(e)
                self._public = PublicMaterial(self.params,
                                              ShoupPoly.wrap(pk0), a, seed)
        return self._public

    def secret_rows(self, basis: tuple[int, ...]) -> ShoupPoly:
        """s in the NTT domain over the chain primes `basis`."""
        if basis not in self._rows:
            self._rows[basis] = ShoupPoly.wrap(ntt_forward(
                from_signed_coeffs(self.secret, self.params, basis)))
        return self._rows[basis]

    @property
    def secret_key(self) -> ShoupPoly:
        """s over the chain basis."""
        return self.secret_rows(tuple(range(len(self.params.modulus_chain))))


def keygen(params: EncryptionParams, rng_seed: int = 0) -> KeyMaterial:
    """The secret key, deterministic in the seed, whose public key draws
    on from the same generator when first read: s, then the seed of a,
    then e."""
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0xC1F]))
    return KeyMaterial(params, rng.integers(-1, 2, params.ring_degree),
                       draws=rng)
