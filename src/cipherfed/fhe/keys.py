"""Key generation: the secret key and the public encryption key.

Keys are poly.ShoupPolys, and keygen multiplies through their tables too.
The public key's uniform pk1 = a travels as a 32-byte seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .params import EncryptionParams
from .poly import (NTT, RingPoly, ShoupPoly, expand_seed, ntt_forward,
                   sample_gaussian, sample_ternary)


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


@dataclass(frozen=True)
class KeyMaterial:
    """Full key set: public material plus the ternary secret key."""
    public: PublicMaterial
    secret_key: ShoupPoly  # NTT domain, chain basis

    @property
    def params(self) -> EncryptionParams:
        return self.public.params


def public_part(keys: KeyMaterial | PublicMaterial) -> PublicMaterial:
    """The public half of a key set; public material is its own."""
    return keys.public if isinstance(keys, KeyMaterial) else keys


def keygen(params: EncryptionParams, rng_seed: int = 0) -> KeyMaterial:
    """Generate the secret and public keys, deterministically in the
    seed: s first, then the seed of a, then e."""
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0xC1F]))
    chain = tuple(range(len(params.modulus_chain)))
    secret = ShoupPoly.wrap(ntt_forward(sample_ternary(params, chain, rng)))

    # pk0 = -(a*s) + e, pk1 = a
    seed = rng.bytes(32)
    a = expand_a(seed, params)
    e = ntt_forward(sample_gaussian(params, chain, rng))
    pk0 = ShoupPoly.wrap(a.poly.mul_fixed(secret).neg().add(e))
    pub = PublicMaterial(params, pk0, a, seed)
    return KeyMaterial(public=pub, secret_key=secret)
