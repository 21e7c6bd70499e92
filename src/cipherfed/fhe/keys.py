"""Key generation: the secret key and the public encryption key.

Keys are poly.ShoupPolys, and keygen multiplies through their tables too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import EncryptionParams
from .poly import (ShoupPoly, ntt_forward, sample_gaussian, sample_ternary,
                   sample_uniform)


@dataclass(frozen=True)
class PublicMaterial:
    """Everything the aggregation server is allowed to hold: parameters
    and the encryption key. No decryption capability."""
    params: EncryptionParams
    pk0: ShoupPoly
    pk1: ShoupPoly


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
    seed."""
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0xC1F]))
    chain = tuple(range(len(params.modulus_chain)))
    secret = ShoupPoly.wrap(ntt_forward(sample_ternary(params, chain, rng)))

    # pk0 = -(a*s) + e, pk1 = a
    a = ntt_forward(sample_uniform(params, chain, rng))
    e = ntt_forward(sample_gaussian(params, chain, rng))
    pk0 = ShoupPoly.wrap(a.mul_fixed(secret).neg().add(e))
    pub = PublicMaterial(params=params, pk0=pk0, pk1=ShoupPoly.wrap(a))
    return KeyMaterial(public=pub, secret_key=secret)
