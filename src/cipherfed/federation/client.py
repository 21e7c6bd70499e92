"""Client-side federation steps: local training, quantize-and-encrypt,
and decryption of the aggregated global model."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..fhe.encoding import decode, encode
from ..fhe.keys import KeyMaterial
from ..fhe.ops import Ciphertext, decrypt, encrypt
from ..model import HybridModel, flatten_weights, unflatten_weights
from .quantize import QuantizationSpec, quantize


def derive_seed(*parts: int) -> int:
    """Stable 63-bit seed from a tuple of integers (round, client, tag)."""
    h = hashlib.sha256(struct.pack(f"<{len(parts)}q", *parts)).digest()
    return int.from_bytes(h[:8], "little") >> 1


@dataclass(frozen=True)
class ClientUpdate:
    """One ciphertext batch of quantized weights, and the sample count."""
    client_id: int
    chunks: Ciphertext
    sample_count: int
    round_index: int
    param_count: int


@dataclass(frozen=True)
class PlainUpdate:
    """Unencrypted counterpart used by the comparison arm."""
    client_id: int
    values: np.ndarray
    sample_count: int
    round_index: int


def chunk_count_for(param_count: int, slot_count: int) -> int:
    return -(-param_count // slot_count)


def encrypt_model(model: HybridModel, spec: QuantizationSpec, keys,
                  client_id: int, sample_count: int, round_index: int,
                  rng_seed: int = 0) -> ClientUpdate:
    """Flatten -> quantize -> zero-pad to n slot-sized chunks -> encode
    and encrypt as one batch, chunk i under derive_seed(rng_seed, i)."""
    params = keys.params
    weights = quantize(flatten_weights(model), spec)
    n = chunk_count_for(weights.size, params.slot_count)
    pt = encode(np.pad(weights, (0, n * params.slot_count - weights.size))
                .reshape(n, params.slot_count), params)
    chunks = encrypt(pt, keys, [derive_seed(rng_seed, i) for i in range(n)])
    return ClientUpdate(client_id=client_id, chunks=chunks,
                        sample_count=sample_count, round_index=round_index,
                        param_count=weights.size)


def plain_update(model: HybridModel, spec: QuantizationSpec, client_id: int,
                 sample_count: int, round_index: int) -> PlainUpdate:
    """Quantized but unencrypted update for the plaintext arm."""
    return PlainUpdate(client_id=client_id,
                       values=quantize(flatten_weights(model), spec),
                       sample_count=sample_count, round_index=round_index)


def decrypt_and_load(agg: Ciphertext, keys: KeyMaterial,
                     template: HybridModel) -> HybridModel:
    """Decrypt the aggregated batch and load it into a model with the
    template's architecture."""
    slots = keys.params.slot_count
    need = template.param_count
    if len(agg) * slots < need:
        raise ShapeError(f"{len(agg)} chunks of {slots} slots cannot hold "
                         f"{need} parameters")
    values = decode(decrypt(agg, keys), slots).ravel()[:need]
    return unflatten_weights(template, values)
