"""Client-side federation steps: local training, quantize-and-encrypt,
and decryption of the aggregated global model."""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError
from ..fhe.encoding import decode, encode_coeffs
from ..fhe.encoding import encode  # perfbench --trace wraps it; ROADMAP item 1
from ..fhe.keys import KeyMaterial
from ..fhe.ops import Ciphertext, decrypt, encrypt_symmetric
from ..fhe.ops import encrypt  # perfbench --trace wraps it; ROADMAP item 1
from ..fhe.params import EncryptionParams
from ..model import HybridModel, flatten_weights, unflatten_weights
from .quantize import QuantizationSpec, quantize

# A sample adds at most clip_range * scale to a coefficient of the
# aggregate, plus 1/2 of encoding rounding and its error e, a rounded
# Gaussian of deviation 3.2 that stays far below this margin
NOISE_MARGIN = 1 << 10


def derive_seed(*parts: int) -> int:
    """Stable 63-bit seed from a tuple of integers (round, client, tag)."""
    h = hashlib.sha256(struct.pack(f"<{len(parts)}q", *parts)).digest()
    return int.from_bytes(h[:8], "little") >> 1


@dataclass(frozen=True)
class ClientUpdate:
    """One ciphertext batch of quantized weights (encrypt_model's is
    seeded, at level 0), and the sample count."""
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


def sample_capacity(params: EncryptionParams, spec: QuantizationSpec) -> int:
    """The largest sample total n_total whose level-0 aggregate decodes:
    n_total * (clip_range * scale + NOISE_MARGIN) < q0 / 2, so that every
    coefficient of sum_k n_k * (m_k + e_k) stays below half the base
    prime. 65,535 at the defaults; 0 when q0 cannot hold one sample."""
    per_sample = math.ceil(spec.clip_range * params.scale) + NOISE_MARGIN
    return params.modulus_chain[0] // 2 // per_sample


def check_sample_capacity(total: int, params: EncryptionParams,
                          spec: QuantizationSpec) -> None:
    """ConfigError unless `total` samples fit `sample_capacity`."""
    capacity = sample_capacity(params, spec)
    if total > capacity:
        raise ConfigError(
            f"{total} samples across the clients exceed the {capacity} "
            "that a level-0 encrypted sum holds: n_total * (clip_range * "
            "scale + 2^10) must stay below q0 / 2")


def encrypt_model(model: HybridModel, spec: QuantizationSpec,
                  keys: KeyMaterial, client_id: int, sample_count: int,
                  round_index: int, rng_seed: int = 0) -> ClientUpdate:
    """Flatten -> quantize -> zero-pad to n slot-sized chunks -> encode
    and encrypt as one seeded level-0 batch under the secret key, chunk i
    under derive_seed(rng_seed, i)."""
    params = keys.params
    weights = quantize(flatten_weights(model), spec)
    n = chunk_count_for(weights.size, params.slot_count)
    pt = encode_coeffs(np.pad(weights, (0, n * params.slot_count
                                        - weights.size))
                       .reshape(n, params.slot_count), params, level=0)
    chunks = encrypt_symmetric(pt, keys,
                               [derive_seed(rng_seed, i) for i in range(n)])
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
    template's architecture; the batch must have exactly the chunks the
    template's parameters fill."""
    slots = keys.params.slot_count
    need = template.param_count
    want = chunk_count_for(need, slots)
    if len(agg) != want:
        raise ShapeError(f"{len(agg)} chunks of {slots} slots for {need} "
                         f"parameters, which fill {want}")
    values = decode(decrypt(agg, keys), slots).ravel()[:need]
    return unflatten_weights(template, values)
