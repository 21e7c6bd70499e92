"""Client-side federation steps: local training, quantize-and-encrypt,
and decryption of the aggregated global model."""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DomainError, ShapeError
from ..fhe.encoding import decode_coeffs, encode_coeffs
from ..fhe.encoding import decode, encode  # perfbench wraps; ROADMAP item 1
from ..fhe.keys import KeyMaterial
from ..fhe.ops import Ciphertext, decrypt, encrypt_symmetric
from ..fhe.ops import encrypt  # perfbench --trace wraps it; ROADMAP item 1
from ..fhe.params import EncryptionParams
from ..model import HybridModel, flatten_weights, unflatten_weights
from .quantize import QuantizationSpec, quantize

# A sample adds at most clip_range * scale to a coefficient of the
# aggregate, plus its error e, a rounded Gaussian of deviation 3.2 that
# stays far below this margin
NOISE_MARGIN = 1 << 10
# 40 deviations of that error: a sample's share of the bound below which
# the aggregate's summed error must stay for decryption to be exact
# (docs/protocol.md, "Level-0 capacity and exact decryption")
NOISE_TAIL = 1 << 7


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


def chunk_count_for(param_count: int, ring_degree: int) -> int:
    return -(-param_count // ring_degree)


def sample_capacity(params: EncryptionParams, spec: QuantizationSpec) -> int:
    """The largest sample total n_total whose level-0 aggregate decrypts
    exactly. Every coefficient of sum_k n_k * (m_k + e_k) must stay below
    half the base prime, n_total * (clip_range * scale + NOISE_MARGIN) <
    q0 / 2, and the summed error below half a quantization step of the
    scale, n_total * NOISE_TAIL < scale / 2^(fractional_bits + 1), so
    that rounding removes it. 65,535 at the defaults; 0 when one sample
    cannot be held or rounded back."""
    per_sample = math.ceil(spec.clip_range * params.scale) + NOISE_MARGIN
    rounds_back = params.scale / 2.0 ** (spec.fractional_bits + 1)
    return min(params.modulus_chain[0] // 2 // per_sample,
               math.ceil(rounds_back / NOISE_TAIL) - 1)


def check_sample_capacity(total: int, params: EncryptionParams,
                          spec: QuantizationSpec) -> None:
    """ConfigError unless `total` samples fit `sample_capacity`."""
    capacity = sample_capacity(params, spec)
    if total > capacity:
        raise ConfigError(
            f"{total} samples across the clients exceed the {capacity} "
            "that a level-0 encrypted sum holds exactly: n_total * "
            "(clip_range * scale + 2^10) must stay below q0 / 2, and "
            "n_total * 2^7 below scale / 2^(fractional_bits + 1)")


def encrypt_model(model: HybridModel, spec: QuantizationSpec,
                  keys: KeyMaterial, client_id: int, sample_count: int,
                  round_index: int, rng_seed: int = 0) -> ClientUpdate:
    """Flatten -> quantize -> zero-pad to n chunks of ring_degree values
    -> pack into coefficients, exact integers x * scale on the 2^-f grid,
    and encrypt as one seeded level-0 batch under the secret key, chunk i
    under derive_seed(rng_seed, i)."""
    params = keys.params
    weights = quantize(flatten_weights(model), spec)
    n = chunk_count_for(weights.size, params.ring_degree)
    pt = encode_coeffs(np.pad(weights, (0, n * params.ring_degree
                                        - weights.size))
                       .reshape(n, params.ring_degree), params, level=0)
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
                     template: HybridModel,
                     spec: QuantizationSpec = QuantizationSpec()
                     ) -> HybridModel:
    """Decrypt the aggregated batch and load it into a model with the
    template's architecture; the batch must have exactly the chunks the
    template's parameters fill, at scale * n_total for a sample total
    within `sample_capacity`.

    Each coefficient holds sum_k n_k * (x_k * scale + e_k). Dividing by
    scale / 2^f with rounding drops the error and leaves the exact
    integer sum_k n_k * x_k * 2^f, which one division by n_total * 2^f
    turns into the weighted mean, bitwise as aggregate_plain computes it.
    """
    params = keys.params
    n = params.ring_degree
    need = template.param_count
    want = chunk_count_for(need, n)
    if len(agg) != want:
        raise ShapeError(f"{len(agg)} chunks of {n} coefficients for {need} "
                         f"parameters, which fill {want}")
    total = agg.scale / params.scale
    capacity = sample_capacity(params, spec)
    if not (total.is_integer() and 1 <= total <= capacity):
        raise DomainError(f"aggregate scale {agg.scale} is not the scale "
                          f"times a sample total from 1 to {capacity}")
    step = int(params.scale) >> spec.fractional_bits
    coeffs = decode_coeffs(decrypt(agg, keys), n).ravel()[:need]
    sums = (coeffs + step // 2) // step
    return unflatten_weights(template,
                             sums / (total * 2.0 ** spec.fractional_bits))
