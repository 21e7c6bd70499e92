"""Client-side federation steps: local training, quantize-and-encrypt,
and decryption of the aggregated global model."""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError, DomainError, ShapeError
from ..fhe.encoding import encode_coeffs
from ..fhe.encoding import decode, encode  # perfbench wraps; ROADMAP item 1
from ..fhe.keys import KeyMaterial
from ..fhe.ops import (Ciphertext, SeededBatch, decrypt_coeffs,
                       encrypt_symmetric)
# perfbench --trace wraps these two; ROADMAP item 1
from ..fhe.ops import decrypt, encrypt
from ..fhe.params import EncryptionParams
from ..model import HybridModel, flatten_weights, unflatten_weights
from .quantize import QuantizationSpec, quantize

# what each half of `level0_bound` charges for a sample's error, at most
# ops.ERROR_CLIP = 19 in magnitude: in a coefficient, and in the sum
NOISE_MARGIN = 1 << 10
NOISE_TAIL = 1 << 7


def derive_seed(*parts: int) -> int:
    """Stable 63-bit seed from a tuple of integers (round, client, tag)."""
    h = hashlib.sha256(struct.pack(f"<{len(parts)}q", *parts)).digest()
    return int.from_bytes(h[:8], "little") >> 1


@dataclass(frozen=True)
class ClientUpdate:
    """One ciphertext batch of quantized weights (encrypt_model's is a
    SeededBatch of param_count coefficients), and the sample count."""
    client_id: int
    chunks: SeededBatch | Ciphertext
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


def level0_bound(params: EncryptionParams, spec: QuantizationSpec
                 ) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two halves of the bound within which a level-0 sum of n_total
    samples decrypts exactly, each as (limit, cost) for the rule 2 *
    n_total * cost < limit: the summed error, NOISE_TAIL a sample, below
    half the step scale / 2^fractional_bits that decrypt_and_load rounds
    by, and each coefficient, clip_range * scale + NOISE_MARGIN a
    sample, below half the base prime q0 (docs/protocol.md, "Level-0
    capacity and exact decryption")."""
    return ((int(params.scale) >> spec.fractional_bits, NOISE_TAIL),
            (params.modulus_chain[0],
             math.ceil(spec.clip_range * params.scale) + NOISE_MARGIN))


def sample_capacity(params: EncryptionParams, spec: QuantizationSpec) -> int:
    """The largest sample total n_total within both halves of
    `level0_bound`. 65,535 at the defaults; 0 when one sample cannot be
    held or rounded back."""
    return max(0, min((limit - 1) // (2 * cost)
                      for limit, cost in level0_bound(params, spec)))


def dropped_bits(params: EncryptionParams, spec: QuantizationSpec,
                 n_total: int) -> int:
    """The low bits d that a GLOBAL of n_total samples rounds away from
    each coefficient of its c0 (`CKA3`): the largest d >= 0 for which
    both halves of `level0_bound` hold with the up to 2^(d-1) that the
    server's rounding of the sum adds once, 2 * n_total * cost + 2^d <
    limit. 23 at the defaults for up to 32,767 samples, 7 at capacity,
    and 0 past it."""
    room = min(limit - 2 * n_total * cost
               for limit, cost in level0_bound(params, spec))
    return max(room - 1, 1).bit_length() - 1


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
    and encrypt as one seeded level-0 batch of the coefficients that the
    weights fill, under the secret key, chunk i under
    derive_seed(rng_seed, i). The batch records `spec`."""
    params = keys.params
    weights = quantize(flatten_weights(model), spec)
    n = chunk_count_for(weights.size, params.ring_degree)
    pt = encode_coeffs(np.pad(weights, (0, n * params.ring_degree
                                        - weights.size))
                       .reshape(n, params.ring_degree), params, level=0)
    chunks = replace(encrypt_symmetric(
        pt, keys, [derive_seed(rng_seed, i) for i in range(n)], weights.size),
        quantization=spec)
    return ClientUpdate(client_id=client_id, chunks=chunks,
                        sample_count=sample_count, round_index=round_index,
                        param_count=weights.size)


def plain_update(model: HybridModel, spec: QuantizationSpec, client_id: int,
                 sample_count: int, round_index: int) -> PlainUpdate:
    """Quantized but unencrypted update for the plaintext arm."""
    return PlainUpdate(client_id=client_id,
                       values=quantize(flatten_weights(model), spec),
                       sample_count=sample_count, round_index=round_index)


def decrypt_and_load(agg: SeededBatch, keys: KeyMaterial,
                     template: HybridModel,
                     spec: QuantizationSpec = QuantizationSpec()
                     ) -> HybridModel:
    """Decrypt the aggregated seeded batch and load it into a model with
    the template's architecture; the batch must hold exactly the
    template's parameters, in the chunks they fill, quantized under
    `spec`, at scale * n_total for a sample total within
    `sample_capacity`. A batch of another spec is refused: its rounding
    step, and a GLOBAL's dropped bits, would be another's.

    Each coefficient holds sum_k n_k * (x_k * scale + e_k). Dividing by
    scale / 2^f with rounding drops the error and leaves the exact
    integer sum_k n_k * x_k * 2^f, which one division by n_total * 2^f
    turns into the weighted mean, bitwise as aggregate_plain computes it.
    """
    params = keys.params
    need = template.param_count
    if not isinstance(agg, SeededBatch) or agg.c0.size != need:
        raise ShapeError(f"a model of {need} parameters loads from a "
                         f"seeded batch of {need} coefficients")
    if agg.quantization != spec:
        raise DomainError(f"a batch quantized under {agg.quantization} "
                          f"does not load under {spec}")
    total = agg.scale / params.scale
    capacity = sample_capacity(params, spec)
    if not (total.is_integer() and 1 <= total <= capacity):
        raise DomainError(f"aggregate scale {agg.scale} is not the scale "
                          f"times a sample total from 1 to {capacity}")
    step, _ = level0_bound(params, spec)[0]
    sums = (decrypt_coeffs(agg, keys) + step // 2) // step
    return unflatten_weights(template,
                             sums / (total * 2.0 ** spec.fractional_bits))
