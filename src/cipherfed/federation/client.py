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
from ..fhe.ops import SeededBatch, decrypt_coeffs, encrypt_symmetric
# perfbench --trace wraps these two; ROADMAP item 1
from ..fhe.ops import decrypt, encrypt
from ..fhe.params import EncryptionParams
from ..model import HybridModel, flatten_weights, unflatten_weights
from .quantize import QuantizationSpec, quantize

# what the noise half of `level0_bound` charges for each upload's error,
# at most ops.ERROR_CLIP = 19 in magnitude
NOISE_TAIL = 1 << 7
# up to this many clients, each upload drops the same low bits, so that
# a client writes its upload without the run's client count
SUM_CLIENTS = 15


def derive_seed(*parts: int) -> int:
    """Stable 63-bit seed from a tuple of integers (round, client, tag)."""
    h = hashlib.sha256(struct.pack(f"<{len(parts)}q", *parts)).digest()
    return int.from_bytes(h[:8], "little") >> 1


@dataclass(frozen=True)
class ClientUpdate:
    """One client's seeded upload of param_count quantized weights,
    as encrypt_model builds it, and the sample count."""
    client_id: int
    chunks: SeededBatch
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
                 ) -> tuple[int, int]:
    """The two halves of the bound within which a level-0 sum of K
    client-weighted uploads holding n_total samples decrypts exactly
    (docs/protocol.md, "Level-0 capacity and exact decryption"), as
    limits (L, C). Noise: with each upload's c0 rounded by u low bits
    and the sum's by d, K * (NOISE_TAIL + 2^(u-1)) + 2^(d-1) < L = scale
    / 2^(f+1), half the step that decrypt_and_load rounds by. Q: every
    coefficient, n_total * ceil(clip_range * scale) plus that noise,
    stays below Q / 2 = 2^(k-1) while n_total * ceil(clip_range * scale)
    <= C = 2^(k-1) - 1 - L."""
    noise = int(params.scale) >> (spec.fractional_bits + 1)
    return noise, (1 << (params.seeded_bits - 1)) - 1 - noise


def _noise(clients: int, upload: int, dropped: int) -> int:
    """The noise half's sum for K uploads rounded by u bits and a sum
    rounded by d, at most 2^(b-1) for b bits rounded away."""
    return clients * (NOISE_TAIL + ((1 << upload) >> 1)) + ((1 << dropped)
                                                            >> 1)


def _bits(room: int) -> int:
    """The most low bits b whose rounding, at most 2^(b-1), adds no
    more than `room`; 0 when room < 0."""
    return max(room, 0).bit_length()


def client_capacity(params: EncryptionParams, spec: QuantizationSpec) -> int:
    """The most clients K whose unrounded uploads sum within the noise
    half of `level0_bound`: 65,535 at the defaults, 511 at f = 23."""
    return max(0, (level0_bound(params, spec)[0] - 1) // NOISE_TAIL)


def sample_capacity(params: EncryptionParams, spec: QuantizationSpec) -> int:
    """The largest sample total n_total within the Q half of
    `level0_bound`: 65,535 at the defaults, at f = 23 too; 0 when not
    one client's upload rounds back."""
    if client_capacity(params, spec) < 1:
        return 0
    return max(0, level0_bound(params, spec)[1]
               // math.ceil(spec.clip_range * params.scale))


def upload_bits(params: EncryptionParams, spec: QuantizationSpec,
                clients: int = 1) -> int:
    """The low bits u that each of K clients rounds away from its
    upload's c0 (`CKU5`): the most that SUM_CLIENTS uploads can drop and
    leave a sum every bit that decryption's rounding leaves, so that
    every K <= SUM_CLIENTS drops the same u, and fewer once K uploads
    would break the noise half of `level0_bound` with d = 0. 19 at the
    defaults and 12 at f = 23 for K <= 15, 18 at K = 40; 0 past
    `client_capacity`."""
    limit, _ = level0_bound(params, spec)
    top = _noise(0, 0, _bits(limit - 1))
    shared = _bits((limit - 1 - top - _noise(SUM_CLIENTS, 0, 0))
                   // SUM_CLIENTS)
    return min(shared, _bits((limit - 1 - _noise(clients, 0, 0)) // clients))


def dropped_bits(params: EncryptionParams, spec: QuantizationSpec,
                 clients: int) -> int:
    """The low bits d that a GLOBAL of K clients rounds away from each
    coefficient of its c0 (`CKA5`): the largest d for which the noise
    half of `level0_bound` holds with K uploads at `upload_bits`. 23 at
    the defaults for K <= 15, 22 from K = 16; 0 past
    `client_capacity`."""
    limit, _ = level0_bound(params, spec)
    return _bits(limit - 1 - _noise(clients, upload_bits(params, spec,
                                                         clients), 0))


def global_bits(params: EncryptionParams, spec: QuantizationSpec,
                counts) -> tuple[int, int]:
    """The bits d to b of c0 that a GLOBAL of clients holding `counts`
    samples keeps (`CKA5`): `dropped_bits`, and the smallest b with
    n_total * ceil(clip_range * scale) + L < 2^(b-1), L the noise half
    of `level0_bound`: 53 for 256 to 511 samples at the defaults."""
    noise, _ = level0_bound(params, spec)
    return (dropped_bits(params, spec, len(counts)),
            (sum(counts) * math.ceil(spec.clip_range * params.scale)
             + noise).bit_length() + 1)


def check_capacity(sample_counts, params: EncryptionParams,
                   spec: QuantizationSpec) -> None:
    """ConfigError unless the clients fit `client_capacity` and their
    sample total `sample_capacity`."""
    clients, total = len(sample_counts), sum(sample_counts)
    most = client_capacity(params, spec)
    if clients > most:
        raise ConfigError(
            f"{clients} clients exceed the {most} whose uploads a level-0 "
            "encrypted sum holds exactly: K * 2^7 must stay below scale / "
            "2^(fractional_bits + 1)")
    capacity = sample_capacity(params, spec)
    if total > capacity:
        raise ConfigError(
            f"{total} samples across the clients exceed the {capacity} "
            "that a level-0 encrypted sum holds exactly: n_total * "
            "clip_range * scale + scale / 2^(fractional_bits + 1) must "
            "stay below Q / 2")


def encrypt_model(model: HybridModel, spec: QuantizationSpec,
                  keys: KeyMaterial, client_id: int, sample_count: int,
                  round_index: int, rng_seed: int = 0) -> ClientUpdate:
    """Flatten -> quantize -> zero-pad to n chunks of ring_degree values
    -> pack into coefficients, exact integers x * n_k * scale for the
    client's sample count n_k, and encrypt as one seeded level-0 batch of
    the coefficients that the weights fill, at scale * n_k, under the
    secret key, chunk i under derive_seed(rng_seed, i). The server then
    only adds. The batch records the count and `spec`."""
    params = keys.params
    weights = quantize(flatten_weights(model), spec)
    n = chunk_count_for(weights.size, params.ring_degree)
    pt = encode_coeffs(np.pad(weights, (0, n * params.ring_degree
                                        - weights.size))
                       .reshape(n, params.ring_degree), params, level=0,
                       scale=params.scale * sample_count)
    chunks = replace(encrypt_symmetric(
        pt, keys, [derive_seed(rng_seed, i) for i in range(n)], weights.size),
        counts=(sample_count,), quantization=spec)
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

    Each coefficient holds sum_k (n_k * x_k * scale + e_k), e_k client
    k's error and rounding, plus the GLOBAL's rounding, centred mod 2^b
    for the b of `global_bits` at n_total. Dividing by
    scale / 2^f with rounding drops them and leaves the exact integer
    sum_k n_k * x_k * 2^f, which one division by n_total * 2^f turns
    into the weighted mean, bitwise as aggregate_plain computes it.
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
    half, _ = level0_bound(params, spec)
    _, bits = global_bits(params, spec, (int(total),))
    sums = (decrypt_coeffs(agg, keys, bits) + half) // (2 * half)
    return unflatten_weights(template,
                             sums / (total * 2.0 ** spec.fractional_bits))
