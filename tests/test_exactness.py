"""Encrypted FedAvg is exact: uploads are packed into coefficients on the
2^-f grid, so the decrypted aggregate rounds back to the integer
sum_k n_k * x_k * 2^f, and both arms divide that same sum once."""

import math
import threading
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from cipherfed import data as D
from cipherfed import model as M
from cipherfed.errors import ConfigError, DomainError
from cipherfed.federation import runner, server, transport
from cipherfed.federation.client import (NOISE_MARGIN, NOISE_TAIL,
                                         decrypt_and_load, dropped_bits,
                                         encrypt_model, plain_update,
                                         sample_capacity)
from cipherfed.federation.quantize import QuantizationSpec
from cipherfed.federation.rounds import (RoundConfig, federated_rounds,
                                         run_federated_training)
from cipherfed.federation.runner import run_socket_federation
from cipherfed.fhe import default_params, keygen
from cipherfed.model import flatten_weights
from cipherfed.qsim import PqcArchitecture

# the benchmark's three workloads: (samples, dims, clients, epochs); dims
# past 2 are zero columns
WORKLOADS = {"desk": (1500, 2, 4, 3), "wide": (400, 4096, 4, 3),
             "socket": (600, 1024, 2, 2)}
ROUNDS = 2


def widen(ds, dims: int):
    extra = dims - ds.features.shape[1]
    return replace(ds, features=np.hstack(
        [ds.features, np.zeros((len(ds), extra))])) if extra else ds


def world(name: str):
    samples, dims, clients, epochs = WORKLOADS[name]
    train, test = D.generate_synthetic("blobs", samples, 0.5, seed=42,
                                       classes=3)
    parts = [widen(p, dims) for p in D.partition(
        train, D.PartitionSpec(client_count=clients, rng_seed=7))]
    init = M.init_model(dims, PqcArchitecture(qubit_count=3, depth=2), 3,
                        rng_seed=100)
    cfg = RoundConfig.for_datasets(parts, rounds=ROUNDS, learning_rate=0.15,
                                   batch_size=32, epochs_per_round=epochs,
                                   base_seed=9, deterministic_timing=True)
    return init, cfg, parts, widen(test, dims)


def socket_global_weights(monkeypatch, *args, mode):
    """Every round's global weights as the socket clients load them; all
    clients must load the same ones."""
    loaded = defaultdict(list)
    for name in ("decrypt_and_load", "unflatten_weights"):
        def load(*a, _fn=getattr(runner, name), **kw):
            m = _fn(*a, **kw)
            loaded[threading.get_ident()].append(flatten_weights(m))
            return m
        monkeypatch.setattr(runner, name, load)
    run_socket_federation(*args, mode=mode)
    monkeypatch.undo()
    first, *others = loaded.values()
    for other in others:
        assert all(np.array_equal(a, b) for a, b in zip(first, other))
    return first


@pytest.mark.parametrize("transport", ["direct", "socket"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_arms_bitwise_equal_every_round(std_keys, monkeypatch, name,
                                        transport):
    args = (*world(name), std_keys)
    weights = {}
    for mode in ("fhe", "plaintext"):
        if transport == "direct":
            weights[mode] = [flatten_weights(m) for m, _rows in
                             federated_rounds(*args, mode=mode)]
        else:
            weights[mode] = socket_global_weights(monkeypatch, *args,
                                                  mode=mode)
    assert len(weights["fhe"]) == len(weights["plaintext"]) == ROUNDS
    for got, want in zip(weights["fhe"], weights["plaintext"]):
        assert np.array_equal(got, want)


def test_decryption_exact_at_capacity(small_params, small_keys):
    """8 mixed sample counts that fill the capacity, weights spread over
    the whole clip range and over 2 chunks: the decrypted mean is the
    plaintext arm's, bit for bit."""
    spec = QuantizationSpec()
    counts = [1, 2, 999, 4096, 7000, 12345, 16384, 24708]
    assert sum(counts) == sample_capacity(small_params, spec) == 65535
    template = M.init_model(600, PqcArchitecture(qubit_count=3, depth=2), 3,
                            rng_seed=1)
    assert template.param_count > small_params.ring_degree
    rng = np.random.default_rng(65535)
    enc, plain = [], []
    for k, n_k in enumerate(counts):
        m = M.unflatten_weights(template, rng.uniform(
            -spec.clip_range, spec.clip_range, template.param_count))
        enc.append(encrypt_model(m, spec, small_keys, client_id=k,
                                 sample_count=n_k, round_index=0,
                                 rng_seed=k))
        plain.append(plain_update(m, spec, k, n_k, 0))
    agg = server.aggregate(enc, small_keys.public)
    got = flatten_weights(decrypt_and_load(agg, small_keys, template, spec))
    want = server.aggregate_plain(plain)
    assert np.array_equal(got, want)
    # the integer sum, divided once, by hand
    sums = sum(n_k * np.round(u.values * 2.0 ** 16).astype(np.int64)
               for n_k, u in zip(counts, plain))
    assert np.array_equal(got, sums / (65535 * 2.0 ** 16))


def test_clipped_errors_decrypt_exactly_at_capacity(small_params,
                                                    small_keys, monkeypatch):
    """With a deviation so wide that every drawn error clips, each upload
    carries e = +-ERROR_CLIP on every coefficient, and the capacity's
    sum of such uploads, weights at the ends of the clip range, still
    decrypts to the plaintext arm's mean through the wire's rounded
    GLOBAL."""
    from cipherfed.fhe import decrypt_coeffs, ops
    monkeypatch.setattr(ops, "GAUSSIAN_STDDEV", 1e12)
    spec = QuantizationSpec()
    counts = [1, 2, 999, 4096, 7000, 12345, 16384, 24708]
    assert sum(counts) == sample_capacity(small_params, spec)
    template = M.init_model(600, PqcArchitecture(qubit_count=3, depth=2), 3,
                            rng_seed=1)
    edges = spec.clip_range * np.where(
        np.arange(template.param_count) % 3, 1.0, -1.0)
    enc, plain = [], []
    for k, n_k in enumerate(counts):
        m = M.unflatten_weights(template, edges * (-1) ** k)
        enc.append(encrypt_model(m, spec, small_keys, client_id=k,
                                 sample_count=n_k, round_index=0,
                                 rng_seed=k))
        plain.append(plain_update(m, spec, k, n_k, 0))
        error = (decrypt_coeffs(enc[-1].chunks, small_keys)
                 - np.round(plain[-1].values * small_params.scale))
        assert set(np.abs(error).tolist()) == {ops.ERROR_CLIP}
    agg = transport.decode_global(transport.encode_global(
        server.aggregate(enc, small_params)), small_params,
        template.param_count, spec)
    got = flatten_weights(decrypt_and_load(agg, small_keys, template, spec))
    assert np.array_equal(got, server.aggregate_plain(plain))


# the three specs at their capacities and the benchmark's three sample
# totals (desk, wide, socket), each with the low bits a GLOBAL drops
ROUNDED = {"defaults-at-capacity": (QuantizationSpec(), 65535, 7),
           "clip4-f15-at-capacity": (QuantizationSpec(15, 4.0), 131071, 7),
           "f23-at-capacity": (QuantizationSpec(23), 511, 7),
           "desk": (QuantizationSpec(), 1200, 23),
           "wide": (QuantizationSpec(), 322, 23),
           "socket": (QuantizationSpec(), 480, 23)}


@pytest.mark.parametrize("case", ROUNDED)
def test_dropped_bits_is_the_largest_within_both_bounds(std_params, case):
    """d is the largest d >= 0 for which both halves of the capacity
    bound hold with 2^(d-1) added once: d + 1 breaks one of them."""
    spec, total, want = ROUNDED[case]
    assert total <= sample_capacity(std_params, spec)
    d = dropped_bits(std_params, spec, total)
    assert d == want

    def fits(bits):
        half = 2 ** (bits - 1)
        step = std_params.scale / 2 ** spec.fractional_bits
        q0 = std_params.modulus_chain[0]
        per = math.ceil(spec.clip_range * std_params.scale) + NOISE_MARGIN
        return (total * NOISE_TAIL + half < step / 2
                and total * per + half < q0 / 2)
    assert fits(d) and not fits(d + 1)


def test_dropped_bits_edges(std_params):
    """23 bits up to 32,767 samples at the defaults, 22 from 32,768, and
    0 past the capacity."""
    spec = QuantizationSpec()
    assert [dropped_bits(std_params, spec, n) for n in
            (1, 32767, 32768, 65535, 65536)] == [23, 23, 22, 7, 0]


def closed_forms(params, spec, n_total) -> tuple[int, int]:
    """The capacity and d as two separate closed forms wrote them, the
    capacity in floats and d in integers, before `level0_bound` owned
    both halves of the bound."""
    per = math.ceil(spec.clip_range * params.scale) + NOISE_MARGIN
    rounds_back = params.scale / 2.0 ** (spec.fractional_bits + 1)
    q0 = params.modulus_chain[0]
    capacity = min(q0 // 2 // per, math.ceil(rounds_back / NOISE_TAIL) - 1)
    step = int(params.scale) >> spec.fractional_bits
    room = min(step - 2 * n_total * NOISE_TAIL, q0 - 2 * n_total * per)
    return capacity, max(room - 1, 1).bit_length() - 1


@pytest.mark.parametrize("scale_bits", [20, 40])
@pytest.mark.parametrize("clip", [0.5, 8.0, 1000.0])
@pytest.mark.parametrize("bits", [1, 16, 23, 40, 41])
def test_bound_matches_its_closed_forms(scale_bits, clip, bits):
    """`sample_capacity` and `dropped_bits`, which read one integer
    bound, agree with the closed forms at no samples, one, the capacity
    and one past it, also where f exceeds the scale's bits and no sample
    rounds back."""
    params = default_params(ring_degree=1024, scale_bits=scale_bits)
    spec = QuantizationSpec(fractional_bits=bits, clip_range=clip)
    capacity = sample_capacity(params, spec)
    for n in (0, 1, capacity, capacity + 1):
        assert (capacity, dropped_bits(params, spec, n)) == closed_forms(
            params, spec, n)


@pytest.mark.parametrize("case", ROUNDED)
def test_serialized_global_decrypts_as_the_aggregate(small_params,
                                                     small_keys, case):
    """A GLOBAL written and read back, its c0 rounded by d bits, loads
    the in-memory aggregate's weights bit for bit, and the plaintext
    arm's, with weights spread over the whole clip range, its ends
    included."""
    spec, total, d = ROUNDED[case]
    counts = [total // 4] * 3 + [total - 3 * (total // 4)]
    template = M.init_model(2, PqcArchitecture(qubit_count=2, depth=1), 2,
                            rng_seed=1)
    rng = np.random.default_rng(total)
    enc, plain = [], []
    for k, n_k in enumerate(counts):
        w = rng.uniform(-spec.clip_range, spec.clip_range,
                        template.param_count)
        w[:2] = spec.clip_range, -spec.clip_range
        m = M.unflatten_weights(template, w)
        enc.append(encrypt_model(m, spec, small_keys, client_id=k,
                                 sample_count=n_k, round_index=0,
                                 rng_seed=k))
        plain.append(plain_update(m, spec, k, n_k, 0))
    agg = server.aggregate(enc, small_keys.public)
    blob = transport.encode_global(agg)
    back = transport.decode_global(blob, small_params, template.param_count,
                                   quantization=spec)
    assert blob[-16 - -(-template.param_count * (61 - d) // 8) - 2] == d
    assert not np.array_equal(back.c0, agg.c0)
    want = flatten_weights(decrypt_and_load(agg, small_keys, template, spec))
    got = flatten_weights(decrypt_and_load(back, small_keys, template, spec))
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got, server.aggregate_plain(plain))


def test_decrypt_rejects_scale_beyond_capacity(small_params, small_keys):
    m = M.init_model(2, PqcArchitecture(qubit_count=2, depth=1), 2,
                     rng_seed=2)
    upd = encrypt_model(m, QuantizationSpec(), small_keys, client_id=0,
                        sample_count=3, round_index=0)
    for scale in (small_params.scale * 1.5, small_params.scale * 65536):
        with pytest.raises(DomainError, match="total from 1 to 65535"):
            decrypt_and_load(replace(upd.chunks, scale=scale), small_keys,
                             m)


@pytest.mark.parametrize("bits,capacity", [(23, 511), (30, 3), (41, 0)])
def test_inexact_fractional_bits_is_config_error(small_params, bits,
                                                 capacity):
    """With more fractional bits, a smaller sum of errors fits under half
    a quantization step: a run whose samples that bound cannot hold
    fails before any client trains, on both transports."""
    spec = QuantizationSpec(fractional_bits=bits)
    assert sample_capacity(small_params, spec) == capacity
    init, cfg, parts, test = world("desk")
    cfg = replace(cfg, quantization=spec)
    keys = keygen(small_params, rng_seed=3)
    for run in (run_federated_training, run_socket_federation):
        with pytest.raises(ConfigError, match="holds exactly"):
            run(init, cfg, parts, test, keys, mode="fhe")


def full_ring_upload(pt, keys, ints):
    """The full-ring seeded upload that `CKV7` carried, rebuilt from the
    CKKS primitives: c1 = NTT(a), a expanded from each chunk's seed, and
    c0 = NTT(m + e) - c1*s over all N coefficients, with the seeds and
    the error drawn as encrypt_symmetric draws them."""
    import hashlib

    from cipherfed.fhe import Ciphertext
    from cipherfed.fhe.ops import ERROR_CLIP, _SEED_TAG, seeded_c1
    from cipherfed.fhe.poly import (GAUSSIAN_STDDEV, from_signed_coeffs,
                                    ntt_forward)
    params = keys.params
    seeds = [hashlib.sha256(_SEED_TAG + s.to_bytes(8, "little")).digest()
             for s in ints]
    a = ntt_forward(seeded_c1(seeds, (1,), params))
    e = np.clip(np.round([np.random.default_rng(np.random.SeedSequence(
        [s, 0x5EC])).normal(0.0, GAUSSIAN_STDDEV, params.ring_degree)
        for s in ints]), -ERROR_CLIP, ERROR_CLIP).astype(np.int64)
    c0 = a.mul_fixed(keys.secret_key).neg().add(ntt_forward(pt.poly.add(
        from_signed_coeffs(e, params, (0,)))))
    return Ciphertext(c0, a, pt.scale, 0)


@pytest.mark.parametrize("clients", [1, 2, 4])
@pytest.mark.parametrize("count", [1, 27, 4095, 4096, 4097, 3093, 12309])
def test_truncated_sum_decrypts_to_the_full_ring_integers(std_keys, count,
                                                          clients):
    """The P coefficients that a client decrypts from the weighted sum of
    truncated uploads are the integers that the full-ring uploads'
    weighted sum (mul_plain and add_ct by each sample count) decrypts
    to in its first P coefficients, bit for bit."""
    from cipherfed.federation.client import ClientUpdate
    from cipherfed.fhe import (add_ct, decode_coeffs, decrypt,
                               decrypt_coeffs, encode_coeffs, encode_scalar,
                               encrypt_symmetric, mul_plain)
    params = std_keys.params
    n = params.ring_degree
    chunks = -(-count // n)
    rng = np.random.default_rng(count * 10 + clients)
    weights = rng.integers(1, 1000, clients).tolist()
    updates, full = [], None
    for k, n_k in enumerate(weights):
        values = np.zeros(chunks * n)
        values[:count] = np.round(rng.uniform(-4, 4, count) * 2.0 ** 16)
        values /= 2.0 ** 16
        pt = encode_coeffs(values.reshape(chunks, n), params, level=0)
        ints = [int(s) for s in rng.integers(0, 2 ** 62, chunks)]
        updates.append(ClientUpdate(k, encrypt_symmetric(pt, std_keys, ints,
                                                         count),
                                    n_k, 0, count))
        term = mul_plain(full_ring_upload(pt, std_keys, ints), encode_scalar(
            n_k, params, level=0, scale=1.0))
        full = term if full is None else add_ct(full, term)
    got = decrypt_coeffs(server.aggregate(updates, std_keys.public), std_keys)
    want = decode_coeffs(decrypt(full, std_keys), n).ravel()[:count]
    assert got.dtype == want.dtype and np.array_equal(got, want)
