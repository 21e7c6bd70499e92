"""Encrypted FedAvg is exact: each client packs n_k times its update into
coefficients on the 2^-f grid, so the decrypted sum rounds back to the
integer sum_k n_k * x_k * 2^f, and both arms divide that same sum
once."""

import math
import threading
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cipherfed import data as D
from cipherfed import model as M
from cipherfed.errors import ConfigError, DomainError
from cipherfed.federation import runner, server, transport
from cipherfed.federation.client import (NOISE_TAIL, SUM_CLIENTS,
                                         client_capacity, decrypt_and_load,
                                         dropped_bits, encrypt_model,
                                         plain_update, sample_capacity,
                                         global_bits, upload_bits)
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


def message(update, params, bits: int = 16) -> np.ndarray:
    """The coefficients n_k * x * scale that a client's upload of values
    on the 2^-bits grid packs, as exact int64."""
    return (np.round(update.values * 2.0 ** bits).astype(np.int64)
            * update.sample_count * (int(params.scale) >> bits))


def test_clipped_errors_decrypt_exactly_at_capacity(small_params,
                                                    small_keys, monkeypatch):
    """With a deviation so wide that every drawn error clips, each upload
    of n_k times its weights carries e = +-ERROR_CLIP on every
    coefficient, and the capacity's sum of such uploads, weights at the
    ends of the clip range, still decrypts to the plaintext arm's mean
    through the wire's rounded GLOBAL."""
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
                 - message(plain[-1], small_params))
        assert set(np.abs(error).tolist()) == {ops.ERROR_CLIP}
    agg = transport.decode_global(transport.encode_global(
        server.aggregate(enc, small_params)), small_params,
        template.param_count, spec)
    got = flatten_weights(decrypt_and_load(agg, small_keys, template, spec))
    assert np.array_equal(got, server.aggregate_plain(plain))


# three specs at their sample capacities and the benchmark's three
# sample totals (desk, wide, socket), each in 4 clients, or 2 for socket,
# with the low bits u that each upload and d that a GLOBAL drops, and
# the bits b of c0 mod 2^60 that a GLOBAL keeps
ROUNDED = {"defaults-at-capacity": (QuantizationSpec(), 65535, 4, 19, 23,
                                    60),
           "clip4-f15-at-capacity": (QuantizationSpec(15, 4.0), 131071, 4,
                                     20, 24, 60),
           "f23-at-capacity": (QuantizationSpec(23), 65535, 4, 12, 16, 60),
           "desk": (QuantizationSpec(), 1200, 4, 19, 23, 55),
           "wide": (QuantizationSpec(), 322, 4, 19, 23, 53),
           "socket": (QuantizationSpec(), 480, 2, 19, 23, 53)}


def split(total: int, clients: int) -> list[int]:
    """`total` samples over `clients` clients, as evenly as whole
    counts go, the remainder on the last."""
    each = total // clients
    return [each] * (clients - 1) + [total - (clients - 1) * each]


def noise(clients: int, u: int, d: int) -> int:
    """The noise half's sum as docs/protocol.md writes it: K * (2^7 +
    2^(u-1)) + 2^(d-1), a rounding by 0 bits adding nothing."""
    return clients * (NOISE_TAIL + (2 ** (u - 1) if u else 0)) + (
        2 ** (d - 1) if d else 0)


@pytest.mark.parametrize("case", ROUNDED)
def test_dropped_bits_is_the_largest_within_both_bounds(std_params, case):
    """The samples fit the Q half; d is the largest d >= 0 for which
    the noise half holds with the K uploads at u, and u is the largest
    that SUM_CLIENTS uploads can drop and leave a sum d's largest value,
    d + 1 and u + 1 break it; b is the fewest bits whose half holds the
    sum and its noise, b - 1 would not."""
    spec, total, clients, u, d, b = ROUNDED[case]
    assert total <= sample_capacity(std_params, spec)
    assert (upload_bits(std_params, spec, clients),
            dropped_bits(std_params, spec, clients),
            *global_bits(std_params, spec, split(total, clients))) == (
                u, d, d, b)
    step = std_params.scale / 2 ** spec.fractional_bits
    most = (total * math.ceil(spec.clip_range * std_params.scale)
            + Fraction(step) / 2)
    assert most < 2 ** 59 and 2 ** (b - 2) <= most < 2 ** (b - 1)
    assert noise(clients, u, d) < step / 2 <= noise(clients, u, d + 1)
    top = math.ceil(math.log2(step / 2))
    assert (noise(SUM_CLIENTS, u, top) < step / 2
            <= noise(SUM_CLIENTS, u + 1, top))


def test_dropped_bits_edges(std_params):
    """At the defaults every K <= 15 drops u = 19 and d = 23; from 16
    clients d falls, from 32 u falls too, and past the client capacity,
    65,535, both are 0."""
    spec = QuantizationSpec()
    ks = (1, 15, 16, 31, 32, 40, 65535, 65536)
    assert client_capacity(std_params, spec) == 65535
    assert [upload_bits(std_params, spec, k) for k in ks] == [
        19, 19, 19, 19, 18, 18, 0, 0]
    assert [dropped_bits(std_params, spec, k) for k in ks] == [
        23, 23, 22, 18, 22, 22, 7, 0]
    assert upload_bits(std_params, spec) == 19


def closed_forms(params, spec, clients) -> tuple[int, int, int, int]:
    """The client and sample capacities and K clients' u and d, in
    floats and logarithms, as docs/protocol.md states the bound: K *
    (2^7 + 2^(u-1)) + 2^(d-1) < L = scale / 2^(f+1), u the most bits
    that 15 uploads can drop and leave the largest d, or the most K
    uploads can drop at d = 0 if fewer, and n_total * ceil(clip_range *
    scale) + L < Q / 2 = 2^59; u and d are 0 past the client
    capacity."""
    limit = params.scale / 2.0 ** (spec.fractional_bits + 1)
    per = math.ceil(spec.clip_range * params.scale)

    def most(room):
        """The most bits b whose 2^(b-1) stays below room."""
        return math.ceil(math.log2(room)) if room > 1 else 0

    kmax = max(0, math.ceil(limit / NOISE_TAIL) - 1)
    samples = 0
    if kmax:
        samples = max(0, math.ceil((Fraction(2 ** params.seeded_bits, 2)
                                    - Fraction(limit)) / per) - 1)
    if clients > kmax:
        return kmax, samples, 0, 0
    top = most(limit)
    shared = most((limit - 2.0 ** (top - 1) * (top > 0)) / SUM_CLIENTS
                  - NOISE_TAIL)
    u = min(shared, most(limit / clients - NOISE_TAIL))
    return kmax, samples, u, most(limit - noise(clients, u, 0))


@pytest.mark.parametrize("scale_bits", [20, 40])
@pytest.mark.parametrize("clip", [0.5, 8.0, 1000.0])
@pytest.mark.parametrize("bits", [1, 16, 23, 40, 41])
def test_bound_matches_its_closed_forms(scale_bits, clip, bits):
    """`client_capacity`, `sample_capacity`, `upload_bits` and
    `dropped_bits`, which read one integer bound, agree with the closed
    forms in K and u at one client, at 15 and 16, where the uploads' u
    stops being shared, at the client capacity and one past it, also
    where f exceeds the scale's bits and no client rounds back."""
    params = default_params(ring_degree=1024, scale_bits=scale_bits)
    spec = QuantizationSpec(fractional_bits=bits, clip_range=clip)
    kmax = client_capacity(params, spec)
    for k in (1, SUM_CLIENTS, SUM_CLIENTS + 1, kmax, kmax + 1):
        if k < 1:
            continue
        assert (kmax, sample_capacity(params, spec), upload_bits(
            params, spec, k), dropped_bits(params, spec, k)) == closed_forms(
                params, spec, k)


# the bound's edges, each with the u and d that its K clients drop
EDGES = {"defaults-15-clients": (QuantizationSpec(), 15, 19, 23),
         "defaults-16-clients": (QuantizationSpec(), 16, 19, 22),
         "defaults-40-clients": (QuantizationSpec(), 40, 18, 22),
         "f23": (QuantizationSpec(23), 3, 12, 16)}


@pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
@pytest.mark.parametrize("case", EDGES)
def test_every_error_at_its_edge_decrypts_exactly(small_keys, monkeypatch,
                                                  case, sign):
    """Every upload's error at +-ERROR_CLIP, every upload's rounding by
    u bits at its half step 2^(u-1), and the GLOBAL's by d bits at
    2^(d-1), all with one sign in each coefficient, alternating along
    the coefficients: K such uploads, weights at the ends of the clip
    range, still decrypt to the plaintext arm's mean bit for bit, and
    so do the same uploads through the wire, rounded as it rounds
    them."""
    from cipherfed.fhe import decrypt_coeffs, ops
    monkeypatch.setattr(ops, "GAUSSIAN_STDDEV", 1e12)
    spec, clients, u, d = EDGES[case]
    params = small_keys.params
    assert (upload_bits(params, spec, clients),
            dropped_bits(params, spec, clients)) == (u, d)
    template = M.init_model(2, PqcArchitecture(qubit_count=2, depth=1), 2,
                            rng_seed=1)
    count = template.param_count
    sigma = sign * np.where(np.arange(count) % 2, 1, -1)
    edges = spec.clip_range * np.where(np.arange(count) % 3, 1.0, -1.0)

    def shifted(c0, by):
        """c0 + by mod 2^60, for a signed int64 `by`."""
        return (c0 + by.view(np.uint64)) & np.uint64((1 << 60) - 1)

    worst, wire, plain = [], [], []
    for k in range(clients):
        n_k = k % 3 + 1
        m = M.unflatten_weights(template, edges * (-1) ** k)
        upd = encrypt_model(m, spec, small_keys, client_id=k,
                            sample_count=n_k, round_index=0, rng_seed=k)
        plain.append(plain_update(m, spec, k, n_k, 0))
        error = (decrypt_coeffs(upd.chunks, small_keys)
                 - message(plain[-1], params, spec.fractional_bits))
        assert set(np.abs(error).tolist()) == {ops.ERROR_CLIP}
        edge = sigma * (ops.ERROR_CLIP + (1 << u >> 1)) - error
        worst.append(replace(upd, chunks=replace(
            upd.chunks, c0=shifted(upd.chunks.c0, edge.astype(np.int64)))))
        wire.append(transport.decode_update(
            transport.encode_update(upd, clients), 0, params, k, n_k, count,
            spec, clients))
    want = server.aggregate_plain(plain)
    agg = server.aggregate(worst, small_keys.public)
    agg = replace(agg, c0=shifted(agg.c0, sigma * (1 << d >> 1)))
    exact = sum(message(p, params, spec.fractional_bits) for p in plain)
    assert np.array_equal(decrypt_coeffs(agg, small_keys) - exact, sigma * (
        clients * (ops.ERROR_CLIP + (1 << u >> 1)) + (1 << d >> 1)))
    got = flatten_weights(decrypt_and_load(agg, small_keys, template, spec))
    assert np.array_equal(got, want)
    blob = transport.encode_global(server.aggregate(wire, params))
    _, b = global_bits(params, spec, [k % 3 + 1 for k in range(clients)])
    at = -16 - -(-count * (b - d) // 8) - 2
    assert blob[at:at + 2] == bytes([d, b - d])
    back = transport.decode_global(blob, params, count, spec)
    got = flatten_weights(decrypt_and_load(back, small_keys, template, spec))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("case", ROUNDED)
def test_serialized_global_decrypts_as_the_aggregate(small_params,
                                                     small_keys, case):
    """A GLOBAL written and read back, its c0 rounded by d bits and cut
    to the b that its sample total needs, loads the in-memory
    aggregate's weights bit for bit, and the plaintext arm's, with every
    weight at +-clip_range, one sign per coefficient for all clients, so
    that each sum reaches n_total * clip_range, the edge that b
    holds."""
    spec, total, clients, _, d, b = ROUNDED[case]
    counts = split(total, clients)
    template = M.init_model(2, PqcArchitecture(qubit_count=2, depth=1), 2,
                            rng_seed=1)
    rng = np.random.default_rng(total)
    signs = rng.choice([-1.0, 1.0], template.param_count)
    signs[:2] = 1.0, -1.0
    enc, plain = [], []
    for k, n_k in enumerate(counts):
        m = M.unflatten_weights(template, spec.clip_range * signs)
        enc.append(encrypt_model(m, spec, small_keys, client_id=k,
                                 sample_count=n_k, round_index=0,
                                 rng_seed=k))
        plain.append(plain_update(m, spec, k, n_k, 0))
    agg = server.aggregate(enc, small_keys.public)
    blob = transport.encode_global(agg)
    back = transport.decode_global(blob, small_params, template.param_count,
                                   quantization=spec)
    at = -16 - -(-template.param_count * (b - d) // 8) - 2
    assert blob[at:at + 2] == bytes([d, b - d])
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
    """With more fractional bits, fewer clients' errors fit under half a
    quantization step: a run of one client more than that bound holds
    fails before any client trains, on both transports, whatever its
    sample total."""
    spec = QuantizationSpec(fractional_bits=bits)
    assert client_capacity(small_params, spec) == capacity
    init, cfg, parts, test = world("desk")
    blank = D.Dataset(np.zeros((1, 2)), np.zeros(1, dtype=np.int64), 3)
    parts = [blank] * (capacity + 1)
    cfg = replace(cfg, quantization=spec, client_count=capacity + 1,
                  sample_counts=(1,) * (capacity + 1))
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
    a = ntt_forward(seeded_c1(seeds, len(seeds), params))
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
    """The P coefficients that a client decrypts from the sum of
    truncated client-weighted uploads, each packing n_k times its values
    at the scale times n_k, are the integers that the sum of the same
    full-ring uploads decrypts to in its first P coefficients, bit for
    bit."""
    from cipherfed.federation.client import ClientUpdate
    from cipherfed.fhe import (Ciphertext, decode_coeffs, decrypt,
                               decrypt_coeffs, encode_coeffs,
                               encrypt_symmetric)
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
        pt = encode_coeffs(values.reshape(chunks, n), params, level=0,
                           scale=params.scale * n_k)
        ints = [int(s) for s in rng.integers(0, 2 ** 62, chunks)]
        updates.append(ClientUpdate(k, replace(encrypt_symmetric(
            pt, std_keys, ints, count), counts=(n_k,)), n_k, 0, count))
        term = full_ring_upload(pt, std_keys, ints)
        full = term if full is None else Ciphertext(
            full.c0.add(term.c0), full.c1.add(term.c1),
            full.scale + term.scale, 0)
    got = decrypt_coeffs(server.aggregate(updates, std_keys.public), std_keys)
    want = decode_coeffs(decrypt(full, std_keys), n).ravel()[:count]
    assert got.dtype == want.dtype and np.array_equal(got, want)
