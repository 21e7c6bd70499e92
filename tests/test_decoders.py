"""Hostile-input properties of every decoder.

Each wire payload and file artifact is encoded from a valid object, then
truncated, flipped at one byte, or extended. The decoder must return a
valid object, one that the rest of the system can use without a raw
Python error, or raise a CipherfedError. Binary layouts must be consumed
exactly, so any non-empty append raises. A sealed artifact's trailer is
recomputed after each edit (`resealed`), so that the edit reaches the
check it targets rather than the trailer's.
"""

import hashlib
import json
import struct

import numpy as np
import pytest
from conftest import (channel_pair, coordinator_config, count_expansions,
                      forbid_expansion, patched, resealed, seeded_aggregate)
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherfed import model as M
from cipherfed.errors import (CipherfedError, FormatError, ParameterError,
                              ProtocolError)
from cipherfed.federation import transport as T
from cipherfed.federation.client import (ClientUpdate, PlainUpdate,
                                         encrypt_model, global_bits,
                                         upload_bits)
from cipherfed.federation.metrics import metrics_row
from cipherfed.federation.quantize import QuantizationSpec
from cipherfed.federation.server import FederationCoordinator
from cipherfed.fhe import (Ciphertext, SeededBatch, decode, decrypt,
                           decrypt_coeffs, encode, encode_coeffs, encrypt,
                           encrypt_symmetric, keygen)
from cipherfed.fhe.keys import KeyMaterial, PublicMaterial
from cipherfed.fhe.serial import (deserialize_ciphertext,
                                  deserialize_float_vector,
                                  deserialize_key_material,
                                  deserialize_public_material,
                                  deserialize_seeded, deserialize_seeded_sum,
                                  serialize_ciphertext,
                                  serialize_float_vector,
                                  serialize_public_key, serialize_secret_key,
                                  serialize_seeded, serialize_seeded_sum)
from cipherfed.fhe.serial import SEALED, TRAILER_BYTES
from cipherfed.qsim import PqcArchitecture

class Format:
    """A valid encoding, its decoder, and a check that the decoded
    object is usable."""

    def __init__(self, blob, decode_fn, use):
        self.blob = blob
        self.decode = decode_fn
        self.use = use


@pytest.fixture(scope="module")
def formats(small_params):
    params = small_params
    keys = keygen(params, rng_seed=41)
    ct = encrypt(encode(np.linspace(-1, 1, 8), params), keys, 5)
    batches = {n: encrypt(encode(np.linspace(-1, 1, 8 * n).reshape(n, 8),
                                 params), keys, list(range(n)))
               for n in (2, 7)}
    # P = (n - 1) * N + 27 coefficients: 27 * 41 bits end in 5 pad bits
    seeded = {n: encrypt_symmetric(encode_coeffs(
        np.linspace(-1, 1, 8 * n).reshape(n, 8), params, level=0), keys,
        list(range(n)), tail_count(params, n)) for n in (1, 2, 7)}
    sums = {n: seeded_aggregate(keys, n, counts, tail_count(params, n))
            for n, counts in SUM_COUNTS.items()}
    sec = serialize_secret_key(keys)
    pub = serialize_public_key(keys.public)
    arch = PqcArchitecture(qubit_count=2, depth=2,
                           axes=(("X", "Y"), ("Z", "X")))
    model = M.init_model(3, arch, 2, rng_seed=9)
    fhe_upd = encrypt_model(model, QuantizationSpec(), keys, client_id=1,
                            sample_count=12, round_index=0)
    plain_upd = PlainUpdate(1, np.array([0.5, -1.5, 2.0]), 12, 0)
    row = metrics_row(2, "client_0", train_loss=0.5, train_acc=0.75)

    def use_ct(got):
        assert isinstance(got, Ciphertext)
        decode(decrypt(got, keys), 8)

    def use_seeded(got):
        assert isinstance(got, SeededBatch) and got.level == 0
        decrypt_coeffs(got, keys)

    def use_public(got):
        assert isinstance(got, PublicMaterial)
        decode(decrypt(encrypt(encode([0.25], params), got, 1), keys), 1)

    def use_secret(got):
        assert isinstance(got, KeyMaterial)
        decode(decrypt(ct, got), 8)

    def use_vector(got):
        assert isinstance(got, np.ndarray) and got.dtype == np.float64

    def use_model(got):
        assert isinstance(got, M.HybridModel)
        M.forward(got, np.zeros((2, got.feature_count)))

    def use_update(got):
        if isinstance(got, ClientUpdate):
            use_seeded(got.chunks)
        else:
            use_vector(got.values)

    def use_global(got):
        if isinstance(got, np.ndarray):
            use_vector(got)
        else:
            use_seeded(got)

    def use_metrics(got):
        assert isinstance(got, dict) and set(got) == set(T.METRICS_FIELDS)

    def use_frame(got):
        assert got.mtype in T._VALID_TYPES

    def use_join(got):
        assert type(got) is int

    body = T.encode_frame(T.Message(T.MSG_UPDATE, 4, b"payload"))[4:]
    return {
        "frame-body": Format(body, T.decode_body, use_frame),
        "JOIN": Format(T.encode_join(3), T.decode_join, use_join),
        "UPDATE-fhe": Format(T.encode_update(fhe_upd),
                             lambda b: T.decode_update(b, 0, params, 1, 12,
                                                       model.param_count),
                             use_update),
        "UPDATE-plain": Format(T.encode_update(plain_upd),
                               lambda b: T.decode_update(b, 0, None, 1, 12, 3),
                               use_update),
        "GLOBAL-fhe": Format(T.encode_global(sums[2]),
                             lambda b: T.decode_global(
                                 b, params, tail_count(params, 2)),
                             use_global),
        "GLOBAL-plain": Format(T.encode_global(np.array([1.0, -2.0])),
                               lambda b: T.decode_global(b, None, 2),
                               use_global),
        "METRICS": Format(T.encode_metrics(row),
                          lambda b: T.decode_metrics(b, "client_0"),
                          use_metrics),
        **{f"CKV6-{n}": Format(serialize_ciphertext(c),
                               lambda b: deserialize_ciphertext(b, params),
                               use_ct)
           for n, c in ((1, ct), *batches.items())},
        **{f"CKU5-{n}": Format(serialize_seeded(c, upload_bits(
                                   params, QuantizationSpec())),
                               lambda b, n=n: read_upload(
                                   b, params, tail_count(params, n)),
                               use_seeded)
           for n, c in seeded.items()},
        **{f"CKA5-{n}": Format(T.encode_global(c),
                               lambda b, n=n: read_sum(
                                   b, params, tail_count(params, n)),
                               use_seeded)
           for n, c in sums.items()},
        "CKP3": Format(pub, lambda b: deserialize_public_material(b, params),
                       use_public),
        "CKS3": Format(sec, lambda b: deserialize_key_material(b, pub, params),
                       use_secret),
        "CKF1": Format(serialize_float_vector(np.arange(5.0)),
                       deserialize_float_vector, use_vector),
        "CKM1": Format(M.save_checkpoint(model), M.load_checkpoint,
                       use_model),
    }


# the sample counts of the `CKA5` formats, by chunk count
SUM_COUNTS = {1: (12, 30), 2: (5, 1, 7)}


def read_sum(blob: bytes, params, count: int):
    """deserialize_seeded_sum of `count` coefficients, rounded as the
    default spec's run rounds them."""
    return deserialize_seeded_sum(
        blob, params, count,
        lambda counts: global_bits(params, QuantizationSpec(), counts))


def read_upload(blob: bytes, params, count: int):
    """deserialize_seeded of `count` coefficients of a client of 1
    sample, rounded as the default spec's run rounds its uploads."""
    return deserialize_seeded(blob, params, count, 1,
                              upload_bits(params, QuantizationSpec()))


def tail_count(params, chunks: int) -> int:
    """P for a seeded batch of `chunks` chunks whose last holds 27
    coefficients."""
    return (chunks - 1) * params.ring_degree + 27


NAMES = ["frame-body", "JOIN", "UPDATE-fhe", "UPDATE-plain", "GLOBAL-fhe",
         "GLOBAL-plain", "METRICS", "CKV6-1", "CKV6-2", "CKV6-7", "CKU5-1",
         "CKU5-2", "CKU5-7", "CKA5-1", "CKA5-2", "CKP3", "CKS3", "CKF1",
         "CKM1"]


# the ids the formats' cases have kept across layout changes
_CASE_IDS = {"CKV6": "CKV2", "CKU5": "CKV3", "CKA5": "CKV5", "CKP3": "CKP1",
             "CKS3": "CKS2"}


def case_id(name: str) -> str:
    """The batch and key-file cases keep the ids they had while the
    batches were `CKV2`, `CKV3` and `CKV5` and the keys `CKP1` and
    `CKS2`, so that their results compare across the format changes."""
    return _CASE_IDS.get(name[:4], name[:4]) + name[4:]


@st.composite
def mutations(draw, size: int):
    """A truncation, a one-byte flip, or an append; positions lean on
    the first 64 bytes, where the headers and length fields sit."""
    kind = draw(st.sampled_from(["truncate", "flip", "append"]))
    pos = draw(st.one_of(st.integers(0, min(63, size - 1)),
                         st.integers(0, size - 1)))
    if kind == "truncate":
        return lambda b: b[:pos]
    if kind == "flip":
        xor = draw(st.integers(1, 255))
        return lambda b: b[:pos] + bytes([b[pos] ^ xor]) + b[pos + 1:]
    extra = draw(st.binary(min_size=1, max_size=16))
    return lambda b: b + extra


def decode_and_use(fmt: Format, blob: bytes) -> bool:
    """True if the blob decoded to a usable object, False if it was
    rejected with a CipherfedError; any other error fails the test."""
    try:
        got = fmt.decode(blob)
    except CipherfedError:
        return False
    try:
        fmt.use(got)
    except CipherfedError:
        pass  # a well-formed object that an operation may still refuse
    return True


FUZZ = settings(max_examples=100, deadline=None)


def test_every_valid_encoding_decodes(formats):
    for name in NAMES:
        fmt = formats[name]
        fmt.use(fmt.decode(fmt.blob))


@pytest.mark.parametrize("name", NAMES, ids=case_id)
@FUZZ
@given(data=st.data())
def test_mutated_input_decodes_or_raises(formats, name, data):
    fmt = formats[name]
    mutate = data.draw(mutations(len(unsealed(fmt.blob))))
    decode_and_use(fmt, resealed(fmt.blob, mutate))


@pytest.mark.parametrize("name", [n for n in NAMES if n not in
                                  ("frame-body", "METRICS")], ids=case_id)
@FUZZ
@given(extra=st.binary(min_size=1, max_size=64))
def test_binary_layouts_reject_any_append(formats, name, extra):
    blob = resealed(formats[name].blob, lambda b: b + extra)
    assert not decode_and_use(formats[name], blob)


@FUZZ
@given(extra=st.binary(min_size=1, max_size=64))
def test_frame_body_append_extends_payload(formats, extra):
    got = T.decode_body(formats["frame-body"].blob + extra)
    assert got.payload == b"payload" + extra


@FUZZ
@given(extra=st.text(alphabet=" \t\r\n", min_size=1, max_size=8),
       tail=st.binary(min_size=1, max_size=16).filter(
           lambda b: b.strip(b" \t\r\n") != b""))
def test_metrics_append_is_whitespace_or_rejected(formats, extra, tail):
    blob = formats["METRICS"].blob
    assert T.decode_metrics(blob + extra.encode(),
                            "client_0") == json.loads(blob)
    assert not decode_and_use(formats["METRICS"], blob + extra.encode() + tail)


def unsealed(blob: bytes) -> bytes:
    """The bytes that a sealed artifact's trailer covers."""
    return blob[:-TRAILER_BYTES] if blob[:4] in SEALED else blob


def sealed_cuts(body: bytes):
    """`seal(body[:cut])` for every cut short of the whole body, each
    trailer copied from one running SHA-256, so that sealing them all
    is linear in the body's length."""
    running = hashlib.sha256()
    for cut in range(len(body)):
        yield body[:cut] + running.copy().digest()[:TRAILER_BYTES]
        running.update(body[cut:cut + 1])


def test_unsealed_bit_flip_anywhere_refused(formats, monkeypatch):
    """One bit flipped anywhere in a `CKU5` UPDATE or a `CKA5` GLOBAL,
    trailer included, and the trailer not recomputed, is refused before
    any seed is expanded: nothing is averaged in silently."""
    calls = count_expansions(monkeypatch)
    for name in ("UPDATE-fhe", "CKA5-1"):
        fmt = formats[name]
        for pos in range(len(fmt.blob)):
            blob = bytearray(fmt.blob)
            for bit in range(8):
                blob[pos] ^= 1 << bit
                with pytest.raises(CipherfedError):
                    fmt.decode(bytes(blob))
                blob[pos] ^= 1 << bit
    assert calls == []


# --- the seeded upload, `CKU5` ----------------------------------------------

SEEDED = ["CKU5-1", "CKU5-2", "CKU5-7"]


@pytest.mark.parametrize("name", SEEDED, ids=case_id)
def test_seeded_every_truncation_rejected(formats, name):
    fmt = formats[name]
    for blob in sealed_cuts(unsealed(fmt.blob)):
        assert not decode_and_use(fmt, blob)


@pytest.mark.parametrize("name", SEEDED, ids=case_id)
def test_seeded_trailing_bytes_rejected(formats, name):
    fmt = formats[name]
    for extra in (b"\0", b"\xff" * 8, fmt.blob[-32:]):
        with pytest.raises(FormatError, match="trailing bytes"):
            fmt.decode(resealed(fmt.blob, lambda b: b + extra))


def seeded_chunks(blob: bytes) -> int:
    return struct.unpack_from("<H", blob, 21)[0]


def test_seeded_without_chunks_rejected(formats):
    blob = patched(formats["CKU5-1"].blob, "H", 21, 0)
    with pytest.raises(FormatError, match="no chunks"):
        formats["CKU5-1"].decode(blob)


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_seeded_scale_other_than_delta_rejected(formats, small_params,
                                                monkeypatch, factor):
    """A `CKU5` upload of a client of n samples holds the scale Δ·n, the
    case K = 1 of the rule scale = Δ·Σ n, so for n = 1 a scale of 2Δ or
    Δ/2 is refused before any expansion."""
    blob = patched(formats["CKU5-2"].blob, "d", 13,
                   small_params.scale * factor)
    calls = count_expansions(monkeypatch)
    with pytest.raises(FormatError, match="seeded ciphertext scale .* is "
                                          "not the scale times its 1 samples"):
        formats["CKU5-2"].decode(blob)
    assert calls == []


def test_seeded_wrong_digest_rejected(formats):
    blob = patched(formats["CKU5-2"].blob, "B", 4,
                   formats["CKU5-2"].blob[4] ^ 1)
    with pytest.raises(ParameterError, match="digest mismatch"):
        formats["CKU5-2"].decode(blob)


def test_public_key_batch_in_fhe_update_rejected(formats, small_params):
    """On an fhe run an UPDATE carries `CKU5` only; a `CKV6` batch is a
    malformed payload."""
    with pytest.raises(FormatError, match="expected seeded ciphertext but "
                                          "found ciphertext artifact"):
        formats["UPDATE-fhe"].decode(formats["CKV6-2"].blob)


def test_seeded_header_bit_flips_decode_or_raise(formats):
    """Every one-bit flip of a `CKU5` header and first seed, resealed,
    decodes to a usable batch or raises; one in the magic or the digest
    always raises."""
    fmt = formats["CKU5-1"]
    for pos in range(23 + 32):
        for bit in range(8):
            def flip(b):
                b[pos] ^= 1 << bit
                return b
            decoded = decode_and_use(fmt, resealed(fmt.blob, flip))
            assert not (decoded and pos < 12)


def as_ckv3(update_payload: bytes) -> bytes:
    """The same UPDATE under the magic of the slot-packed `CKV3`
    upload."""
    return b"CKV3" + update_payload[4:]


def coordinator_against(keys, payloads, param_count: int):
    """A one-round fhe coordinator for a model of `param_count`
    parameters and one client per UPDATE payload, each of 12 samples:
    each client JOINs and sends it. Returns the coordinator's error and
    each client's next message."""
    pairs = [channel_pair() for _ in payloads]
    for cid, ((_srv, cli), payload) in enumerate(zip(pairs, payloads)):
        cli.send(T.Message(T.MSG_JOIN, 0, T.encode_join(cid)))
        cli.send(T.Message(T.MSG_UPDATE, 0, payload))
    coordinator = FederationCoordinator(
        coordinator_config([12] * len(payloads)), "fhe", param_count,
        material=keys.public)
    with pytest.raises(CipherfedError) as info:
        coordinator.run([srv for srv, _cli in pairs])
    replies = [cli.recv(timeout=5.0) for _srv, cli in pairs]
    for pair in pairs:
        for ch in pair:
            ch.close()
    return info.value, replies


def client_model(cid: int, dims: int) -> M.HybridModel:
    return M.init_model(dims, PqcArchitecture(qubit_count=2, depth=1), 2,
                        rng_seed=cid)


def client_update(keys, cid: int, dims: int = 3) -> bytes:
    return T.encode_update(encrypt_model(client_model(cid, dims),
                                         QuantizationSpec(), keys,
                                         client_id=cid, sample_count=12,
                                         round_index=0, rng_seed=cid))


@pytest.fixture(scope="module")
def keys(small_params):
    return keygen(small_params, rng_seed=41)


def test_ckv3_update_aborts_every_client(keys, small_params):
    """A client that still uploads slot-packed `CKV3` is refused by its
    magic, and the coordinator aborts every client."""
    old = as_ckv3(client_update(keys, 1))
    count = client_model(1, 3).param_count
    with pytest.raises(FormatError, match=r"found slot-packed seeded "
                                          r"ciphertext \(CKV3"):
        T.decode_update(old, 0, small_params, 1, 12, count)
    error, replies = coordinator_against(keys, [client_update(keys, 0), old],
                                         count)
    assert isinstance(error, FormatError)
    assert "UPDATE from client 1" in str(error)
    assert [m.mtype for m in replies] == [T.MSG_ABORT, T.MSG_ABORT]


def as_cku1(update_payload: bytes) -> bytes:
    """The same UPDATE in the `CKU1` layout, which `CKU4` replaced: that
    magic, and a row count of 1 where `CKU5` holds u = 19, resealed."""
    at = 23 + 32 * seeded_chunks(update_payload)
    assert update_payload[at:at + 2] == bytes([19, 41])
    return resealed(b"CKU1" + update_payload[4:],
                    lambda b: b[:at] + b"\x01" + b[at + 1:])


def test_cku1_update_aborts_every_client(keys, small_params):
    """A client that still uploads the one-row `CKU1` is refused by its
    magic, and the coordinator aborts every client."""
    old = as_cku1(client_update(keys, 1))
    count = client_model(1, 3).param_count
    with pytest.raises(FormatError, match=r"found one-row seeded "
                                          r"ciphertext \(CKU1, no longer "
                                          r"read\) artifact"):
        T.decode_update(old, 0, small_params, 1, 12, count)
    error, replies = coordinator_against(keys, [client_update(keys, 0), old],
                                         count)
    assert isinstance(error, FormatError)
    assert "UPDATE from client 1" in str(error) and "CKU1" in str(error)
    assert [m.mtype for m in replies] == [T.MSG_ABORT, T.MSG_ABORT]


@pytest.mark.parametrize("dims,param_count,too_long",
                         [(3, 1026, False), (1000, 1024, True)],
                         ids=["one-chunk-for-two", "two-chunks-for-one"])
def test_chunk_count_off_ring_degree_aborts_every_client(keys, small_params,
                                                         dims, param_count,
                                                         too_long):
    """The chunk count must be ceil(param_count / ring_degree) for the
    server's param count: one chunk for 1026 parameters, or two for
    1024, is refused while the other client's upload of exactly that
    many parameters passes. Two chunks of 2,010 coefficients are longer
    than any UPDATE of 1,024, so their frame is refused by its length
    before it is read."""
    n = small_params.ring_degree
    bad = client_update(keys, 1, dims)
    chunks = struct.unpack_from("<H", bad, 21)[0]
    assert chunks != -(-param_count // n)
    # 2 * dims + 10 parameters
    good = client_update(keys, 0, (param_count - 10) // 2)
    assert struct.unpack_from("<H", good, 21)[0] == -(-param_count // n)
    error, replies = coordinator_against(keys, [good, bad], param_count)
    bound = T.frame_bound(T.MSG_UPDATE, param_count, small_params, (12, 12))
    assert (3 + len(bad) > bound) == too_long
    if too_long:
        assert isinstance(error, ProtocolError)
        assert (f"frame length {3 + len(bad)} exceeds bound "
                f"{bound}") in str(error)
    else:
        assert isinstance(error, FormatError)
        assert (f"UPDATE from client 1: seeded ciphertext holds {chunks} "
                f"chunks; {param_count} parameters fill "
                f"{-(-param_count // n)}") in str(error)
    assert [m.mtype for m in replies] == [T.MSG_ABORT, T.MSG_ABORT]


def test_update_chunk_count_checked_before_any_expansion(keys, small_params,
                                                         monkeypatch):
    """An UPDATE whose chunk count does not fit the server's param
    count is refused before the server expands any of its seeds."""
    bad = client_update(keys, 1, 600)  # 2 chunks
    calls = count_expansions(monkeypatch)
    with pytest.raises(FormatError, match="seeded ciphertext holds 2 "
                                          "chunks; 3 parameters fill 1"):
        T.decode_update(bad, 0, small_params, 1, 12, 3)
    assert calls == []


# --- the seeded aggregate, `CKA5` --------------------------------------------

SUMS = ["CKA5-1", "CKA5-2"]
AT_K = 23  # the client count, after the `CKV6` header


def sum_layout(blob: bytes) -> tuple[int, int, int]:
    """Chunks, client count, and the offset of the first seed."""
    chunks, k = struct.unpack_from("<HH", blob, 21)
    return chunks, k, AT_K + 2 + 8 * k


def set_last_bit(body: bytes) -> bytes:
    """`body` with the top bit of its last byte set: in a seeded batch of
    27 coefficients per last chunk, its one pad bit."""
    return body[:-1] + bytes([body[-1] | 0x80])


def hostile_sums(blob: bytes) -> dict:
    chunks, k, seeds = sum_layout(blob)
    c0 = seeds + 32 * k * chunks + 2  # past d and the width byte
    dropped, width = blob[c0 - 2], blob[c0 - 1]
    scale = struct.unpack_from("<d", blob, 13)[0]
    total = sum(struct.unpack_from(f"<{k}Q", blob, AT_K + 2))
    # a client of 1 sample, its count and scale right, its seeds not
    one_more = patched(patched(blob, "H", AT_K, k + 1), "d", 13,
                       scale / total * (total + 1))
    # a first count of 2^20, its scale right: b = 65 bits, past Q's 60
    first = struct.unpack_from("<Q", blob, AT_K + 2)[0]
    past_q = patched(patched(blob, "Q", AT_K + 2, 1 << 20), "d", 13,
                     scale / total * (total - first + (1 << 20)))
    return {
        "no clients": patched(blob, "H", AT_K, 0),
        "a count of 0": patched(blob, "Q", AT_K + 2, 0),
        "one seed short": resealed(blob, lambda b: b[:seeds]
                                   + b[seeds + 32:]),
        "one seed more": resealed(blob, lambda b: b[:seeds] + bytes(32)
                                  + b[seeds:]),
        "one client more": resealed(one_more, lambda b: b[:seeds]
                                    + struct.pack("<Q", 1) + b[seeds:]),
        "one chunk more": patched(blob, "H", 21, chunks + 1),
        "pad bit set": resealed(blob, set_last_bit),
        "scale off by one count": patched(blob, "d", 13, scale * 2),
        "a total past Q": past_q,
        "level 1": patched(blob, "B", 12, 1),
        "width of one bit more": patched(blob, "B", c0 - 1, width + 1),
        "width of one bit fewer": patched(blob, "B", c0 - 1, width - 1),
        "d and width of one bit more": patched(blob, "BB", c0 - 2,
                                               dropped + 1, width - 1),
        "d and width of one bit fewer": patched(blob, "BB", c0 - 2,
                                                dropped - 1, width + 1),
        "trailing byte": resealed(blob, lambda b: b + b"\0"),
    }


# each hostile aggregate and what its refusal says
HOSTILE = {"no clients": "names no clients",
           "a count of 0": "sample count of 0",
           "one seed short": "truncated", "one seed more": "trailing bytes",
           "one client more": "truncated",
           "one chunk more": "parameters fill", "pad bit set": "pad bits",
           "scale off by one count": "not the scale times",
           "level 1": "at level 1", "a total past Q": "past the 60 of Q",
           "width of one bit more": "drops 23 low bits of c0 at 2[68] bits",
           "width of one bit fewer": "drops 23 low bits of c0 at 2[46] bits",
           "d and width of one bit more": "drops 24 low bits of c0 at 2[46]",
           "d and width of one bit fewer": "drops 22 low bits of c0 at 2[68]",
           "trailing byte": "1 trailing bytes"}


@pytest.mark.parametrize("name", SUMS, ids=case_id)
@pytest.mark.parametrize("hostile", HOSTILE)
def test_hostile_seeded_aggregate_rejected_before_expansion(
        formats, small_params, monkeypatch, name, hostile):
    """Every malformed `CKA5` is refused with a CipherfedError before
    any of its seeds is expanded."""
    blob = hostile_sums(formats[name].blob)[hostile]
    calls = count_expansions(monkeypatch)
    with pytest.raises(CipherfedError, match=HOSTILE[hostile]):
        formats[name].decode(blob)
    assert calls == []


@pytest.mark.parametrize("name", SUMS, ids=case_id)
def test_seeded_aggregate_every_truncation_rejected(formats, name):
    fmt = formats[name]
    for blob in sealed_cuts(unsealed(fmt.blob)):
        assert not decode_and_use(fmt, blob)


# --- both seeded layouts -----------------------------------------------------

BOTH = SEEDED + SUMS


def header_bytes(blob: bytes) -> int:
    """The length of a seeded batch's header: 23 bytes, and in a `CKA5`
    the client count and its u64 counts."""
    if blob[:4] == b"CKU5":
        return 23
    return AT_K + 2 + 8 * struct.unpack_from("<H", blob, AT_K)[0]


@pytest.mark.parametrize("name", BOTH, ids=case_id)
def test_seeded_header_bit_flip_refused(formats, monkeypatch, name):
    """The run fixes every header field of a seeded batch: the level
    (0), the scale (Δ times the counts), the chunks (the ones P fills)
    and, through the scale and the length, the counts. So every
    one-bit flip of the header, resealed, is refused, and no seed is
    expanded."""
    fmt = formats[name]
    forbid_expansion(monkeypatch)
    for pos in range(header_bytes(fmt.blob)):
        for bit in range(8):
            def flip(b):
                b[pos] ^= 1 << bit
                return b
            with pytest.raises(CipherfedError):
                fmt.decode(resealed(fmt.blob, flip))


@pytest.mark.parametrize("name", BOTH, ids=case_id)
@pytest.mark.parametrize("delta", [-1, 1])
def test_seeded_read_for_another_param_count_refused(formats, small_params,
                                                     monkeypatch, name,
                                                     delta):
    """A reader takes P from the run: a valid batch read for one
    parameter more or fewer is refused by its length, or, at a chunk
    boundary, by its chunk count."""
    fmt = formats[name]
    n = small_params.ring_degree
    chunks = struct.unpack_from("<H", fmt.blob, 21)[0]
    read = read_upload if name in SEEDED else read_sum
    forbid_expansion(monkeypatch)
    for p in (tail_count(small_params, chunks) + delta,
              (chunks - 1) * n + (n if delta > 0 else 0) + delta):
        with pytest.raises(FormatError, match="truncated|trailing bytes|"
                                              "parameters fill"):
            read(fmt.blob, small_params, p)


@pytest.mark.parametrize("name", BOTH, ids=case_id)
def test_seeded_pad_bits_refused(formats, monkeypatch, name):
    """27 coefficients of 41 bits (`CKU5`, u = 19) leave 5 pad bits in
    the last byte, and of 27 or 25 bits (`CKA5` of 42 or 13 samples, d
    = 23) 7 or 5; the top one set is refused."""
    fmt = formats[name]
    blob = resealed(fmt.blob, set_last_bit)
    forbid_expansion(monkeypatch)
    with pytest.raises(FormatError, match="pad bits that are not 0"):
        fmt.decode(blob)


@pytest.mark.parametrize("name", BOTH, ids=case_id)
def test_seeded_every_append_and_truncation_expands_nothing(formats,
                                                            monkeypatch,
                                                            name):
    """Every truncation, resealed, and every append of up to 16 bytes is
    refused, and no seed is expanded for any of them."""
    fmt = formats[name]
    forbid_expansion(monkeypatch)
    body = unsealed(fmt.blob)
    for blob in sealed_cuts(body):
        with pytest.raises(CipherfedError):
            fmt.decode(blob)
    for extra in range(1, 17):
        with pytest.raises(CipherfedError):
            fmt.decode(resealed(fmt.blob, lambda b: b + bytes(extra)))


@pytest.mark.parametrize("name", SUMS, ids=case_id)
@pytest.mark.parametrize("delta", [-1, 1],
                         ids=["one bit fewer", "one bit more"])
def test_aggregate_rounded_off_the_rule_refused(formats, keys, small_params,
                                                monkeypatch, name, delta):
    """A `CKA5` written to drop one bit more, or one fewer, than the
    reader's spec and its own client count give (d = 23 for both
    formats' counts), or to keep one bit more or fewer than its sample
    total needs (b = 50 for 42 samples, 48 for 13), is refused before
    any seed is expanded."""
    chunks = int(name[-1])
    count, counts = tail_count(small_params, chunks), SUM_COUNTS[chunks]
    d, b = global_bits(small_params, QuantizationSpec(), counts)
    assert (d, b) == (23, {1: 50, 2: 48}[chunks])
    agg = seeded_aggregate(keys, chunks, counts, count)
    assert serialize_seeded_sum(agg, d, b) == formats[name].blob
    forbid_expansion(monkeypatch)
    for off in (serialize_seeded_sum(agg, d + delta, b),
                serialize_seeded_sum(agg, d, b + delta)):
        with pytest.raises(FormatError, match="truncated|trailing bytes"):
            formats[name].decode(off)


def test_unrounded_aggregate_refused_by_name(formats):
    """A `CKA1`, the aggregate that sent every bit of c0, is refused by
    its magic on an fhe run."""
    blob = formats["GLOBAL-fhe"].blob
    with pytest.raises(FormatError, match=r"found unrounded seeded "
                                          r"aggregate \(CKA1, no longer "
                                          r"read\) artifact"):
        formats["GLOBAL-fhe"].decode(b"CKA1" + blob[4:])
