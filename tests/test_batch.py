"""A ciphertext batch, shaped (chunks, rows, N), against the same
operations on each chunk alone: every result must be bitwise equal."""

import struct

import numpy as np
import pytest

from cipherfed import model as M
from cipherfed.errors import ShapeError
from cipherfed.federation import server
from cipherfed.federation import transport as T
from cipherfed.federation.client import derive_seed, encrypt_model
from cipherfed.federation.quantize import QuantizationSpec, quantize
from cipherfed.fhe import (add_ct, decode, decrypt, encode, encode_coeffs,
                           encode_scalar, encrypt, encrypt_symmetric,
                           mul_plain, rescale)
from cipherfed.model import flatten_weights
from cipherfed.qsim import PqcArchitecture


def assert_batch_equal(batch, singles):
    """Chunk i of `batch` (a ciphertext or a plaintext) equals singles[i]."""
    for half in ("c0", "c1") if hasattr(batch, "c0") else ("poly",):
        residues = getattr(batch, half).residues
        assert residues.shape[0] == len(singles)
        for i, one in enumerate(singles):
            assert np.array_equal(residues[i], getattr(one, half).residues)
    for one in singles:
        assert (batch.level, batch.scale) == (one.level, one.scale)


@pytest.mark.parametrize("chunks", [1, 2, 7])
def test_batch_ops_equal_per_chunk_ops(small_params, small_keys, chunks):
    params, keys = small_params, small_keys
    rng = np.random.default_rng(100 + chunks)
    slots = params.slot_count
    for level in range(params.max_level + 1):
        vals = rng.uniform(-1, 1, (chunks, slots))
        seeds = [derive_seed(level, i) for i in range(chunks)]

        pt = encode(vals, params, level=level)
        pts = [encode(v, params, level=level) for v in vals]
        assert_batch_equal(pt, pts)

        ct = encrypt(pt, keys, seeds)
        cts = [encrypt(p, keys, s) for p, s in zip(pts, seeds)]
        assert_batch_equal(ct, cts)

        w = encode_scalar(0.375, params, level=level)
        prod = mul_plain(ct, w)
        prods = [mul_plain(c, w) for c in cts]
        assert_batch_equal(prod, prods)
        # a batch of plaintexts weights chunk by chunk
        assert_batch_equal(mul_plain(ct, pt),
                           [mul_plain(c, p) for c, p in zip(cts, pts)])

        total = add_ct(prod, prod)
        totals = [add_ct(p, p) for p in prods]
        assert_batch_equal(total, totals)
        if level:
            total = rescale(total)
            totals = [rescale(t) for t in totals]
            assert_batch_equal(total, totals)

        dec = decrypt(total, keys)
        decs = [decrypt(t, keys) for t in totals]
        assert_batch_equal(dec, decs)
        got = decode(dec, slots)
        assert got.shape == (chunks, slots)
        assert np.array_equal(got, np.stack([decode(d, slots) for d in decs]))


@pytest.mark.parametrize("chunks", [1, 2, 7])
def test_batch_ntt_equals_per_matrix(small_params, chunks):
    rng = np.random.default_rng(chunks)
    for basis in [(0,), (0, 1), (0, 1, 2), (1, 2)]:
        ctx = small_params.stacked_ntt(basis)
        mats = np.stack([
            np.stack([rng.integers(0, q, small_params.ring_degree,
                                   dtype=np.uint64) for q in ctx.q[:, 0]])
            for _ in range(chunks)])
        fwd = ctx.forward(mats)
        assert np.array_equal(fwd, np.stack([ctx.forward(m) for m in mats]))
        inv = ctx.inverse(fwd)
        assert np.array_equal(inv, np.stack([ctx.inverse(m) for m in fwd]))
        assert np.array_equal(inv, mats)


def test_seeded_batch_equals_per_chunk(small_params, small_keys):
    params, keys = small_params, small_keys
    vals = np.random.default_rng(5).uniform(-1, 1, (7, params.slot_count))
    seeds = [derive_seed(9, i) for i in range(7)]
    ct = encrypt_symmetric(encode_coeffs(vals, params, level=0), keys, seeds)
    cts = [encrypt_symmetric(encode_coeffs(v[None], params, level=0), keys,
                             [s]) for v, s in zip(vals, seeds)]
    assert_batch_equal(ct, [c[0] for c in cts])
    assert ct.seeds == tuple(c.seeds[0] for c in cts)
    assert ct.level == 0 and ct.scale == params.scale


def per_chunk_update(model, keys, client_id, sample_count, rng_seed):
    """The UPDATE payload built chunk by chunk, one coefficient packing and
    one seeded encrypt per ring_degree-sized slice, laid out by hand: the
    header, every chunk's seed, then c0's prime count and every chunk's
    residues, chunk after chunk. The reference for the batch path and for
    `CKV4`."""
    params = keys.params
    weights = quantize(flatten_weights(model), QuantizationSpec())
    n = params.ring_degree
    cts = [encrypt_symmetric(encode_coeffs(weights[None, start:start + n],
                                           params, level=0), keys,
                             [derive_seed(rng_seed, i)])
           for i, start in enumerate(range(0, weights.size, n))]
    top = cts[0]
    out = [struct.pack("<HQI", client_id, sample_count, weights.size),
           b"CKV4", params.digest,
           struct.pack("<BdH", top.level, top.scale, len(cts))]
    out.extend(ct.seeds[0] for ct in cts)
    out.append(struct.pack("<B", top.level + 1))
    out.extend(ct.c0.residues.astype("<u8").tobytes() for ct in cts)
    return b"".join(out)


@pytest.mark.parametrize("dims,params_expected", [(2, 27), (4096, 12309)])
def test_update_bytes_equal_per_chunk_loop(std_keys, dims, params_expected):
    arch = PqcArchitecture(qubit_count=3, depth=2)
    model = M.init_model(dims, arch, 3, rng_seed=dims)
    assert model.param_count == params_expected
    for client_id, seed in ((0, 1), (3, 12345)):
        upd = encrypt_model(model, QuantizationSpec(), std_keys, client_id,
                            40 + client_id, 0, rng_seed=seed)
        assert len(upd.chunks) == -(-params_expected // 4096)
        assert T.encode_update(upd) == per_chunk_update(
            model, std_keys, client_id, 40 + client_id, seed)


def test_add_ct_rejects_batches_of_different_shapes(small_params, small_keys):
    one = encrypt(encode(np.ones((1, 4)), small_params), small_keys, [0])
    seven = encrypt(encode(np.ones((7, 4)), small_params), small_keys,
                    list(range(7)))
    with pytest.raises(ShapeError, match="batch shapes differ"):
        add_ct(one, seven)
    with pytest.raises(ShapeError, match="batch shapes differ"):
        add_ct(seven, one[0])
    with pytest.raises(ShapeError, match="batch shapes differ"):
        mul_plain(seven, encode(np.ones((1, 4)), small_params))


def test_single_ciphertext_is_not_a_batch(small_params, small_keys):
    ct = encrypt(encode([1.0], small_params), small_keys, 0)
    with pytest.raises(ShapeError):
        len(ct)
    with pytest.raises(ShapeError):
        ct[0]
    with pytest.raises(ShapeError, match="one seed per chunk"):
        encrypt(encode(np.ones((2, 4)), small_params), small_keys, 0)


def test_aggregate_is_one_batch(small_params, small_keys):
    arch = PqcArchitecture(qubit_count=3, depth=2)
    model = M.init_model(1200, arch, 3, rng_seed=4)
    ups = [encrypt_model(model, QuantizationSpec(), small_keys, k, 10 * k + 5,
                         0, rng_seed=k) for k in range(3)]
    agg = server.aggregate(ups, small_keys.public)
    assert len(agg) == len(ups[0].chunks) == 4
    # uploads are level 0 and aggregation does not rescale
    assert agg.level == ups[0].chunks.level == 0
    assert agg.scale == small_params.scale * (5 + 15 + 25)
