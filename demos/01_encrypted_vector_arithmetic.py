"""Walk through the encrypted-vector toolkit: encode a real vector into
polynomial slots, encrypt it, and compute on the ciphertexts.

Everything here is exact CKKS-style machinery: additions and
plaintext multiplications happen on encrypted data, and only the final
decryption reveals the result. The second half is the federated
average exactly as the server computes it, on vectors packed straight
into polynomial coefficients, where it is exact.

Run: python demos/01_encrypted_vector_arithmetic.py
"""

import numpy as np

from cipherfed.federation.client import ClientUpdate
from cipherfed.federation.quantize import QuantizationSpec, quantize
from cipherfed.federation.server import aggregate
from cipherfed.fhe import (add_ct, decode, decrypt, decrypt_coeffs,
                           default_params, encode, encode_coeffs, encrypt,
                           encrypt_symmetric, keygen)

params = default_params()
print(f"ring degree N = {params.ring_degree}, "
      f"{params.slot_count} slots or {params.ring_degree} coefficients per "
      "ciphertext")
print(f"modulus chain bits: {[q.bit_length() for q in params.modulus_chain]}, "
      f"scale 2^40\n")

keys = keygen(params, rng_seed=2024)

# -- encrypt two vectors and add them ---------------------------------------
rng = np.random.default_rng(7)
x = rng.uniform(-1, 1, 8)
y = rng.uniform(-1, 1, 8)
cx = encrypt(encode(x, params), keys, rng_seed=1)
cy = encrypt(encode(y, params), keys, rng_seed=2)

total = decode(decrypt(add_ct(cx, cy), keys), 8)
print("x        =", np.round(x, 6))
print("y        =", np.round(y, 6))
print("dec(x+y) =", np.round(total, 6))
print("max error:", f"{np.abs(total - (x + y)).max():.2e}\n")

# -- the federated average: integer weights, no rescale ---------------------
# Each client quantizes its vector to the 2^-16 grid, multiplies it by its
# sample count n_k and packs it into the coefficients of one chunk, m =
# n_k * x * delta, an exact integer, encrypted at level 0 under the secret
# key at scale delta * n_k. Only the 8 coefficients of c0 that carry values
# are kept, and c1 travels as a 32-byte seed. The server only adds c0_k mod
# q0 over the clients, and the sum's scale is delta * n_total. Each
# decrypted coefficient is sum_k (n_k * x_k * delta + e_k): dividing by
# delta / 2^16 with rounding drops the errors e_k and leaves the integer
# sum_k n_k * x_k * 2^16, which one division turns into the mean.
spec = QuantizationSpec()
counts = (30, 50, 20)
vectors = [quantize(rng.uniform(-1, 1, 8), spec) for _ in counts]
uploads = [encrypt_symmetric(encode_coeffs(v[None, :], params, level=0,
                                           scale=params.scale * n_k),
                             keys, [k], count=8)
           for k, (n_k, v) in enumerate(zip(counts, vectors))]
mean_ct = aggregate([ClientUpdate(k, ct, n_k, 0, 8) for k, (n_k, ct)
                     in enumerate(zip(counts, uploads))], keys.public)

step = int(params.scale) >> spec.fractional_bits
sums = (decrypt_coeffs(mean_ct, keys) + step // 2) // step
got = sums / (sum(counts) * 2.0 ** spec.fractional_bits)
want = sum(n_k * v for n_k, v in zip(counts, vectors)) / sum(counts)
print(f"sample counts n_k  = {counts}")
print("dec(weighted mean) =", np.round(got, 6))
print("weighted mean      =", np.round(want, 6))
print("max error         :", f"{np.abs(got - want).max():.2e}")
delta_bits = np.log2(params.scale)
print(f"level {uploads[0].level} -> {mean_ct.level}, no rescale; scale "
      f"2^{delta_bits:.0f} * n_k -> 2^{delta_bits:.0f} * {sum(counts)}")
