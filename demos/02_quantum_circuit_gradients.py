"""The variational circuit layer, from embedding to exact gradients.

A feature vector enters as RX rotation angles, flows through trainable
rotation layers and a CNOT ring, and leaves as Pauli-Z expectations.
Gradients come two ways, both exact up to float precision: the
parameter-shift rule, two extra circuit evaluations per angle, and the
adjoint method training uses, one backward sweep for every angle and
feature at once.

Run: python demos/02_quantum_circuit_gradients.py
"""

import numpy as np

from cipherfed import qsim

# -- single qubit: everything has a closed form ------------------------------
arch1 = qsim.PqcArchitecture(qubit_count=1, depth=1)
theta = 0.8
# a single feature vector is a batch of one row
out = qsim.run_pqc_batch(np.zeros((1, 1)), arch1, np.array([[theta]]))[0]
grad = qsim.grad_angles_batch(np.zeros((1, 1)), arch1,
                              np.array([[theta]]))[0] @ [1.0]
print(f"RX({theta}) on |0>:")
print(f"  <Z>        = {out[0]:+.8f}   (cos theta  = {np.cos(theta):+.8f})")
print(f"  d<Z>/dtheta = {grad[0, 0]:+.8f}   (-sin theta = {-np.sin(theta):+.8f})\n")

# -- three qubits, two layers: compare with finite differences ---------------
rng = np.random.default_rng(11)
arch = qsim.PqcArchitecture(qubit_count=3, depth=2)
angles = rng.uniform(-np.pi, np.pi, (arch.depth, arch.qubit_count))
features = rng.uniform(-np.pi, np.pi, (1, 3))
weights = rng.uniform(-1, 1, 3)

ps = qsim.grad_angles_batch(features, arch, angles)[0] @ weights
states = qsim.final_states(features, arch, angles)
adjoint, _ = qsim.readout_vjp(states, features, arch, angles,
                              weights[None, :])
h = 1e-5
fd = np.zeros_like(ps)
for layer in range(arch.depth):
    for q in range(arch.qubit_count):
        shifted = angles.copy()
        shifted[layer, q] += h
        up = qsim.run_pqc_batch(features, arch, shifted)[0] @ weights
        shifted[layer, q] -= 2 * h
        dn = qsim.run_pqc_batch(features, arch, shifted)[0] @ weights
        fd[layer, q] = (up - dn) / (2 * h)

print("3-qubit depth-2 circuit, gradient of a weighted readout sum:")
print("parameter-shift gradient:")
print(np.array_str(ps, precision=6))
print("adjoint vector-Jacobian product:")
print(np.array_str(adjoint, precision=6))
print("finite-difference gradient:")
print(np.array_str(fd, precision=6))
print(f"max deviation, shift vs finite difference: "
      f"{np.abs(ps - fd).max():.2e}")
print(f"max deviation, adjoint vs shift:           "
      f"{np.abs(adjoint - ps).max():.2e}")
print("\nThe shift rule needs 2 evaluations per angle and no step-size "
      "tuning.\nThe adjoint sweep needs one forward and one backward pass "
      "for all of\nthem; that is what the training loop uses.")
