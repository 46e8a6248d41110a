"""One robust gradient step on a corrupted gradient matrix.

Rows are per-observation loss gradients; a few rows carry heavy-tailed
noise.  The column means drift badly, the coordinate-wise location
estimates barely move.
"""

import numpy as np

from robustgd import RobustConfig, robust_gradient

rng = np.random.default_rng(3)

n, d = 120, 6
true_grad = np.linspace(-1.0, 1.0, d)
G = true_grad + rng.normal(scale=0.5, size=(n, d))
# five rows hit by heavy-tailed corruption
G[:5] += 80.0 * rng.standard_t(1.3, size=(5, d))

cfg = RobustConfig(delta=0.05)
theta, info = robust_gradient(G, cfg)

print("true gradient   :", np.round(true_grad, 3))
print("column means    :", np.round(G.mean(axis=0), 3))
print("robust estimate :", np.round(theta, 3))
print("column scales s :", np.round(info["s"], 2))
print("mean error      :", np.linalg.norm(G.mean(axis=0) - true_grad))
print("robust error    :", np.linalg.norm(theta - true_grad))

# Partial robustification: treat only 3 random coordinates, mean for rest.
subset = np.sort(rng.choice(d, size=3, replace=False))
theta_sub, _ = robust_gradient(G, cfg, cols=subset)
print("\nsubset coordinates:", subset)
print("subset estimate   :", np.round(theta_sub, 3))

# The same machinery summarizes a scalar loss sample, as one column.
losses = np.abs(rng.normal(size=100))
losses[:3] = [90.0, 120.0, 75.0]
print("\nmean loss   :", losses.mean())
print("robust loss :", robust_gradient(losses[:, None], cfg)[0][0])
