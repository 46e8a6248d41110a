"""Location and scale estimation on a contaminated sample.

A tour of the scalar building blocks: the bounded influence function, the
dispersion criterion, and how the confidence parameter interpolates between
median-like and mean-like behavior.
"""

import numpy as np

from robustgd import (
    ChiFunction,
    RhoFunction,
    confidence_scale,
    locate,
    rescale,
)

rng = np.random.default_rng(7)

# A sample of 200 standard normal points with 6 gross outliers.
x = rng.normal(size=200)
x[:6] = [35.0, 42.0, -28.0, 51.0, 39.0, -31.0]

print("sample mean    :", x.mean())
print("sample median  :", np.median(x))

# The influence function saturates: distant points stop pulling.
gud = RhoFunction("gudermannian")
print("\npsi(0.5) =", gud.psi(0.5))
print("psi(5)   =", gud.psi(5.0))
print("psi(50)  =", gud.psi(50.0), "(caps at pi/2 =", np.pi / 2, ")")

# Dispersion about the mean: calibrated so Gaussian data gives ~ its sd.
chi = ChiFunction()
sigma = rescale(x, x.mean(), chi)
print("\ndispersion estimate:", sigma, "(clean-data sd is 1; the outliers")
print("inflate it far less than the sample sd", x.std(), ")")

# The truncation scale grows with n and shrinks as the confidence demand
# delta gets stricter.  Wide scale -> close to the mean; narrow -> median.
print("\n{:>8} {:>10} {:>12}".format("delta", "scale s", "estimate"))
for delta in (0.5, 0.05, 0.005):
    s = confidence_scale(sigma, len(x), delta)
    theta = locate(x, s, gud)
    print(f"{delta:8.3f} {s:10.2f} {theta:12.6f}")

print("\nWith the quadratic test kind the estimate is exactly the mean:")
quad = RhoFunction("quadratic_test_only")
print("locate(quadratic) =", locate(x, 1.0, quad), "vs mean", x.mean())
