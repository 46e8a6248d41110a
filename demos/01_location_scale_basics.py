"""Location and scale estimation on a contaminated sample.

A tour of the building blocks on one column of data: the bounded influence
function, the dispersion criterion, and how the confidence parameter
interpolates between median-like and mean-like behavior.  A 1-D sample x is
estimated as the one-column matrix x[:, None].
"""

import numpy as np

from robustgd import RhoFunction, RobustConfig, robust_gradient

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
_, info = robust_gradient(x[:, None], RobustConfig(rho=gud))
sigma = info["sigma"][0]
print("\ndispersion estimate:", sigma, "(clean-data sd is 1; the outliers")
print("inflate it far less than the sample sd", x.std(), ")")

# The truncation scale grows with n and shrinks as the confidence demand
# delta gets stricter.  Wide scale -> close to the mean; narrow -> median.
print("\n{:>8} {:>10} {:>12}".format("delta", "scale s", "estimate"))
for delta in (0.5, 0.05, 0.005):
    theta, info = robust_gradient(x[:, None], RobustConfig(rho=gud, delta=delta))
    print(f"{delta:8.3f} {info['s'][0]:10.2f} {theta[0]:12.6f}")

print("\nWith the quadratic test kind the estimate is exactly the mean:")
quad = RhoFunction("quadratic_test_only")
theta, _ = robust_gradient(x[:, None], RobustConfig(rho=quad))
print("estimate(quadratic) =", theta[0], "vs mean", x.mean())
