"""Sketch the minimization curve and its convex floor.

Runs the projected-descent minimizer over a coarse density grid, prints the
estimate next to its provable bracket [alpha^4, alpha^3], and marks the
knots of the lower convex envelope with a '*'.
"""

from cornerlab import sweep_and_envelope

ALPHAS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

pts = sweep_and_envelope(ALPHAS, n=6, restarts=4, seed=0)
knots = set(float(a) for a in pts.hull_alphas)

print("alpha    m_hat        envelope     alpha^3      alpha^4")
for a, v in zip(pts.alphas, pts.values):
    mark = "*" if float(a) in knots else " "
    print(f"{a:.2f} {mark} {v:.9f}  {pts.envelope_at(a):.9f}  {a**3:.9f}  {a**4:.9f}")

print()
print(f"{len(pts.hull_alphas)} envelope knots out of {len(pts.alphas)} samples")
print("every solver estimate passed its check: [m^4 (1 - 1e-9), alpha^3 + 1e-9], m the mean of its point")
