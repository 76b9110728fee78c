"""A walking tour of Bohr sets on Z60: measures, partitions, verifiers.

Everything below is computed in exact rational arithmetic, so the printed
fractions are not approximations.
"""

from fractions import Fraction

from cornerlab import (
    BohrPartition,
    BohrSet,
    parse_group_spec,
    part_absorption_bound,
    translate_containment_bound,
    verify_part_absorption,
    verify_translate_containment,
    volume_lower_bound,
)

G = parse_group_spec("Z60")
xi = G.characters()[1]

print("-- volume against the covering bound --")
for rho in (Fraction(1, 3), Fraction(1, 5), Fraction(1, 8), Fraction(1, 12)):
    B = BohrSet(G, [xi], rho)
    mu = B.measure()
    lo = volume_lower_bound(1, rho)
    print(f"rho = {str(rho):>5}: mu(B) = {str(mu):>6} >= {lo}")

print()
print("-- partition part sizes at width 1/4 --")
P = BohrPartition(G, [xi], Fraction(1, 4))
for label, idx in P.parts():
    print(f"part {label}: {len(idx)} elements")

print()
print("-- translate containment, rho much smaller than delta --")
rho, delta = Fraction(1, 60), Fraction(1, 4)
fr = verify_translate_containment(G, [xi], delta, rho)
print(f"bad translate fraction {fr} <= pinned {translate_containment_bound(1, rho, delta)}")

print()
print("-- part absorption with singleton fine parts --")
rho, dprime = Fraction(1, 4), Fraction(1, 60)
fr = verify_part_absorption(G, [xi], [xi], rho, dprime)
print(f"bad pair fraction {fr} (pinned {part_absorption_bound(1, rho, dprime)})")
