"""Walk through the operator-power normal form and its correction series.

A power of the composite field acting on a state is rewritten into a
right-nested core plus a polynomial of mass-squared corrections; the
series length is conserved (k + 2j = n) and the whole series collapses
in the associative limit m^2 -> 0.
"""

from naqlab import algebra

for n in (2, 3, 4, 6):
    expr = algebra.build_power_expression(n)
    core, series = algebra.normalize(expr)
    print(f"n = {n}")
    print("  input :", algebra.render(expr))
    print("  core  :", algebra.render(core))
    for term in series.terms:
        print("  term  :", term.render())
    print("  vacuum:", algebra.vacuum_expectation_corrections(n).render())
    print()

print("associative limit (m^2 = 0): every term carries m^2, so every series vanishes")
for n in range(2, 8):
    _, series = algebra.normalize(algebra.build_power_expression(n))
    assert all(term.m2_exponent >= 1 for term in series.terms)
print("checked n = 2..7: OK")
