"""Tour of the regularized point charge closed forms.

The hyperbolic solution is Coulomb at large r, but the field and the
charge density both vanish at the origin; the field-energy integral is
finite while the self-interaction integral still diverges with the
cutoff.
"""

import numpy as np

from naqlab.charge import ChargeModel, energy_report, exact_fields

model = ChargeModel(q=1.0)
print(f"length scale alpha = {model.alpha}")

rs = np.array([0.01, 0.05, 0.2, 1.0, 5.0, 50.0])
fields = exact_fields(rs, model)
print(f"{'r':>8} {'E_r':>13} {'q/r^2':>13} {'rho':>13}")
for i, r in enumerate(rs):
    print(f"{r:8.2f} {fields['E_r'][i]:13.5e} {1 / r**2:13.5e} {fields['rho'][i]:13.5e}")

print()
print("Gauss law residual is O(h^2):")
for n in (100, 200, 400):
    r = np.linspace(0.5, 5.0, n + 1)
    f = exact_fields(r, model)
    # (1/r^2) d(r^2 E_r)/dr by centered differences, at interior points only
    div_e = np.gradient(r**2 * f["E_r"], r)[1:-1] / r[1:-1] ** 2
    source = 4 * np.pi * f["rho"][1:-1]
    print(f"  n = {n:4d}: {np.abs(div_e - source).max() / np.abs(source).max():.3e}")

print()
print("energy integrals vs closed forms:")
for r_min in (1e-2, 1e-3, 1e-4):
    rep = energy_report(model, r_min=r_min)
    print(
        f"  r_min = {r_min:.0e}: field = {rep.field_energy:.12f} "
        f"(exact {rep.closed_form_field_energy}), "
        f"self = {rep.self_energy:.6e} (exact {rep.closed_form_self_energy:.6e})"
    )
print("the field energy stays 1/2 while the self energy diverges with the cutoff")
