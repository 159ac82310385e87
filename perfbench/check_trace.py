"""Self-checks of the benchmark: tracing, work counts, oracles and digests.

Run from the root of a checkout, either way:

    python3 perfbench/check_trace.py
    python3 -m pytest -q perfbench/check_trace.py

The file name keeps it out of the default pytest collection of the repo's
own test suite; it takes about half a minute.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

for _var in run.THREAD_VARS:
    os.environ[_var] = "1"
run.load_naqlab()

from bench import Verifier, run_job, run_pass  # noqa: E402
from oracles import check_job, check_scaling, flags  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Job, make_jobs  # noqa: E402

SEED = 7
REFERENCE = Job("shoot", ("shoot", "--lambda", "1", "--m", "0.1"))


def traced(jobs):
    """Counts (every per-layer value that is not a time) and verifier of one traced pass."""
    tracer, verifier = Tracer(), Verifier(jobs)
    with tracer.installed():
        run_pass(jobs, verifier, tracer)
    counts = {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}
    return counts, verifier


def _jobs(workload):
    jobs = make_jobs(workload, SEED)
    if workload != "shoot":
        return jobs
    # The reference job and one drawn pair at tol 1e-5 keep the check short.
    m = next(flags(j.argv)["m"] for j in jobs if flags(j.argv).get("tol") == "1e-05")
    return [REFERENCE] + [j for j in jobs if flags(j.argv)["m"] == m]


def test_counts_repeat_and_tracing_keeps_outputs():
    for workload in ("shoot", "fields", "tensor"):
        jobs = _jobs(workload)
        plain = Verifier(jobs)
        run_pass(jobs, plain)
        first, verifier1 = traced(jobs)
        second, verifier2 = traced(jobs)
        assert first == second, workload
        assert plain.digest() == verifier1.digest() == verifier2.digest(), workload
        assert plain.failed == verifier1.failed == 0, (workload, verifier1.failures)


def test_shoot_identities():
    counts, _ = traced(_jobs("shoot"))
    assert counts["shooting.integrate_profile.calls"] == counts["numerics.rk_integrate.calls"]
    assert counts["shooting.ode_rhs.calls"] == counts["numerics.rk_integrate.rhs_evals"]
    assert counts["numerics.bisect.calls"] == counts["shooting.find_regular_eta0.calls"] == 3


def test_reference_job_work():
    counts, _ = traced([REFERENCE])
    assert counts["shooting.find_regular_eta0.trajectories_per_solve"] == 21
    assert counts["numerics.bisect.probes"] == 20
    rejected = counts["numerics.rk_integrate.steps_rejected"]
    accepted = counts["numerics.rk_integrate.steps_accepted"]
    assert counts["numerics.rk_integrate.rhs_evals"] == 21 + 6 * (accepted + rejected)


def test_fields_identities():
    counts, _ = traced(_jobs("fields"))
    assert counts["charge.exact_solution.calls"] == counts["charge.exact_fields.radii"] > 0
    assert counts["numerics.quad_adaptive.evals"] > 0
    assert counts["numerics.quad_adaptive.evals"] % 15 == 0
    assert counts["numerics.centered_derivative.calls"] == counts["shooting.derive_fields.calls"] > 0


def test_tensor_identities():
    counts, _ = traced(_jobs("tensor"))
    assert counts["geometry.contorsion_from_torsion.calls"] == counts["geometry.random_identity_suite.trials"] > 0
    assert counts["geometry.christoffel_from_metric.calls"] == counts["geometry.ricci_from_connection.calls"] == 7


def test_seed_fixes_job_list():
    for workload in ("shoot", "fields", "tensor"):
        assert make_jobs(workload, SEED) == make_jobs(workload, SEED)
        assert make_jobs(workload, SEED) != make_jobs(workload, SEED + 1)


def test_oracles_reject_wrong_outputs():
    text = run_job(REFERENCE).output
    out = json.loads(text)
    assert check_job(REFERENCE, 0, text) is None
    assert check_job(REFERENCE, 2, text) is not None
    assert check_job(REFERENCE, 0, json.dumps(dict(out, eta0_star=out["eta0_star"] + 1e-3))) is not None

    partner = Job("shoot", ("shoot", "--lambda", "2", "--m", "0.1"))
    eta = out["eta0_star"]
    assert check_scaling([REFERENCE, partner], {0: eta, 1: eta + 5e-6}) == {}
    assert list(check_scaling([REFERENCE, partner], {0: eta, 1: eta + 2e-5})) == [1]
    assert list(check_scaling([REFERENCE, partner], {1: eta})) == [1]

    csv = Job("exact-csv", ("exact", "--format", "csv", "--grid", "1e-2:1e2:50", "--grid-scale", "log",
                            "--q", "1.5", "--G", "1", "--c", "1"))
    text = run_job(csv).output
    assert check_job(csv, 0, text) is None
    lines = text.splitlines()
    r, phi, e_r, rho = lines[20].split(",")
    lines[20] = ",".join((r, phi, repr(float(e_r) * (1 + 1e-9)), rho))
    assert check_job(csv, 0, "\n".join(lines) + "\n") is not None

    assoc = Job("assoc", ("assoc", "--power", "6"))
    text = run_job(assoc).output
    assert check_job(assoc, 0, text) is None
    assert check_job(assoc, 0, text.replace("m^4 core_2", "m^4 core_4")) is not None


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
