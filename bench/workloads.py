"""The three benchmark workloads: inputs from a seed, one op, its check.

Every input is generated here from the workload seed; ``toqc`` only receives
the generated matrices and argument lists.  Each check runs outside the
timed region and compares against something computed independently of the
code that produced the answer (numpy/scipy navigation oracle, scipy
``expm``/``logm``, the scenario's recorded reference facts).

Why these three (see README.md for the per-layer predictions):

* ``shoot-su2``: multistart shooting, the costliest path users run; its time
  is the least-squares starts over ``_coupled_flow`` plus the dense rebuild.
* ``navigate-su3``: Zermelo navigation, no least squares at all; its time is
  ``exp_op``/``log_op`` in the root scan and a callback-driven
  ``protocol_from_function`` rebuild.
* ``cli-glc``: fresh ``python -m toqc glc`` processes, the only workload that
  pays interpreter start, package import and cold sympy derivation.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

POOL = 32                  # distinct instances per run; ops cycle through them
OMEGA = 1.0                # control bound of both solver workloads
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_traceless_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """GUE-style draw, bit-identical to ``toqc.sun_algebra``'s generator."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = 0.5 * (x + x.conj().T)
    return a - (np.trace(a) / n) * np.eye(n)


def random_special_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """exp(-i A) of a GUE draw, so seed 4 reproduces test_04's targets."""
    w, v = np.linalg.eigh(random_traceless_hermitian(rng, n))
    return (v * np.exp(-1j * w)) @ v.conj().T


def hs_norm(a: np.ndarray) -> float:
    return float(np.sqrt(0.5 * np.trace(a @ a).real))


def principal_log_norms(w: np.ndarray) -> np.ndarray:
    """||L|| for the traceless Hermitian L with exp(-i L) = W, per stacked W.

    Eigenphases in (-pi, pi]; a nonzero multiple of 2 pi in their sum is
    removed from the largest (or smallest) phases, the minimal-norm choice.
    """
    lam = np.sort(-np.angle(np.linalg.eigvals(w)), axis=-1)
    n = lam.shape[-1]
    k = np.rint(lam.sum(axis=-1) / (2.0 * np.pi)).astype(int)[..., None]
    idx = np.arange(n)
    lam = lam - 2.0 * np.pi * ((k > 0) & (idx >= n - k)) \
        + 2.0 * np.pi * ((k < 0) & (idx < -k))
    return np.sqrt(0.5 * np.sum(lam ** 2, axis=-1))


def navigation_time(drift: np.ndarray, omega: float, target: np.ndarray,
                    n_scan: int = 4096) -> float:
    """Smallest T > 0 with ||log(e^{i H_d T} U_f)|| = omega T (numpy + brentq)."""
    e, v = np.linalg.eigh(drift)

    def g(ts):
        ts = np.atleast_1d(ts)
        frames = np.einsum("ab,tb,cb->tac", v, np.exp(1j * np.outer(ts, e)), v.conj())
        return principal_log_norms(frames @ target) - omega * ts

    l0 = float(principal_log_norms(target))
    t_max = (l0 + 2.0 * np.pi) / max(omega - hs_norm(drift), omega / 8.0)
    ts = np.linspace(t_max / n_scan, t_max, n_scan)
    gs = g(ts)
    below = np.flatnonzero(gs <= 0.0)
    if below.size == 0:
        raise ValueError("no navigation root below t_max")
    i = int(below[0])
    lo = 0.0 if i == 0 else float(ts[i - 1])
    return float(brentq(lambda t: g(t)[0], max(lo, 1e-12), float(ts[i]),
                        xtol=1e-15, rtol=1e-14))


class ShootSU2:
    """``solve_shooting`` on seeded SU(2) targets; options sized as in test_04."""

    name = "shoot-su2"
    in_process = True

    def __init__(self, seed: int, tiny: bool = False):
        from toqc import brachistochrone as br
        from toqc.constraint_model import ConstraintSet, Typical
        from toqc.sun_algebra import generalized_gellmann

        rng = np.random.default_rng(seed)
        self.drift = 0.3 * SIGMA_Z
        self.targets = [random_special_unitary(rng, 2) for _ in range(POOL)]
        self.constraint = ConstraintSet(2, self.drift, tuple(generalized_gellmann(2)),
                                        Typical(OMEGA))
        # A multistart seed per instance: one shared seed would give every op
        # of a run the same lucky or unlucky starts and set the run's pace.
        sizes = dict(grid_points=32, multistarts=8, stop_after_converged=1,
                     refine_points=512) if tiny else \
            dict(grid_points=96, multistarts=32, stop_after_converged=3, refine_points=16384)
        # The solver's final ``converged`` flag uses the accuracy bar that
        # check() applies (residual < 1e-6, as in test_04); it already accepts
        # each start at 1e-6, so this changes no work and no answer.  At the
        # default 1e-7, targets near the longest time (T > 2.7, about 0.3% of
        # draws) come back unconverged at residual ~1.2e-7 from the 96-cell grid.
        self.options = [br.ShootingOptions(seed=int(s), residual_tol=1e-6, **sizes)
                        for s in rng.integers(0, 2 ** 31 - 1, size=POOL)]
        self.oracle = [navigation_time(self.drift, OMEGA, u) for u in self.targets]

    def instance(self, i: int) -> dict:
        return {"instance": i % POOL}

    def op(self, i: int):
        from toqc import brachistochrone as br
        return br.solve_shooting(br.ShootingProblem(
            self.constraint, self.targets[i % POOL], self.options[i % POOL]))

    inproc_op = op

    def check(self, i: int, res) -> tuple[list[str], dict]:
        t_nav = self.oracle[i % POOL]
        answer = {"T": float(res.T), "residual": float(res.residual),
                  "n_starts": int(res.n_starts), "verdict": None, "T_oracle": t_nav}
        problems = []
        if not res.converged:
            problems.append("not converged")
        if not res.residual < 1e-6:
            problems.append(f"residual {res.residual:.3e} >= 1e-6")
        rel = abs(res.T - t_nav) / t_nav
        if not rel < 1e-3:
            problems.append(f"|T - T_nav|/T_nav {rel:.3e} >= 1e-3")
        cons = res.conservation
        if cons is None:
            problems.append("no conservation report")
        else:
            for what, value, bound in (("tr[HF]", cons.hf_drift, 1e-8),
                                       ("tr[F^2]", cons.f2_drift, 1e-12),
                                       ("unitarity", cons.unitarity_drift, 1e-10)):
                if not value < bound:
                    problems.append(f"{what} drift {value:.3e} >= {bound:g}")
        return problems, answer


class NavigateSU3:
    """``zermelo_solve`` on seeded SU(3) drifts (hs_norm 0.3) and targets."""

    name = "navigate-su3"
    in_process = True

    def __init__(self, seed: int, tiny: bool = False):
        from toqc import brachistochrone as br

        rng = np.random.default_rng(seed)
        self.instances = []
        for _ in range(POOL):
            drift = random_traceless_hermitian(rng, 3)
            self.instances.append((drift * (0.3 / hs_norm(drift)),
                                   random_special_unitary(rng, 3)))
        self.options = br.ShootingOptions(seed=seed, refine_points=256 if tiny else 16384)

    def instance(self, i: int) -> dict:
        return {"instance": i % POOL}

    def op(self, i: int):
        from toqc import brachistochrone as br
        drift, target = self.instances[i % POOL]
        return br.zermelo_solve(drift, OMEGA, target, self.options)

    inproc_op = op

    def check(self, i: int, res) -> tuple[list[str], dict]:
        drift, target = self.instances[i % POOL]
        answer = {"T": float(res.T), "residual": float(res.residual),
                  "n_starts": int(res.n_starts), "verdict": None}
        if not res.converged:
            return ["not converged"], answer
        t = float(res.T)
        problems = []
        # the root equation, with scipy's logm instead of toqc.sun_algebra
        log_w = 1j * scipy.linalg.logm(scipy.linalg.expm(1j * t * drift) @ target)
        lam = np.linalg.eigvalsh(0.5 * (log_w + log_w.conj().T))
        k = int(np.rint(lam.sum() / (2.0 * np.pi)))
        if k > 0:
            lam[-k:] -= 2.0 * np.pi
        elif k < 0:
            lam[:-k] += 2.0 * np.pi
        log_norm = float(np.sqrt(0.5 * np.sum(lam ** 2)))
        if not abs(log_norm - OMEGA * t) <= 1e-6 * OMEGA * t:
            problems.append(f"root equation off by {log_norm - OMEGA * t:.3e}")
        # the closed-form endpoint from the reported costate direction
        f0 = res.costate0
        if f0 is None:
            problems.append("no costate")
        else:
            hc0 = OMEGA * f0 / hs_norm(f0)
            end = scipy.linalg.expm(-1j * t * drift) @ scipy.linalg.expm(-1j * t * hc0)
            fid = 1.0 - abs(np.trace(target.conj().T @ end)) / 3
            if not fid < 1e-9:
                problems.append(f"closed-form endpoint misses by {fid:.3e}")
        return problems, answer


class ChildRun(NamedTuple):
    code: int
    stdout: str
    stderr: str
    cpu_s: float
    maxrss_kb: int


ARCS = ("interior", "boundary-b3", "boundary-b1", "boundary-b2", "boundary-J")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str]) -> ChildRun:
    """Run a child to completion; CPU and peak RSS come from its own rusage."""
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(proc.returncode, out.read().decode(), err.read().decode(),
                        ru.ru_utime + ru.ru_stime, ru.ru_maxrss)


class CliGLC:
    """Fresh ``python -m toqc glc`` runs cycling over the two-qubit arcs."""

    name = "cli-glc"
    in_process = False
    scenario = "symmetric_two_qubit"

    def __init__(self, seed: int, tiny: bool = False):
        from toqc.scenarios import get_scenario

        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=POOL)]
        self.facts = get_scenario(self.scenario).reference_facts

    def argv(self, i: int) -> list[str]:
        return ["glc", "--scenario", self.scenario, "--arc", ARCS[i % len(ARCS)],
                "--seed", str(self.seeds[i % POOL])]

    def instance(self, i: int) -> dict:
        return {"instance": i % POOL, "arc": ARCS[i % len(ARCS)]}

    def op(self, i: int) -> ChildRun:
        return spawn([sys.executable, "-m", "toqc", *self.argv(i)])

    def inproc_op(self, i: int) -> ChildRun:
        """The same argv through ``toqc.cli.main``, sympy's cache cleared first
        so the derivation is as cold as in a fresh process."""
        import toqc.cli
        from sympy.core.cache import clear_cache

        clear_cache()
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = toqc.cli.main(self.argv(i))
        return ChildRun(code, buf.getvalue(), "", 0.0, 0)

    def check(self, i: int, run: ChildRun) -> tuple[list[str], dict]:
        answer = {"T": None, "residual": None, "n_starts": None, "verdict": None}
        if run.code != 0:
            return [f"exit code {run.code}: {run.stderr.strip()[-200:]}"], answer
        try:
            report = json.loads(run.stdout)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"], answer
        answer["verdict"] = report.get("verdict")
        arc = ARCS[i % len(ARCS)]
        problems = []
        if arc == "interior":
            want = self.facts["interior_verdict"]
            got = sorted(report.get("derived_conditions", []))
            answer["conditions"] = got
            if got != sorted(self.facts["interior_conditions"]):
                problems.append(f"derived conditions {got} differ from the reference")
        else:
            want = self.facts["boundary_verdicts"][arc.removeprefix("boundary-")]
        if answer["verdict"] != want:
            problems.append(f"verdict {answer['verdict']!r}, reference {want!r}")
        return problems, answer


WORKLOADS = {w.name: w for w in (ShootSU2, NavigateSU3, CliGLC)}
