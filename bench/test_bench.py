"""Tests of the benchmark itself (not collected by the repository's suite).

Run with ``python3 -m pytest -q bench/test_bench.py`` from the repository root.
"""

import math

import numpy as np
import pytest

import run

run.require_source()

import tracer  # noqa: E402
import workloads  # noqa: E402


def _inputs(wl):
    if isinstance(wl, workloads.ShootSU2):
        return [wl.targets, [o.seed for o in wl.options]]
    if isinstance(wl, workloads.NavigateSU3):
        return [m for pair in wl.instances for m in pair]
    return [wl.argv(i) for i in range(2 * workloads.POOL)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_gives_the_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    a, b, c = _inputs(cls(3, tiny=True)), _inputs(cls(3, tiny=True)), _inputs(cls(5, tiny=True))
    assert repr(a) == repr(b)
    assert repr(a) != repr(c)


def test_seed_4_mirrors_the_acceptance_oracle_instances():
    from toqc.sun_algebra import random_special_unitary

    wl = workloads.ShootSU2(4, tiny=True)
    rng = np.random.default_rng(4)
    for target in wl.targets[:5]:
        assert np.array_equal(target, random_special_unitary(rng, 2))


def test_navigation_oracle_matches_the_library():
    from toqc import brachistochrone as br

    wl = workloads.ShootSU2(4, tiny=True)
    res = br.zermelo_solve(wl.drift, workloads.OMEGA, wl.targets[0],
                           br.ShootingOptions(refine_points=64))
    assert abs(res.T - wl.oracle[0]) < 1e-9 * res.T


def test_longest_time_target_passes_at_full_size():
    # instance 1 of seed 1134049775 has T = 2.767; its 96-cell extremal
    # rebuilds to residual 1.2e-7, over the solver's default 1e-7 bar
    wl = workloads.ShootSU2(1134049775)
    res = wl.op(1)
    problems, answer = wl.check(1, res)
    assert not problems, problems
    assert 1e-7 < answer["residual"] < 1e-6


def _bindings():
    import toqc
    from toqc import brachistochrone, cli, constraint_model, dynamics, sun_algebra

    return {
        "exp_op": [(m, "exp_op") for m in (toqc, sun_algebra, brachistochrone, cli)],
        "maximizer": [(m, "maximizer") for m in (toqc, constraint_model, brachistochrone)],
        "bound_violation": [(constraint_model.ConstraintSet, "bound_violation")],
        "post_init": [(dynamics.Protocol, "__post_init__")],
    }


def test_tracer_patches_every_binding_and_restores_them():
    before = {k: [getattr(o, a) for o, a in v] for k, v in _bindings().items()}
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            for key, sites in _bindings().items():
                now = [getattr(o, a) for o, a in sites]
                assert all(x is now[0] for x in now), key
                assert now[0] is not before[key][0], key
                assert now[0].__wrapped__ is before[key][0], key
            raise RuntimeError("leave the block by an exception")
    after = {k: [getattr(o, a) for o, a in v] for k, v in _bindings().items()}
    for key in before:
        assert all(x is y for x, y in zip(before[key], after[key])), key


def test_missing_targets_are_absent_not_fatal():
    targets = tracer.TARGETS + (
        tracer.Target("brachistochrone._gone", "toqc.brachistochrone", "_no_such_helper"),
        tracer.Target("nowhere.f", "toqc.no_such_module", "f"),
    )
    t = tracer.Tracer(targets)
    with t:
        pass
    assert t.absent == {"brachistochrone._gone", "nowhere.f"}


def test_self_times_add_up_to_the_op_time():
    wl = workloads.NavigateSU3(2, tiny=True)
    t = tracer.Tracer()
    with t:
        res, dt, unattributed = t.run_op(lambda: wl.op(0))
    assert res.converged
    total = sum(st["self_s"] for st in t.stats.values()) + unattributed
    assert math.isclose(total, dt, rel_tol=1e-9)
    assert t.stats["sun_algebra.log_op"]["calls"] > 4096


def _record(seed=1, **op):
    base = {"op": 0, "instance": 0, "T": 1.0, "verdict": None, "ok": True}
    return {"workload": "shoot-su2", "seed": seed, "ops": [{**base, **op}]}


@pytest.mark.parametrize("change, flagged", [
    ({"T": 1.0 + 5e-10}, False),
    ({"T": 1.0 - 5e-10}, False),
    ({"T": 1.0 + 2e-9}, True),
    ({"T": None}, True),
    ({"verdict": "excluded"}, True),
    ({"ok": False}, True),
    ({"instance": 1}, True),
])
def test_compare_flags_changes_above_tolerance(change, flagged):
    assert bool(run.compare_records(_record(), _record(**change))) is flagged


def test_compare_refuses_records_of_different_seeds():
    assert run.compare_records(_record(1), _record(2))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_untraced(name):
    result = run.run(name, seed=1, seconds=0, trace=False, tiny=True)
    assert result["correct"], result["records"]
    assert result["attempted"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced(name):
    result = run.run(name, seed=1, seconds=0, trace=True, tiny=True)
    assert result["correct"], result["records"]
    m = result["metrics"]
    assert set(m) == set(run.PER_LAYER) | set(run.RUN_LEVEL)
    self_total = sum(v for k, v in m.items() if k in run.PER_LAYER and
                     k.endswith(("self_s", "dense_s")))
    assert math.isclose(self_total + m["trace.unattributed_s"], m["trace.op_s"],
                        rel_tol=1e-9)
    if name == "cli-glc":
        assert m["cli.import_s"] > 0 and m["cli.main.self_s"] > 0
    else:
        assert m["dynamics.evolve_unitary.cells"] > 0
