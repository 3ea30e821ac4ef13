"""Tests of the benchmark itself: seeded generation, the gate and the tracer.

    python -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys

import pytest

from gate import MANIFEST, REFERENCE_SEED, Gate, read_outputs
from run import SRC, Setup
from workloads import WORKLOADS, Request, build_mix

sys.path.insert(0, str(SRC))
import vekit.cli  # noqa: E402
from vekit import distributions, estimands  # noqa: E402


def _jsonable(mix):
    return [r.to_jsonable() for r in mix]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_mix_is_deterministic_per_seed(workload):
    assert _jsonable(build_mix(workload, 7)) == _jsonable(build_mix(workload, 7))
    assert _jsonable(build_mix(workload, 7)) != _jsonable(build_mix(workload, 8))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_mix_composition_does_not_depend_on_seed(workload):
    kinds = [sorted(r.kind for r in build_mix(workload, s)) for s in (1, 2, 3)]
    assert kinds[0] == kinds[1] == kinds[2]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return vekit.cli.main(argv)


def _rewrite(out_dir, name, text):
    """Replace one artifact and re-sign the manifest, so only the content
    checks can notice the change."""
    (out_dir / name).write_text(text, encoding="utf-8")
    manifest = json.loads((out_dir / MANIFEST).read_text())
    manifest["outputs"][name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    (out_dir / MANIFEST).write_text(json.dumps(manifest))


@pytest.fixture
def point_setup(tmp_path):
    setup = Setup("point", REFERENCE_SEED, tmp_path / "work")
    gate = Gate("point", REFERENCE_SEED, setup.mix, setup.presets, setup.in_dir, setup.out_root)
    return setup, gate


def test_gate_rejects_ve_changed_by_1e_6(point_setup):
    setup, gate = point_setup
    i = next(j for j, r in enumerate(setup.mix) if r.kind == "estimands")
    out = setup.out_root / f"r{i}"
    assert gate.check(i, _run(setup.argvs[i]), read_outputs(out)) == []
    payload = json.loads((out / "estimands.json").read_text())
    payload["ve"]["ci"] += 1e-6
    _rewrite(out, "estimands.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    errors = gate.check(i, 0, read_outputs(out))
    assert any(".ve.ci" in e for e in errors), errors


@pytest.fixture
def simulate_case(tmp_path):
    """A one-request trial mix small enough for a unit test."""
    in_dir, out_root = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    cfg = {
        "n": 3000,
        "allocation": 0.5,
        "model0": {"kind": "exponential", "rate": 0.004},
        "model1": {"kind": "exponential", "rate": 0.002},
        "frailty": {"family": "gamma", "variance": 0.5},
        "stopping": {"fixed_time": 150.0},
        "accrual": 0.0,
        "seed": 11,
    }
    (in_dir / "t0.json").write_text(json.dumps(cfg))
    argv = ["simulate", "--config", str(in_dir / "t0.json"), "--out", str(out_root / "r0")]
    mix = [Request(("simulate", "--config", "{in}/t0.json", "--out", "{out}"), {"t0.json": cfg})]
    gate = Gate("trial", REFERENCE_SEED + 1, mix, {}, in_dir, out_root)
    out = out_root / "r0"
    assert gate.check(0, _run(argv), read_outputs(out)) == []
    yield gate, out
    shutil.rmtree(out_root, ignore_errors=True)


def test_gate_rejects_dropped_trial_row(simulate_case):
    gate, out = simulate_case
    lines = (out / "trial.csv").read_text().splitlines(keepends=True)
    _rewrite(out, "trial.csv", "".join(lines[:-1]))
    errors = gate.check(0, 0, read_outputs(out))
    assert any("rows" in e for e in errors), errors


def test_gate_rejects_changed_event_count(simulate_case):
    gate, out = simulate_case
    meta = json.loads((out / "trial_meta.json").read_text())
    meta["events"] += 1
    _rewrite(out, "trial_meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    errors = gate.check(0, 0, read_outputs(out))
    assert any("events" in e for e in errors), errors


def test_gate_rejects_unsigned_artifact_change(simulate_case):
    gate, out = simulate_case
    text = (out / "trial_meta.json").read_text()
    (out / "trial_meta.json").write_text(text.replace('"events"', '"events" '))
    assert "manifest digests do not match the artifacts" in gate.check(0, 0, read_outputs(out))


def test_tracer_wraps_every_alias_and_computes_self_time():
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        assert estimands.integrate is distributions.integrate
        assert estimands.integrate.__wrapped__ is not None
        scenario = estimands.Scenario(
            f0=distributions.Weibull(1.5, 200.0), f1=distributions.Weibull(1.5, 300.0), tau=100.0
        )
        tracer.enabled = True
        estimands.ve_cox(scenario, 100.0)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert not hasattr(estimands.integrate, "__wrapped__")
    a = tracer.arrays()
    assert a["self"].min() >= -1e-9
    assert abs(a["self"].sum() - a["dur"][a["parent"] < 0].sum()) < 1e-6
    m = layer_metrics(tracer, 1)
    assert m["estimands.ve_cox.calls"] == 1
    assert m["estimands.ve_cox.integrals_per_solve"] > 2
    assert m["distributions.Weibull.calls"] > 0
    assert m["quadrature.integrate.points"] >= m["quadrature.integrate.evals"] > 0
