"""Seeded request mixes for the three benchmark workloads.

A workload is a fixed list of CLI requests (one *pass*) built from the
seed alone; the harness replays the pass, closed-loop with one client,
until the run time is used up.  Every pass has the same composition on
every seed: the slot kinds, families and size strata are fixed, and the
seed draws only the parameters inside each slot.  That keeps the cost of
a pass, and so every end-to-end figure, comparable across seeds.

Requests are argv lists for ``vekit.cli.main``.  ``{in}`` stands for the
run's input directory, ``{out}`` for the request's own output directory
and ``{outs}`` for the root of all output directories (a fit that reads
back an earlier request's ``trial.csv``).  The harness fills them in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("point", "curve", "trial")

# The compiled-in presets and their horizons (used to draw --at and curve
# grids inside them).
PRESET_TAU = {
    "discussion": 182.0,
    "figure3:a": 1.0,
    "figure3:b": 1.0,
    "figure3:c": 1.0,
    "figure3:d": 1.0,
    "rampup:1": 150.0,
    "rampup:2": 150.0,
    "rampup:3": 150.0,
}
ESTIMATORS = ["ci", "ir", "cox", "ch", "odds"]


@dataclass(frozen=True)
class Request:
    """One CLI request: argv plus the JSON input files it names."""

    argv: tuple
    files: dict = field(default_factory=dict)
    # Compare this request's Cox value against the fixed-point oracle.
    oracle: bool = False
    # For a fit that reads back a trial.csv: index of the simulate request.
    source: int | None = None

    @property
    def kind(self) -> str:
        return self.argv[0]

    def to_jsonable(self) -> dict:
        return {
            "argv": list(self.argv),
            "files": self.files,
            "oracle": self.oracle,
            "source": self.source,
        }


def _r(x: float) -> float:
    """Round generated parameters so inputs print short and exact."""
    return float(f"{x:.6g}")


def _strata(rng: np.random.Generator, count: int, lo: float, hi: float, log=False):
    """One draw near the centre of each of ``count`` equal strata of [lo, hi].

    Slot j always gets stratum j, so a parameter that drives cost (shape,
    table size, evaluation time) has the same spread on every seed."""
    u = (np.arange(count) + 0.5 + rng.uniform(-0.15, 0.15, count)) / count
    if log:
        vals = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    else:
        vals = lo + u * (hi - lo)
    return [float(v) for v in vals]


# ---------------------------------------------------------------------------
# Scenario families (the scenario-file wire format)

def _attack_rate(rng):
    return rng.uniform(0.15, 0.35)


def _theta(rng):
    return rng.uniform(0.3, 0.7)


def _scenario_exponential(rng, tau):
    p0 = _attack_rate(rng)
    rate0 = -math.log1p(-p0) / tau
    theta = _theta(rng)
    return {
        "f0": {"kind": "exponential", "rate": _r(rate0)},
        "f1": {"kind": "exponential", "rate": _r(theta * rate0)},
    }


def _scenario_weibull(rng, tau, k0):
    k1 = k0 * rng.uniform(0.9, 1.1)
    p0 = _attack_rate(rng)
    scale0 = tau / (-math.log1p(-p0)) ** (1.0 / k0)
    # Test-arm cumulative hazard theta * Lam0 at tau, with its own shape.
    theta = _theta(rng)
    scale1 = tau / (theta * -math.log1p(-p0)) ** (1.0 / k1)
    return {
        "f0": {"kind": "weibull", "shape": _r(k0), "scale": _r(scale0)},
        "f1": {"kind": "weibull", "shape": _r(k1), "scale": _r(scale1)},
    }


def _piecewise_arm(rng, edges, level, ratios, shape):
    """Contiguous segments over ``edges``: linear, weibull_local, constant, ...
    in turn; the last one is an open-ended constant."""
    segments = []
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        lam = level * ratios[j]
        last = j == len(edges) - 2
        kind = "constant" if last else ("linear", "weibull_local", "constant")[j % 3]
        if kind == "constant":
            hz = {"type": "constant", "c": _r(lam)}
        elif kind == "linear":
            # Hazard moves from lam*(1-g) to lam*(1+g) across [a, b].
            g = rng.uniform(-0.8, 0.8)
            slope = 2.0 * g * lam / (b - a)
            hz = {"type": "linear", "a": _r(lam * (1.0 - g) - slope * a), "b": _r(slope)}
        else:
            width = b - a
            scale = width / (lam * width) ** (1.0 / shape)
            hz = {"type": "weibull_local", "shape": _r(shape), "scale": _r(scale)}
        segments.append({"start": a, "end": None if last else b, "hazard": hz})
    return {"kind": "piecewise_hazard", "segments": segments}


def _scenario_piecewise(rng, tau, pieces, shape):
    # Knots at fixed fractions of tau (small jitter), all below the earliest
    # --at, so every segment is evaluated on every seed.
    inner = (np.linspace(0.1, 0.5, pieces - 1) + rng.uniform(-0.02, 0.02, pieces - 1)) * tau
    edges = [0.0] + [_r(x) for x in inner] + [_r(tau * 1.5)]
    level = -math.log1p(-_attack_rate(rng)) / tau
    r0 = rng.uniform(0.5, 1.5, pieces)
    r1 = r0 * rng.uniform(0.15, 1.1, pieces)
    return {
        "f0": _piecewise_arm(rng, edges, level, r0, shape),
        # Kept >= 1: a weibull_local shape below 1 puts a singular hazard
        # at an interior knot, which ve_cox does not survive at this commit.
        "f1": _piecewise_arm(rng, edges, level, r1, 1.0 + (shape - 1.0) * rng.uniform(0.8, 1.2)),
    }


def _scenario_tabulated(rng, tau, points):
    """Both arms on one table of ``points`` times; F1 stays strictly below F0."""
    inner = sorted({_r(x) for x in rng.uniform(0.01, 0.99, points - 2) * tau})
    t = [0.0] + inner + [tau]
    f0 = np.concatenate(([0.0], np.cumsum(rng.exponential(1.0, len(t) - 1))))
    f0 *= _attack_rate(rng) / f0[-1]
    f1 = np.minimum(np.maximum.accumulate(f0 * rng.uniform(0.1, 0.9, len(t))), 0.999 * f0)
    return {
        "f0": {"kind": "tabulated", "points": [[a, float(b)] for a, b in zip(t, f0)]},
        "f1": {"kind": "tabulated", "points": [[a, float(b)] for a, b in zip(t, f1)]},
    }


# Shape ranges: Weibull < 1 has a hazard singular at 0; weibull_local
# segments in piecewise scenarios have shape 2-3 (shapes just above 1 make
# the Cox solve's cost swing several-fold with the seed).
SHAPES = {"weibull_lt1": (0.5, 0.9), "weibull_gt1": (1.2, 3.0), "piecewise": (2.0, 3.0)}


def _scenarios(rng, family, count, points=(5, 5)):
    """``count`` scenarios of one family; the parameters that drive cost
    (shape, segment count, table size) come from fixed strata."""
    shapes = _strata(rng, count, *SHAPES.get(family, (1.0, 1.0)))
    sizes = [int(round(x)) for x in _strata(rng, count, *points, log=True)]
    out = []
    for j in range(count):
        tau = _r(rng.uniform(100.0, 400.0))
        if family == "exponential":
            body = _scenario_exponential(rng, tau)
        elif family in ("weibull_lt1", "weibull_gt1"):
            body = _scenario_weibull(rng, tau, shapes[j])
        elif family == "piecewise":
            body = _scenario_piecewise(rng, tau, 3 + j % 2, shapes[j])
        else:
            body = _scenario_tabulated(rng, tau, sizes[j])
        out.append({**body, "tau": tau, "label": family})
    return out


# ---------------------------------------------------------------------------
# point: one-shot analytic requests

POINT_SCENARIOS = {  # family -> requests per pass
    "exponential": 56,
    "weibull_lt1": 4,
    "weibull_gt1": 6,
    "piecewise": 9,
    "tabulated": 10,
}
POINT_PRESET_REPEATS = 1
TABULATED_POINTS = (5, 500)


def _point_mix(rng) -> list[Request]:
    reqs, leads = [], [Request(("estimands", "figure3:b", "--out", "{out}"))]
    for name in PRESET_TAU:
        for u in _strata(rng, POINT_PRESET_REPEATS, 0.6, 1.0):
            at = _r(u * PRESET_TAU[name])
            req = Request(("estimands", name, "--at", repr(at), "--out", "{out}"))
            (leads if name in LARGE_SCANS else reqs).append(req)
    for family, count in POINT_SCENARIOS.items():
        ats = _strata(rng, count, 0.55, 1.0)
        for j, scen in enumerate(_scenarios(rng, family, count, TABULATED_POINTS)):
            name = f"s{len(reqs)}.json"
            at = repr(_r(ats[j] * scen["tau"]))
            oracle = family != "weibull_lt1" and j % 3 == 0
            reqs.append(Request(("estimands", "{in}/" + name, "--at", at, "--out", "{out}"),
                                {name: scen}, oracle=oracle))
    # The minority: frailty maps, peak gaps and the discrete-hazard table.
    for j in range(2):
        var = ",".join(repr(_r(v)) for v in _strata(rng, 4, 0.1, 3.0))
        reqs.append(Request(("frailty", "--family", "gamma", "--param", var,
                             "--theta-id", repr(_r(rng.uniform(0.1, 0.9))),
                             "--grid", f"0:0.99:{int(rng.integers(20, 60))}", "--out", "{out}")))
        kendall = ",".join(repr(_r(v)) for v in _strata(rng, 5, 0.0, 0.9))
        reqs.append(Request(("frailty", "--family", "stable", "--kendall", kendall,
                             "--theta-id", repr(_r(rng.uniform(0.1, 0.9))), "--out", "{out}")))
    for j in range(2):
        f0 = ",".join(repr(_r(v)) for v in _strata(rng, 4, 0.01, 0.6))
        reqs.append(Request(("peakdiff", "--f0", f0, "--ve-points", str(int(rng.integers(100, 300))),
                             "--out", "{out}")))
    for j in range(3):
        f0 = ",".join(repr(_r(v)) for v in _strata(rng, 3, 0.01, 0.6))
        ks = sorted({1, *(int(k) for k in rng.integers(2, 400, 5))})
        reqs.append(Request(("table-discrete", "--ve-ch", repr(_r(rng.uniform(0.1, 0.95))),
                             "--f0", f0, "--k", ",".join(map(str, ks)), "--out", "{out}")))
    return _lead_with_largest(rng, leads, reqs)


# Presets with the largest Cox scans of any request here (figure3:b at its
# full horizon the largest of all).
LARGE_SCANS = ("figure3:b", "figure3:c", "figure3:d")


def _lead_with_largest(rng, leads, reqs):
    """Shuffle the pass, then lead it with the requests of largest memory.

    Run first, on a fresh heap, they set the peak RSS that the benchmark
    reads after the first pass.  Later in a pass the heap has grown by
    30-60 MB (glibc raises its mmap threshold after the first large free),
    and a large scan landing there would make the peak hang on the seed."""
    return leads + [reqs[i] for i in rng.permutation(len(reqs))]


# ---------------------------------------------------------------------------
# curve: estimand values over seeded grids

# Grid sizes are fixed per slot (5-40 points) so every pass costs the same;
# the seed draws the grid points, the scenarios and the pass order.
CURVE_PRESETS = {
    "discussion": 40,
    "figure3:a": 30,
    "figure3:b": 5,
    "rampup:1": 8,
    "rampup:2": 8,
    "rampup:3": 8,
}
# family -> (grid size per request, tabulated table-size range)
CURVE_FAMILIES = {
    "exponential": ((40, 25), (5, 5)),
    "weibull_lt1": ((5,), (5, 5)),
    "weibull_gt1": ((5,), (5, 5)),
    "piecewise": ((5, 5), (5, 5)),
    "tabulated": ((10, 5), (5, 400)),
}


def _grid(rng, count, tau) -> str:
    """``count`` - 1 stratified points in [0.05, 0.95] x tau, then tau itself."""
    pts = [_r(x * tau) for x in _strata(rng, count - 1, 0.05, 0.95)] + [tau]
    return ",".join(repr(x) for x in pts)


def _curve_mix(rng) -> list[Request]:
    reqs = []
    largest = None
    for name, count in CURVE_PRESETS.items():
        argv = ("curve", name, "--grid", _grid(rng, count, PRESET_TAU[name]))
        if name.startswith("rampup:"):
            argv += ("--rampup",)
        if name == "figure3:b":
            largest = Request(argv + ("--out", "{out}"))
        else:
            reqs.append(Request(argv + ("--out", "{out}")))
    for family, (counts, points) in CURVE_FAMILIES.items():
        for count, scen in zip(counts, _scenarios(rng, family, len(counts), points)):
            name = f"s{len(reqs)}.json"
            argv = ("curve", "{in}/" + name, "--grid", _grid(rng, count, scen["tau"]), "--out", "{out}")
            reqs.append(Request(argv, {name: scen}, oracle=family != "weibull_lt1"))
    return _lead_with_largest(rng, [largest], reqs)


# ---------------------------------------------------------------------------
# trial: simulation, fitting and sweeps at 10^3-3 x 10^5 subjects

def _trial_models(rng, j):
    rate0 = rng.uniform(1.8e-3, 2.2e-3)
    theta = rng.uniform(0.45, 0.6)
    if j % 2 == 0:
        return (
            {"kind": "exponential", "rate": _r(rate0)},
            {"kind": "exponential", "rate": _r(theta * rate0)},
        )
    shape = rng.uniform(1.1, 1.3)
    scale0 = 150.0 / (150.0 * rate0) ** (1.0 / shape)
    scale1 = 150.0 / (150.0 * theta * rate0) ** (1.0 / shape)
    return (
        {"kind": "weibull", "shape": _r(shape), "scale": _r(scale0)},
        {"kind": "weibull", "shape": _r(shape), "scale": _r(scale1)},
    )


# Frailty, stopping and accrual rotate over the slots so every combination
# shows up in each pass: frailty none/gamma/stable, stopping fixed-time or
# event-driven, accrual 0 or 365 days.
def _frailty(rng, j):
    family = ("none", "gamma", "positive_stable")[j % 3]
    if family == "none":
        return None
    if family == "gamma":
        return {"family": "gamma", "variance": _r(rng.uniform(0.6, 1.0))}
    return {"family": "positive_stable", "alpha": _r(rng.uniform(0.6, 0.8))}


def _cumulative_hazard(spec, t):
    if spec["kind"] == "exponential":
        return spec["rate"] * t
    return (t / spec["scale"]) ** spec["shape"]


def _event_fraction(cfg, calendar):
    """Expected pooled share of subjects with an event by ``calendar``."""
    fr = cfg["frailty"]
    accrual = cfg["accrual"]
    entry = np.linspace(0.0, min(accrual, calendar), 201) if accrual else np.zeros(1)
    share = 0.0
    for spec in (cfg["model0"], cfg["model1"]):
        lam = _cumulative_hazard(spec, calendar - entry)
        if fr is None:
            surv = np.exp(-lam)
        elif fr["family"] == "gamma":
            surv = (1.0 + fr["variance"] * lam) ** (-1.0 / fr["variance"])
        else:
            surv = np.exp(-lam ** fr["alpha"])
        # Entry is uniform on [0, accrual]; later entrants have no events yet.
        enrolled = min(calendar / accrual, 1.0) if accrual else 1.0
        share += 0.5 * enrolled * float(np.mean(1.0 - surv))
    return share


def _trial_config(rng, j, n):
    """Trial config plus interior fit knots that lie inside its horizon.

    The horizon is 90-120 days; event-driven slots stop at the event count
    expected by then, so the knots stay inside the realized horizon.
    """
    m0, m1 = _trial_models(rng, j)
    cfg = {
        "n": n,
        "allocation": 0.5,
        "model0": m0,
        "model1": m1,
        "frailty": _frailty(rng, j),
        "stopping": None,
        "accrual": 365.0 if (j // 3) % 2 else 0.0,
        "seed": int(rng.integers(1, 2**31)),
    }
    horizon = _r(rng.uniform(90.0, 120.0))
    if j % 2 == 0:
        cfg["stopping"] = {"fixed_time": horizon}
    else:
        cfg["stopping"] = {"total_events": max(1, int(round(n * _event_fraction(cfg, horizon))))}
    knots = [_r(horizon * q) for q in (0.2, 0.45, 0.7)]
    return cfg, knots


SIMULATE_SIZES = ((300_000, 300_000), (100_000, 120_000))
FIT_SIM_COUNT = 11
FIT_SIM_SIZES = (200_000, 220_000)
SWEEP_N_LIST = [2_000, 20_000, 100_000]
SWEEP_REPLICATES = 10


def _trial_mix(rng) -> list[Request]:
    reqs = []
    slot = 0
    # simulate, then fit its own trial.csv read back through data_csv.
    for (lo, hi), family in zip(SIMULATE_SIZES, ("constant", "weibull_local")):
        n = int(rng.integers(lo, hi + 1))
        cfg, knots = _trial_config(rng, slot, n)
        slot += 1
        sim_name = f"t{len(reqs)}.json"
        sim_index = len(reqs)
        reqs.append(Request(("simulate", "--config", "{in}/" + sim_name, "--out", "{out}"),
                            {sim_name: cfg}))
        fit = {
            "data_csv": "{outs}/" + f"r{sim_index}/trial.csv",
            "knots": knots,
            "family": family,
            "alphas": [_r(a) for a in _strata(rng, 2, 0.3, 1.0)],
        }
        fit_name = f"f{len(reqs)}.json"
        reqs.append(Request(("fit", "--config", "{in}/" + fit_name, "--out", "{out}"),
                            {fit_name: fit}, source=sim_index))
    # fit from a fresh simulation, both families, several alphas.
    for j, n in enumerate(_strata(rng, FIT_SIM_COUNT, *FIT_SIM_SIZES)):
        cfg, knots = _trial_config(rng, slot, int(n))
        slot += 1
        fit = {
            "trial": cfg,
            "knots": knots,
            "family": ("constant", "weibull_local")[j % 2],
            "equal_first_interval": j % 3 == 2,
            "alphas": [_r(a) for a in _strata(rng, 3, 0.3, 1.0)],
        }
        name = f"f{len(reqs)}.json"
        reqs.append(Request(("fit", "--config", "{in}/" + name, "--out", "{out}"), {name: fit}))
    # consistency sweeps over all five estimators.
    for j in range(2):
        # An event-driven sweep stops at the same count for every n, so the
        # count is set for the smallest n.
        cfg, _ = _trial_config(rng, slot, SWEEP_N_LIST[0])
        slot += 1
        sweep = {
            "trial": cfg,
            "n_list": SWEEP_N_LIST,
            "replicates": SWEEP_REPLICATES,
            "estimators": ESTIMATORS,
        }
        name = f"w{len(reqs)}.json"
        reqs.append(Request(("sweep", "--config", "{in}/" + name, "--out", "{out}"), {name: sweep}))
    return reqs


_BUILDERS = {"point": _point_mix, "curve": _curve_mix, "trial": _trial_mix}


def build_mix(workload: str, seed: int) -> list[Request]:
    """The seeded pass of requests for ``workload``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _BUILDERS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))
