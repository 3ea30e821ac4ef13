"""Correctness gate: checks every response outside the timed section.

Two kinds of check run on each response:

* invariants and oracles that hold for any seed (IR inside its own
  bounds, Cox = CH = 1 - lam1/lam0 on exponential pairs, Cox against the
  fixed-point oracle of the test suite, trial rows = n, event totals that
  agree between files, manifest digests that match the artifacts);
* for the reference seed, agreement with outputs recorded from a known-good
  commit: strings, counts and flags exactly, floats within the tolerance
  that ``design.json`` states.  Large artifacts (``trial.csv``) are
  compared through summary statistics, not stored.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
TOL = DESIGN["correctness"]["tolerance"]
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = DESIGN["correctness"]["reference_seed"]

MANIFEST = "vekit_manifest.json"
INT_COLUMNS = {"id", "arm", "observed", "n", "replicates", "k"}
_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


# ---------------------------------------------------------------------------
# Digests: the comparable content of each artifact

def _cell(column: str, text: str):
    if text == "":
        return None
    if column in INT_COLUMNS:
        return int(text)
    if text == "nan":
        return "nan"
    try:
        return float(text)
    except ValueError:
        return text


def _trial_summary(text: str) -> dict:
    lines = text.split("\n", 2)
    raw = np.loadtxt(lines[2].splitlines(), delimiter=",", ndmin=2) if lines[2] else np.zeros((0, 5))
    ids, arm, entry, time, observed = raw.T
    return {
        "schema": lines[0],
        "header": lines[1],
        "rows": int(raw.shape[0]),
        "ids_in_order": bool(np.array_equal(ids, np.arange(raw.shape[0]))),
        "arm_values": sorted({int(a) for a in np.unique(arm)}),
        "observed_values": sorted({int(o) for o in np.unique(observed)}),
        "arm1": int(arm.sum()),
        "events": int(observed.sum()),
        "events_arm1": int((observed * arm).sum()),
        "entry_sum": float(entry.sum()),
        "time_sum": float(time.sum()),
        "time_arm1_sum": float((time * arm).sum()),
        "time_min": float(time.min()) if time.size else 0.0,
        "time_max": float(time.max()) if time.size else 0.0,
    }


def digest(name: str, text: str):
    """Comparable content of one artifact."""
    if name == "trial.csv":
        return _trial_summary(text)
    if name.endswith(".csv"):
        lines = text.rstrip("\n").split("\n")
        header = lines[1].split(",")
        rows = [[_cell(c, v) for c, v in zip(header, line.split(","))] for line in lines[2:]]
        return {"schema": lines[0], "header": header, "rows": rows}
    if name.endswith(".json"):
        return json.loads(text)
    return text


def read_outputs(out_dir: Path) -> dict:
    """{artifact name: text} for everything the request wrote."""
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# Comparison against the reference

def close(ref: float, got: float) -> bool:
    return abs(got - ref) <= TOL["abs"] + TOL["rel"] * abs(ref)


def _text_close(ref: str, got: str) -> bool:
    """Same text apart from numbers, which agree to the tolerance or to the
    last digit the reference printed (so a rounding flip is not a mismatch)."""
    if _NUMBER.sub("#", ref) != _NUMBER.sub("#", got):
        return False
    for a, b in zip(_NUMBER.findall(ref), _NUMBER.findall(got)):
        if not re.search(r"[.eE]", a):
            if a != b:
                return False
            continue
        mantissa, _, exp = a.lower().partition("e")
        decimals = len(mantissa.partition(".")[2])
        unit = 10.0 ** (int(exp or 0) - decimals)
        fa, fb = float(a), float(b)
        if not (close(fa, fb) or abs(fa - fb) <= unit * (1 + 1e-9)):
            return False
    return True


def compare(ref, got, path="") -> list[str]:
    """Mismatches between a reference digest and a fresh one."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(set(ref) ^ set(got))} differ"]
        out = []
        for key in ref:
            out += compare(ref[key], got[key], f"{path}.{key}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != reference {len(ref)}"]
        out = []
        for j, (a, b) in enumerate(zip(ref, got)):
            out += compare(a, b, f"{path}[{j}]")
        return out
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
        return [] if ref == got else [f"{path}: {got!r} != reference {ref!r}"]
    if isinstance(ref, int) and isinstance(got, int):
        return [] if ref == got else [f"{path}: {got} != reference {ref}"]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return [] if close(float(ref), float(got)) else [f"{path}: {got!r} != reference {ref!r}"]
    if isinstance(ref, str) and isinstance(got, str):
        return [] if _text_close(ref, got) else [f"{path}: {got!r} != reference {ref!r}"]
    return [f"{path}: type {type(got).__name__} != reference {type(ref).__name__}"]


def load_reference(workload: str, seed: int, mix) -> list | None:
    """Recorded digests for this workload, or None off the reference seed."""
    if seed != REFERENCE_SEED:
        return None
    ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[workload]
    if [r["request_sha256"] for r in ref] != [request_sha256(req) for req in mix]:
        raise ValueError(f"{REFERENCE_PATH.name} does not match the {workload} request mix")
    return [r["outputs"] for r in ref]


def request_sha256(req) -> str:
    """Fingerprint of a generated request, to tie the reference to its mix."""
    return hashlib.sha256(json.dumps(req.to_jsonable(), sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Invariants and oracles (any seed)

def _load_oracle():
    """cox_fixed_point_oracle from the test suite, loaded by path."""
    path = HERE.parent / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_vekit_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cox_fixed_point_oracle


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _rows(dig, column):
    j = dig["header"].index(column)
    return [row[j] for row in dig["rows"]]


class Gate:
    """Checks one workload's responses; ``check`` returns a list of errors."""

    def __init__(self, workload: str, seed: int, mix, presets: dict, in_dir: Path, out_root: Path,
                 use_reference: bool = True):
        import vekit
        from vekit import distributions

        self.vekit = vekit
        self.parse = distributions.parse_distribution
        self.mix = mix
        self.presets = presets
        self.in_dir = in_dir
        self.out_root = out_root
        self.reference = load_reference(workload, seed, mix) if use_reference else None
        self._oracle = None
        self._scenarios = {}

    # -- helpers ----------------------------------------------------------

    def oracle(self, scenario, t):
        if self._oracle is None:
            self._oracle = _load_oracle()
        return self._oracle(scenario, t)

    def scenario(self, arg: str):
        if arg in self.presets:
            return self.presets[arg]
        if arg not in self._scenarios:
            obj = json.loads((self.in_dir / Path(arg).name).read_text(encoding="utf-8"))
            self._scenarios[arg] = self.vekit.Scenario(
                f0=self.parse(obj["f0"]), f1=self.parse(obj["f1"]), tau=float(obj["tau"]),
                t_ru=obj.get("t_ru"),
            )
        return self._scenarios[arg]

    def _exp_ve(self, s):
        E = self.vekit.Exponential
        if isinstance(s.f0, E) and isinstance(s.f1, E):
            return 1.0 - s.f1.rate / s.f0.rate
        return None

    def _config(self, argv):
        return json.loads((self.in_dir / Path(_opt(argv, "--config")).name).read_text(encoding="utf-8"))

    # -- entry point ------------------------------------------------------

    def check(self, index: int, rc, outputs: dict) -> list[str]:
        req = self.mix[index]
        if rc != 0:
            return [f"exit {rc!r}"]
        errors = []
        manifest = json.loads(outputs.get(MANIFEST, "{}"))
        artifacts = {k: v for k, v in outputs.items() if k != MANIFEST}
        want = manifest.get("outputs", {})
        got = {k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in artifacts.items()}
        if want != got:
            errors.append("manifest digests do not match the artifacts")
        try:
            digests = {k: digest(k, v) for k, v in artifacts.items()}
            errors += getattr(self, "_" + req.kind.replace("-", "_"))(req, digests)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            return errors + [f"malformed output: {type(exc).__name__}: {exc}"]
        if self.reference is not None:
            errors += compare(self.reference[index], digests)
        return errors

    # -- per subcommand ---------------------------------------------------

    def _estimands(self, req, d):
        errors = []
        out = d["estimands.json"]
        ve = out["ve"]
        if not all(math.isfinite(v) for v in ve.values()):
            errors.append(f"non-finite VE {ve}")
        lo, hi = out["ir_bounds_ve"]
        if not lo - 1e-9 <= ve["ir"] <= hi + 1e-9:
            errors.append(f"VE_IR {ve['ir']} outside its bounds [{lo}, {hi}]")
        s = self.scenario(req.argv[1])
        t = float(_opt(req.argv, "--at", s.tau))
        exact = self._exp_ve(s)
        if exact is not None:
            for kind in ("cox", "ch"):
                if abs(ve[kind] - exact) > 1e-7:
                    errors.append(f"exponential pair: VE_{kind} {ve[kind]} != {exact}")
        if req.oracle:
            want = self.oracle(s, t)
            if abs(ve["cox"] - want) > DESIGN["correctness"]["oracle_abs"]:
                errors.append(f"VE_Cox {ve['cox']} != fixed-point oracle {want}")
        return errors

    def _curve(self, req, d):
        errors = []
        out = d["curve.csv"]
        grid = [float(x) for x in _opt(req.argv, "--grid").split(",")]
        kinds = ["ci", "ir", "cox", "ch", "odds"]
        header = ["t"] + [f"ve_{k}" for k in kinds]
        rampup = "--rampup" in req.argv
        if rampup:
            header += [f"ve_{k}_rampup" for k in kinds]
        if out["header"] != header:
            return [f"curve header {out['header']} != {header}"]
        if _rows(out, "t") != grid:
            return ["curve rows do not follow the requested grid"]
        s = self.scenario(req.argv[1])
        exact = self._exp_ve(s)
        ci, ir, odds = _rows(out, "ve_ci"), _rows(out, "ve_ir"), _rows(out, "ve_odds")
        for j, t in enumerate(grid):
            p0 = float(s.f0.cdf(t))
            th_ci, th_odds, th_ir = 1 - ci[j], 1 - odds[j], 1 - ir[j]
            if not th_ci * (1 - p0) - 1e-9 <= th_ir <= th_odds / (1 - p0) + 1e-9:
                errors.append(f"t={t}: VE_IR outside its bounds")
            if exact is not None:
                for kind in ("cox", "ch"):
                    if abs(_rows(out, f"ve_{kind}")[j] - exact) > 1e-7:
                        errors.append(f"t={t}: exponential pair VE_{kind} != {exact}")
        if rampup:
            t_ru = s.t_ru
            for kind in kinds:
                col = _rows(out, f"ve_{kind}_rampup")
                if any((v is None) != (t <= t_ru) for v, t in zip(col, grid)):
                    errors.append(f"ve_{kind}_rampup defined on the wrong side of t_ru")
        if req.oracle:
            want = self.oracle(s, grid[-1])
            if abs(_rows(out, "ve_cox")[-1] - want) > DESIGN["correctness"]["oracle_abs"]:
                errors.append(f"t={grid[-1]}: VE_Cox != fixed-point oracle {want}")
        return errors

    def _frailty(self, req, d):
        out = d["frailty.csv"]
        argv = req.argv
        theta_id = float(_opt(argv, "--theta-id"))
        if _opt(argv, "--family") == "gamma":
            params = _opt(argv, "--param").split(",")
            start, stop, count = _opt(argv, "--grid").split(":")
            want_rows = len(params) * int(count)
        else:
            want_rows = len(_opt(argv, "--kendall").split(","))
        if len(out["rows"]) != want_rows:
            return [f"frailty rows {len(out['rows'])} != {want_rows}"]
        errors = []
        if _opt(argv, "--family") == "stable":
            for alpha, pop in zip(_rows(out, "parameter"), _rows(out, "ve_population")):
                if abs(pop - (1.0 - theta_id**alpha)) > 1e-12:
                    errors.append(f"stable alpha={alpha}: VE_pop {pop} != 1 - theta^alpha")
        return errors

    def _peakdiff(self, req, d):
        f0 = _opt(req.argv, "--f0").split(",")
        want = len(f0) * int(_opt(req.argv, "--ve-points"))
        errors = []
        if len(d["peakdiff.csv"]["rows"]) != want:
            errors.append(f"peakdiff rows {len(d['peakdiff.csv']['rows'])} != {want}")
        if len(d["peakdiff_summary.txt"].splitlines()) != len(f0) + 1:
            errors.append("peakdiff summary has the wrong number of lines")
        return errors

    def _table_discrete(self, req, d):
        out = d["table_discrete.csv"]
        f0 = [float(x) for x in _opt(req.argv, "--f0").split(",")]
        ks = _opt(req.argv, "--k").split(",")
        ve_ch = float(_opt(req.argv, "--ve-ch"))
        if len(out["rows"]) != len(f0) * len(ks):
            return [f"table rows {len(out['rows'])} != {len(f0) * len(ks)}"]
        errors = []
        for k, p0, ve in zip(_rows(out, "k"), _rows(out, "f0_tau"), _rows(out, "ve_dh")):
            if k == 1:
                # One assessment: the discrete hazard is the attack rate itself.
                want = 1.0 - (1.0 - (1.0 - p0) ** (1.0 - ve_ch)) / p0
                if abs(ve - want) > 1e-12:
                    errors.append(f"k=1, F0={p0}: VE_dh {ve} != {want}")
        return errors

    def _simulate(self, req, d):
        cfg = self._config(req.argv)
        summary = d["trial.csv"]
        meta = d["trial_meta.json"]
        errors = []
        if summary["rows"] != cfg["n"]:
            errors.append(f"trial rows {summary['rows']} != n {cfg['n']}")
        if not summary["ids_in_order"]:
            errors.append("trial ids are not 0..n-1")
        if not set(summary["arm_values"]) <= {0, 1}:
            errors.append(f"arms {summary['arm_values']} outside {{0, 1}}")
        if not set(summary["observed_values"]) <= {0, 1}:
            errors.append(f"observed flags {summary['observed_values']} outside {{0, 1}}")
        if meta["events"] != summary["events"]:
            errors.append(f"meta events {meta['events']} != observed sum {summary['events']}")
        if summary["time_min"] < 0:
            errors.append("negative follow-up time")
        stop = cfg["stopping"]
        if "fixed_time" in stop and summary["time_max"] > stop["fixed_time"]:
            errors.append("follow-up beyond the fixed study time")
        if "total_events" in stop and meta["events"] != stop["total_events"]:
            errors.append(f"event-driven stop at {meta['events']} != {stop['total_events']} events")
        return errors

    def _fit(self, req, d):
        cfg = self._config(req.argv)
        fit = d["fit.json"]
        sens = d["sensitivity.csv"]
        intervals = len(fit["edges"]) - 1
        errors = []
        if [len(a) for a in fit["arms"]] != [intervals, intervals]:
            return ["fit.json arms do not cover every interval"]
        if len(sens["rows"]) != len(cfg["alphas"]) * intervals:
            errors.append("sensitivity rows != alphas x intervals")
        pooled_first = bool(cfg.get("equal_first_interval"))
        events = sum(
            f["events"]
            for z in (0, 1)
            for j, f in enumerate(fit["arms"][z])
            if not (pooled_first and j == 0 and z == 1)
        )
        if req.source is not None:
            meta = json.loads((self.out_root / f"r{req.source}" / "trial_meta.json").read_text())
            if events != meta["events"]:
                errors.append(f"fit events {events} != the trial's {meta['events']}")
        elif events > cfg["trial"]["n"]:
            errors.append(f"fit events {events} exceed n")
        return errors

    def _sweep(self, req, d):
        cfg = self._config(req.argv)
        out = d["sweep.csv"]
        want = [(n, e) for n in cfg["n_list"] for e in cfg["estimators"]]
        got = list(zip(_rows(out, "n"), _rows(out, "estimator")))
        errors = []
        if got != want:
            errors.append("sweep rows do not follow n_list x estimators")
        if any(not 0 <= r <= cfg["replicates"] for r in _rows(out, "replicates")):
            errors.append("sweep replicate count out of range")
        return errors
