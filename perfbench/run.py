"""erbfit benchmark: run the `erbfit` CLI on named workloads and check every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --trace 0|1

Load model: a closed loop with one client.  One benchmark process runs one
`erbfit` command at a time, each in a fresh interpreter, from the checkout's
own `src/`, with the BLAS thread count capped at the number of usable cores.
The seed only shapes the generated inputs; the program receives nothing but
the PQR and model files.

--trace 0 times whole commands and prints the end-to-end metrics.  --trace 1
runs one untraced and one traced round (see traced_cli.py), times single
model-layer calls (see microbench.py) and prints the per-layer metrics.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when any
output check failed.  Metrics, workloads and the layer map are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUNDLED_PQR = ROOT / "tests" / "data" / "molecule.pqr"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

# exactly what the `erbfit` console script runs
CLI = ("-c", "import sys; from erbfit.cli import main; sys.exit(main())")
COMMAND_TIMEOUT_S = 170.0
# mesh spacing of a compare set-up probe: a small mesh pass after the full set-up
PROBE_MESH_SPACING = "4.0"
# criterion 5 of the acceptance gate
ENVELOPE = {"sparse_ratio": 0.5, "Error_A": 0.05, "Error_V": 0.05, "H": 1.5}
HASHED_OUTPUTS = ("model.json", "trace.csv", "weights.txt", "compare.json")


@dataclass(frozen=True)
class Workload:
    name: str
    molecule: str                    # "bundled" or "globule"
    fit_args: tuple[str, ...] | None  # sparsify flags; None: the workload does not fit
    compare: bool                    # run `erbfit compare` after the fit (or on the stand-in)
    envelope: bool                   # the fit must meet the criterion 5 envelope
    probes: int                      # set-up probes per run, half before and half after the rounds;
                                     # fewer where one probe takes seconds
    why: str

    @property
    def max_iter(self) -> int:
        return int(self.fit_args[self.fit_args.index("--max-iter") + 1])


WORKLOADS = {w.name: w for w in (
    Workload("bundled-roundtrip", "bundled", ("--max-iter", "2000", "--sparse-iter", "1500"), True, True, 4,
             "21 atoms: per-basis call overhead in optimizer and model; only source of paper quality"),
    Workload("globule400-fit", "globule", ("--max-iter", "3", "--sparse-iter", "3"), False, False, 2,
             "400 atoms x 50k constraints: arithmetic-bound field, selection and fit"),
    Workload("globule400-compare", "globule", None, True, False, 4,
             "400 atoms: field, model and mesh as single large passes, no optimizer"),
)}

# span name -> the call it wraps; a required span with no calls fails the traced run
HOOKS = {
    "pqr.parse": "erbfit.cli.parse_pqr_file",
    "sampler.select": "erbfit.cli.select_constraints",
    "field.select_eval": "erbfit.sampler.eval_phi_batch",
    "initializer.init": "erbfit.cli.init_model",
    "optimizer.optimize": "erbfit.cli.optimize",
    "optimizer.line_search": "erbfit.optimizer.line_search",
    "optimizer.objective": "objective passed to erbfit.optimizer.line_search",
    "model.post": "erbfit.cli.energy_terms / erbfit.cli.max_pointwise_error",
    "io.write": "erbfit.cli.save_model / IterationTrace.to_csv / write_weight_histogram",
    "io.load": "erbfit.cli.load_model",
    "mesh.compare": "erbfit.cli.compare_surfaces",
    "mesh.marching": "erbfit.mesh.extract_isosurface",
    "field.mesh_eval": "field evaluator passed to erbfit.mesh.compare_surfaces",
    "model.mesh_eval": "model evaluator passed to erbfit.mesh.compare_surfaces",
    "mesh.hausdorff": "erbfit.mesh.hausdorff",
}
REQUIRED_SPANS = {
    "sparsify": ("pqr.parse", "sampler.select", "field.select_eval", "initializer.init",
                 "optimizer.optimize", "optimizer.line_search", "optimizer.objective",
                 "model.post", "io.write"),
    "compare": ("pqr.parse", "io.load", "mesh.compare", "mesh.marching",
                "field.mesh_eval", "model.mesh_eval", "mesh.hausdorff"),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def blas_cap() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_cap())
    return env


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "erbfit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_revision": rev or "unknown (not a git checkout)",
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_cap(),
        "seed": seed,
        "load_model": "closed loop, 1 client, 1 command at a time",
    }


class Runner:
    """Runs erbfit commands for one workload and checks their outputs."""

    def __init__(self, workload: Workload, work: Path, source: str):
        self.workload = workload
        self.work = work
        self.source = source
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_commands: set[int] = set()
        self.ledger_path = WORK_ROOT / "hashes.json"

    def spawn(self, argv: list[str], log: str) -> dict:
        """Run one process to completion; wall time and peak RSS from wait4."""
        self.attempted += 1
        t_spawn = time.perf_counter()
        with open(self.work / log, "w") as out:
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
        wall = time.perf_counter() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (self.work / log).read_text().strip().splitlines()[-1:]
            self.fail(f"{' '.join(argv[2:])}: exit code {proc.returncode}: {' '.join(tail)}")
        return {"t_spawn": t_spawn, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "exit": proc.returncode}

    def erbfit(self, args: list[str], log: str) -> dict:
        return self.spawn([sys.executable, *CLI, *args], log)

    def erbfit_traced(self, args: list[str], spans: str, log: str) -> dict:
        return self.spawn([sys.executable, str(BENCH / "traced_cli.py"), spans, *args], log)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        self.failed_commands.add(self.attempted)
        print(f"CHECK FAILED [{self.workload.name}]: {message}", file=sys.stderr)

    # -- one round: the workload's commands, in order --------------------------------

    def commands(self) -> list[tuple[str, list[str]]]:
        w = self.workload
        cmds = []
        if w.fit_args is not None:
            cmds.append(("sparsify", ["sparsify", "inputs/mol.pqr", "--out", "out", *w.fit_args]))
        if w.compare:
            model = "out/model.json" if w.fit_args is not None else "inputs/standin.json"
            cmds.append(("compare", ["compare", "inputs/mol.pqr", model, "--out", "out"]))
        return cmds

    def round(self, traced: bool) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        results = {}
        for kind, args in self.commands():
            if traced:
                res = self.erbfit_traced(args, f"spans-{kind}.json", f"traced-{kind}.log")
                res["spans"] = self.read_spans(kind)
            else:
                res = self.erbfit(args, f"{kind}.log")
            results[kind] = res
            if res["exit"] != 0:
                break
        outputs = self.check_outputs(results)
        return {"commands": results, "outputs": outputs,
                "wall_s": sum(r["wall_s"] for r in results.values()),
                "rss_mb": max(r["rss_mb"] for r in results.values())}

    def read_spans(self, kind: str) -> dict:
        path = self.work / f"spans-{kind}.json"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            self.fail(f"traced {kind}: no span file ({exc})")
            return {"spans": []}

    # -- output checks ---------------------------------------------------------------

    def check_outputs(self, results: dict) -> dict:
        if any(r["exit"] != 0 for r in results.values()):
            return {}
        out = self.work / "out"
        facts = {}
        if "sparsify" in results:
            facts.update(self.check_sparsify(out))
        if "compare" in results:
            facts.update(self.check_compare(out))
        if self.workload.envelope and facts:
            for key, limit in ENVELOPE.items():
                if not facts.get(key, math.inf) <= limit:
                    self.fail(f"criterion 5 envelope: {key} = {facts.get(key)} > {limit}")
        facts["hashes"] = {name: sha256(out / name) for name in HASHED_OUTPUTS
                           if (out / name).is_file()}
        self.check_ledger(facts["hashes"])
        return facts

    def check_sparsify(self, out: Path) -> dict:
        expected = self.workload.max_iter
        try:
            summary = parse_summary(out / "summary.txt")
            rows = [line for line in (out / "trace.csv").read_text().splitlines()
                    if not line.startswith("#")][1:]
            meta = json.loads((out / "model.json").read_text())["metadata"]
            final = meta["final"]
            optimize_s = float(summary["wall_time_s"])
            (out / "weights.txt").read_text()
        except (OSError, ValueError, KeyError) as exc:
            self.fail(f"sparsify outputs unreadable: {exc!r}")
            return {}
        fields = [row.split(",") for row in rows]
        if len(rows) != expected or any(len(f) != 8 for f in fields):
            self.fail(f"trace.csv: {len(rows)} rows (expected {expected}), "
                      f"field counts {sorted({len(f) for f in fields})} (expected 8)")
        nbasis = [int(f[6]) for f in fields if len(f) == 8]
        if any(b > a for a, b in zip(nbasis, nbasis[1:])):
            self.fail("trace.csv: nbasis increases")
        if int(summary.get("iterations", -1)) != expected or final["iterations"] != expected:
            self.fail(f"summary/model report {summary.get('iterations')} iterations, "
                      f"expected {expected}")
        quality = {k: final[k] for k in ("sparse_ratio", "max_pointwise_error", "Es")}
        if not all(math.isfinite(v) for v in quality.values()):
            self.fail(f"model.json final values not finite: {quality}")
        return {**quality, "optimize_s": optimize_s,
                "n_atoms": meta["n_atoms"], "n_constraints": meta["n_constraints"],
                "final_bases": final["n_bases"],
                "box_extent": [hi - lo for lo, hi in zip(meta["box_lo"], meta["box_hi"])]}

    def check_compare(self, out: Path) -> dict:
        try:
            report = json.loads((out / "compare.json").read_text())["report"]
        except (OSError, ValueError, KeyError) as exc:
            self.fail(f"compare.json unreadable: {exc!r}")
            return {}
        bad = {k: v for k, v in report.items()
               if not (isinstance(v, (int, float)) and math.isfinite(v))}
        if bad:
            self.fail(f"compare.json: non-finite values {bad}")
        return {k: report[k] for k in ("Error_A", "Error_V", "H", "A_original", "V_original")}

    def check_ledger(self, hashes: dict) -> None:
        """The same source on the same inputs must give byte-identical outputs (criterion 9)."""
        inputs = sorted(p for p in (self.work / "inputs").iterdir())
        w = self.workload
        key = " ".join([w.name, f"src:{self.source}", *(w.fit_args or ()),
                        *(f"{p.name}:{sha256(p)}" for p in inputs)])
        try:
            ledger = json.loads(self.ledger_path.read_text())
        except (OSError, ValueError):
            ledger = {}
        seen = ledger.setdefault(key, {})
        differ = [name for name, h in hashes.items() if seen.setdefault(name, h) != h]
        if differ:
            self.fail(f"outputs differ from an earlier run of the same source on the same inputs: {differ}")
        self.ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")

    # -- set-up probes ---------------------------------------------------------------

    def setup_samples(self, n: int) -> list[float]:
        """n program set-up probes, each in a fresh process.

        Fit workloads: zero-iteration `sparsify` runs (parse, field, selection,
        initial model, final energies, writes) minus their optimizer time; each
        round's `sparsify` adds one more sample.  Compare-only workloads:
        `compare` runs of the workload's own inputs on a PROBE_MESH_SPACING mesh
        (parse, field, model load, then a small mesh and Hausdorff pass).
        """
        fit = self.workload.fit_args is not None
        out = self.work / "setup"
        samples = []
        for _ in range(n):
            shutil.rmtree(out, ignore_errors=True)
            if fit:
                res = self.erbfit(["sparsify", "inputs/mol.pqr", "--out", "setup",
                                   "--max-iter", "0", "--sparse-iter", "0"], "setup.log")
                if res["exit"] == 0:
                    samples.append(res["wall_s"] - float(parse_summary(out / "summary.txt")
                                                         ["wall_time_s"]))
            else:
                res = self.erbfit(["compare", "inputs/mol.pqr", "inputs/standin.json",
                                   "--out", "setup", "--mesh-spacing", PROBE_MESH_SPACING],
                                  "setup.log")
                if res["exit"] == 0:
                    samples.append(res["wall_s"])
        return samples


def parse_summary(path: Path) -> dict:
    pairs = (line.split("=", 1) for line in path.read_text().splitlines()
             if "=" in line and not line.startswith("#"))
    return {k: v for k, v in pairs}


def prepare_inputs(workload: Workload, seed: int, work: Path) -> dict:
    """Write the workload's input files under work/inputs; returns their facts."""
    import inputs
    from erbfit.field import bounding_box
    from erbfit.sampler import make_grid

    shutil.rmtree(work / "inputs", ignore_errors=True)
    if workload.molecule == "bundled":
        made = inputs.write_bundled(work / "inputs", BUNDLED_PQR)
    else:
        made = inputs.write_globule(work / "inputs", seed)
    box = bounding_box(made["molecule"])
    return {
        "n_atoms": len(made["molecule"]),
        "box_extent": [float(v) for v in box.extent],
        "constraint_grid_points": make_grid(box, 1.0).n_points,
        "mesh_grid_points": make_grid(box, 0.5).n_points,  # erbfit's default mesh spacing
        "input_sha256": {p.name: sha256(p) for p in sorted((work / "inputs").iterdir())},
    }


# -- metrics ---------------------------------------------------------------------------

def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    probes = runner.workload.probes
    setup = runner.setup_samples(probes // 2)
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(runner.round(traced=False))
        if runner.failures:
            break
    setup += runner.setup_samples(probes - probes // 2)
    for r in rounds:
        cmds, outs = r["commands"], r["outputs"]
        if "sparsify" in cmds and "optimize_s" in outs:
            setup.append(cmds["sparsify"]["wall_s"] - outs["optimize_s"])
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
    }
    details = {"rounds": len(rounds), "setup_samples": setup,
               "round_walls_s": [r["wall_s"] for r in rounds]}
    for kind in ("sparsify", "compare"):
        walls = [r["commands"][kind]["wall_s"] for r in rounds if kind in r["commands"]]
        if walls:
            details[f"{kind}_s"] = statistics.median(walls)
    last = rounds[-1]["outputs"]
    if "optimize_s" in last:
        details["optimize_ms_per_iter"] = statistics.median(
            1e3 * r["outputs"]["optimize_s"] / runner.workload.max_iter for r in rounds
            if "optimize_s" in r["outputs"])
    details["outputs"] = last
    return metrics, details


def self_times(spans: list[dict]) -> dict:
    """Per-name totals: (self time, total time, calls); self excludes child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    totals: dict[str, list] = {}
    for s, c in zip(spans, child):
        t = totals.setdefault(s["name"], [0.0, 0.0, 0])
        t[0] += s["end"] - s["start"] - c
        t[1] += s["end"] - s["start"]
        t[2] += 1
    return totals


def per_layer(runner: Runner, n_atoms: int) -> tuple[dict, dict]:
    plain = runner.round(traced=False)
    traced = runner.round(traced=True)

    totals: dict[str, list] = {}
    counts: dict[str, float] = {}
    startup = unattributed = 0.0
    breakdown = {}
    for kind, cmd in traced["commands"].items():
        doc = cmd["spans"]
        spans = doc.get("spans", [])
        mine = self_times(spans)
        for name in REQUIRED_SPANS[kind]:
            if mine.get(name, [0, 0, 0])[2] == 0:
                runner.fail(f"traced {kind}: hook {HOOKS[name]} ({name}) recorded no calls")
        start = doc.get("t_main", cmd["t_spawn"]) - cmd["t_spawn"]
        attributed = start + sum(v[0] for n, v in mine.items() if n != "cli.main")
        startup += start
        unattributed += cmd["wall_s"] - attributed
        breakdown[kind] = {"wall_s": cmd["wall_s"], "startup_s": start,
                           "unattributed_s": cmd["wall_s"] - attributed,
                           "self_s": {n: v[0] for n, v in sorted(mine.items())}}
        for name, (self_s, total_s, calls) in mine.items():
            t = totals.setdefault(name, [0.0, 0.0, 0])
            t[0] += self_s
            t[1] += total_s
            t[2] += calls
        for s in spans:
            for key, value in s.items():
                if key not in ("name", "start", "end", "parent"):
                    counts[f"{s['name']}:{key}"] = counts.get(f"{s['name']}:{key}", 0) + value

    def self_s(name):
        return totals.get(name, [0.0, 0.0, 0])[0]

    def total_s(name):
        return totals.get(name, [0.0, 0.0, 0])[1]

    def calls(name):
        return totals.get(name, [0.0, 0.0, 0])[2]

    micro = microbench(runner)
    iters = counts.get("optimizer.optimize:iterations", 0)
    grid = counts.get("sampler.select:grid_points", 0)
    kept = counts.get("sampler.select:constraints", 0)
    field_points = (counts.get("field.select_eval:points", 0)
                    + counts.get("field.mesh_eval:points", 0))
    field_s = total_s("field.select_eval") + total_s("field.mesh_eval")
    outs = plain["outputs"]
    m = {
        "cli.startup_s": (startup, "s"),
        "cli.sparsify_s": (plain["commands"].get("sparsify", {}).get("wall_s", 0.0), "s"),
        "cli.compare_s": (plain["commands"].get("compare", {}).get("wall_s", 0.0), "s"),
        "cli.optimize_ms_per_iter": (1e3 * outs["optimize_s"] / iters
                                     if iters and "optimize_s" in outs else 0.0, "ms"),
        "pqr.parse_s": (total_s("pqr.parse"), "s"),
        "sampler.select_s": (self_s("sampler.select"), "s"),
        "field.select_eval_s": (total_s("field.select_eval"), "s"),
        "sampler.grid_points": (grid, "count"),
        "sampler.constraints": (kept, "count"),
        "sampler.kept_ratio": (kept / grid if grid else 0.0, "ratio"),
        "sampler.far_field_ratio": (counts.get("sampler.select:far_field", 0) / kept
                                    if kept else 0.0, "ratio"),
        "initializer.init_s": (total_s("initializer.init"), "s"),
        "model.values_ms.initial": (1e3 * micro["initial"]["values_s"], "ms"),
        "model.values_ms.final": (1e3 * micro["final"]["values_s"], "ms"),
        "model.gradient_ms.initial": (1e3 * micro["initial"]["gradient_s"], "ms"),
        "model.gradient_ms.final": (1e3 * micro["final"]["gradient_s"], "ms"),
        "model.terms_per_s": (micro["terms_per_s"], "1/s"),
        "model.post_s": (total_s("model.post"), "s"),
        "model.mesh_eval_s": (total_s("model.mesh_eval"), "s"),
        "optimizer.optimize_s": (total_s("optimizer.optimize"), "s"),
        "optimizer.self_s": (self_s("optimizer.optimize"), "s"),
        "optimizer.line_search_s": (total_s("optimizer.line_search"), "s"),
        "optimizer.objective_s": (total_s("optimizer.objective"), "s"),
        "optimizer.iterations": (iters, "count"),
        "optimizer.objective_evals": (calls("optimizer.objective"), "count"),
        "optimizer.evals_per_iter": (calls("optimizer.objective") / iters if iters else 0.0,
                                     "ratio"),
        "optimizer.stalls": (counts.get("optimizer.optimize:stalls", 0), "count"),
        "optimizer.prune_events": (counts.get("optimizer.optimize:prune_events", 0), "count"),
        "optimizer.pure_accuracy_iters": (counts.get("optimizer.optimize:pure_accuracy_iters", 0),
                                          "count"),
        "optimizer.final_bases": (counts.get("optimizer.optimize:final_bases", 0), "count"),
        "optimizer.basis_point_work": (counts.get("optimizer.optimize:basis_point_work", 0),
                                       "count"),
        "field.mesh_eval_s": (total_s("field.mesh_eval"), "s"),
        "field.kernel_terms": (field_points * n_atoms, "count"),
        "field.terms_per_s": (field_points * n_atoms / field_s if field_s else 0.0, "1/s"),
        "mesh.marching_s": (self_s("mesh.marching"), "s"),
        "mesh.grid_points": (counts.get("field.mesh_eval:points", 0)
                             + counts.get("model.mesh_eval:points", 0), "count"),
        "mesh.triangles": (counts.get("mesh.marching:triangles", 0), "count"),
        "mesh.hausdorff_s": (total_s("mesh.hausdorff"), "s"),
        "mesh.hausdorff_samples": (counts.get("mesh.hausdorff:samples", 0), "count"),
        "mesh.metrics_s": (self_s("mesh.compare"), "s"),
        "io.load_s": (total_s("io.load"), "s"),
        "io.write_s": (total_s("io.write"), "s"),
        "fit.sparse_ratio": (outs.get("sparse_ratio", 0.0), "ratio"),
        "fit.max_pointwise_error": (outs.get("max_pointwise_error", 0.0), "1"),
        "compare.Error_A": (outs.get("Error_A", 0.0), "ratio"),
        "compare.Error_V": (outs.get("Error_V", 0.0), "ratio"),
        "compare.H": (outs.get("H", 0.0), "A"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_s": (traced["wall_s"] - plain["wall_s"], "s"),
        "trace.unattributed_s": (unattributed, "s"),
    }
    details = {"untraced_wall_s": plain["wall_s"], "breakdown": breakdown,
               "microbench": micro, "outputs": outs}
    return m, details


def microbench(runner: Runner) -> dict:
    final = "out/model.json" if runner.workload.fit_args is not None else "inputs/standin.json"
    res = runner.spawn([sys.executable, str(BENCH / "microbench.py"), "inputs/mol.pqr",
                        final, "microbench.json"], "microbench.log")
    empty = {"bases": 0, "values_s": 0.0, "gradient_s": 0.0}
    if res["exit"] != 0:
        return {"initial": empty, "final": empty, "terms_per_s": 0.0}
    micro = json.loads((runner.work / "microbench.json").read_text())
    terms = sum(micro[k]["bases"] * micro["points"] for k in ("initial", "final"))
    secs = sum(micro[k]["values_s"] for k in ("initial", "final"))
    micro["terms_per_s"] = terms / secs
    return micro


# -- reporting -------------------------------------------------------------------------

def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_ROOT / workload.name
    work.mkdir(parents=True, exist_ok=True)
    env = environment(seed)
    facts = prepare_inputs(workload, seed, work)
    runner = Runner(workload, work, env["source_sha256"])
    runner.erbfit(["--version"], "warmup.log")  # compiles bytecode; not measured
    runner.attempted = 0
    if trace:
        metrics, details = per_layer(runner, facts["n_atoms"])
    else:
        metrics, details = end_to_end(runner, seconds)
    result = {
        "correct": not runner.failures,
        "attempted": max(runner.attempted, 1),
        "failed": len(runner.failed_commands),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": workload.name, "why": workload.why, "trace": trace,
              "environment": env, "inputs": facts, "details": details,
              "failures": runner.failures, **result}
    results_dir = WORK_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"== {workload.name} (seed {seed}, {'traced' if trace else 'untraced'}): "
          f"{workload.why}")
    print(f"   env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
          f"rev {env['git_revision'][:12]}, src {env['source_sha256'][:12]}")
    print(f"   inputs: N={facts['n_atoms']}, box "
          f"{' x '.join(f'{v:.1f}' for v in facts['box_extent'])} A, constraint grid "
          f"{facts['constraint_grid_points']}, mesh grid {facts['mesh_grid_points']}")
    n = details.get("rounds", 1)
    for name, (value, unit) in metrics.items():
        print(f"   {name} = {value:.6g} {unit}")
    if not trace:
        print(f"   ({n} round(s); setup_s over {len(details['setup_samples'])} samples)")
        for key, unit in (("sparsify_s", "s"), ("compare_s", "s"),
                          ("optimize_ms_per_iter", "ms")):
            if key in details:
                print(f"   {key} = {details[key]:.6g} {unit} (median of {n})")
        outs = details["outputs"]
        for key in ("sparse_ratio", "max_pointwise_error", "Error_A", "Error_V", "H",
                    "n_constraints", "final_bases"):
            if key in outs:
                print(f"   {key} = {outs[key]:.6g} (deterministic)")
        for name, digest in outs.get("hashes", {}).items():
            print(f"   sha256 {name} = {digest}")
    else:
        for kind, b in details["breakdown"].items():
            print(f"   traced {kind}: wall {b['wall_s']:.3f} s = startup {b['startup_s']:.3f} s"
                  f" + layer self times {b['wall_s'] - b['startup_s'] - b['unattributed_s']:.3f}"
                  f" s + unattributed {b['unattributed_s']:.3f} s")
    print(f"   failed_fraction = {result['failed']}/{result['attempted']}"
          f"{'  FAILED: ' + '; '.join(runner.failures) if runner.failures else ''}")
    print(f"   record: {path}")
    print(json.dumps(result))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "erbfit" / "cli.py", BUNDLED_PQR) if not p.is_file()]
    if missing:
        print(f"error: not an erbfit checkout, missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update({k: v for k, v in child_env().items() if k.endswith("_THREADS")})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
