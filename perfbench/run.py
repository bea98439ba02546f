"""Benchmark of the preadaptive-control simulator: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  A run builds the workload's inputs (set-up), repeats whole
rounds of the workload until ``--seconds`` have passed (at least one round),
then checks the last round's outputs with ``checks.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` one untraced and one traced round run, and the metrics are the
per-layer split from ``tracer.py``, also written to ``perfbench/out/``.
See README.md for what each workload and metric is for.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SCENARIOS = SRC / "preadaptive_control" / "scenarios"
GRAD_DELTA = 1e-5       # the CLI's default finite-difference step


def process_age():
    """Seconds since this process started (the kernel counts in clock ticks)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def cpu_seconds():
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def import_package():
    if not (SRC / "preadaptive_control" / "__init__.py").is_file():
        sys.exit(f"error: no preadaptive_control package under {SRC}")
    sys.path.insert(0, str(SRC))
    import preadaptive_control

    if Path(preadaptive_control.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported {preadaptive_control.__file__}, not the checkout's")


def result_digest(h, res):
    """Hash a run's trace arrays in place (no copy: the peak RSS is read later)."""
    arrays = [res.trace[k] for k in sorted(res.trace)]
    if res.net is not None:
        arrays += [res.net.W, res.net.V]
    for a in arrays:
        h.update(a.data if a.flags.c_contiguous else a.tobytes())
    h.update(repr([(p.t_u, p.t_d, p.peak_abs_e, p.E_phase) for p in res.phases]).encode())


def record_from_result(name, res):
    from checks import RunRecord

    cfg, tr = res.config, res.trace
    return RunRecord(
        name=name, A=cfg.plant.A, B=cfg.plant.B, B1r=cfg.plant.B1r,
        iy=cfg.plant.output_index - 1, Q=cfg.Q, R=cfg.R, gamma=cfg.gamma,
        k0=cfg.k0, r=cfg.r, dt=cfg.dt, x0=cfg.x0,
        c_e=cfg.attention.c_e, c_ed=cfg.attention.c_ed,
        t=tr["t"], x=tr["x"], x_r=tr["x_r"], e=tr["e"], edot_hat=tr["edot_hat"],
        theta=tr["theta"], theta_hat=tr["theta_hat"], u=tr["u"],
        Eu=tr["Eu"], Ed=tr["Ed"],
        phases=[(p.t_u, p.t_d, p.peak_abs_e) for p in res.phases],
    )


def record_from_files(name, out_dir):
    """Rebuild a run from the CLI's trace.csv and summary.yaml."""
    import numpy as np
    import yaml

    from checks import RunRecord

    with open(out_dir / "trace.csv") as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(out_dir / "trace.csv", delimiter=",", skiprows=1)
    with open(out_dir / "summary.yaml") as f:
        summary = yaml.safe_load(f)

    def cols(prefix):
        idx = [i for i, h in enumerate(header)
               if h.startswith(prefix) and h[len(prefix):].isdigit()]
        return data[:, idx]

    def col(label):
        return data[:, header.index(label)]

    cfg = summary["config"]
    plant, ctrl = cfg["plant"], cfg["controller"]
    return RunRecord(
        name=name, A=np.array(plant["A"]), B=np.array(plant["B"]),
        B1r=np.array(plant["B1r"]), iy=plant["output_index"] - 1,
        Q=np.array(ctrl["Q"]), R=ctrl["R"], gamma=ctrl["gamma"], k0=ctrl["k0"],
        r=cfg["r"], dt=cfg["dt"], x0=np.array(cfg["x0"]),
        c_e=cfg["attention"]["c_e"], c_ed=cfg["attention"]["c_ed"],
        t=col("t"), x=cols("x"), x_r=cols("xr"), e=col("e"),
        edot_hat=col("edot_hat"), theta=cols("theta"), theta_hat=cols("theta_hat"),
        u=col("u"), Eu=col("Eu").astype(np.int8), Ed=col("Ed").astype(np.int8),
        phases=[(p["t_u"], p["t_d"], p["peak_abs_e"]) for p in summary["phases"]],
    ), summary["status"]


# --------------------------------------------------------------------------
# workloads: set-up in __init__, one round per call of round()
#
# The simulator's inputs are the bundled scenario files and fixed learner
# seeds, not drawn from --seed: the learner seed alone changes a run's work by
# up to a factor of two (README.md, "Seeds"), which would swamp the timings.

class CliRunS3Exact:
    """`preadapt-ctl run scenario3_exact.yaml` through cli.main, as shipped."""

    ops_per_round = 1

    def __init__(self):
        from preadaptive_control import cli, simengine

        self.cli = cli
        self.scenario = SCENARIOS / "scenario3_exact.yaml"
        self.out = OUT / "cli_run_s3_exact"
        simengine.build_controller(cli.load_scenario(self.scenario))

    def round(self):
        with contextlib.redirect_stdout(sys.stderr):
            code = self.cli.main(["run", str(self.scenario), "--out", str(self.out)])
        if code != 0:
            raise RuntimeError(f"preadapt-ctl run exited with {code}")
        return self.out

    def digest(self, out):
        h = hashlib.sha256()
        for name in ("trace.csv", "summary.yaml"):
            with open(out / name, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
        return h.hexdigest()

    def check(self, out, stats):
        from checks import check_run

        rec, status = record_from_files("scenario3_exact", out)
        fails = [] if status == "ok" else [f"run status is {status}"]
        return fails + check_run(rec, stats)


class SeedSweepS1:
    """Scenario-1 RAC baseline and approx-mode learner seeds 0 and 1, compared."""

    learner_seeds = (0, 1)

    def __init__(self):
        from preadaptive_control import cli, simengine

        self.sim = simengine
        rac = cli.load_scenario(SCENARIOS / "scenario1_rac.yaml")
        learner = cli.load_scenario(SCENARIOS / "scenario1_learner.yaml")
        self.configs = [rac] + [
            replace(learner, preadapt=replace(learner.preadapt, seed=s))
            for s in self.learner_seeds
        ]
        self.names = ["rac"] + [f"learner_seed{s}" for s in self.learner_seeds]
        self.ops_per_round = len(self.configs)
        for cfg in self.configs:
            simengine.build_controller(cfg)

    def round(self):
        results = [self.sim.run(cfg) for cfg in self.configs]
        rows = [self.sim.compare_results(results[0], res) for res in results[1:]]
        return results, rows

    def digest(self, out):
        h = hashlib.sha256()
        for res in out[0]:
            result_digest(h, res)
        h.update(repr(out[1]).encode())
        return h.hexdigest()

    def check(self, out, stats):
        from checks import check_compare_rows, check_run, check_same_reference

        results, rows = out
        recs = [record_from_result(n, r) for n, r in zip(self.names, results)]
        fails = [f"{rec.name}: status {res.status}"
                 for rec, res in zip(recs, results) if res.status != "ok"]
        for rec in recs:
            fails += check_run(rec, stats)
        fails += check_same_reference(recs)
        for rec, row in zip(recs[1:], rows):
            fails += check_compare_rows(recs[0], rec, row)
        return fails


class GradCheckPhases:
    """One scenario-1 learner run as shipped, then grad_check on every closed phase."""

    def __init__(self):
        from preadaptive_control import cli, simengine

        self.sim = simengine
        self.cfg = cli.load_scenario(SCENARIOS / "scenario1_learner.yaml")
        simengine.build_controller(self.cfg)
        self.ops_per_round = None   # one run plus its closed phases

    def round(self):
        res = self.sim.run(self.cfg)
        closed = [p for p in res.phases if p.recovered and p.snapshot is not None]
        reports = [self.sim.grad_check(self.cfg, i, GRAD_DELTA, result=res)
                   for i in range(len(closed))]
        self.ops_per_round = 1 + len(reports)
        return res, reports

    def digest(self, out):
        h = hashlib.sha256()
        result_digest(h, out[0])
        h.update(repr(out[1]).encode())
        return h.hexdigest()

    def check(self, out, stats):
        from checks import check_grad_reports, check_run

        res, reports = out
        fails = [] if res.status == "ok" else [f"run status is {res.status}"]
        if not reports:
            fails.append("the learner run closed no phase to grad-check")
        fails += check_run(record_from_result("scenario1_learner", res), stats)
        return fails + check_grad_reports(reports, stats)


WORKLOADS = {
    "cli_run_s3_exact": CliRunS3Exact,
    "seed_sweep_s1": SeedSweepS1,
    "grad_check_phases": GradCheckPhases,
}


# --------------------------------------------------------------------------
# measurement

class Tally:
    """Operations attempted and failed, and the time of each completed round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.walls = []
        self.cpus = []
        self.digests = set()
        self.last = None


def timed_round(workload, tally, tracer=None):
    """One round; its wall and CPU time go to the tally, its digest is not timed."""
    tally.last = None   # freed first, so it does not count in this round's peak RSS
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            out = workload.round()
    except Exception:
        traceback.print_exc()
        tally.attempted += 1
        tally.failed += 1
        return False
    tally.walls.append(time.perf_counter() - t0)
    tally.cpus.append(cpu_seconds() - cpu0)
    tally.attempted += workload.ops_per_round
    tally.digests.add(workload.digest(out))
    tally.last = out
    return True


def check_outputs(workload, tally):
    stats = {}
    if tally.last is None:
        return ["the last round failed; nothing to check"], stats
    fails = workload.check(tally.last, stats)
    if len(tally.digests) != 1:
        fails.append(f"{len(tally.walls)} rounds of the same inputs gave "
                     f"{len(tally.digests)} different outputs")
    return fails, stats


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, workload, untraced_s, traced_s):
    """Per-layer calls, self and total time, exact counts, and the tracing overhead."""
    metrics = {}
    for name, (calls, self_s, total_s) in tracer.stats.items():
        metrics[name + ".calls"] = metric(calls, "count")
        metrics[name + ".self_s"] = metric(self_s, "s")
        metrics[name + ".total_s"] = metric(total_s, "s")
    runs = tracer.run_results
    steps = sum(len(r.trace["t"]) - 1 for r in runs)
    sens = 0
    for r in runs:
        if r.config.preadapt.learner_enabled:
            end = len(r.trace["t"]) - 1
            sens += sum((end if p.step_d is None else p.step_d) - p.step_u
                        for p in r.phases)
    reports = [rep for r in runs for rep in r.phase_reports]
    all_steps = (tracer.stats["simengine._Stepper.step.plain"][0]
                 + tracer.stats["simengine._Stepper.step.sens"][0])
    out_dir = getattr(workload, "out", None)
    counts = {
        "count.run_steps": steps,
        "count.run_sens_steps": sens,
        "count.replay_steps": all_steps - steps,
        "count.E_u": sum(kind == "E_u" for r in runs for _, kind in r.events),
        "count.E_d": sum(kind == "E_d" for r in runs for _, kind in r.events),
        "count.updates_applied": sum(bool(rep["updated"]) for rep in reports),
        "count.updates_skipped": sum(not rep["updated"] for rep in reports),
        "cli.write_trace_csv.bytes": (0 if out_dir is None
                                      else (out_dir / "trace.csv").stat().st_size),
    }
    for name, value in counts.items():
        metrics[name] = metric(value, "count")
    metrics["trace.untraced_wall_s"] = metric(untraced_s, "s")
    metrics["trace.traced_wall_s"] = metric(traced_s, "s")
    metrics["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    return metrics


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    workload = WORKLOADS[args.workload]()
    setup_s = process_age()
    OUT.mkdir(exist_ok=True)

    tally = Tally()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        timed_round(workload, tally)
        timed_round(workload, tally, tracer)
    else:
        start = time.perf_counter()
        while timed_round(workload, tally):
            if time.perf_counter() - start >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    fails, stats = check_outputs(workload, tally)
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    print("check figures: " + json.dumps(stats), file=sys.stderr)

    if args.trace:
        untraced_s, traced_s = (tally.walls + [0.0, 0.0])[:2]  # 0.0 for a failed round
        metrics = layer_metrics(tracer, workload, untraced_s, traced_s)
        dump = {
            "workload": args.workload, "seed": args.seed,
            "environment": environment(), "checks": stats,
            "metrics": {k: v["value"] for k, v in metrics.items()},
            "spans": tracer.spans,
        }
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dump, indent=1) + "\n")
        print(f"per-layer trace written to {path}", file=sys.stderr)
    else:
        rounds = max(len(tally.walls), 1)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(sum(tally.walls) / rounds, "s"),
            "cpu_s": metric(sum(tally.cpus) / rounds, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": not fails,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
