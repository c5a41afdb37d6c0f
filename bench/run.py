#!/usr/bin/env python3
"""Benchmark for kernelbandits: four seeded workloads, timed from outside.

One run of one workload, in this process (the last stdout line is the
result JSON; the line before it holds the workload facts and environment):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each in its own fresh process, one at a time, untraced and
then traced, printed as a table:

    python3 bench/run.py [--seed N] [--seconds S]

The untraced run (--trace 0) reports the end-to-end metrics; the traced run
(--trace 1) reports per-layer metrics.  The package is imported from the
src/ directory next to this one.
"""

import argparse
import gc
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS threads are pinned before numpy is first imported (by workloads.py).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# A run repeats whole operations (set-up included) for --seconds, and at
# least MIN_OPS times, and reports each timing as its median over the run.
# The shared host this was built on ran the same operation 25-50% slower in
# phases lasting from tens of seconds to minutes, longer than a run, so raw
# wall times of two runs of the same code disagree by more than any useful
# bound.  Each timed call is therefore bracketed by a fixed reference load
# that does not use the package (host_probe), and its wall time is scaled
# by PROBE_REF_S / (mean of the two bracketing probe times): timings are
# reported in reference seconds, the time the operation takes on a host on
# which the probe takes PROBE_REF_S.  The probe does not depend on the
# program, so a change to the program moves the scaled time as it moves the
# wall time.  The raw wall times and probe times are kept in the run's facts.
MIN_OPS = 3
PROBE_REF_S = 0.25
PROBE_LOOPS = 20_000
PROBE_EIGH_CALLS = 30
REF_EIGH_SIZE = 174
REF_EIGH_CALLS = 15

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "ess_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, end-to-end metric it should move, on which workload)
PER_LAYER = {
    "proxy.build_s": ("s", "setup_s", "bandit-gauss150"),
    "proxy.features_s": ("s", "setup_s", "bandit-gauss150"),
    "proxy.sup_error_s": ("s", "setup_s", "bandit-gauss150"),
    "proxy.m": ("count", "setup_s", "bandit-gauss150"),
    "design.reduce_s": ("s", "setup_s, run_s", "bandit-gauss150"),
    "design.dopt_s": ("s", "setup_s, run_s", "bandit-gauss150"),
    "design.whiten_s": ("s", "setup_s, run_s", "bandit-gauss150"),
    "design.kw_ratio": ("ratio", "setup_s, run_s", "bandit-gauss150"),
    "bandit.round_us_p50": ("us", "rounds_per_s, run_s", "bandit-gauss150"),
    "bandit.round_us_p99": ("us", "rounds_per_s, run_s", "bandit-gauss150"),
    "fullinfo.ew_round_us_p50": ("us", "rounds_per_s, run_s", "ew-ball64-long"),
    "fullinfo.ew_round_us_p99": ("us", "rounds_per_s, run_s", "ew-ball64-long"),
    "fullinfo.cg_round_us_p50": ("us", "rounds_per_s, run_s", "cg-quad200"),
    "fullinfo.cg_round_us_p99": ("us", "rounds_per_s, run_s", "cg-quad200"),
    "fullinfo.cg_atoms": ("count", "rounds_per_s, run_s", "cg-quad200"),
    "kernels.feature_matrix_ms": ("ms", "rounds_per_s", "cg-quad200"),
    "kernels.loss_matrix_s": ("s", "peak_rss_mb, run_s", "ew-ball64-long"),
    "harness.materialize_s": ("s", "run_s, setup_s", "ew-ball64-long"),
    "harness.schedule_hash_s": ("s", "run_s, setup_s", "ew-ball64-long"),
    "harness.best_in_hindsight_s": ("s", "run_s", "ew-ball64-long"),
    "harness.build_trace_s": ("s", "run_s", "ew-ball64-long"),
    "harness.emit_trace_s": ("s", "run_s", "ew-ball64-long"),
    "quadratic.step_us": ("us", "run_s, rounds_per_s", "quad-sampler-d5"),
    "quadratic.ess_min": ("count", "ess_per_s", "quad-sampler-d5"),
    "quadratic.rhat_max": ("ratio", "ess_per_s", "quad-sampler-d5"),
    "quadratic.acf1": ("ratio", "ess_per_s", "quad-sampler-d5"),
    "host.ref_eigh_ms": ("ms", "none (host drift)", "all"),
    "trace.overhead_pct": ("%", "none (tracing cost)", "all"),
}


def median(values) -> float:
    ordered = sorted(values)
    k = len(ordered)
    return ordered[k // 2] if k % 2 else 0.5 * (ordered[k // 2 - 1] + ordered[k // 2])


class Tally:
    """Operations attempted and failed; an operation fails if it raises or
    if its output check reports a problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label: str, fn, *args):
        """Time fn(*args); returns (seconds, result or None when it raised).

        Objects alive before the call are collected or frozen first, so the
        collections the call triggers scan only what the call allocates,
        whatever the benchmark still holds from earlier operations.
        """
        self.attempted += 1
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            self.check(label, [f"raised {type(exc).__name__}: {exc}"])
            return elapsed, None
        finally:
            gc.unfreeze()
        return time.perf_counter() - t0, out

    def check(self, label: str, problems: list[str]) -> None:
        """Count the last operation as failed if it has problems."""
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


# --------------------------------------------------------------------------
# environment


def ref_eigh_ms() -> float:
    """Median time of a fixed symmetric eigh, independent of the program."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal((REF_EIGH_SIZE, REF_EIGH_SIZE))
    a = x @ x.T
    times = []
    for _ in range(REF_EIGH_CALLS):
        t0 = time.perf_counter()
        np.linalg.eigh(a)
        times.append(time.perf_counter() - t0)
    return median(times) * 1e3


def host_probe() -> float:
    """Wall time of a fixed reference load that does not use the package.

    It mixes the two kinds of work the workloads do: small numpy calls in an
    interpreted loop, and dense linear algebra (a 174 x 174 eigh).  About
    0.25 s on a 2-vCPU host.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((REF_EIGH_SIZE, REF_EIGH_SIZE))
    a, v, sym = rng.standard_normal((16, 3)), np.ones(3), x @ x.T
    t0 = time.perf_counter()
    acc, slots = 0.0, {}
    for i in range(PROBE_LOOPS):
        y = a @ v
        acc += float(np.exp(-y * y).sum())
        slots[i & 63] = acc
        for j in range(20):
            acc += j * 0.5
    for _ in range(PROBE_EIGH_CALLS):
        np.linalg.eigh(sym)
    return time.perf_counter() - t0


class HostScale:
    """Times calls in reference seconds.

    Every timed call is followed by a host probe, so each call lies between
    two probes; its wall time is scaled by PROBE_REF_S over their mean.
    """

    def __init__(self, tally: "Tally"):
        self.tally = tally
        self.probes = [host_probe()]
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}

    def run(self, label: str, fn, *args):
        """tally.run(label, fn, *args), then a probe; returns fn's result."""
        elapsed, out = self.tally.run(label, fn, *args)
        self.probes.append(host_probe())
        k = PROBE_REF_S / (0.5 * (self.probes[-2] + self.probes[-1]))
        self.raw.setdefault(label, []).append(elapsed)
        self.scaled.setdefault(label, []).append(k * elapsed)
        return out

    def count(self, label: str) -> int:
        return len(self.raw.get(label, ()))

    def median(self, label: str) -> float:
        """Median of the label's scaled times."""
        return median(self.scaled[label])

    def facts(self) -> dict:
        """Count, fastest and median of each raw wall time and of the probe."""
        return {name: {"n": len(v), "min": min(v), "median": median(v)}
                for name, v in {**self.raw, "probe": self.probes}.items()}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": sys.version.split()[0],
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# untraced runs


def within(start: float, op_start: float, seconds: float) -> bool:
    """Whether another operation as long as the last one ends within the run."""
    now = time.perf_counter()
    return now + (now - op_start) - start <= seconds


def learner_untraced(w, spec, seconds: float, tally: Tally, min_ops: int = MIN_OPS):
    """Each operation: the phased set-up, its play call, then run_experiment."""
    config = spec.config()
    rounds = spec.n * len(config.seeds)
    host = HostScale(tally)
    hashes, setup, result = set(), None, None
    start = op_start = time.perf_counter()
    while host.count("run_experiment") < min_ops or within(start, op_start, seconds):
        op_start = time.perf_counter()
        setup = host.run("setup", w.learner_setup, spec)
        if setup is not None:
            tally.check("setup", w.check_setup(spec, setup))
        records = host.run("play", w.learner_play, spec, setup)
        reference = None
        if records is not None:
            reference = w.records_arrays(records)
            idx, losses = reference
            tally.check("play", w.check_trace(spec, w.schedule_points(setup.schedule),
                                              losses, w.played_indices(spec, idx)))
            hashes.add(w.trace_hash(*reference))
        result = host.run("run_experiment", w.harness.run_experiment, config)
        if result is not None and reference is not None:
            tally.check("run_experiment",
                        w.check_experiment(spec, setup, result, reference))
    if len(hashes) > 1:
        tally.check("play", ["repeated play calls gave different traces"])

    facts = {"trace_hash": hashes.pop() if len(hashes) == 1 else None,
             "schedule_hash": setup.schedule_hash if setup else None,
             "mean_final_regret": result.mean_final_regret if result else None,
             "timings_s": host.facts()}
    if setup is not None and setup.bandit_ctx is not None:
        bcfg = setup.bandit_ctx[2]
        facts.update(m=bcfg.m, gamma=bcfg.gamma, eta=bcfg.eta, eps_hat=bcfg.eps)
    run_s = host.median("run_experiment")
    # every round draws exactly from its play distribution, so ESS = draws
    metrics = {"run_s": run_s, "setup_s": host.median("setup"),
               "rounds_per_s": rounds / host.median("play"),
               "ess_per_s": rounds / run_s}
    return metrics, facts


def sampler_untraced(w, spec, seconds: float, tally: Tally, min_ops: int = MIN_OPS):
    """Each operation: one chain's burn-in (the sampler's set-up, the work
    before its first kept draw), then one set of chains from fresh seeds.

    A set's time is the sum of its chains' scaled times.  ESS is a property
    of the draws, not of the host: ess_per_s divides the median ESS over the
    sets by the median set time.
    """
    steps = spec.chains * spec.steps_per_chain
    host = HostScale(tally)
    set_times, ess, hashes, diag = [], [], [], None
    start = op_start = time.perf_counter()
    while len(set_times) < min_ops or within(start, op_start, seconds):
        op_start = time.perf_counter()
        seeds = spec.chain_seeds(len(set_times))
        burnt = host.run("burn-in", w.sampler_chains, spec, seeds[:1], 1)
        if burnt is not None:
            tally.check("burn-in", w.check_draws(burnt))
        # a set is timed chain by chain, so probes bracket every ~1.5 s of it
        parts = [host.run("chain", w.sampler_chains, spec, [s]) for s in seeds]
        set_times.append(sum(host.scaled["chain"][-len(seeds):]))
        chains = None if None in parts else [c for part in parts for c in part]
        problems = w.check_draws(chains) if chains is not None else ["raised"]
        if chains is not None:
            tally.check("chains", problems)
        if problems:
            ess.append(0.0)
            continue
        diag = w.sampler_diagnostics(spec, chains)
        ess.append(diag["ess_min"])
        hashes.append(w.draws_hash(chains))
    facts = {"trace_hash": hashes[0] if hashes else None,
             "diagnostics_last_set": diag, "ess_min_per_set": ess,
             "timings_s": host.facts()}
    run_s = median(set_times)
    metrics = {"run_s": run_s, "setup_s": host.median("burn-in"),
               "rounds_per_s": steps / run_s,
               "ess_per_s": median(ess) / run_s}
    return metrics, facts


# --------------------------------------------------------------------------
# traced runs


def learner_traced(w, spec, tally: Tally):
    """Per-layer metrics; the untraced reference run_experiment is timed
    before and after the traced pass and the faster call is kept."""
    spans = w.Spans()
    config = spec.config()
    run_s, result = tally.run("run_experiment", w.harness.run_experiment, config)
    _, traced = tally.run("traced", w.traced_learner, spec, spans)
    traced_s = spans.total_seconds()
    run_s = min(run_s, tally.run("run_experiment", w.harness.run_experiment, config)[0])
    layer, facts = {}, {}
    if traced is not None:
        setup, trace, records, played = traced
        w.traced_extras(spec, setup, trace, spans)
        problems = w.check_trace(spec, w.schedule_points(setup.schedule),
                                 trace.losses, played, trace.best_action_index,
                                 trace.final_regret)
        problems += w.check_setup(spec, setup)
        if result is not None:
            problems += w.check_experiment(spec, setup, result,
                                           (trace.action_indices, trace.losses))
        tally.check("traced", problems)
        facts["trace_hash"] = w.trace_hash(trace.action_indices, trace.losses)
        if setup.bandit_ctx is not None:
            features, nu, _ = setup.bandit_ctx
            layer["proxy.m"] = float(features.shape[1])
            layer["design.kw_ratio"] = w.kw_ratio(features, nu)
        if spec.algo == "cg":
            layer["fullinfo.cg_atoms"] = float(records[-1].num_atoms)
    for name, span in (("proxy.build_s", "proxy.build"),
                       ("proxy.features_s", "proxy.features"),
                       ("proxy.sup_error_s", "proxy.sup_error"),
                       ("design.reduce_s", "design.reduce"),
                       ("design.dopt_s", "design.dopt"),
                       ("design.whiten_s", "design.whiten"),
                       ("kernels.loss_matrix_s", "kernels.loss_matrix"),
                       ("harness.materialize_s", "harness.materialize"),
                       ("harness.schedule_hash_s", "harness.schedule_hash"),
                       ("harness.best_in_hindsight_s", "harness.best_in_hindsight"),
                       ("harness.build_trace_s", "harness.build_trace"),
                       ("harness.emit_trace_s", "harness.emit_trace")):
        layer[name] = spans.seconds(span)
    layer["kernels.feature_matrix_ms"] = spans.seconds("kernels.feature_matrix") * 1e3
    for prefix, span in (("bandit.round_us", "bandit.round"),
                         ("fullinfo.ew_round_us", "fullinfo.ew_round"),
                         ("fullinfo.cg_round_us", "fullinfo.cg_round")):
        layer[f"{prefix}_p50"] = spans.percentile_us(span, 50)
        layer[f"{prefix}_p99"] = spans.percentile_us(span, 99)
    layer["trace.overhead_pct"] = 100.0 * (traced_s / run_s - 1.0)
    return layer, facts


def sampler_traced(w, spec, tally: Tally):
    """Per-layer metrics; the untraced reference chain set is timed before
    and after the traced pass and the faster set is kept."""
    seeds = spec.chain_seeds(0)
    run_s, reference = tally.run("chains", w.sampler_chains, spec, seeds)
    spans = w.Spans()
    traced = []
    for s in seeds:
        _, chain = tally.run("traced", spans.call, "quadratic.chain",
                             w.sampler_chains, spec, [s])
        traced += chain or []
    run_s = min(run_s, tally.run("chains", w.sampler_chains, spec, seeds)[0])
    layer, facts = {}, {"trace_hash": w.draws_hash(traced)}
    problems = w.check_draws(traced)
    if reference is None or w.draws_hash(reference) != facts["trace_hash"]:
        problems.append("traced chains differ from the untraced set")
    tally.check("traced", problems)
    if not problems:
        layer.update({f"quadratic.{k}": v
                      for k, v in w.sampler_diagnostics(spec, traced).items()})
    total = spans.seconds("quadratic.chain")
    layer["quadratic.step_us"] = total / (len(seeds) * spec.steps_per_chain) * 1e6
    layer["trace.overhead_pct"] = 100.0 * (total / run_s - 1.0)
    return layer, facts


# --------------------------------------------------------------------------
# one run


def run_one(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """One run of one workload; returns (result, facts)."""
    import workloads as w

    kind = w.WORKLOADS[name][0]
    # warm-up on the tiny size: imports, first calls and lazy set-up happen here
    warm = w.make_spec(name, seed, tiny=True)
    warm_tally = Tally()
    warm_up = learner_untraced if kind == "learner" else sampler_untraced
    warm_up(w, warm, 0.0, warm_tally, min_ops=1)

    spec = w.make_spec(name, seed, tiny=tiny)
    eigh_start = ref_eigh_ms()
    tally = Tally()
    if trace:
        traced = learner_traced if kind == "learner" else sampler_traced
        layer, facts = traced(w, spec, tally)
    else:
        untraced = learner_untraced if kind == "learner" else sampler_untraced
        e2e, facts = untraced(w, spec, seconds, tally)
    eigh_end = ref_eigh_ms()

    if trace:
        layer["host.ref_eigh_ms"] = median([eigh_start, eigh_end])
        values = {k: float(layer.get(k, 0.0)) for k in PER_LAYER}
        units = {k: unit for k, (unit, _, _) in PER_LAYER.items()}
    else:
        e2e["peak_rss_mb"] = peak_rss_mb()
        values, units = e2e, END_TO_END
    facts.update(workload=name, seed=seed, trace=int(trace),
                 warmup_failed=warm_tally.failed, problems=tally.problems[:20],
                 env={**environment(), "ref_eigh_ms_start": eigh_start,
                      "ref_eigh_ms_end": eigh_end})
    result = {
        "correct": tally.failed == 0 and warm_tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, facts


# --------------------------------------------------------------------------
# every workload, each in a fresh process


def run_all(seed: int, seconds: float) -> int:
    import workloads as w

    status = 0
    rows = []
    for name in w.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            facts, result = json.loads(lines[-2]), json.loads(lines[-1])
            rows.append((name, trace, result, facts))
            if not result["correct"]:
                status = 1

    for name, trace, result, facts in rows:
        fail_rate = result["failed"] / result["attempted"]
        print(f"\n== {name} ({'traced' if trace else 'untraced'}) "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        if not trace:
            print(f"  {'fail_rate':28s} {fail_rate:14.6g} ratio")
        for metric, entry in result["metrics"].items():
            where = ""
            if trace:
                _, moves, workload = PER_LAYER[metric]
                where = f"   -> {moves} on {workload}"
            print(f"  {metric:28s} {entry['value']:14.6g} {entry['unit']}{where}")
        shown = {k: v for k, v in facts.items() if k not in ("env", "workload", "trace")}
        print(f"  facts: {json.dumps(shown, sort_keys=True)}")
    if rows:
        print(f"\nenvironment: {json.dumps(rows[0][3]['env'], sort_keys=True)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload in this process (default: all, "
                             "each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    import workloads as w

    if args.workload not in w.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(w.WORKLOADS)}")
    result, facts = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in facts["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
