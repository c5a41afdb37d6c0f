"""Command line interface.

Exit codes: 0 success, 2 input error, 3 theorem-precondition violation,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .design import d_optimal_design, design_weights_csv
from .errors import InputError, NumericalError, PreconditionError
from .harness import (
    _LEARNERS,
    ExperimentConfig,
    PeriodicAdversary,
    ScheduleAdversary,
    _mean_and_stderr,
    ball_directions,
    emit_trace,
    run_experiment,
    unit_vector_adversary,
)
from .kernels import ExplicitVector, KernelSpec, feature_map, make_explicit, make_rank_one
from .proxy import (
    approximation_sup_error,
    build_proxy,
    effective_dimension,
    fit_eigendecay,
)
from .quadratic import QuadraticObjective, chain_autocorrelation, quad_ew_sample
from .rng import component_rng

__all__ = ["main"]


def _number(kind, text: str, what: str):
    """``kind(text)`` for kind int or float; malformed text is an InputError."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise InputError(f"{what}: {text!r} is not {noun}") from None


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what}: malformed JSON ({exc})") from None


def _csv(path: str, ndmin: int = 2) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=ndmin)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


# kernel forms: (fewest numbers, most numbers, usage)
_KERNEL_FORMS = {"linear": (0, 1, "linear[:G]"), "quadratic": (0, 1, "quadratic[:G]"),
                 "gaussian": (1, 2, "gaussian:<sigma>[:G]"),
                 "poly": (2, 3, "poly:<degree>:<offset>[:G]")}


def parse_kernel(text: str) -> KernelSpec:
    parts = text.split(":")
    name = "poly" if parts[0].lower() == "polynomial" else parts[0].lower()
    if name not in _KERNEL_FORMS:
        raise InputError(f"unknown kernel {text!r}")
    fewest, most, usage = _KERNEL_FORMS[name]
    nums = [_number(float, part, "--kernel") for part in parts[1:]]
    if not fewest <= len(nums) <= most:
        raise InputError(f"--kernel {text!r}: expected {usage}")
    # the numbers given, no more, so each constructor states its own default G
    if name == "linear":
        return KernelSpec.linear(*nums)
    if name == "quadratic":
        return KernelSpec.quadratic(*nums)
    if name == "gaussian":
        return KernelSpec.gaussian(nums[0], *nums[1:])
    degree, offset = _number(int, parts[1], "--kernel degree"), nums[1]
    G = nums[2] if len(nums) > 2 else (offset + 1.0) ** (degree / 2.0)
    return KernelSpec.polynomial(degree, offset, G)


def parse_actions(text: str) -> np.ndarray:
    if text.startswith("ball:"):
        return ball_directions(_number(int, text[len("ball:"):], "--actions ball:<K>"))
    return _csv(text)


def parse_adversary(text: str, kernel: KernelSpec, d: int):
    parts = text.split(":")
    name = parts[0].lower()
    if name in ("fixed", "fixed-point", "periodic", "schedule") and len(parts) < 2:
        raise InputError(f"--adversary {name} needs a value: {name}:<value>")
    if name == "zero":
        zero = np.zeros_like(feature_map(kernel, np.zeros(d)))
        return PeriodicAdversary((ExplicitVector(zero),))
    if name == "fixed":
        w = np.array([_number(float, v, "--adversary") for v in parts[1].split(",")])
        return PeriodicAdversary((make_explicit(kernel, w),))
    if name == "fixed-point":
        y = np.array([_number(float, v, "--adversary") for v in parts[1].split(",")])
        return PeriodicAdversary((make_rank_one(kernel, y),))
    if name == "iid-unit":
        return unit_vector_adversary(d)
    if name == "periodic":
        return PeriodicAdversary(tuple(make_rank_one(kernel, y) for y in _csv(parts[1])))
    if name == "schedule":
        return ScheduleAdversary(tuple(make_rank_one(kernel, y) for y in _csv(parts[1])))
    raise InputError(f"unknown adversary {text!r}")


# JSON types a --config value may take, per run flag it overrides
_CONFIG_TYPES = {
    "algo": (str,), "kernel": (str,), "actions": (str,), "adversary": (str,),
    "n": (int,), "seeds": (str, int), "params": (str, dict),
    "proxy_p": (int, type(None)), "proxy_m": (int, type(None)), "out": (str,),
}
_JSON_NAMES = {str: "a string", int: "an integer", dict: "an object",
               type(None): "null"}


def _apply_config(args, text: str) -> None:
    """Override run flags with a --config JSON object, checking its keys and
    value types before any value is used."""
    raw = _json(text, "--config")
    if not isinstance(raw, dict):
        raise InputError("--config: expected a JSON object")
    for key, value in raw.items():
        types = _CONFIG_TYPES.get(key)
        if types is None:
            raise InputError(f"--config: {key!r} is not a run flag it can set")
        if isinstance(value, bool) or not isinstance(value, types):
            expected = " or ".join(_JSON_NAMES[t] for t in types)
            raise InputError(f"--config: {key!r} must be {expected}, got {value!r}")
        setattr(args, key, value)


def _cmd_run(args) -> int:
    if args.config:
        _apply_config(args, Path(args.config).read_text())
    kernel = parse_kernel(args.kernel)
    actions = parse_actions(args.actions)
    adversary = parse_adversary(args.adversary, kernel, actions.shape[1])
    params = args.params
    if isinstance(params, str) and params != "paper":
        params = _json(params, "--params")
    seeds = tuple(_number(int, s, "--seeds") for s in str(args.seeds).split(","))
    config = ExperimentConfig(
        algo=args.algo, kernel=kernel, actions=actions, adversary=adversary,
        n=args.n, seeds=seeds, params=params,
        proxy_p=args.proxy_p, proxy_m=args.proxy_m,
    )
    result = run_experiment(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = {"algo": args.algo, "kernel": args.kernel, "n": args.n,
            "actions": args.actions, "adversary": args.adversary}
    for seed, trace in zip(seeds, result.traces):
        emit_trace(trace, out / f"trace_{seed}.csv", config_echo={**echo, "seed": seed})
    pseudo_mean, pseudo_stderr = _mean_and_stderr(
        [trace.final_pseudo_regret for trace in result.traces])
    # ball:K only: G^2 times the covering radius 2 sin(pi / 2K) of the
    # directions (see ball_directions)
    discretization = None
    if args.actions.startswith("ball:"):
        covering = 2.0 * np.sin(np.pi / (2 * actions.shape[0]))
        discretization = kernel.norm_bound_G**2 * covering
    bcfg = result.details.get("bandit_config")
    summary = {
        "mean_final_regret": result.mean_final_regret,
        "stderr_final_regret": result.stderr_final_regret,
        "mean_final_pseudo_regret": pseudo_mean,
        "stderr_final_pseudo_regret": pseudo_stderr,
        "seeds": list(seeds),
        # the resolved schedule, as the --params object that replays it
        "params": result.details["params"],
        "discretization_error": discretization,
        # bandit_ew only: the floor gamma / (2m) and its once-per-run certificate
        "covariance_floor": result.details.get("covariance_floor"),
        # bandit_ew only: estimator path, k = N - m, gamma min nu, eta max |l-hat|
        "bandit_estimator": result.details.get("bandit_estimator"),
        # bandit_ew only: the design's Kiefer-Wolfowitz ratio max_i g_i / m
        # and centering offset, and the schedule (eta, gamma, m, eps, n)
        "design": result.details.get("design"),
        "bandit_config": asdict(bcfg) if bcfg is not None else None,
        # bandit_ew only: the theorem's regret bound at that schedule, and whether it
        # is vacuous: at least 2 G^2 n, the most any player can lose in n rounds
        "theorem_bound": result.details.get("theorem_bound"),
        "vacuous": result.details.get("vacuous"),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


def _cmd_proxy_check(args) -> int:
    kernel = parse_kernel(args.kernel)
    if args.grid < 1 or args.dim < 1:
        raise InputError(f"--grid and --dim must be >= 1, got {args.grid} and {args.dim}")
    if not 0 < args.eps < np.inf:
        raise InputError(f"--eps must be positive and finite, got {args.eps!r}")
    side = np.linspace(0.0, 1.0, args.grid)
    grid = np.column_stack([m.ravel() for m in np.meshgrid(*([side] * args.dim))])
    rng = component_rng(args.seed, "proxy")
    m = args.m
    if m == 0:
        probe = build_proxy(kernel, grid, m=None, p=args.p, rng=rng)
        profile = fit_eigendecay(probe, args.decay, grid)
        m = effective_dimension(profile, args.eps)
    rng2 = component_rng(args.seed, "proxy-final")
    basis = build_proxy(kernel, grid, m=m, p=args.p, rng=rng2)
    sup_err = approximation_sup_error(kernel, basis, grid)
    report = {"m": int(basis.m), "p": args.p, "eps": args.eps,
              "sup_error": sup_err, "certified": bool(sup_err <= args.eps)}
    print(json.dumps(report))
    return 0


def _cmd_design(args) -> int:
    features = _csv(args.features)
    design = d_optimal_design(features, tol=args.tol)
    text = design_weights_csv(design)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sample_quad(args) -> int:
    B = _csv(args.B)
    b = _csv(args.b, ndmin=1)
    obj = QuadraticObjective(B, b)
    rng = component_rng(args.seed, "quad-sampler")
    samples = quad_ew_sample(obj, count=args.count, burn_in=args.burn_in, rng=rng)
    lines = [",".join(f"{v:.17g}" for v in row) for row in samples.tolist()]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"# lag-1 autocorrelation: {chain_autocorrelation(samples):.4f}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelbandits",
        description="Adversarial online learning with kernel losses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment over seeds")
    run.add_argument("--algo", choices=list(_LEARNERS), required=True)
    run.add_argument("--kernel", default="linear")
    run.add_argument("--actions", required=True,
                     help="CSV file of points or ball:<K> directions")
    run.add_argument("--adversary", default="iid-unit")
    run.add_argument("--n", type=int, required=True)
    run.add_argument("--seeds", default="0")
    run.add_argument("--params", default="paper", help="'paper' or a JSON object: " + "; ".join(
        f"{algo} {', '.join(k if v is None else f'[{k}]' for k, v in keys.items())}"
        for algo, (keys, _) in _LEARNERS.items()))
    run.add_argument("--proxy-p", type=int, default=None, dest="proxy_p")
    run.add_argument("--proxy-m", type=int, default=None, dest="proxy_m")
    run.add_argument("--out", required=True)
    run.add_argument("--config", default=None, help="JSON file overriding flags")
    run.set_defaults(func=_cmd_run)

    pc = sub.add_parser("proxy-check", help="certify a proxy approximation level")
    pc.add_argument("--kernel", required=True)
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--m", type=int, default=0, help="0 = from fitted eigendecay")
    pc.add_argument("--eps", type=float, required=True)
    pc.add_argument("--grid", type=int, default=50)
    pc.add_argument("--dim", type=int, default=1)
    pc.add_argument("--decay", choices=["polynomial", "exponential"],
                    default="exponential")
    pc.add_argument("--seed", type=int, default=0)
    pc.set_defaults(func=_cmd_proxy_check)

    de = sub.add_parser("design", help="D-optimal design over feature rows")
    de.add_argument("--features", required=True)
    de.add_argument("--tol", type=float, default=1e-6)
    de.add_argument("--out", default=None)
    de.set_defaults(func=_cmd_design)

    sq = sub.add_parser("sample-quad", help="sample exp(a^T B a + a^T b) on the ball")
    sq.add_argument("--B", required=True)
    sq.add_argument("--b", required=True)
    sq.add_argument("--count", type=int, required=True)
    sq.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    sq.add_argument("--seed", type=int, default=0)
    sq.add_argument("--out", default=None)
    sq.set_defaults(func=_cmd_sample_quad)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
