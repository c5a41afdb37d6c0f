import json
import warnings

import numpy as np
import pytest

from kernelbandits.bandit import BanditConfig, theorem_regret_bound
from kernelbandits.cli import main, parse_actions, parse_adversary, parse_kernel
from kernelbandits.errors import InputError
from kernelbandits.kernels import KernelSpec, feature_map
from kernelbandits.rng import component_rng
from oracles import fibonacci_sphere


def test_parse_kernel_variants():
    assert parse_kernel("linear").variant == "linear"
    assert parse_kernel("linear:2.5").norm_bound_G == 2.5
    g = parse_kernel("gaussian:0.5")
    assert g.variant == "gaussian" and g.sigma == 0.5
    p = parse_kernel("poly:2:1")
    assert p.degree == 2 and p.offset == 1.0
    with pytest.raises(InputError):
        parse_kernel("mystery")
    with pytest.raises(InputError):
        parse_kernel("gaussian")
    assert parse_kernel("gaussian:0.5:2").norm_bound_G == 2.0
    assert parse_kernel("poly:2:1:3").norm_bound_G == 3.0
    # each default bound G is its constructor's, not restated by the CLI
    assert parse_kernel("linear") == KernelSpec.linear()
    assert parse_kernel("quadratic") == KernelSpec.quadratic()
    assert parse_kernel("gaussian:0.5") == KernelSpec.gaussian(0.5)


def test_zero_adversary_lives_in_the_feature_space(tmp_path, capsys):
    code = main(["run", "--algo", "fullinfo_ew", "--kernel", "gaussian:1",
                 "--actions", "ball:8", "--adversary", "zero", "--n", "5",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "gaussian kernel has no explicit finite feature map" in capsys.readouterr().err
    quad = KernelSpec.quadratic()
    schedule = parse_adversary("zero", quad, 3).materialize(5, component_rng(0, "adversary"))
    assert schedule.rows.shape == (1, feature_map(quad, np.zeros(3)).size)
    assert not schedule.rows.any()


def test_parse_actions_ball():
    pts = parse_actions("ball:8")
    assert pts.shape == (8, 2)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


def test_run_command_writes_traces(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", "--algo", "fullinfo_ew", "--kernel", "linear",
                 "--actions", "ball:8", "--adversary", "iid-unit",
                 "--n", "50", "--seeds", "0,1", "--params", "paper",
                 "--out", str(out)])
    assert code == 0
    assert (out / "trace_0.csv").exists()
    assert (out / "trace_1.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert "mean_final_regret" in summary
    assert summary["design"] is None and summary["bandit_config"] is None
    printed = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert printed["seeds"] == [0, 1]


def test_run_summary_reports_pseudo_regret(tmp_path):
    # full-information EW records <p_t, l_t> on every seed, so the summary
    # carries the mean and standard error of the final pseudo-regret
    from kernelbandits.harness import ExperimentConfig, run_experiment, unit_vector_adversary
    from kernelbandits.kernels import KernelSpec

    out = tmp_path / "results"
    assert main(["run", "--algo", "fullinfo_ew", "--kernel", "linear",
                 "--actions", "ball:8", "--adversary", "iid-unit",
                 "--n", "50", "--seeds", "0,1,2", "--params", "paper",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    config = ExperimentConfig(algo="fullinfo_ew", kernel=KernelSpec.linear(),
                              actions=parse_actions("ball:8"),
                              adversary=unit_vector_adversary(2), n=50, seeds=(0, 1, 2))
    finals = np.array([t.final_pseudo_regret for t in run_experiment(config).traces])
    assert summary["mean_final_pseudo_regret"] == finals.mean()
    assert summary["stderr_final_pseudo_regret"] == finals.std(ddof=1) / np.sqrt(3)
    assert summary["mean_final_pseudo_regret"] != summary["mean_final_regret"]


def test_run_summary_reports_pseudo_regret_for_cg_and_bandit(tmp_path):
    # conditional gradient and the bandit record their expected losses too,
    # <x_t, w_t> and <p_t, l_t> for the mixed p_t, so their summaries carry
    # the pseudo-regret of their traces; the bandit-only keys stay null for cg
    from kernelbandits.harness import ExperimentConfig, run_experiment, unit_vector_adversary
    from kernelbandits.kernels import KernelSpec

    for algo in ("bandit_ew", "cg"):
        out = tmp_path / algo
        assert main(["run", "--algo", algo, "--kernel", "linear",
                     "--actions", "ball:8", "--adversary", "iid-unit",
                     "--n", "50", "--seeds", "0,1", "--params", "paper",
                     "--proxy-m", "2", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        config = ExperimentConfig(algo=algo, kernel=KernelSpec.linear(),
                                  actions=parse_actions("ball:8"),
                                  adversary=unit_vector_adversary(2), n=50, seeds=(0, 1),
                                  proxy_m=2)
        finals = np.array([t.final_pseudo_regret for t in run_experiment(config).traces])
        assert summary["mean_final_pseudo_regret"] == finals.mean()
        assert summary["stderr_final_pseudo_regret"] == finals.std(ddof=1) / np.sqrt(2)
        assert summary["mean_final_pseudo_regret"] != summary["mean_final_regret"]
    # the last summary is cg's
    assert summary["covariance_floor"] is None
    assert summary["bandit_estimator"] is None
    assert summary["design"] is None
    assert summary["bandit_config"] is None
    assert summary["theorem_bound"] is None
    assert summary["vacuous"] is None


def test_discretization_error_reported(tmp_path):
    # ball:K actions cover the circle to within 2 sin(pi / 2K); summary.json
    # reports G^2 times that radius
    out = tmp_path / "results"
    assert main(["run", "--algo", "cg", "--kernel", "linear", "--actions", "ball:64",
                 "--adversary", "iid-unit", "--n", "10", "--seeds", "0",
                 "--params", "paper", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["discretization_error"] == pytest.approx(
        1.0 * 2 * np.sin(np.pi / 128))


@pytest.mark.parametrize("kernel, num, n, gamma, bound_per_round", [
    # the shape of the bench's bandit-gauss150: 127 of 150 eigenvalues kept
    ("gaussian:0.5", 150, 1000, 0.92, 7.7),
    # the non-vacuous case of test_mean_regret_is_below_a_non_vacuous_theorem_bound
    ("gaussian:2", 40, 3000, 0.20, 1.68),
])
def test_run_summary_reports_theorem_bound(tmp_path, kernel, num, n, gamma,
                                           bound_per_round):
    # summary.json carries the theorem's bound at the paper schedule, and
    # flags it vacuous when it is at least 2 G^2 n, the most any player can
    # lose to the best action (G = 1 for the Gaussian kernel).  The default
    # proxy keeps the whole spectrum above the floor (33 of 40 eigenvalues
    # on the second set), with no warning.
    actions = tmp_path / "actions.csv"
    np.savetxt(actions, fibonacci_sphere(num), delimiter=",")
    out = tmp_path / "results"
    assert main(["run", "--algo", "bandit_ew", "--kernel", kernel,
                 "--actions", str(actions), "--adversary", "iid-unit",
                 "--n", str(n), "--seeds", "0", "--params", "paper",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    config = BanditConfig(**summary["bandit_config"])
    assert config.m == {150: 127, 40: 33}[num]
    assert config.gamma == pytest.approx(gamma, abs=0.005)
    assert summary["theorem_bound"] == theorem_regret_bound(config, 1.0, num)
    assert summary["theorem_bound"] / n == pytest.approx(bound_per_round, abs=0.01)
    assert summary["vacuous"] is (bound_per_round >= 2.0)


def test_run_bandit_on_600_lattice_points(tmp_path):
    # gaussian:2 on 600 lattice points keeps m = 49 of the spectrum, and
    # n = 600 > m (m + 1) / 2: the run's design is certified end to end
    actions = tmp_path / "actions.csv"
    np.savetxt(actions, fibonacci_sphere(600), delimiter=",")
    out = tmp_path / "results"
    assert main(["run", "--algo", "bandit_ew", "--kernel", "gaussian:2",
                 "--actions", str(actions), "--adversary", "iid-unit",
                 "--n", "20", "--seeds", "0",
                 "--params", json.dumps({"eta": 0.05, "gamma": 0.5}),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bandit_config"]["m"] == 49
    assert summary["design"]["kw_ratio"] <= 1.0 + 1e-6


def test_run_summary_reports_covariance_floor_certificate(tmp_path):
    # the bandit certifies its covariance floor gamma / (2m) once per run;
    # summary.json carries the floor and the certified lower bound
    from kernelbandits.harness import ExperimentConfig, run_experiment, unit_vector_adversary
    from kernelbandits.kernels import KernelSpec

    out = tmp_path / "results"
    params = {"eta": 0.05, "gamma": 0.5}
    assert main(["run", "--algo", "bandit_ew", "--kernel", "linear",
                 "--actions", "ball:8", "--adversary", "iid-unit",
                 "--n", "40", "--seeds", "0,1", "--params", json.dumps(params),
                 "--proxy-m", "2", "--out", str(out)]) == 0
    certificate = json.loads((out / "summary.json").read_text())["covariance_floor"]
    config = ExperimentConfig(algo="bandit_ew", kernel=KernelSpec.linear(),
                              actions=parse_actions("ball:8"),
                              adversary=unit_vector_adversary(2), n=40, seeds=(0, 1),
                              params=params, proxy_m=2)
    assert certificate == run_experiment(config).details["covariance_floor"]
    assert certificate["floor"] == 0.5 / (2 * 2)
    assert certificate["certified_lower_bound"] > certificate["floor"]
    assert certificate["certified_lower_bound"] == pytest.approx(0.5 / 2, abs=1e-12)


@pytest.mark.parametrize("kernel, actions, proxy_m, path, k", [
    ("linear", "ball:8", 2, "covariance", 6),
    ("gaussian:0.5", "ball:20", 15, "complement", 5),
])
def test_run_summary_reports_bandit_estimator(tmp_path, kernel, actions, proxy_m,
                                              path, k):
    # the bandit's estimator path, k = N - m and the certified lower bound
    # gamma min nu on every play probability: m = 2 of 8 directions has
    # k >= m, m = 15 of 20 circle directions has k < m and every design
    # weight at least 1 / (2m).  The summary also carries the design's
    # Kiefer-Wolfowitz ratio, max_i g_i / m in [1, 1 + tol] for a certified
    # design, and the run's parameter schedule.  max_eta_loss_hat is
    # eta ||l-hat_t||_inf over both seeds and every round
    from kernelbandits.bandit import run_bandit
    from kernelbandits.harness import (ExperimentConfig, _bandit_setup, run_experiment,
                                       unit_vector_adversary)
    from kernelbandits.rng import component_rng

    out = tmp_path / "results"
    params = {"eta": 0.05, "gamma": 0.5}
    assert main(["run", "--algo", "bandit_ew", "--kernel", kernel,
                 "--actions", actions, "--adversary", "iid-unit",
                 "--n", "60", "--seeds", "0,1", "--params", json.dumps(params),
                 "--proxy-m", str(proxy_m), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    estimator = summary["bandit_estimator"]
    config = ExperimentConfig(algo="bandit_ew", kernel=parse_kernel(kernel),
                              actions=parse_actions(actions),
                              adversary=unit_vector_adversary(2), n=60, seeds=(0, 1),
                              params=params, proxy_m=proxy_m)
    details = run_experiment(config).details
    assert estimator == details["bandit_estimator"]
    features, nu, bcfg, _ = _bandit_setup(config)
    worst = max(
        r.loss_hat_max
        for seed in (0, 1)
        for r in run_bandit(config.kernel, config.actions, features, nu, bcfg,
                            config.adversary.materialize(60, component_rng(seed, "adversary")),
                            component_rng(seed, "player"))[0])
    assert estimator["max_eta_loss_hat"] == 0.05 * worst
    assert estimator["max_eta_loss_hat"] > 0.0
    assert summary["design"] == details["design"]
    assert summary["design"]["kw_ratio"] == pytest.approx(1.0, abs=1e-6)
    assert summary["design"]["center_offset"] >= 0.0
    assert summary["bandit_config"] == {"eta": 0.05, "gamma": 0.5, "m": proxy_m,
                                        "eps": 0.0, "n": 60}
    assert estimator["path"] == path
    assert estimator["k"] == k
    assert estimator["probability_lower_bound"] > 0.0
    if path == "complement":
        assert estimator["probability_lower_bound"] >= 0.5 / (2 * proxy_m)


def test_run_command_input_error_exit_code(tmp_path):
    code = main(["run", "--algo", "fullinfo_ew", "--kernel", "nope",
                 "--actions", "ball:8", "--n", "10", "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("flags", [
    {"actions": "ball:x"},
    {"kernel": "gaussian:abc"},
    {"seeds": "0,a"},
    {"params": "{bad"},
    {"adversary": "fixed:1,x"},
    {"adversary": "fixed"},
    {"params": "{}"},
    {"algo": "bandit_ew", "params": '{"eta": 0.1}'},
    {"algo": "cg", "params": '{"eta": 0.1, "gamma": 0.5, "n": 10}'},
    {"algo": "bandit_ew", "params": '{"eta": "x", "gamma": 0.5}'},
    {"params": '{"eta": null}'},
    {"algo": "bandit_ew", "params": '{"eta": true, "gamma": 0.5}'},
    {"config": {"seeds": [0, 1]}},
    {"config": {"actions": ["ball:8"]}},
    {"config": {"kernel": 5}},
    {"config": [1]},
    {"config": {"n": "abc"}},
    {"config": {"bogus": 1}},
    {"actions": "BAD_CSV"},
    {"adversary": "periodic:BAD_CSV"},
    {"adversary": "periodic:BIG_CSV"},
    {"adversary": "schedule:BIG_CSV"},
    {"kernel": "linear:1:2:3"},
    {"kernel": "quadratic:2:9"},
    {"kernel": "gaussian:0.5:1:7"},
    {"kernel": "poly:2:1:4:5"},
    {"algo": "bandit_ew", "proxy-p": "0"},
    {"algo": "bandit_ew", "proxy-m": "0"},
    {"algo": "bandit_ew", "proxy-p": "4", "proxy-m": "5"},
    {"algo": "cg", "kernel": "quadratic", "adversary": "fixed-point:nan,0"},
    {"adversary": "fixed:nan,0"},
    {"kernel": "gaussian:inf"},
    {"kernel": "gaussian:nan"},
    {"kernel": "linear:nan"},
    {"kernel": "poly:2:nan"},
    {"seeds": "1,1"},
    {"seeds": "0,18446744073709551616"},
    {"seeds": "-1"},
], ids=lambda flags: ",".join(f"{k}={v}" for k, v in flags.items()))
def test_run_command_malformed_input_exits_2(tmp_path, capsys, flags):
    args = {"algo": "fullinfo_ew", "kernel": "linear", "actions": "ball:8",
            "adversary": "iid-unit", "n": "5", "seeds": "0", "params": "paper",
            "out": str(tmp_path / "out"), **flags}
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("0.1,abc\n0.2,0.3\n")
    # a point of norm 5 under G = 1, among five of norm 1
    big_csv = tmp_path / "big.csv"
    big_csv.write_text("5,0\n" + "0.6,0.8\n" * 5)
    args = {key: value.replace("BAD_CSV", str(bad_csv)).replace("BIG_CSV", str(big_csv))
            if isinstance(value, str) else value for key, value in args.items()}
    if "config" in args:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(args["config"]))
        args["config"] = str(path)
    argv = ["run"] + [item for key, value in args.items() for item in (f"--{key}", value)]
    assert main(argv) == 2
    assert "input error:" in capsys.readouterr().err


def test_run_command_refuses_an_empty_action_set(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.warns(UserWarning, match="input contained no data"):
        code = main(["run", "--algo", "fullinfo_ew", "--kernel", "linear",
                     "--actions", str(empty), "--adversary", "iid-unit", "--n", "5",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "points must be nonempty" in capsys.readouterr().err


def test_run_command_precondition_exit_code(tmp_path):
    # n far too small for the bandit schedule: gamma > 1
    code = main(["run", "--algo", "bandit_ew", "--kernel", "linear",
                 "--actions", "ball:12", "--adversary", "iid-unit",
                 "--n", "4", "--seeds", "0", "--params", "paper",
                 "--out", str(tmp_path / "x")])
    assert code == 3


@pytest.mark.parametrize("params", [{"eta": 0.05, "gamma": 0.5, "eps": -3},
                                    {"eta": -0.05, "gamma": 0.5}])
def test_run_command_refuses_eta_and_eps_outside_the_theorem(tmp_path, capsys, params):
    # before, both ran and wrote a summary.json with a finite theorem_bound
    # and vacuous false (-37000 and 400)
    out = tmp_path / "x"
    code = main(["run", "--algo", "bandit_ew", "--kernel", "gaussian:2",
                 "--actions", "ball:20", "--adversary", "iid-unit", "--n", "300",
                 "--seeds", "0", "--params", json.dumps(params), "--out", str(out)])
    assert code == 3
    assert "need" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("algo, params, key", [
    ("fullinfo_ew", {"eta": 0.1, "zzz": 1}, "zzz"),
    ("bandit_ew", {"eta": 0.05, "gamma": 0.5, "n": 7}, "n"),
    ("cg", {"eta": 0.1, "c": 2, "gamma": 0.5}, "gamma"),
])
def test_run_command_names_a_key_the_algorithm_does_not_read(tmp_path, capsys, algo,
                                                             params, key):
    # refused, not dropped: the bandit would play the --n horizon, not n = 7
    out = tmp_path / "x"
    code = main(["run", "--algo", algo, "--kernel", "gaussian:2", "--actions", "ball:20",
                 "--n", "100", "--params", json.dumps(params), "--out", str(out)])
    assert code == 2
    assert f"{key!r} is not one of" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("algo, params", [
    ("fullinfo_ew", {"eta": -1}),
    ("fullinfo_ew", {"eta": 0}),
    ("fullinfo_ew", {"eta": float("inf")}),
    ("cg", {"eta": -0.1, "c": 2}),
    ("cg", {"eta": float("nan"), "c": 2}),
    ("cg", {"eta": 0.1, "c": -1}),
    ("cg", {"eta": 0.1, "c": float("inf")}),
])
def test_run_command_refuses_ew_and_cg_schedules_outside_the_theorem(tmp_path, capsys,
                                                                     algo, params):
    # the same step-size rule as the bandit's; c >= 0 keeps gamma_t in [0, 1]
    out = tmp_path / "x"
    code = main(["run", "--algo", algo, "--kernel", "linear", "--actions", "ball:8",
                 "--n", "50", "--params", json.dumps(params), "--out", str(out)])
    assert code == 3
    assert "need finite" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_run_command_takes_explicit_cg_params(tmp_path):
    out = tmp_path / "x"
    assert main(["run", "--algo", "cg", "--kernel", "quadratic", "--actions", "ball:8",
                 "--n", "50", "--params", '{"eta": 0.1, "c": 2}', "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["params"] == {"eta": 0.1, "c": 2}


@pytest.mark.parametrize("algo, kernel, keys", [
    ("bandit_ew", "gaussian:2", ["eta", "gamma", "eps"]),
    ("fullinfo_ew", "gaussian:2", ["eta"]),
    ("cg", "quadratic", ["eta", "c"]),
])
def test_run_replays_from_the_summary_params(tmp_path, algo, kernel, keys):
    # summary.json's params is the resolved schedule as the --params object
    # that replays it; JSON round-trips floats exactly, so the replay has
    # the same trace bytes
    flags = ["--algo", algo, "--kernel", kernel, "--actions", "ball:20",
             "--adversary", "iid-unit", "--n", "120", "--seeds", "0,3"]
    assert main(["run", *flags, "--params", "paper", "--out", str(tmp_path / "paper")]) == 0
    params = json.loads((tmp_path / "paper" / "summary.json").read_text())["params"]
    assert list(params) == keys
    assert main(["run", *flags, "--params", json.dumps(params),
                 "--out", str(tmp_path / "replay")]) == 0
    replay = json.loads((tmp_path / "replay" / "summary.json").read_text())
    assert replay["params"] == params
    for seed in (0, 3):
        assert ((tmp_path / "paper" / f"trace_{seed}.csv").read_bytes()
                == (tmp_path / "replay" / f"trace_{seed}.csv").read_bytes())


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    import kernelbandits.cli as cli_mod
    from kernelbandits.errors import ToleranceNotMetError

    def boom(args):
        raise ToleranceNotMetError(1.0, 1e-9, 5)

    monkeypatch.setattr(cli_mod, "_cmd_design", boom)
    parser = cli_mod.build_parser()
    args = parser.parse_args(["design", "--features", "whatever.csv"])
    monkeypatch.setattr(args, "func", boom, raising=False)
    code = cli_mod.main(["design", "--features", str(tmp_path / "f.csv")])
    assert code in (2, 4)  # missing file -> 2; forced failure path -> 4


def test_design_command(tmp_path, capsys):
    feats = tmp_path / "feats.csv"
    feats.write_text("1,0\n0,1\n0.5,0.5\n")
    code = main(["design", "--features", str(feats), "--tol", "1e-8"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "action_index,weight"
    weights = np.array([float(line.split(",")[1]) for line in out[1:]])
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_design_command_certifies_a_small_proxy_rank(tmp_path, capsys):
    # gaussian:2 features of 150 lattice points at proxy rank m = 16
    # (p = 300, seed 0): n > m (m + 1) / 2, so every step is a barrier step
    from kernelbandits.proxy import build_proxy, proxy_features

    points = fibonacci_sphere(150)
    basis = build_proxy(KernelSpec.gaussian(2.0), points, m=16, p=300,
                        rng=component_rng(0, "proxy"))
    F = proxy_features(basis, points)
    feats = tmp_path / "feats.csv"
    np.savetxt(feats, F, delimiter=",")
    assert main(["design", "--features", str(feats)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    weights = np.array([float(line.split(",")[1]) for line in out[1:]])
    assert weights.shape == (150,) and weights.min() > 0.0
    sigma = F.T @ (F * weights[:, None])
    assert np.einsum("ij,jk,ik->i", F, np.linalg.inv(sigma), F).max() / 16 <= 1.0 + 1e-6


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_design_command_refuses_tolerance(tmp_path, capsys, tol):
    feats = tmp_path / "feats.csv"
    feats.write_text("1,0\n0,1\n0.5,0.5\n")
    assert main(["design", "--features", str(feats), "--tol", tol]) == 2
    assert "input error:" in capsys.readouterr().err


def test_sample_quad_command(tmp_path):
    B = tmp_path / "B.csv"
    b = tmp_path / "b.csv"
    B.write_text("-2,0\n0,1\n")
    b.write_text("0.5\n0\n")
    out = tmp_path / "samples.csv"
    code = main(["sample-quad", "--B", str(B), "--b", str(b),
                 "--count", "200", "--burn-in", "500", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    samples = np.loadtxt(out, delimiter=",")
    assert samples.shape == (200, 2)
    assert np.all(np.linalg.norm(samples, axis=1) <= 1.0 + 1e-9)


def test_proxy_check_command(capsys):
    code = main(["proxy-check", "--kernel", "gaussian:0.5", "--p", "200",
                 "--eps", "0.05", "--grid", "40", "--seed", "0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["certified"] is True
    assert report["sup_error"] <= 0.05


@pytest.mark.parametrize("flag, value", [("--grid", "0"), ("--dim", "0"), ("--p", "0"),
                                         ("--eps", "nan"), ("--eps", "inf"),
                                         ("--seed", "-1")])
def test_proxy_check_input_errors_exit_2(capsys, flag, value):
    args = {"--kernel": "gaussian:0.5", "--p": "20", "--eps": "0.05", "--grid": "5",
            flag: value}
    assert main(["proxy-check"] + [item for pair in args.items() for item in pair]) == 2
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    {"--m": "3", "--eps": "nan"},
    {"--m": "1", "--eps": "inf"},
    {"--eps": "1e-300", "--decay": "polynomial"},
    {"--kernel": "linear", "--eps": "0.01"},
], ids=lambda flags: ",".join(f"{k}={v}" for k, v in flags.items()))
def test_proxy_check_refuses_what_it_cannot_certify(capsys, flags):
    # a non-finite --eps with --m given, a truncation level past the float
    # range, and a one-dimensional linear Gram with one eigenvalue to fit
    args = {"--kernel": "gaussian:0.5", "--p": "20", "--eps": "0.05", "--grid": "5", **flags}
    with warnings.catch_warnings():
        # a fitted polynomial decay with beta <= 2 warns before the level is refused
        warnings.filterwarnings("ignore", "polynomial decay with beta <= 2", UserWarning)
        code = main(["proxy-check"] + [item for pair in args.items() for item in pair])
    assert code == 2
    assert "input error:" in capsys.readouterr().err


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "algo": "cg", "kernel": "linear", "actions": "ball:8",
        "adversary": "iid-unit", "n": 30, "seeds": "0",
        "params": "paper", "out": str(tmp_path / "out"),
    }))
    code = main(["run", "--algo", "fullinfo_ew", "--actions", "ball:4",
                 "--n", "5", "--out", str(tmp_path / "ignored"),
                 "--config", str(cfg)])
    assert code == 0
    assert (tmp_path / "out" / "trace_0.csv").exists()
