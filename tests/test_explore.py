"""Episode loop: scoring, certification gate, selection, data growth."""

from __future__ import annotations

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from safeshift import explore
from safeshift import robust_regression as rr
from safeshift.bounds import certify_trajectory, gamma
from safeshift.controller import ControllerGains
from safeshift.core import Dataset
from safeshift.density_ratio import density_ratio, kde_fit, max_ratio_on_traj
from safeshift.explore import (
    ConfigError,
    ExperimentConfig,
    GpLearner,
    RobustLearner,
    build_pool_cache,
    default_config,
    make_learner,
    run_episode,
    run_experiment,
)
from safeshift.gp_baseline import gp_predict


class StubLearner:
    """Scripted sigma per candidate; no-op model hooks."""

    kind = "stub"

    def __init__(self, sigma_for=None, default=0.0):
        self.sigma_for = dict(sigma_for or {})
        self.default = default
        self.retrain_calls = 0

    def eval_candidate(self, traj, pts, ratios):
        key = round(traj.params.get("C", 0.0), 10)
        return float(self.sigma_for.get(key, self.default))

    def d_hat_fn(self, src_kde, trg_kde):
        return lambda q, qdot: 0.0

    def retrain(self, dataset, src_kde, trg_kde):
        self.retrain_calls += 1

    def moment_residual_max(self):
        return math.nan


def tube02_config():
    # gains chosen so the tube gain is exactly sqrt(4.25)/k = 0.2
    k = 5.0 * math.sqrt(4.25)
    return ExperimentConfig(
        task="pendulum",
        gains=ControllerGains(k, 2.0),
        beta=1.0,
        amplitudes=(0.2, 0.6, 1.0),
        horizon=2.0,
    )


# -- config ---------------------------------------------------------------


def test_default_config_pendulum_values():
    cfg = default_config("pendulum", seed=7)
    assert cfg.task == "pendulum" and cfg.seed == 7
    assert cfg.beta == 0.5 and cfg.sigma0_sq == 0.5
    assert (cfg.gains.k, cfg.gains.lam) == (1.0, 2.0)
    assert cfg.horizon == 20.0 and cfg.episodes == 15
    assert cfg.model_kind == "robust"
    assert len(cfg.pool()) == 10


def test_default_config_landing_values():
    cfg = default_config("landing", seed=3, model_kind="gp_rbf")
    assert cfg.task == "landing" and cfg.model_kind == "gp_rbf"
    assert cfg.beta == 1.0 and cfg.sigma0_sq == 1.0
    assert (cfg.gains.k, cfg.gains.lam) == (3.2, 2.0)
    assert cfg.horizon == 10.0 and cfg.output_dim == 3
    assert len(cfg.pool()) == 60


@pytest.mark.parametrize(
    "kw, field_name",
    [
        (dict(task="rover"), "task"),
        (dict(episodes=0), "episodes"),
        (dict(beta=0.0), "beta"),
        (dict(sigma0_sq=-1.0), "sigma0_sq"),
        (dict(sample_hz=0.0), "sample_hz"),
        (dict(output_dim=0), "output_dim"),
        (dict(model_kind="svm"), "model_kind"),
        (dict(cert_stride=0), "cert_stride"),
        (dict(seed=-1), "seed"),
        (dict(w_max=0.0), "w_max"),
    ],
)
def test_config_error_names_offending_field(kw, field_name):
    with pytest.raises(ConfigError, match=field_name):
        ExperimentConfig(**kw)


def test_default_config_unknown_task():
    with pytest.raises(ConfigError, match="task"):
        default_config("rover")


# -- selection logic ------------------------------------------------------


def test_three_candidate_worked_example():
    # sigma {0.1, 0.5, 4.0} with gamma 0.2 -> tubes {0.02, 0.1, 0.8};
    # worst excursions {0.22, 0.7, 1.8} against a 1.5 box: C=1.0 rejected,
    # cheapest certified survivor is C=0.6.
    cfg = tube02_config()
    stub = StubLearner({0.2: 0.1, 0.6: 0.5, 1.0: 4.0})
    out = run_episode(cfg.pool(), stub, None, cfg)
    assert out.status == "ok"
    assert out.chosen.params["C"] == pytest.approx(0.6)
    assert out.n_certified == 2
    assert out.sigma_max == pytest.approx(0.5)
    assert out.eps_m == pytest.approx(0.5)
    assert out.certification.rho == pytest.approx(0.1, rel=1e-12)


def test_single_certified_candidate_is_chosen_despite_cheaper_rejects():
    cfg = tube02_config()
    stub = StubLearner({0.2: 99.0, 0.6: 0.5, 1.0: 99.0})
    out = run_episode(cfg.pool(), stub, None, cfg)
    assert out.n_certified == 1
    assert out.chosen.params["C"] == pytest.approx(0.6)


def test_all_uncertified_yields_no_safe_candidate():
    cfg = tube02_config()
    out = run_episode(cfg.pool(), StubLearner(default=50.0), None, cfg)
    assert out.status == "no_safe_candidate"
    assert out.chosen is None and out.rollout is None and out.new_data is None
    assert out.n_certified == 0
    assert math.isnan(out.sigma_max) and math.isnan(out.eps_m)


def test_zero_sigma_certifies_everything_and_picks_cost_argmin():
    cfg = replace(default_config("pendulum"), horizon=2.0)
    out = run_episode(cfg.pool(), StubLearner(default=0.0), None, cfg)
    assert out.n_certified == 10
    assert out.chosen.params["C"] == pytest.approx(1.0)
    # with sigma = 0 the budget is beta-invariant
    out_b = run_episode(
        replace(cfg, beta=7.0).pool(), StubLearner(default=0.0), None, replace(cfg, beta=7.0)
    )
    assert out_b.chosen.params["C"] == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(5))
def test_chosen_is_always_cheapest_certified(seed):
    cfg = replace(default_config("pendulum"), horizon=2.0)
    pool = cfg.pool()
    rng = np.random.default_rng(seed)
    sigmas = {round(t.params["C"], 10): float(s) for t, s in zip(pool, rng.uniform(0, 4, len(pool)))}
    out = run_episode(pool, StubLearner(sigmas), None, cfg)

    gv = gamma(cfg.tube())
    box = cfg.safety_set()
    certified = [
        t
        for t in pool
        if certify_trajectory(t, gv, cfg.beta * sigmas[round(t.params["C"], 10)], box).safe
    ]
    if not certified:
        assert out.status == "no_safe_candidate"
    else:
        expected = min(
            certified,
            key=lambda t: (t.cost, t.params.get("h_g", 0.0), -t.params.get("C", 0.0)),
        )
        assert out.chosen.params == expected.params
        assert out.n_certified == len(certified)


def test_landing_tie_break_prefers_lower_hover():
    # two hover candidates, both cost inf: tie-break goes to the lower h_g
    cfg = replace(default_config("landing"), rates=(0.5,), hovers=(0.5, 0.3))
    out = run_episode(cfg.pool(), StubLearner(default=0.0), None, cfg)
    assert out.chosen.params["h_g"] == pytest.approx(0.3)


def test_landing_tie_break_prefers_aggressive_rate():
    cfg = replace(default_config("landing"), rates=(0.3, 0.8), hovers=(0.2,))
    out = run_episode(cfg.pool(), StubLearner(default=0.0), None, cfg)
    assert out.chosen.params["C"] == pytest.approx(0.8)


def test_empty_pool_rejected():
    cfg = tube02_config()
    with pytest.raises(ValueError):
        run_episode([], StubLearner(), None, cfg)


# -- episode 1 with the real learner ---------------------------------------


def test_episode_one_runs_on_base_model_uncertainty():
    cfg = default_config("pendulum")
    learner = RobustLearner(cfg, np.random.default_rng(0))
    out = run_episode(cfg.pool(), learner, None, cfg)

    assert out.status == "ok"
    # untrained model: sigma is the prior everywhere, ratios pinned to 1
    assert out.sigma_max == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert out.eps_m == pytest.approx(0.5 * math.sqrt(0.5), rel=1e-12)
    assert out.certification.rho == pytest.approx(gamma(cfg.tube()) * out.eps_m, rel=1e-12)
    assert out.w_hat == 1.0
    # rho ~ 0.729 against the 1.5 box: amplitudes 0.1..0.7 certify
    assert out.n_certified == 7
    assert out.chosen.params["C"] == pytest.approx(0.7)
    # 20 s horizon sampled at 50 Hz
    assert len(out.new_data) == 1001
    assert out.new_data.targets.shape == (1001, 1)


# -- run_experiment bookkeeping --------------------------------------------


def test_dataset_growth_and_retrain_cadence():
    cfg = replace(
        default_config("pendulum"),
        episodes=3,
        sample_hz=5.0,
        max_train_points=5000,
    )
    stub = StubLearner(default=0.01)
    result = run_experiment(cfg, learner=stub)
    assert [r.status for r in result.records] == ["ok", "ok", "ok"]
    assert [r.n_train for r in result.records] == [101, 202, 303]
    assert stub.retrain_calls == 3
    assert result.violations == 0


def test_no_safe_candidate_skips_collection_and_retraining():
    cfg = replace(default_config("pendulum"), episodes=2)
    stub = StubLearner(default=50.0)
    result = run_experiment(cfg, learner=stub)
    assert [r.status for r in result.records] == ["no_safe_candidate"] * 2
    assert [r.n_train for r in result.records] == [0, 0]
    assert stub.retrain_calls == 0
    assert math.isnan(result.final_cost)


# -- learner factory --------------------------------------------------------


def test_make_learner_kinds():
    rng = np.random.default_rng(0)
    assert isinstance(make_learner(default_config("pendulum"), rng), RobustLearner)
    gp1 = make_learner(default_config("pendulum", model_kind="gp_rbf"), rng)
    gp2 = make_learner(default_config("pendulum", model_kind="gp_matern"), rng)
    assert isinstance(gp1, GpLearner) and gp1.hyper.kernel == "rbf" and gp1.kind == "gp_rbf"
    assert isinstance(gp2, GpLearner) and gp2.hyper.kernel == "matern52" and gp2.kind == "gp_matern"


def test_gp_learner_prior_sigma_and_zero_compensation():
    cfg = default_config("pendulum", model_kind="gp_rbf")
    learner = make_learner(cfg, np.random.default_rng(0))
    sigma = learner.eval_candidate(cfg.pool()[0], None, None)
    assert sigma == pytest.approx(math.sqrt(cfg.gp.sigma_f_sq))
    assert learner.d_hat_fn(None, None)(0.3, -0.2) == 0.0


@pytest.mark.parametrize("model_kind", ["gp_rbf", "gp_matern"])
def test_gp_learner_d_hat_matches_posterior_mean(model_kind, rng):
    cfg = default_config("pendulum", model_kind=model_kind)
    learner = make_learner(cfg, rng)
    x = rng.normal(size=(8, 2))
    y = np.sin(x[:, 0:1]) * 0.5
    learner.retrain(Dataset(x, y), None, None)
    fn = learner.d_hat_fn(None, None)
    for q, qdot in [(0.0, 0.0), (0.4, -1.1), (-0.9, 0.3)]:
        mu, _ = gp_predict(learner.model, np.array([q, qdot]))
        assert fn(q, qdot) == pytest.approx(float(mu[0]), abs=1e-10)


@pytest.mark.parametrize("model_kind", ["gp_rbf", "gp_matern"])
def test_gp_retrain_releases_previous_model_before_fit(model_kind, rng, monkeypatch):
    cfg = default_config("pendulum", model_kind=model_kind)
    learner = make_learner(cfg, rng)
    x = rng.normal(size=(30, 2))
    data = Dataset(x, np.sin(x[:, 0:1]))
    learner.retrain(data, None, None)
    old = weakref.ref(learner.model)
    alive_during_fit = []
    real_fit = explore.gp_fit

    def spy(*args, **kwargs):
        alive_during_fit.append(old() is not None)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(explore, "gp_fit", spy)
    learner.retrain(data, None, None)
    assert alive_during_fit == [False]


# -- robust d_hat closure -----------------------------------------------------


@pytest.mark.parametrize("hidden", [(32, 32), (32,)])
def test_robust_d_hat_matches_predicted_mean(hidden):
    # the rollout closure must agree with predict() for any net depth
    cfg = default_config("pendulum")
    g = np.random.default_rng(11)
    learner = RobustLearner(cfg, g)
    net = rr.feature_net_init(g, hidden=hidden)
    learner.model = replace(
        learner.model,
        net=net,
        theta_phi=g.normal(size=(1, net.feature_dim)),
        theta_y=np.array([2.5]),
    )
    src = kde_fit(g.normal(0.0, 0.5, (200, 2)))
    trg = kde_fit(g.normal(0.4, 0.6, (150, 2)))
    d_hat = learner.d_hat_fn(src, trg)
    pts = g.normal(0.0, 0.8, (25, 2))
    mu, _ = rr.predict(learner.model, pts, ratios=density_ratio(src, trg, pts, cfg.ratio))
    got = np.array([d_hat(float(q), float(qdot)) for q, qdot in pts])
    np.testing.assert_allclose(got, mu[:, 0], rtol=1e-9, atol=0)


# -- cached candidate scoring ---------------------------------------------------


def test_cached_scoring_matches_density_ratio_and_max_ratio():
    cfg = default_config("landing")
    pool = cfg.pool()
    cache = build_pool_cache(pool, cfg)
    g = np.random.default_rng(2)
    # source data around a few candidate grids, so the ratios span the
    # clip interval and w_hat varies across the pool
    src_pts = np.concatenate([pool[k].grid_xy()[::7] for k in (0, 25, 50)])
    src = kde_fit(src_pts + g.normal(0.0, 0.05, src_pts.shape))
    inputs = cache.episode_inputs(src, cfg.ratio)
    assert len(inputs) == len(pool)

    all_r, w_hats = [], []
    for traj, trg, (pts, r, w_hat) in zip(pool, cache.trg_kdes, inputs):
        grid = traj.grid_xy()
        idx = list(range(0, len(grid), cfg.cert_stride))
        if idx[-1] != len(grid) - 1:
            idx.append(len(grid) - 1)
        np.testing.assert_array_equal(pts, grid[idx])
        np.testing.assert_allclose(r, density_ratio(src, trg, pts, cfg.ratio), rtol=1e-12)
        assert w_hat == pytest.approx(max_ratio_on_traj(trg, src, traj), rel=1e-12)
        all_r.append(r)
        w_hats.append(w_hat)
    all_r = np.concatenate(all_r)
    assert np.any(all_r == cfg.ratio.r_lo) and np.any(all_r == cfg.ratio.r_hi)
    assert np.any((all_r > cfg.ratio.r_lo) & (all_r < cfg.ratio.r_hi))
    assert min(w_hats) < cfg.w_max < max(w_hats)


def test_episode_one_inputs_have_unit_ratios():
    cfg = tube02_config()
    inputs = build_pool_cache(cfg.pool(), cfg).episode_inputs(None, cfg.ratio)
    assert [(r, w) for _, r, w in inputs] == [(None, 1.0)] * len(cfg.pool())


def test_cache_for_another_pool_rejected():
    cfg = tube02_config()
    cache = build_pool_cache(cfg.pool()[:2], cfg)
    with pytest.raises(ValueError, match="pool"):
        run_episode(cfg.pool(), StubLearner(), None, cfg, cache=cache)


def test_target_kdes_fit_once_per_experiment(monkeypatch):
    cfg = replace(default_config("pendulum"), horizon=2.0, episodes=3, sample_hz=5.0)
    fitted = []
    real_fit = explore.kde_fit

    def spy(samples, *args, **kwargs):
        fitted.append(np.array(samples, copy=True))
        return real_fit(samples, *args, **kwargs)

    monkeypatch.setattr(explore, "kde_fit", spy)
    result = run_experiment(cfg, learner=StubLearner(default=0.01))
    assert [r.status for r in result.records] == ["ok"] * 3

    grids = [traj.grid_xy() for traj in cfg.pool()]
    assert all(len(grid) <= cfg.kde_trg_max for grid in grids)  # fit on the full grid
    for grid in grids:
        assert sum(np.array_equal(samples, grid) for samples in fitted) == 1


def test_source_kde_fit_once_per_dataset_change(monkeypatch):
    cfg = replace(default_config("pendulum"), horizon=2.0, episodes=3, sample_hz=5.0)
    fits, scored = [], []
    real_fit, real_episode = explore.kde_fit, explore.run_episode

    def fit_spy(samples, *args, **kwargs):
        fits.append(real_fit(samples, *args, **kwargs))
        return fits[-1]

    def episode_spy(pool, learner, src_kde, *args, **kwargs):
        scored.append(src_kde)
        return real_episode(pool, learner, src_kde, *args, **kwargs)

    monkeypatch.setattr(explore, "kde_fit", fit_spy)
    monkeypatch.setattr(explore, "run_episode", episode_spy)
    run_experiment(cfg, learner=StubLearner(default=0.01))
    # one target KDE per candidate, then one source KDE per retrain, which
    # the next episode scores against
    n_pool = len(cfg.pool())
    assert len(fits) == n_pool + cfg.episodes
    assert scored[0] is None
    assert all(a is b for a, b in zip(scored[1:], fits[n_pool:]))
