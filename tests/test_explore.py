"""Episode loop: scoring, certification gate, selection, data growth."""

from __future__ import annotations

import math
import weakref
from dataclasses import astuple, replace

import numpy as np
import pytest

from safeshift import explore
from safeshift import robust_regression as rr
from safeshift.bounds import certify_trajectory
from safeshift.controller import ControllerGains
from safeshift.core import Dataset, LandingPool, PendulumPool, subsample_rows
from safeshift.density_ratio import (
    DENSITY_FLOOR,
    KDE_BLOCK_ELEMENTS,
    R_HI,
    clipped_ratio,
    density_ratio,
    kde_density,
    kde_fit,
)
from safeshift.dynamics import DRONE, PENDULUM
from safeshift.explore import (
    Candidate,
    CandidateCheck,
    ConfigError,
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
    """Scripted sigma per candidate; no-op model hooks.

    sigma_for is keyed by the candidate's parameter C, rounded to 10
    digits (the pendulum's amplitude, the drone's descent rate).
    """

    def __init__(self, sigma_for=None, default=0.0):
        self.sigma_for = dict(sigma_for or {})
        self.default = default
        self.retrain_calls = 0

    def eval_candidate(self, cand, r_min):
        key = round(cand.traj.params["C"], 10)
        return float(self.sigma_for.get(key, self.default))

    def d_hat_fn(self, src_kde, trg_kde):
        return lambda q, qdot: 0.0

    def retrain(self, dataset, src_kde, trg_kde):
        self.retrain_calls += 1
        return math.nan


def tube02_config():
    # gains chosen so the tube gain is exactly sqrt(4.25)/k = 0.2
    k = 5.0 * math.sqrt(4.25)
    return replace(
        default_config("pendulum"),
        gains=ControllerGains(k, 2.0),
        beta=1.0,
        candidates=PendulumPool((0.2, 0.6, 1.0)),
        horizon=2.0,
    )


def episode_one(cfg, learner, pool=None):
    """run_episode on cfg's pool (or `pool`) without data."""
    pool = cfg.pool() if pool is None else pool
    return run_episode(build_pool_cache(pool), learner, None, cfg)


# -- config ---------------------------------------------------------------


def test_default_config_pendulum_values():
    cfg = default_config("pendulum")
    assert cfg.task == "pendulum" and cfg.seed == 0
    assert cfg.beta == 0.5 and cfg.sigma0_sq == 0.5
    assert (cfg.gains.k, cfg.gains.lam) == (1.0, 2.0)
    assert cfg.horizon == 20.0 and cfg.episodes == 15
    assert cfg.model_kind == "robust"
    assert len(cfg.pool()) == 10


def test_default_config_landing_values():
    cfg = default_config("landing")
    assert cfg.task == "landing" and cfg.model_kind == "robust"
    assert cfg.beta == 1.0 and cfg.sigma0_sq == 1.0
    assert (cfg.gains.k, cfg.gains.lam) == (3.2, 2.0)
    assert cfg.horizon == 10.0
    assert len(cfg.pool()) == 60


@pytest.mark.parametrize(
    "kw, field_name",
    [
        (dict(task="rover"), "task"),
        (dict(episodes=0), "episodes"),
        (dict(beta=0.0), "beta"),
        (dict(sigma0_sq=-1.0), "sigma0_sq"),
        (dict(horizon=0.0), "horizon"),
        (dict(gains=ControllerGains(1.0, 1e-155)), "gains: the tube gain gamma is not positive"),
        (dict(model_kind="svm"), "model_kind"),
        (dict(horizon=1e308), "horizon: too long for the grid step 0.01"),
        (dict(seed=-1), "seed"),
        (dict(first_fit_epochs=0), "first_fit_epochs"),
        (dict(horizon=2.005), "horizon: must be a multiple of the grid step 0.01"),
    ],
)
def test_config_error_names_offending_field(kw, field_name):
    with pytest.raises(ConfigError, match=field_name):
        replace(default_config("pendulum"), **kw)


@pytest.mark.parametrize("name", ["candidates", "safety"])
def test_config_with_another_tasks_part_names_the_field(name):
    pendulum_part = getattr(default_config("pendulum"), name)
    with pytest.raises(ConfigError, match=f"^{name}: the landing task needs a "):
        replace(default_config("landing"), **{name: pendulum_part})


@pytest.mark.parametrize("task, plant", [("pendulum", PENDULUM), ("landing", DRONE)])
def test_the_task_fixes_its_plant(task, plant):
    cfg = default_config(task)
    assert cfg.plant is plant
    with pytest.raises(TypeError, match="plant"):
        replace(cfg, plant=plant)


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
    out = episode_one(cfg, stub)
    assert out.status == "ok"
    assert out.params["C"] == pytest.approx(0.6)
    assert out.sigma_max == pytest.approx(0.5)
    assert out.eps_m == pytest.approx(0.5)
    assert out.tube_radius == pytest.approx(0.1, rel=1e-12)


def test_single_certified_candidate_is_chosen_despite_cheaper_rejects():
    cfg = tube02_config()
    stub = StubLearner({0.2: 99.0, 0.6: 0.5, 1.0: 99.0})
    out = episode_one(cfg, stub)
    assert out.n_certified == 1
    assert out.params["C"] == pytest.approx(0.6)


def test_all_uncertified_yields_no_safe_candidate():
    cfg = tube02_config()
    out = episode_one(cfg, StubLearner(default=50.0))
    assert out.status == "no_safe_candidate"
    assert out.params == {} and out.rollout is None and out.trg_kde is None
    assert out.n_certified == 0
    assert [c.outcome for c in out.checks] == ["rejected"] * 3  # one per pool candidate
    assert math.isnan(out.sigma_max) and math.isnan(out.eps_m) and math.isnan(out.tube_radius)


def test_zero_sigma_certifies_everything_and_picks_cost_argmin():
    cfg = replace(default_config("pendulum"), horizon=2.0)
    out = episode_one(cfg, StubLearner(default=0.0))
    assert out.params["C"] == pytest.approx(1.0)
    # with sigma = 0 the budget is beta-invariant
    out_b = episode_one(replace(cfg, beta=7.0), StubLearner(default=0.0))
    assert out_b.params["C"] == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(5))
def test_chosen_is_always_cheapest_certified(seed):
    cfg = replace(default_config("pendulum"), horizon=2.0)
    pool = cfg.pool()
    rng = np.random.default_rng(seed)
    sigmas = {round(t.params["C"], 10): float(s) for t, s in zip(pool, rng.uniform(0, 4, len(pool)))}
    out = episode_one(cfg, StubLearner(sigmas), pool)

    gv = cfg.gamma()
    box = cfg.safety
    certified = [
        t
        for t in pool
        if certify_trajectory(t, gv * (cfg.beta * sigmas[round(t.params["C"], 10)]), box).safe
    ]
    if not certified:
        assert out.status == "no_safe_candidate"
    else:
        expected = min(
            certified,
            key=lambda t: (t.cost, t.params.get("h_g", 0.0), -t.params.get("C", 0.0)),
        )
        assert out.params == expected.params


def test_landing_tie_break_prefers_lower_hover():
    # two hover candidates, both cost inf: tie-break goes to the lower h_g
    cfg = replace(default_config("landing"), candidates=LandingPool((0.5,), (0.5, 0.3)))
    out = episode_one(cfg, StubLearner(default=0.0))
    assert out.params["h_g"] == pytest.approx(0.3)


def test_landing_tie_break_prefers_aggressive_rate():
    cfg = replace(default_config("landing"), candidates=LandingPool((0.3, 0.8), (0.2,)))
    out = episode_one(cfg, StubLearner(default=0.0))
    assert out.params["C"] == pytest.approx(0.8)


# -- episode 1 with the real learner ---------------------------------------


def test_episode_one_runs_on_base_model_uncertainty():
    cfg = default_config("pendulum")
    learner = RobustLearner(cfg, np.random.default_rng(0))
    out = episode_one(cfg, learner)

    assert out.status == "ok"
    # untrained model: sigma is the prior everywhere, ratios pinned to 1
    assert out.sigma_max == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert out.eps_m == pytest.approx(0.5 * math.sqrt(0.5), rel=1e-12)
    assert out.tube_radius == cfg.gamma() * out.eps_m
    assert out.w_hat == 1.0
    # rho ~ 0.729 against the 1.5 box: amplitudes 0.1..0.7 certify
    assert out.params["C"] == pytest.approx(0.7)
    # 20 s horizon sampled at 50 Hz
    data = explore._collect(cfg, out.rollout)
    assert len(data) == 1001
    assert data.targets.shape == (1001,)


class OverCompensating(StubLearner):
    """A d_hat that overstates the residual lift, so the drone drops fast."""

    def d_hat_fn(self, src_kde, trg_kde):
        return lambda q, qdot: 5.0


def test_flown_episode_records_its_own_audit():
    cfg = replace(default_config("landing"), episodes=2, horizon=3.0)
    out = episode_one(cfg, OverCompensating(default=0.0))
    rollout = out.rollout
    assert out.status == "touchdown" and out.violation
    assert out.violation == explore._audit(rollout, cfg.safety)
    assert out.realized_cost == explore._realized_cost(cfg, rollout) < math.inf
    assert out.rms_tracking == rollout.rms_tracking()
    assert out.rms_residual_error == float(np.sqrt(np.mean(rollout.eps ** 2))) > 0

    result = run_experiment(cfg, learner=OverCompensating(default=0.0))
    assert [r.episode for r in result.records] == [1, 2]
    assert all(a is r.rollout for a, r in zip(result.rollouts, result.records))
    assert result.rollouts[0] is not None


# -- run_experiment bookkeeping --------------------------------------------


def test_dataset_growth_and_retrain_cadence():
    # 1 s flights sampled every SAMPLE_STRIDE = 20 steps give 51 points each, and
    # three of them stay under MAX_TRAIN_POINTS
    cfg = replace(default_config("pendulum"), episodes=3, horizon=1.0)
    stub = StubLearner(default=0.01)
    result = run_experiment(cfg, learner=stub)
    assert [r.status for r in result.records] == ["ok", "ok", "ok"]
    assert [r.n_train for r in result.records] == [51, 102, 153]
    assert 153 < explore.MAX_TRAIN_POINTS
    assert stub.retrain_calls == 3
    assert result.violations == 0


class Retraining(StubLearner):
    """StubLearner's scripted flights, with each retrain handed to a real learner."""

    def __init__(self, learner):
        super().__init__(default=0.01)
        self.learner = learner

    def retrain(self, dataset, src_kde, trg_kde):
        super().retrain(dataset, src_kde, trg_kde)
        return self.learner.retrain(dataset, src_kde, trg_kde)


def test_both_learners_train_on_the_even_stride_rows_of_the_cap(monkeypatch):
    # 4 s flights give 201 points each, so the dataset has 201, 402 and 603
    # rows at the three retrains, the last two past MAX_TRAIN_POINTS
    cap = explore.MAX_TRAIN_POINTS
    cfg = replace(default_config("pendulum"), episodes=3, horizon=4.0)
    trained = {"robust": [], "gp_rbf": []}
    monkeypatch.setattr(
        rr, "fit", lambda dataset, *args, init: trained["robust"].append(dataset) or init
    )
    monkeypatch.setattr(explore, "gp_fit", lambda x, y, *args: trained["gp_rbf"].append((x, y)))
    for kind in trained:
        kind_cfg = replace(cfg, model_kind=kind)
        learner = make_learner(kind_cfg, np.random.default_rng(0))
        result = run_experiment(kind_cfg, learner=Retraining(learner))
        assert [r.n_train for r in result.records] == [201, cap, cap]
    full = Dataset.empty()
    for record, robust, (gp_x, gp_y) in zip(result.records, *trained.values()):
        full = full.concat(explore._collect(cfg, record.rollout))
        want = full.subsample(cap)
        assert np.array_equal(robust.inputs, want.inputs)
        assert np.array_equal(robust.targets, want.targets)
        # even stride over the whole dataset, both ends included
        assert np.array_equal(robust.inputs[[0, -1]], full.inputs[[0, -1]])
        # the GP gets the very same rows
        assert np.array_equal(gp_x, robust.inputs) and np.array_equal(gp_y, robust.targets)


def test_no_safe_candidate_skips_collection_and_retraining():
    cfg = replace(default_config("pendulum"), episodes=2)
    stub = StubLearner(default=50.0)
    result = run_experiment(cfg, learner=stub)
    assert [r.status for r in result.records] == ["no_safe_candidate"] * 2
    assert [r.n_train for r in result.records] == [0, 0]
    assert stub.retrain_calls == 0
    assert math.isnan(result.final_cost)


def test_first_fit_runs_first_fit_epochs_even_below_train_epochs(monkeypatch):
    cfg = default_config("pendulum")
    cfg = replace(cfg, first_fit_epochs=10, train=replace(cfg.train, epochs=40))
    epochs = []

    def fit(dataset, src_kde, trg_kde, train, init):
        epochs.append(train.epochs)
        return init

    monkeypatch.setattr(rr, "fit", fit)
    learner = RobustLearner(cfg, np.random.default_rng(0))
    for _ in range(2):
        learner.retrain(Dataset.empty(), None, None)
    assert epochs == [10, 40]


# -- learner factory --------------------------------------------------------


def test_make_learner_kinds():
    rng = np.random.default_rng(0)
    assert isinstance(make_learner(default_config("pendulum"), rng), RobustLearner)
    gp1 = make_learner(replace(default_config("pendulum"), model_kind="gp_rbf"), rng)
    gp2 = make_learner(replace(default_config("pendulum"), model_kind="gp_matern"), rng)
    assert isinstance(gp1, GpLearner) and gp1.kernel == "rbf"
    assert isinstance(gp2, GpLearner) and gp2.kernel == "matern52"


def test_gp_learner_prior_sigma_and_zero_compensation():
    cfg = replace(default_config("pendulum"), model_kind="gp_rbf")
    learner = make_learner(cfg, np.random.default_rng(0))
    cand = Candidate(cfg.pool()[0])
    sigma = learner.eval_candidate(cand, 1.0)
    assert sigma == pytest.approx(math.sqrt(cfg.gp.sigma_f_sq))
    assert "trg_kde" not in vars(cand)  # no model, so no target sample is built
    assert learner.d_hat_fn(None, None)(0.3, -0.2) == 0.0


@pytest.mark.parametrize("model_kind", ["gp_rbf", "gp_matern"])
def test_gp_learner_d_hat_matches_posterior_mean(model_kind, rng):
    cfg = replace(default_config("pendulum"), model_kind=model_kind)
    learner = make_learner(cfg, rng)
    x = rng.normal(size=(8, 2))
    y = np.sin(x[:, 0]) * 0.5
    learner.retrain(Dataset(x, y), None, None)
    fn = learner.d_hat_fn(None, None)
    for q, qdot in [(0.0, 0.0), (0.4, -1.1), (-0.9, 0.3)]:
        mu, _ = gp_predict(learner.model, np.array([[q, qdot]]))
        assert fn(q, qdot) == pytest.approx(float(mu[0]), abs=1e-10)


@pytest.mark.parametrize("model_kind", ["gp_rbf", "gp_matern"])
def test_gp_retrain_releases_previous_model_before_fit(model_kind, rng, monkeypatch):
    cfg = replace(default_config("pendulum"), model_kind=model_kind)
    learner = make_learner(cfg, rng)
    x = rng.normal(size=(30, 2))
    data = Dataset(x, np.sin(x[:, 0]))
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
def test_robust_d_hat_matches_predicted_mean(hidden, monkeypatch):
    # the rollout closure must agree with predict() for any net depth
    cfg = default_config("pendulum")
    g = np.random.default_rng(11)
    learner = RobustLearner(cfg, g)
    monkeypatch.setattr(rr, "HIDDEN", hidden)
    net = rr.feature_net_init(g)
    learner.model = replace(
        learner.model,
        net=net,
        theta_phi=g.normal(size=net.feature_dim),
        theta_y=np.float64(2.5),
    )
    src = kde_fit(g.normal(0.0, 0.5, (200, 2)))
    trg = kde_fit(g.normal(0.4, 0.6, (150, 2)))
    d_hat = learner.d_hat_fn(src, trg)
    pts = g.normal(0.0, 0.8, (25, 2))
    mu, _ = rr.predict(learner.model, pts, ratios=density_ratio(src, trg, pts))
    got = np.array([d_hat(float(q), float(qdot)) for q, qdot in pts])
    np.testing.assert_allclose(got, mu, rtol=1e-9, atol=0)


# -- the walk in selection order -----------------------------------------------


def _rank(seq, obj):
    """The position of obj itself (not an equal object) in seq."""
    return next(k for k, x in enumerate(seq) if x is obj)


def _screen_stop(ratio, src_kde):
    """The rows the W_MAX screen reads of a grid whose p_trg / p_src is
    `ratio`: its `kde_density` blocks of KDE_BLOCK_ELEMENTS // n source
    samples rows each, through the first whose max is above W_MAX or NaN,
    else every row."""
    block = KDE_BLOCK_ELEMENTS // len(src_kde.samples)
    for lo in range(0, len(ratio), block):
        if not np.max(ratio[lo : lo + block]) <= explore.W_MAX:
            return min(lo + block, len(ratio))
    return len(ratio)


def _block_of(grids, x):
    """(k, lo) such that x is the view grids[k][lo : lo + len(x)] itself."""
    ptr = x.__array_interface__["data"][0]
    for k, grid in enumerate(grids):
        lo, off = divmod(ptr - grid.__array_interface__["data"][0], grid.strides[0])
        if off == 0 and 0 <= lo < len(grid):
            if x.__array_interface__ == grid[lo : lo + len(x)].__array_interface__:
                return k, lo
    raise AssertionError("p_src evaluated on rows that are not a block of a pool grid")


def _p_src_passes(xs, grids, src_kde):
    """Each candidate's p_src pass, from the arrays p_src was evaluated on
    in call order: (its grid's rank, the rows read) per candidate.

    Every call must be the next `kde_density` block of one grid, from row
    0 and in row order, so a candidate's rows are a prefix of its grid,
    read once.
    """
    block = KDE_BLOCK_ELEMENTS // len(src_kde.samples)
    passes = []
    for x in xs:
        k, lo = _block_of(grids, x)
        if lo == 0:
            passes.append((k, 0))
        assert passes[-1] == (k, lo), "p_src skipped or reread rows"
        assert len(x) == min(block, len(grids[k]) - lo)
        passes[-1] = (k, lo + len(x))
    return passes


def _landing_cache_and_source():
    """The landing pool's cache and a source KDE around the grids of three candidates."""
    cfg = default_config("landing")
    pool = cfg.pool()
    g = np.random.default_rng(2)
    src_pts = np.concatenate([pool[k].grid[::7] for k in (0, 25, 50)])
    src = kde_fit(src_pts + g.normal(0.0, 0.05, src_pts.shape))
    return cfg, build_pool_cache(pool), src


def _walk_episodes(cfg, learner, monkeypatch, before):
    """Run cfg's experiment; return (pool cache, before(pool, src_kde), record) per episode.

    `before` runs ahead of each episode, on the learner's model of that episode.
    """
    real_episode = explore.run_episode
    episodes = []

    def episode_spy(pool, learner, src_kde, config):
        ahead = before(pool, src_kde)
        rec = real_episode(pool, learner, src_kde, config)
        episodes.append((pool, ahead, rec))
        return rec

    monkeypatch.setattr(explore, "run_episode", episode_spy)
    run_experiment(cfg, learner=learner)
    assert len(episodes) == cfg.episodes
    return episodes


def _full_scoring(cfg, learner, src_kde):
    """What scoring every candidate selects: (the admitted set's min, its
    size, each candidate's `CandidateCheck` in pool order).

    Each candidate of cfg's pool is scored, in pool order, on its own grid
    with `kde_density`, as the walk does, so the bits match; the min is
    over (selection key, pool index, sigma_max, eps_m, rho, w_hat), None
    when nothing is admitted.  The robust sigma is the closed form at the
    grid's smallest clipped ratio, the GP's the largest posterior std on
    the target sample the candidate's KDE is fit on.  A candidate above
    W_MAX is scored too; its check is the screened one, whose w_hat is
    the max over the rows the screen reads (`_screen_stop`).
    """
    admitted, checks = [], []
    for k, traj in enumerate(cfg.pool()):
        grid = traj.grid
        target = subsample_rows(grid, explore.KDE_TRG_MAX)
        r_min = w_hat = 1.0
        if src_kde is not None:
            p_trg = kde_density(kde_fit(target), grid)
            p_src = kde_density(src_kde, grid)
            r_min = float(np.min(clipped_ratio(p_src, p_trg)))
            ratio = p_trg / np.maximum(p_src, DENSITY_FLOOR)
            w_hat = float(np.max(ratio[: _screen_stop(ratio, src_kde)]))
        if isinstance(learner, RobustLearner):
            sigma = rr.std_at(learner.model, r_min)
        elif learner.model is None:
            sigma = math.sqrt(cfg.gp.sigma_f_sq)
        else:
            sigma = float(np.sqrt(np.max(gp_predict(learner.model, target)[1])))
        eps_m = cfg.beta * sigma
        rho = cfg.gamma() * eps_m
        cert = certify_trajectory(traj, rho, cfg.safety)
        if not w_hat <= explore.W_MAX:
            checks.append(CandidateCheck("screened", w_hat))
            continue
        outcome = "admitted" if cert.safe else "rejected"
        checks.append(CandidateCheck(outcome, w_hat, r_min, sigma, eps_m, rho, cert.margin))
        if cert.safe:
            admitted.append((explore._selection_key(traj), k, sigma, eps_m, rho, w_hat))
    return min(admitted, default=None), len(admitted), checks


@pytest.mark.parametrize("task", ["pendulum", "landing"])
@pytest.mark.parametrize("model_kind", ["robust", "gp_rbf"])
def test_walk_flies_what_scoring_every_candidate_selects(task, model_kind, monkeypatch):
    # the walk stops at the first admitted candidate in selection order;
    # that is the cost argmin of the admitted set, ties to pool order
    cfg = replace(default_config(task), model_kind=model_kind, episodes=3)
    learner = make_learner(cfg, np.random.default_rng(cfg.seed))
    episodes = _walk_episodes(cfg, learner, monkeypatch, lambda pool, src: _full_scoring(cfg, learner, src))
    pool = cfg.pool()
    order = sorted(range(len(pool)), key=lambda k: explore._selection_key(pool[k]))
    sizes = []
    for _, (best, n_admitted, reference), rec in episodes:
        sizes.append(n_admitted)
        # each record the walk made equals, field by field, the reference
        # check of the candidate at its rank: a screened one's w_hat is
        # the max over the blocks up to the first above W_MAX
        for got, k in zip(rec.checks, order):
            want = reference[k]
            assert got.outcome == want.outcome and got.w_hat == want.w_hat
            if got.outcome != "screened":
                assert astuple(got) == astuple(want)
        if best is None:
            assert rec.status == "no_safe_candidate" and rec.n_certified == 0
            continue
        _, k, sigma_max, eps_m, rho, w_hat = best
        assert rec.params == pool[k].params and rec.n_certified == 1
        assert (rec.sigma_max, rec.eps_m, rec.tube_radius, rec.w_hat) == (sigma_max, eps_m, rho, w_hat)
    assert max(sizes) > 1


@pytest.mark.parametrize("task", ["pendulum", "landing"])
def test_walk_stops_at_the_first_admitted_candidate(task, monkeypatch):
    # p_src, sigma and the certificate are evaluated only for candidates
    # ranked at or before the flown one, each at most once and in order;
    # episode 1 evaluates no p_src.  p_src is read block by block on a
    # prefix of the grid: through the first block above W_MAX of a
    # screened candidate, every row of the others
    cfg = replace(default_config(task), model_kind="gp_rbf", episodes=3)
    learner = make_learner(cfg, np.random.default_rng(cfg.seed))
    checks = []  # per episode, the (step, object) of each check in call order
    sources = []  # per episode, its source KDE
    real_kde, real_cert, real_sigma = explore.kde_density, explore.certify_trajectory, learner.eval_candidate

    def kde_spy(kde, x):
        # a call on the episode's source KDE is p_src; any other, a target density
        checks[-1].append(("p_src" if kde is sources[-1] else "p_trg", x))
        return real_kde(kde, x)

    def cert_spy(traj, *args):
        checks[-1].append(("cert", traj))
        return real_cert(traj, *args)

    def sigma_spy(cand, r_min):
        checks[-1].append(("sigma", cand))
        return real_sigma(cand, r_min)

    monkeypatch.setattr(explore, "kde_density", kde_spy)
    monkeypatch.setattr(explore, "certify_trajectory", cert_spy)
    learner.eval_candidate = sigma_spy

    def before(pool, src):
        checks.append([])
        sources.append(src)
        return src

    episodes = _walk_episodes(cfg, learner, monkeypatch, before)
    flown, cut_short = [], 0
    for (pool, src, rec), calls in zip(episodes, checks):
        assert rec.status in ("ok", "touchdown") and rec.n_certified == 1
        f = next(k for k, cand in enumerate(pool) if cand.traj.params == rec.params)
        seen = {"sigma": list(pool), "cert": [cand.traj for cand in pool]}
        ranks = {step: [_rank(seen[step], obj) for s, obj in calls if s == step] for step in seen}
        assert ranks["cert"] == ranks["sigma"] == sorted(set(ranks["sigma"]))
        assert ranks["sigma"][-1] == f
        flown.append((f, len(ranks["sigma"])))
        p_src = [x for s, x in calls if s == "p_src"]
        if src is None:
            assert p_src == []
            continue
        grids = [cand.traj.grid for cand in pool]
        passes = _p_src_passes(p_src, grids, src)
        assert [k for k, _ in passes] == list(range(f + 1))
        for (k, stop), c in zip(passes, rec.checks):
            ratio = pool[k].p_trg / np.maximum(kde_density(src, grids[k]), DENSITY_FLOOR)
            assert stop == _screen_stop(ratio, src)
            assert c.outcome == "screened" or stop == len(grids[k])
            cut_short += stop < len(grids[k])
    # some episode flies past a candidate the screen rejects, and some
    # screen stops before the end of the grid
    assert any(0 < f and n < f + 1 for f, n in flown[1:])
    assert cut_short > 0


def test_walk_without_an_admissible_candidate_checks_each_candidate_once(monkeypatch):
    # each candidate in selection order: its target density (a fresh
    # cache, so built here), p_src on every row in kde_density's blocks of
    # rows (none is above W_MAX), sigma, the certificate
    cfg = tube02_config()
    cache = build_pool_cache(cfg.pool())
    src = kde_fit(np.concatenate([cand.traj.grid for cand in cache]))  # every candidate within W_MAX
    calls = []
    monkeypatch.setattr(explore, "kde_density", lambda kde, x: calls.extend((kde, x)) or kde_density(kde, x))
    monkeypatch.setattr(
        explore, "certify_trajectory", lambda traj, *a: calls.append(traj) or certify_trajectory(traj, *a)
    )
    learner = StubLearner(default=50.0)
    real_sigma = learner.eval_candidate
    learner.eval_candidate = lambda cand, r_min: calls.append(cand) or real_sigma(cand, r_min)
    out = run_episode(cache, learner, src, cfg)
    assert out.status == "no_safe_candidate" and out.n_certified == 0
    block = KDE_BLOCK_ELEMENTS // len(src.samples)
    want = []
    for c in cache:
        grid = c.traj.grid
        assert len(grid) > block  # more than one block
        want += [c.trg_kde, grid]
        for lo in range(0, len(grid), block):
            want += [src, grid[lo : lo + block]]
        want += [c, c.traj]
    assert len(calls) == len(want)
    for got, obj in zip(calls, want):
        if isinstance(obj, np.ndarray) and obj.base is not None:  # a block: the view of those rows
            assert got.__array_interface__ == obj.__array_interface__
        else:
            assert got is obj


def test_flown_episode_reads_its_admitted_check():
    # the episodes.csv fields of a flown episode are its last check's, the
    # checks before it were not admitted, and the walk checked exactly the
    # candidates up to the flown one's rank
    cfg = replace(default_config("landing"), model_kind="gp_rbf", episodes=3)
    rank = {tuple(cand.traj.params.items()): k for k, cand in enumerate(build_pool_cache(cfg.pool()))}
    result = run_experiment(cfg, learner=make_learner(cfg, np.random.default_rng(cfg.seed)))
    outcomes = []
    for rec in result.records:
        assert rec.status in ("ok", "touchdown")
        last = rec.checks[-1]
        assert last.outcome == "admitted" and last.margin > 0
        assert (rec.sigma_max, rec.eps_m, rec.tube_radius, rec.w_hat) == (
            last.sigma_max, cfg.beta * last.sigma_max, cfg.gamma() * last.eps_m, last.w_hat)
        assert len(rec.checks) == rank[tuple(rec.params.items())] + 1
        outcomes += [c.outcome for c in rec.checks[:-1]]
    assert set(outcomes) == {"rejected", "screened"}


@pytest.mark.parametrize("w_hat", ["far", "nan"])
def test_screened_check_is_nan_after_w_hat(w_hat, monkeypatch):
    # a source far from every grid puts each candidate's w_hat above W_MAX,
    # and a NaN w_hat is screened too: neither is scored nor certified
    cfg = tube02_config()
    cache = build_pool_cache(cfg.pool())
    if w_hat == "far":
        src = kde_fit(np.random.default_rng(0).normal(10.0, 0.1, (50, 2)))
    else:
        src = kde_fit(np.concatenate([cand.traj.grid for cand in cache]))  # every candidate within W_MAX
        monkeypatch.setattr(explore, "max_ratio", lambda p_trg, p_src: math.nan)
    out = run_episode(cache, StubLearner(default=0.0), src, cfg)
    assert out.status == "no_safe_candidate" and len(out.checks) == len(cache)
    for c in out.checks:
        assert c.outcome == "screened" and not c.w_hat <= explore.W_MAX
        assert all(math.isnan(v) for v in astuple(c)[2:])


def test_pool_cache_is_in_selection_order_with_ties_in_pool_order():
    # the pendulum's cost is -C, so the largest amplitude comes first; of
    # a candidate listed twice, the first listing stays first
    cfg = tube02_config()
    first, second = cfg.pool(), cfg.pool()
    cache = build_pool_cache(first + second)
    assert [id(cand.traj) for cand in cache] == [id(t) for k in (2, 1, 0) for t in (first[k], second[k])]


def test_episode_one_inputs_have_unit_ratios():
    # nothing certifies, so every candidate is scored at r = 1, in
    # selection order (the largest amplitude first)
    cfg = tube02_config()
    scored = []
    learner = StubLearner(default=50.0)
    real_sigma = learner.eval_candidate
    learner.eval_candidate = lambda cand, r_min: scored.append((cand, r_min)) or real_sigma(cand, r_min)
    episode_one(cfg, learner)
    assert [r for _, r in scored] == [1.0] * 3
    assert [cand.traj.params for cand, _ in scored] == [traj.params for traj in reversed(cfg.pool())]


def test_certification_points_are_built_once_per_experiment(monkeypatch):
    # a GP with a model predicts on each candidate's target sample: the
    # samples of its cached target KDE, the same array in every episode
    cfg, cache, src = _landing_cache_and_source()
    cfg = replace(cfg, model_kind="gp_rbf")
    learner = make_learner(cfg, np.random.default_rng(0))
    x = np.concatenate([cache[k].traj.grid[::50] for k in (0, 30)])
    learner.retrain(Dataset(x, np.sin(x[:, 0])), None, None)
    predicted, p_src = [], []
    monkeypatch.setattr(explore, "gp_predict", lambda model, pts: predicted.append(pts) or gp_predict(model, pts))

    def density_spy(kde, x):
        if kde is src:
            p_src.append(x)
        return kde_density(kde, x)

    monkeypatch.setattr(explore, "kde_density", density_spy)
    for _ in range(3):
        run_episode(cache, learner, src, cfg)
    n = len(predicted) // 3
    assert n > 1 and len(predicted) == 3 * n
    assert all(a is b for a, b in zip(predicted, predicted[n:]))
    targets = [cand.trg_kde.samples for cand in cache]
    for pts in predicted[:n]:
        grid = cache[_rank(targets, pts)].traj.grid
        np.testing.assert_array_equal(pts, subsample_rows(grid, explore.KDE_TRG_MAX))
    # p_src reads blocks of each walked candidate's own grid, the same rows
    # every episode
    m = len(p_src) // 3
    assert m > 1 and len(p_src) == 3 * m
    passes = _p_src_passes(p_src[:m], [cand.traj.grid for cand in cache], src)
    assert [k for k, _ in passes] == list(range(len(passes)))
    for episode in (1, 2):
        repeat = p_src[episode * m : (episode + 1) * m]
        assert [x.__array_interface__ for x in repeat] == [x.__array_interface__ for x in p_src[:m]]


def test_robust_eval_candidate_constant_and_mixed():
    cfg = replace(default_config("pendulum"), sigma0_sq=0.49, horizon=2.0)
    learner = RobustLearner(cfg, np.random.default_rng(2))
    cand = Candidate(cfg.pool()[-1])
    pts = cand.traj.grid
    # r = 1, theta_y = 0: sigma is sigma0 everywhere
    assert learner.eval_candidate(cand, 1.0) == pytest.approx(0.7, rel=1e-12)

    # with ratios varying along the grid, the max is attained at the min-r row
    learner.model = replace(learner.model, theta_y=np.float64(2.0))
    r = 0.1 + np.abs(pts[:, 0])
    r_min = float(np.min(r))
    sigma_m = learner.eval_candidate(cand, r_min)
    assert sigma_m == pytest.approx(math.sqrt(1.0 / (1.0 / 0.49 + 2.0 * r_min * 2.0)), rel=1e-12)
    _, var = rr.predict(learner.model, pts, ratios=r)
    assert sigma_m == float(np.sqrt(np.max(var)))


@pytest.mark.parametrize("task", ["pendulum", "landing"])
def test_robust_score_is_the_max_predicted_std_on_recorded_episodes(task, monkeypatch):
    # the closed form at r_min equals, bit for bit, the max of predict's
    # variance on every grid row at its clipped ratio, and r_min is the
    # smallest of those ratios, up to R_HI
    cfg = default_config(task)
    cfg = replace(cfg, episodes=3, first_fit_epochs=100, train=replace(cfg.train, epochs=50))
    if task == "pendulum":
        cfg = replace(cfg, horizon=5.0)
    scored = []  # (src_kde, model, candidate, r_min, sigma) per candidate scored

    class Recorder(RobustLearner):
        def eval_candidate(self, cand, r_min):
            sigma = super().eval_candidate(cand, r_min)
            scored.append((ahead[-1], self.model, cand, r_min, sigma))
            return sigma

    learner = Recorder(cfg, np.random.default_rng(cfg.seed))
    ahead = []
    _walk_episodes(cfg, learner, monkeypatch, lambda pool, src: ahead.append(src))
    assert ahead[0] is None

    all_r, argmins = [], []
    for src, model, cand, r_min, sigma in scored:
        grid = cand.traj.grid
        r = np.ones(len(grid))
        if src is not None:
            r = clipped_ratio(kde_density(src, grid), cand.p_trg)
            np.testing.assert_array_equal(r, density_ratio(src, cand.trg_kde, grid))
            argmins.append((int(np.argmin(r)), len(grid)))
        _, var = rr.predict(model, grid, ratios=r)
        assert r_min == float(np.min(r))
        assert sigma == float(np.sqrt(np.max(var)))
        all_r.append(r)
    assert scored[-1][1].theta_y > 0
    assert len({r_min for *_, r_min, _ in scored}) > 2
    all_r = np.concatenate(all_r)
    assert np.all(all_r >= 0.0) and np.any(all_r < R_HI)
    # some smallest ratio lies on a row that reading every 6th row (and
    # the last) would have missed
    assert any(k % 6 and k != n - 1 for k, n in argmins)


def test_target_kdes_fit_once_per_experiment(monkeypatch):
    # the two top amplitudes never certify, so every episode walks ranks
    # 0-2 and flies C = 0.8; only those three grids get a target KDE
    cfg = replace(default_config("pendulum"), horizon=2.0, episodes=3)
    fitted = []
    real_fit = explore.kde_fit

    def spy(samples, *args, **kwargs):
        fitted.append(np.array(samples, copy=True))
        return real_fit(samples, *args, **kwargs)

    monkeypatch.setattr(explore, "kde_fit", spy)
    result = run_experiment(cfg, learner=StubLearner({1.0: 50.0, 0.9: 50.0}, default=0.01))
    assert [(r.status, r.params["C"]) for r in result.records] == [("ok", 0.8)] * 3

    grids = [traj.grid for traj in sorted(cfg.pool(), key=explore._selection_key)]
    assert all(len(grid) <= explore.KDE_TRG_MAX for grid in grids)  # fit on the full grid
    fits = [sum(np.array_equal(samples, grid) for samples in fitted) for grid in grids]
    assert fits == [1, 1, 1] + [0] * (len(grids) - 3)


def test_source_kde_fit_once_per_dataset_change(monkeypatch):
    cfg = replace(default_config("pendulum"), horizon=2.0, episodes=3)
    source_fits, scored = [], []
    in_episode = []
    real_fit, real_episode = explore.kde_fit, explore.run_episode

    def fit_spy(samples, *args, **kwargs):
        kde = real_fit(samples, *args, **kwargs)
        if not in_episode:  # target KDEs are fit inside the walk
            source_fits.append(kde)
        return kde

    def episode_spy(pool, learner, src_kde, *args, **kwargs):
        scored.append(src_kde)
        in_episode.append(True)
        try:
            return real_episode(pool, learner, src_kde, *args, **kwargs)
        finally:
            in_episode.pop()

    monkeypatch.setattr(explore, "kde_fit", fit_spy)
    monkeypatch.setattr(explore, "run_episode", episode_spy)
    run_experiment(cfg, learner=StubLearner(default=0.01))
    # one source KDE per retrain, which the next episode scores against
    assert len(source_fits) == cfg.episodes
    assert scored[0] is None
    assert all(a is b for a, b in zip(scored[1:], source_fits))


def test_target_state_is_built_only_for_candidates_the_walk_reaches(monkeypatch):
    # a candidate's target KDE and target density are built at most once,
    # when the walk first needs them: the KDE for p_trg or the retrain,
    # p_trg only once a source KDE exists, so never in episode 1
    cfg = replace(default_config("landing"), model_kind="gp_rbf", episodes=4)
    learner = make_learner(cfg, np.random.default_rng(cfg.seed))
    episodes, current = [], []  # current: the running episode's number and source KDE
    sources = []  # each episode's source KDE
    target_fits, target_densities, source_densities, retrained = [], [], [], []
    real_fit, real_density, real_episode = explore.kde_fit, explore.kde_density, explore.run_episode
    real_retrain = learner.retrain

    def fit_spy(samples):
        kde = real_fit(samples)
        if current:
            target_fits.append((kde, np.array(samples, copy=True)))
        return kde

    def density_spy(kde, x):
        assert current, "a density evaluated outside the walk"
        if kde is current[1]:
            source_densities.append((current[0], x))
        else:
            target_densities.append((current[0], kde, x))
        return real_density(kde, x)

    def episode_spy(pool, learner, src_kde, config):
        current[:] = [len(episodes) + 1, src_kde]
        sources.append(src_kde)
        try:
            rec = real_episode(pool, learner, src_kde, config)
        finally:
            current.clear()
        episodes.append((pool, rec))
        return rec

    def retrain_spy(dataset, src_kde, trg_kde):
        retrained.append(trg_kde)
        return real_retrain(dataset, src_kde, trg_kde)

    monkeypatch.setattr(explore, "kde_fit", fit_spy)
    monkeypatch.setattr(explore, "kde_density", density_spy)
    monkeypatch.setattr(explore, "run_episode", episode_spy)
    learner.retrain = retrain_spy
    run_experiment(cfg, learner=learner)

    assert all(pool is episodes[0][0] for pool, _ in episodes)  # the state lives on the experiment's pool
    trajs = [cand.traj for cand in episodes[0][0]]
    grids = [traj.grid for traj in trajs]
    flown = []
    for _, rec in episodes:
        assert rec.status in ("ok", "touchdown")
        flown.append(next(k for k, traj in enumerate(trajs) if traj.params == rec.params))
    # episode 1 needs only the flown candidate's KDE; later episodes, every reached one's
    with_source = set().union(*(range(f + 1) for f in flown[1:]))
    reached = with_source | {flown[0]}
    assert len(reached) < len(trajs)

    kde_rank = {}  # the target KDEs are held in target_fits, so their ids stay unique
    for kde, samples in target_fits:
        ranks = [k for k, g in enumerate(grids)
                 if np.array_equal(samples, subsample_rows(g, explore.KDE_TRG_MAX))]
        assert len(ranks) == 1
        kde_rank[id(kde)] = ranks[0]
    assert sorted(kde_rank.values()) == sorted(reached)  # each reached candidate's once, no other's

    density_ranks = []
    for episode, kde, x in target_densities:
        k = kde_rank[id(kde)]
        assert episode > 1 and k <= flown[episode - 1]
        assert x is grids[k]
        density_ranks.append(k)
    assert sorted(density_ranks) == sorted(with_source)  # each once
    # each later episode's p_src passes read the pool's own grids, up to
    # the flown one: every row of an unscreened candidate, once
    for episode, f in enumerate(flown[1:], start=2):
        passed = [x for e, x in source_densities if e == episode]
        passes = _p_src_passes(passed, grids, sources[episode - 1])
        assert [k for k, _ in passes] == list(range(f + 1))
        for (k, stop), c in zip(passes, episodes[episode - 1][1].checks):
            assert c.outcome == "screened" or stop == len(grids[k])
    assert all(e > 1 for e, _ in source_densities)

    assert len(retrained) == cfg.episodes
    for f, trg_kde in zip(flown, retrained):
        assert kde_rank[id(trg_kde)] == f
