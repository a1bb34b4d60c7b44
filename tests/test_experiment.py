import math
import pickle
import re
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from ddpm1d import experiment, schedule
from ddpm1d.diffusion import generate_block, mlp_predictor, oracle_predictor
from ddpm1d.errors import ConfigError
from ddpm1d.experiment import (
    ExperimentConfig,
    TrialResult,
    eval_stream,
    evaluate_trial,
    init_stream,
    run_experiment,
    run_suite,
    run_trial,
    run_trials,
    summarize,
    table1_distributions,
    table2_distributions,
    train_trial,
)
from ddpm1d.mlp import INIT_DRAWS, N_PARAMS, init_params
from ddpm1d.noise import NoiseSpec
from ddpm1d.prng import seed_stream


def tiny_cfg(**kw):
    base = dict(
        steps=50,
        epochs=10,
        samples_per_epoch=64,
        batch_size=32,
        trials=2,
        gens_per_trial=10,
        base_seed=123,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_zero_epochs_returns_untouched_init():
    cfg = tiny_cfg(epochs=0)
    params, final_loss, divergence = train_trial(cfg, 0)
    fresh = init_params(seed_stream(cfg.base_seed, 0))
    assert np.array_equal(params, fresh)
    assert math.isnan(final_loss) and divergence is None


def test_training_is_deterministic():
    cfg = tiny_cfg()
    p1, l1, _ = train_trial(cfg, 1)
    p2, l2, _ = train_trial(cfg, 1)
    assert np.array_equal(p1, p2)
    assert l1 == l2


def test_trials_are_isolated():
    cfg = tiny_cfg()
    p0, _, _ = train_trial(cfg, 0)
    p1, _, _ = train_trial(cfg, 1)
    assert not np.array_equal(p0, p1)


def test_epoch_mean_loss_drops_over_fifty_epochs():
    # same streams => the 1-epoch run reproduces epoch 1 of the 50-epoch run
    base = dict(trials=1, gens_per_trial=1, base_seed=7)
    _, first, _ = train_trial(ExperimentConfig(epochs=1, **base), 0)
    _, fiftieth, _ = train_trial(ExperimentConfig(epochs=50, **base), 0)
    assert fiftieth < first


def test_eval_stream_continues_init_stream(assert_drawn):
    cfg = tiny_cfg()
    a = init_stream(cfg, 3)
    init_params(a)
    assert_drawn(a, cfg.base_seed, 6, INIT_DRAWS)
    b = eval_stream(cfg, 3)
    assert np.array_equal(a.uniforms(5), b.uniforms(5))


def test_evaluate_trial_accepts_oracle_predictor():
    cfg = tiny_cfg(gens_per_trial=1000, error_metric="abs_mean")
    pred = oracle_predictor(cfg.x0, cfg.schedule())
    err, divergence = evaluate_trial(pred, cfg, 0)
    assert err < 0.05 and divergence is None


def test_evaluate_trial_zero_params_error_large():
    cfg = tiny_cfg(gens_per_trial=200)
    assert evaluate_trial(np.zeros(N_PARAMS), cfg, 0)[0] > 1.0


def test_gens_per_trial_one_is_single_sample_error():
    cfg = tiny_cfg(gens_per_trial=1)
    params, _, _ = train_trial(cfg, 0)
    err, _ = evaluate_trial(params, cfg, 0)
    pred = mlp_predictor(params, cfg.steps)
    x0_hats, diverged = generate_block(
        pred, 1, cfg.schedule(), cfg.sampler_options(), eval_stream(cfg, 0)
    )
    assert not diverged[0]
    assert err == pytest.approx(abs(x0_hats[0] - cfg.x0), rel=1e-12)


def test_error_metrics_differ():
    cfg_abs = tiny_cfg(gens_per_trial=50, error_metric="mean_abs")
    cfg_mean = replace(cfg_abs, error_metric="abs_mean")
    params, _, _ = train_trial(cfg_abs, 0)
    # |mean(x) - x0| <= mean|x - x0| always
    assert evaluate_trial(params, cfg_mean, 0)[0] <= evaluate_trial(params, cfg_abs, 0)[0]


def test_run_trial_handles_divergence_mark():
    # exploding learning rate reliably drives the loss non-finite
    cfg = tiny_cfg(learning_rate=1e300, epochs=5)
    result, params = run_trial(cfg, 0)
    assert result.diverged and result.divergence.startswith("training epoch ")
    assert math.isnan(result.gen_error)
    assert result.params is None
    assert params is result.params  # the pair perfbench unpacks


def test_training_divergence_reports_one_based_epoch():
    # one step per epoch; Adam at 1e300 survives the first and blows up in epoch 2
    cfg = tiny_cfg(learning_rate=1e300, epochs=5, batch_size=64)
    params, loss, divergence = train_trial(cfg, 0)
    assert params is None and math.isnan(loss)
    step = int(re.fullmatch(r"training epoch (\d+), minibatch \d+", divergence).group(1))
    # the step counts the epochs it took: one fewer trains without a blow-up
    assert step >= 2
    assert train_trial(replace(cfg, epochs=step - 1), 0)[2] is None
    assert train_trial(replace(cfg, epochs=step), 0)[2] == divergence


def test_run_trial_flags_evaluation_divergence_and_keeps_params():
    # every x_T is drawn with std ~3e7, beyond the divergence limit
    cfg = tiny_cfg(noise=NoiseSpec("mixture", mix_prob=0.0, big_variance=1e15), epochs=1)
    params, final_loss, _ = train_trial(cfg, 0)
    err, divergence = evaluate_trial(params, cfg, 0)
    assert math.isnan(err) and divergence == f"evaluation, all {cfg.gens_per_trial} chains"
    result, kept = run_trial(cfg, 0)
    assert result.diverged and result.divergence == divergence
    assert result.final_epoch_loss == final_loss
    assert math.isnan(result.gen_error)
    assert np.array_equal(result.params, params)
    assert kept is result.params  # the pair perfbench unpacks


def test_single_trial_experiment():
    cfg = tiny_cfg(trials=1)
    results = run_experiment(cfg)
    assert len(results) == 1
    assert results[0].trial_index == 0
    assert results[0].seed_used == cfg.base_seed
    assert not results[0].diverged


def test_parallel_results_bit_identical():
    cfg = tiny_cfg(trials=4)
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=4)
    assert serial == parallel
    # 40 tasks at 2 workers go out in 8 chunks of 5 trials
    cfg = tiny_cfg(trials=40)
    assert run_experiment(cfg, workers=2) == run_experiment(cfg, workers=1)


def test_trial_results_independent_of_trial_count():
    one = run_experiment(tiny_cfg(trials=1))
    three = run_experiment(tiny_cfg(trials=3))
    assert three[0] == one[0]


@pytest.mark.parametrize("workers", [0, -3])
def test_run_trials_rejects_non_positive_workers(workers):
    with pytest.raises(ConfigError, match="workers"):
        run_trials([(tiny_cfg(), 0)], workers=workers)


class RecordingPool(ThreadPoolExecutor):
    """Stands in for the process pool and records every one built: its size
    and the start method it was asked for (None: the platform's default)."""

    built: list[int] = []
    methods: list[str | None] = []

    def __init__(self, max_workers, mp_context=None):
        RecordingPool.built.append(max_workers)
        RecordingPool.methods.append(mp_context and mp_context.get_start_method())
        super().__init__(max_workers=max_workers)


class CountingProcessPool(ProcessPoolExecutor):
    """A real process pool that records the arguments of every work item
    submitted to it: ``map`` submits one item per chunk of argument tuples."""

    submitted: list[tuple] = []

    def submit(self, fn, /, *args, **kwargs):
        CountingProcessPool.submitted.append(args)
        return super().submit(fn, *args, **kwargs)


def fail_on_trial_6(cfg, trial):
    """run_trial, but trial 6 raises an error that is not a divergence. Module
    level, so that it pickles by reference to a pool worker."""
    if trial == 6:
        raise RuntimeError("unexpected failure in trial 6")
    return run_trial(cfg, trial)


@pytest.mark.parametrize("workers", [1, 3])
def test_on_result_callback_sees_every_trial(monkeypatch, workers):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "built", [])
    # trial 0 trains longest, so it is the last to complete in a pool
    tasks = [(tiny_cfg(epochs=40), 0), (tiny_cfg(epochs=1), 1), (tiny_cfg(epochs=1), 2)]
    seen = []
    run_trials(tasks, workers=workers, on_result=lambda k, r: seen.append((k, r.trial_index)))
    assert seen == [(0, 0), (1, 1), (2, 2)]
    assert RecordingPool.built == ([3] if workers == 3 else [])


def test_pool_gets_contiguous_chunks_of_an_eighth_of_the_tasks(monkeypatch):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingProcessPool)
    monkeypatch.setattr(CountingProcessPool, "submitted", [])
    cfg = tiny_cfg(epochs=1, samples_per_epoch=8, batch_size=8, steps=10, gens_per_trial=1)
    tasks = [(cfg, i) for i in range(600)]
    seen = []
    run_trials(tasks, workers=2, on_result=lambda k, r: seen.append((k, r.trial_index)))
    chunks = [chunk for (chunk,) in CountingProcessPool.submitted]
    assert len(chunks) <= 60  # 8 chunks of 600 // (4 * 2) tasks, not one task each
    assert [len(chunk) for chunk in chunks] == [75] * 8
    assert [task for chunk in chunks for task in chunk] == tasks
    assert seen == [(k, k) for k in range(600)]


def test_an_unexpected_error_mid_chunk_stops_the_run(monkeypatch):
    # 40 tasks at 2 workers go out in chunks of 5, so trial 6 is inside the second
    monkeypatch.setattr(experiment, "run_trial", fail_on_trial_6)
    cfg = tiny_cfg(epochs=1, trials=40)
    seen = []
    with pytest.raises(RuntimeError, match="trial 6"):
        run_trials([(cfg, i) for i in range(40)], workers=2,
                   on_result=lambda k, r: seen.append(k))
    assert seen == [0, 1, 2, 3, 4]  # the first chunk came back; the rest is lost


def train_trial_diverging_on_uniform_trial_1(cfg, trial):
    """train_trial, but uniform trial 1 trains at a learning rate that blows up."""
    if cfg.noise.family == "uniform" and trial == 1:
        cfg = replace(cfg, learning_rate=1e300)
    return train_trial(cfg, trial)


def test_params_are_identical_across_worker_counts(monkeypatch):
    # == leaves params out, so θ is compared here trial by trial
    monkeypatch.setattr(experiment, "train_trial", train_trial_diverging_on_uniform_trial_1)
    cfg = tiny_cfg(trials=3, epochs=2)
    serial = run_suite(cfg, table1_distributions(), workers=1)
    pooled = run_suite(cfg, table1_distributions(), workers=2)
    records = [(a, b) for s, p in zip(serial, pooled) for a, b in zip(s.results, p.results)]
    assert len(records) == 9
    for a, b in records:
        assert a == b
        if a.params is None:
            assert b.params is None
        else:
            assert a.params.shape == (N_PARAMS,) and np.array_equal(a.params, b.params)
    assert [a.params is None for a, _ in records] == [k == 4 for k in range(9)]


def test_a_diverged_record_equals_its_copy_from_the_pool():
    # a pickled nan comes back as a new object, and nan != nan
    r = TrialResult(1, 123, math.nan, math.nan, "training epoch 2, minibatch 0")
    copy = pickle.loads(pickle.dumps(r))
    assert copy.gen_error is not r.gen_error
    assert copy == r and hash(copy) == hash(r)
    assert replace(r, params=np.ones(N_PARAMS)) == r  # θ is left out
    assert replace(r, gen_error=0.5) != r and replace(r, divergence="evaluation") != r
    assert r != (1, 123, math.nan, math.nan, "training epoch 2, minibatch 0")


def test_run_suite_builds_one_pool_capped_at_task_count(monkeypatch):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "built", [])
    monkeypatch.setattr(RecordingPool, "methods", [])
    cfg = tiny_cfg(trials=1, epochs=1)
    pooled = run_suite(cfg, table1_distributions(), workers=64)
    assert RecordingPool.built == [3]  # one pool for 3 (distribution, trial) tasks
    # on Linux the pool forks, whatever Python's default start method
    assert RecordingPool.methods == (["fork"] if sys.platform == "linux" else [None])
    serial = run_suite(cfg, table1_distributions(), workers=1)
    assert RecordingPool.built == [3]
    assert [run.results for run in pooled] == [run.results for run in serial]


def test_a_distributions_records_do_not_depend_on_the_others_in_its_suite():
    # the acceptance criteria read tables 1 and 2 from one suite of their five distributions
    cfg = tiny_cfg(trials=3, epochs=2)
    five = table1_distributions() + table2_distributions()[1:]
    shared = {run.label: run for run in run_suite(cfg, five, workers=2)}
    for distributions in (table1_distributions(), table2_distributions(), five[::-1]):
        for run in run_suite(cfg, distributions, workers=1):
            assert run.results == shared[run.label].results
            assert run.summary == shared[run.label].summary
            assert all(np.array_equal(a.params, b.params)
                       for a, b in zip(run.results, shared[run.label].results, strict=True))


def test_summarize_arithmetic():
    rows = [
        TrialResult(0, 0, 0.1, 0.04, None),
        TrialResult(1, 0, 0.1, 0.06, None),
    ]
    s = summarize(rows, "gaussian")
    assert s.mean_error == pytest.approx(0.05)
    assert s.n_trials == 2
    assert s.n_diverged == 0


def test_summarize_excludes_diverged():
    rows = [
        TrialResult(0, 0, 0.1, 0.04, None),
        TrialResult(1, 0, math.nan, math.nan, "evaluation, all 10 chains"),
        TrialResult(2, 0, 0.1, 0.08, None),
    ]
    s = summarize(rows, "mix0.5")
    assert s.n_trials == 3
    assert s.n_diverged == 1
    assert s.mean_error == pytest.approx(0.06)


def test_summarize_constant_errors():
    rows = [TrialResult(i, 0, 0.1, 0.07, None) for i in range(100)]
    s = summarize(rows, "uniform")
    assert s.mean_error == pytest.approx(0.07)
    assert s.std_error == pytest.approx(0.0, abs=1e-12)


def test_summarize_all_diverged_is_explicit():
    rows = [TrialResult(i, 0, math.nan, math.nan, "training epoch 1, minibatch 0")
            for i in range(3)]
    s = summarize(rows, "mix0.5")
    assert s.n_diverged == 3
    assert math.isnan(s.mean_error)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([], "gaussian")


def test_table_distribution_sets():
    assert [label for label, _ in table1_distributions()] == ["gaussian", "uniform", "arcsine"]
    assert [label for label, _ in table2_distributions()] == ["gaussian", "mix0.9", "mix0.5"]
    # a config with normalize_mixture normalizes the mixtures replaced into it
    norm = ExperimentConfig(normalize_mixture=True)
    for _, spec in table2_distributions()[1:]:
        assert not spec.normalize and replace(norm, noise=spec).noise.normalize


def test_run_suite_smoke():
    cfg = tiny_cfg(trials=1, epochs=1)
    runs = run_suite(cfg, table1_distributions(), workers=1)
    assert [r.label for r in runs] == ["gaussian", "uniform", "arcsine"]
    for run in runs:
        assert len(run.results) == 1
        assert run.summary.n_trials == 1
        assert run.results[0].params.shape == (N_PARAMS,)


def test_run_table_wrappers():
    cfg = tiny_cfg(trials=1, epochs=1)
    rows1 = [run.summary for run in run_suite(cfg, table1_distributions())]
    assert [s.label for s in rows1] == ["gaussian", "uniform", "arcsine"]
    norm = replace(cfg, normalize_mixture=True)
    rows2 = [run.summary for run in run_suite(norm, table2_distributions())]
    assert [s.label for s in rows2] == ["gaussian", "mix0.9", "mix0.5"]
    for s in rows1 + rows2:
        assert s.n_trials == 1


def test_matched_seeds_across_distributions():
    # same trial index => identical weight init regardless of the noise family
    cfg = tiny_cfg(trials=1, epochs=1)
    init = init_params(seed_stream(cfg.base_seed, 0))
    for base in (cfg, replace(cfg, normalize_mixture=True)):
        for label, spec in table1_distributions() + table2_distributions():
            theta, _, _ = train_trial(replace(base, noise=spec, epochs=0), 0)
            assert np.array_equal(theta, init), label
    # and training from it then depends on the noise
    runs = run_suite(cfg, table1_distributions(), workers=1)
    assert not np.array_equal(runs[0].results[0].params, runs[1].results[0].params)


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="batch_size"):
        tiny_cfg(batch_size=128, samples_per_epoch=64)
    with pytest.raises(ConfigError, match="beta"):
        tiny_cfg(beta_end=1.5)
    with pytest.raises(ConfigError, match="error_metric"):
        tiny_cfg(error_metric="rmse")
    with pytest.raises(ConfigError, match="trials"):
        tiny_cfg(trials=0)
    with pytest.raises(ConfigError, match="learning_rate"):
        tiny_cfg(learning_rate=0.0)
    with pytest.raises(ConfigError, match="x0"):
        tiny_cfg(x0=True)
    with pytest.raises(ConfigError, match="trials"):
        tiny_cfg(trials=2.5)
    with pytest.raises(ConfigError, match="final_step_noiseless"):
        tiny_cfg(final_step_noiseless="false")
    with pytest.raises(ConfigError, match="activation"):
        tiny_cfg(activation="tanh")
    with pytest.raises(ConfigError, match="optimizer"):
        tiny_cfg(optimizer="sgd")


def test_config_construction_builds_no_schedule(monkeypatch):
    def refuse(*args):
        raise AssertionError("ExperimentConfig built a schedule")

    monkeypatch.setattr(experiment, "build_linear", refuse)
    monkeypatch.setattr(schedule, "build_linear", refuse)
    assert ExperimentConfig(steps=10**19).steps == 10**19
    with pytest.raises(ConfigError, match="steps"):
        ExperimentConfig(steps=0)


def test_a_schedule_is_built_once_per_triple_and_is_read_only(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return schedule.build_linear(*args)

    monkeypatch.setattr(experiment, "build_linear", counting)
    cfg = tiny_cfg(beta_start=0.0123, beta_end=0.0456, steps=77)  # a triple no other test uses
    s = cfg.schedule()
    assert replace(cfg, epochs=3, trials=5).schedule() is s
    assert built == [(0.0123, 0.0456, 77)]
    assert replace(cfg, steps=78).schedule().T == 78 and len(built) == 2
    fresh = schedule.build_linear(0.0123, 0.0456, 77)
    for name in ("beta", "sqrt_beta", "sqrt_alpha", "sqrt_alpha_bar", "sqrt_one_minus_alpha_bar"):
        assert getattr(s, name).tobytes() == getattr(fresh, name).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[0] = 0.5


def test_config_dict_roundtrip():
    cfg = tiny_cfg(noise=NoiseSpec("mixture", 0.5, 100.0), error_metric="abs_mean")
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    # keyword construction applies normalize_mixture as from_dict does
    norm = tiny_cfg(noise=NoiseSpec("mixture", 0.5, 100.0), normalize_mixture=True)
    assert norm.noise.normalize
    assert ExperimentConfig.from_dict(norm.to_dict()) == norm


def test_config_from_dict_rejects_unknown_key():
    with pytest.raises(ConfigError, match="momentum"):
        ExperimentConfig.from_dict({"momentum": 0.9})
    for not_an_object in ("gaussian", [], 5):
        with pytest.raises(ConfigError, match="noise must be a JSON object"):
            ExperimentConfig.from_dict({"noise": not_an_object})


@pytest.mark.parametrize("key", ["final_step_noiseless", "normalize_mixture"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_config_booleans_must_be_json_booleans(key, value):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict({key: value})
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{key: value})


@pytest.mark.parametrize("value", [2.9, True, "2", float("nan"), float("inf"), None])
def test_config_integers_must_be_integral(value):
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig.from_dict({"trials": value})
    with pytest.raises(ConfigError, match="trials"):
        ExperimentConfig(trials=value)


def test_config_integral_float_is_an_integer():
    cfg = ExperimentConfig.from_dict({"trials": 3.0})
    assert cfg.trials == 3 and isinstance(cfg.trials, int)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.001", True])
def test_config_learning_rate_must_be_finite(value):
    with pytest.raises(ConfigError, match="learning_rate"):
        ExperimentConfig.from_dict({"learning_rate": value})
    with pytest.raises(ConfigError, match="learning_rate"):
        tiny_cfg(learning_rate=value)


def test_sampler_options_follow_policy():
    mix = NoiseSpec("mixture", 0.5, 100.0)
    cfg = tiny_cfg(noise=mix)
    assert cfg.sampler_options().noise == mix
    gauss_cfg = replace(cfg, reverse_noise="gaussian")
    assert gauss_cfg.sampler_options().noise == NoiseSpec("gaussian")


def test_remainder_batch_is_trained():
    # 70 samples with batch 32 => batches of 32, 32, 6; a final loss exists
    cfg = tiny_cfg(samples_per_epoch=70, batch_size=32, epochs=1, trials=1)
    _, loss, _ = train_trial(cfg, 0)
    assert math.isfinite(loss)
