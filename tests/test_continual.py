import numpy as np
import pytest

import robustcl as rc
from robustcl import continual, methods
from robustcl.continual import ReservoirBuffer, Schedule
from robustcl.errors import ArgumentError, ContractError, DimensionError, LabelError

ATTACK = rc.AttackConfig(epsilon=0.05, step_size=0.0125, n_steps=3,
                         random_start=True, clamp_range=None, seed=0)


# ---------------------------------------------------------------------------
# dataset splitting


def make_dataset(n_classes=10, per_class=6, d=4, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=(n_classes * per_class, d))
    ys = np.repeat(np.arange(n_classes), per_class)
    return rc.Dataset(xs, ys, n_classes)


def test_split_identity_order_pairs_up_classes():
    tasks = rc.split_dataset(make_dataset(), 5, 2)
    assert len(tasks) == 5
    for t, task in enumerate(tasks):
        assert set(np.unique(task.labels)) == {2 * t, 2 * t + 1}


def test_split_single_task_is_whole_dataset():
    ds = make_dataset(n_classes=3, per_class=4)
    tasks = rc.split_dataset(ds, 1, 3)
    assert len(tasks[0]) == len(ds)


def test_split_partition_property():
    ds = make_dataset()
    tasks = rc.split_dataset(ds, 5, 2, seed=3)
    rows = np.concatenate([t.inputs for t in tasks])
    assert rows.shape == ds.inputs.shape
    orig = {tuple(r) for r in ds.inputs}
    got = [tuple(r) for r in rows]
    assert set(got) == orig and len(got) == len(orig)


def test_split_relabels_under_permutation():
    ds = make_dataset(n_classes=4, per_class=3)
    tasks = rc.split_dataset(ds, 2, 2, class_order=[3, 1, 0, 2])
    # task 0 holds original classes 3 and 1 under new labels 0 and 1
    task0_rows = {tuple(r) for r in tasks[0].inputs}
    expect = {tuple(r) for r in ds.inputs[np.isin(ds.labels, [3, 1])]}
    assert task0_rows == expect
    assert set(np.unique(tasks[0].labels)) == {0, 1}


def test_split_rejects_indivisible_class_count():
    with pytest.raises(ArgumentError):
        rc.split_dataset(make_dataset(), 3, 3)


# ---------------------------------------------------------------------------
# herding


def brute_force_herding(features, m):
    """Independent oracle: recompute candidate means from scratch each step."""
    features = np.asarray(features, dtype=float)
    mu = features.mean(axis=0)
    chosen = []
    for _ in range(m):
        best, best_d = None, np.inf
        for i in range(len(features)):
            if i in chosen:
                continue
            cand = np.mean(features[chosen + [i]], axis=0)
            d = float(np.linalg.norm(mu - cand))
            if d < best_d:
                best, best_d = i, d
        chosen.append(best)
    return chosen


def test_herding_1d_fixture_with_tie():
    feats = np.array([[0.0], [1.0], [2.0]])
    assert rc.herding_select(feats, 2) == [1, 0]


def test_herding_full_selection_is_permutation():
    feats = np.random.default_rng(1).normal(size=(7, 3))
    order = rc.herding_select(feats, 7)
    assert sorted(order) == list(range(7))


def test_herding_identical_features_tie_break():
    feats = np.ones((5, 2))
    assert rc.herding_select(feats, 3) == [0, 1, 2]


@pytest.mark.parametrize("seed", range(25))
def test_herding_matches_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    d = int(rng.integers(1, 4))
    feats = rng.normal(size=(n, d))
    if seed % 3 == 0 and n >= 4:      # inject exact duplicates to force ties
        feats[1] = feats[0]
        feats[3] = feats[2]
    m = int(rng.integers(1, n + 1))
    assert rc.herding_select(feats, m) == brute_force_herding(feats, m)


def test_herding_argument_validation():
    with pytest.raises(ArgumentError):
        rc.herding_select(np.zeros((0, 2)), 1)
    with pytest.raises(ArgumentError):
        rc.herding_select(np.zeros((3, 2)), 4)


# ---------------------------------------------------------------------------
# herding buffer


def class_counts(exemplars, n_classes):
    return np.bincount(exemplars.labels, minlength=n_classes).tolist()


def task_of(dataset, classes):
    keep = np.isin(dataset.labels, classes)
    return rc.Dataset(dataset.inputs[keep], dataset.labels[keep], dataset.n_classes)


def test_quota_arithmetic():
    two = rc.Network.init_mlp(4, [8], 2, seed=1)
    four = rc.expand_head(two, 2, seed=3)
    data = make_dataset(n_classes=4, per_class=20, seed=2)
    exemplars = rc.buffer_update_herding(None, two, task_of(data, [0, 1]), 10)
    assert class_counts(exemplars, 4) == [5, 5, 0, 0]
    exemplars = rc.buffer_update_herding(exemplars, four, task_of(data, [2, 3]), 10)
    assert class_counts(exemplars, 4) == [3, 3, 2, 2]


def test_buffer_update_keeps_capacity_and_prefix_property():
    net = rc.Network.init_mlp(4, [8], 2, seed=1)
    task0 = make_dataset(n_classes=2, per_class=20, seed=2)
    first = rc.buffer_update_herding(None, net, task0, 10)
    assert len(first) == 10

    net2 = rc.expand_head(net, 2, seed=3)
    task1 = task_of(make_dataset(n_classes=4, per_class=20, seed=3), [2, 3])
    second = rc.buffer_update_herding(first, net2, task1, 10)
    assert len(second) == 10
    assert np.unique(second.labels).tolist() == [0, 1, 2, 3]
    assert np.all(np.diff(second.labels) >= 0)        # grouped by class id
    # shrunk classes keep a prefix of their original herding order
    for c in (0, 1):
        kept = second.inputs[second.class_indices(c)]
        assert np.array_equal(kept, first.inputs[first.class_indices(c)][: len(kept)])


def test_buffer_update_below_one_exemplar_per_class():
    data = make_dataset(n_classes=6, per_class=10, seed=5)
    net = rc.Network.init_mlp(4, [8], 2, seed=1)
    sets = [None]
    for t in range(3):
        if t:
            net = rc.expand_head(net, 2, seed=3 + t)
        sets.append(rc.buffer_update_herding(sets[-1], net,
                                             task_of(data, [2 * t, 2 * t + 1]), 3))
    assert [class_counts(e, 6) for e in sets[1:]] == [
        [2, 1, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0], [1, 1, 1, 0, 0, 0]]
    # old classes keep a prefix of their herding order
    for before, after in zip(sets[1:], sets[2:]):
        for c in np.unique(before.labels).tolist():
            kept = after.inputs[after.class_indices(c)]
            assert np.array_equal(kept, before.inputs[before.class_indices(c)][:len(kept)])


def test_buffer_stores_everything_when_capacity_exceeds_data():
    net = rc.Network.init_mlp(4, [8], 2, seed=1)
    task = make_dataset(n_classes=2, per_class=10, seed=4)
    assert len(rc.buffer_update_herding(None, net, task, 100)) == 20


def test_buffer_update_validation():
    net = rc.Network.init_mlp(4, [8], 2, seed=1)
    with pytest.raises(ArgumentError):
        rc.buffer_update_herding(None, net, make_dataset(n_classes=2), 0)
    with pytest.raises(LabelError):
        rc.buffer_update_herding(None, net, make_dataset(n_classes=4), 10)


# ---------------------------------------------------------------------------
# reservoir buffer


def test_reservoir_retains_all_under_capacity():
    buf = ReservoirBuffer(50, seed=0)
    for i in range(30):
        rc.reservoir_update(buf, (np.full(3, i / 30), i % 2))
    assert len(buf) == 30 and buf.seen_count == 30


def test_reservoir_replacement_probability_monte_carlo():
    # element capacity+1 must be retained with probability cap/(cap+1)
    cap = 5
    hits = 0
    trials = 10000
    for trial in range(trials):
        buf = ReservoirBuffer(cap, seed=trial)
        for i in range(cap + 1):
            rc.reservoir_update(buf, (np.full(2, float(i)), 0))
        if any(x[0] == float(cap) for x, _, _ in buf._rows):
            hits += 1
    freq = hits / trials
    assert abs(freq - cap / (cap + 1)) < 0.02


def test_reservoir_stored_logits_are_snapshots():
    buf = ReservoirBuffer(4, with_logits=True, seed=1)
    z = np.array([1.0, 2.0])
    rc.reservoir_update(buf, (np.zeros(2), 0), z)
    z[:] = 99.0
    assert np.array_equal(buf._rows[0][2], [1.0, 2.0])


def test_reservoir_requires_logits_when_configured():
    buf = ReservoirBuffer(4, with_logits=True, seed=1)
    with pytest.raises(Exception):
        rc.reservoir_update(buf, (np.zeros(2), 0))


@pytest.mark.parametrize("label", [1.5, np.nan], ids=["fraction", "nan"])
def test_reservoir_rejects_non_integer_labels(label):
    buf = ReservoirBuffer(4, seed=1)
    with pytest.raises(LabelError):
        rc.reservoir_update(buf, (np.zeros(2), label))
    rc.reservoir_update(buf, (np.zeros(2), 1.0))      # an integral float is a label
    assert [y for _, y, _ in buf._rows] == [1] and buf.seen_count == 1


def test_reservoir_rejects_rows_of_another_shape():
    buf = ReservoirBuffer(4, seed=1)
    rc.reservoir_update(buf, (np.zeros(2), 0))
    with pytest.raises(DimensionError):
        rc.reservoir_update(buf, (np.zeros(3), 1))
    assert len(buf) == 1 and buf.seen_count == 1
    xs, ys, _ = buf.sample_batch(4, np.random.default_rng(0))
    assert xs.shape == (1, 2) and list(ys) == [0]


# ---------------------------------------------------------------------------
# schedules


def test_milestones_scale_from_reference_50_epoch_recipe():
    sched = Schedule(epochs=50, lr=0.1, batch_size=64)
    assert sched.resolved_milestones() == (24, 31, 40)
    sched20 = Schedule(epochs=20, lr=0.1, batch_size=64)
    assert sched20.resolved_milestones() == (10, 12, 16)
    assert sched20.lr_at(0) == pytest.approx(0.1)
    assert sched20.lr_at(10) == pytest.approx(0.01)
    assert sched20.lr_at(16) == pytest.approx(0.0001)
    # a one-epoch task trains at its full rate
    assert Schedule(epochs=1, lr=0.2, batch_size=8).lr_at(0) == 0.2


# ---------------------------------------------------------------------------
# the task loop


def small_task(seed=0):
    ds = rc.gen_gaussian_tasks(2, 4, 10.0, 30, seed=seed)
    return ds


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("batch_size", -4), ("lr", -1.0), ("lr", float("nan")),
    ("lr", float("inf")), ("weight_decay", -1e-5), ("weight_decay", float("nan"))])
def test_schedule_rejects_bad_fields(field, value):
    with pytest.raises(ArgumentError, match=field):
        Schedule(**{"epochs": 1, "lr": 0.1, "batch_size": 16, field: value})


def test_run_task_zero_epochs_leaves_model_unchanged():
    net = rc.Network.init_mlp(4, [8], 2, seed=5)
    before = net.flatten()
    cfg = methods.make_method_config("pgd-at", ATTACK)
    sched = Schedule(epochs=0, lr=0.1, batch_size=16)
    trained, log = rc.run_task(net, None, small_task(), None, cfg, sched,
                               root_seed=1)
    assert np.array_equal(trained.flatten(), before)
    assert log == []


def test_run_task_rejects_an_empty_task():
    net = rc.Network.init_mlp(4, [8], 2, seed=5)
    empty = small_task().subset(np.array([], dtype=int))
    cfg = methods.make_method_config("pgd-at", ATTACK)
    with pytest.raises(ArgumentError, match="no training examples"):
        rc.run_task(net, None, empty, None, cfg,
                    Schedule(epochs=1, lr=0.1, batch_size=16), root_seed=1)


def test_run_task_first_task_flair_uses_new_slice_bce_only():
    net = rc.Network.init_mlp(4, [8], 2, seed=5)
    _, terms = methods.build_training_loss(
        methods.make_method_config("flair", ATTACK), rc.Passes(net), None,
        np.zeros((2, 4)), np.array([0, 1]), np.zeros((2, 4)))
    assert set(terms) == {"bce_new"}


def test_run_task_logs_robust_acc_under_ce_for_trades(monkeypatch):
    # trades trains against its KL-vs-clean objective; its per-epoch
    # robust_acc is still measured under CE like every other method's
    objectives = []

    def recording_pgd(model, x, y, cfg):
        objectives.append(cfg.objective)
        return x

    monkeypatch.setattr(continual, "pgd", recording_pgd)
    cfg = methods.make_method_config("trades", ATTACK)
    sched = Schedule(epochs=2, lr=0.1, batch_size=32)
    rc.run_task(rc.Network.init_mlp(4, [8], 2, seed=5), None, small_task(), None,
                cfg, sched, root_seed=1)
    per_epoch = ["kl-vs-clean", "kl-vs-clean", "ce"]   # 60 examples: 2 batches
    assert objectives == per_epoch * 2


def test_run_task_deterministic_under_fixed_seed():
    cfg = methods.make_method_config("flair", ATTACK)
    sched = Schedule(epochs=2, lr=0.2, batch_size=16)
    results = []
    for _ in range(2):
        net = rc.Network.init_mlp(4, [8], 2, seed=5)
        trained, _ = rc.run_task(net, None, small_task(), None, cfg, sched,
                                 root_seed=9)
        results.append(trained.flatten())
    assert np.array_equal(results[0], results[1])


def test_run_task_never_mutates_teacher():
    teacher_net = rc.Network.init_mlp(4, [8], 2, seed=5)
    teacher = rc.snapshot(teacher_net)
    student = rc.expand_head(teacher_net, 2, seed=6)
    before = teacher.flatten()
    ds = rc.gen_gaussian_tasks(4, 4, 10.0, 20, seed=1)
    keep = np.isin(ds.labels, [2, 3])
    task = rc.Dataset(ds.inputs[keep], ds.labels[keep], 4)
    cfg = methods.make_method_config("flair", ATTACK)
    rc.run_task(student, teacher, task, None, cfg,
                Schedule(epochs=1, lr=0.2, batch_size=16), root_seed=2)
    assert np.array_equal(teacher.flatten(), before)


def test_run_task_detects_a_rebound_teacher_layer(monkeypatch):
    teacher_net = rc.Network.init_mlp(4, [8], 2, seed=5)
    teacher = rc.snapshot(teacher_net)
    student = rc.expand_head(teacher_net, 2, seed=6)
    ds = rc.gen_gaussian_tasks(4, 4, 10.0, 20, seed=1)
    keep = np.isin(ds.labels, [2, 3])
    task = rc.Dataset(ds.inputs[keep], ds.labels[keep], 4)
    cfg = methods.make_method_config("flair", ATTACK)
    build = methods.build_training_loss

    def rebinding_build(*args, **kwargs):
        out = build(*args, **kwargs)
        teacher.layers[0].weight = teacher.layers[0].weight + 1.0
        return out

    monkeypatch.setattr(methods, "build_training_loss", rebinding_build)
    with pytest.raises(ContractError, match="teacher parameters changed during training"):
        rc.run_task(student, teacher, task, None, cfg,
                    Schedule(epochs=1, lr=0.2, batch_size=16), root_seed=2)


def test_run_task_rejects_frozen_student():
    frozen = rc.snapshot(rc.Network.init_mlp(4, [8], 2, seed=5))
    cfg = methods.make_method_config("pgd-at", ATTACK)
    with pytest.raises(ContractError):
        rc.run_task(frozen, None, small_task(), None, cfg,
                    Schedule(epochs=1, lr=0.1, batch_size=16))


def test_run_task_log_schema():
    net = rc.Network.init_mlp(4, [8], 2, seed=5)
    cfg = methods.make_method_config("pgd-at", ATTACK)
    _, log = rc.run_task(net, None, small_task(), None, cfg,
                         Schedule(epochs=2, lr=0.1, batch_size=16), root_seed=3)
    assert len(log) == 2
    assert set(log[0]) == {"task", "epoch", "train_loss", "clean_acc", "robust_acc"}


def test_run_task_populates_reservoir_once():
    net = rc.Network.init_mlp(4, [8], 2, seed=5)
    buf = ReservoirBuffer(100, seed=3)
    cfg = methods.make_method_config("r-er", ATTACK, buffer_kind="reservoir")
    task = small_task()
    rc.run_task(net, None, task, buf, cfg,
                Schedule(epochs=3, lr=0.1, batch_size=16), root_seed=4)
    # inserted during the first epoch only: one offer per training example
    assert buf.seen_count == len(task)
