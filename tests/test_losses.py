import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustcl as rc
from robustcl import autodiff as ad
from robustcl import losses
from robustcl.errors import ArgumentError, DimensionError, LabelError


def val(node):
    return float(node.value)


# ---------------------------------------------------------------------------
# cross-entropy


def test_ce_uniform_two_classes():
    assert val(rc.ce(np.zeros((1, 2)), [0])) == pytest.approx(math.log(2))


def test_ce_saturated_logits_stay_finite():
    assert val(rc.ce(np.array([[1000.0, 0.0]]), [0])) == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(val(rc.ce(np.array([[1e4, -1e4, 0.0]]), [1])))


def test_ce_batch_mean_of_singletons():
    z = np.array([[0.3, -0.2], [1.0, 2.0]])
    y = [0, 1]
    per = [val(rc.ce(z[i:i + 1], [y[i]])) for i in range(2)]
    assert val(rc.ce(z, y)) == pytest.approx(np.mean(per))


def test_ce_label_out_of_range():
    with pytest.raises(LabelError):
        rc.ce(np.zeros((1, 2)), [2])


# ---------------------------------------------------------------------------
# multilabel BCE


def test_bce_logit_zero_target_one():
    assert val(rc.bce_multilabel(np.zeros((1, 1)), [[1.0]])) == pytest.approx(math.log(2))


def test_bce_symmetric_point():
    assert val(rc.bce_multilabel(np.zeros((1, 1)), [[0.5]])) == pytest.approx(math.log(2))


def test_bce_stationary_at_sigmoid_targets():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(3, 4))
    node = ad.Node(z)
    ad.backward(rc.bce_multilabel(node, rc.sigmoid(z)))
    assert np.max(np.abs(node.grad)) < 1e-12


def test_bce_rejects_target_outside_unit_interval():
    with pytest.raises(ArgumentError):
        rc.bce_multilabel(np.zeros((1, 2)), [[0.0, 1.5]])


def test_bce_stable_at_huge_logits():
    z = np.array([[1e4, -1e4]])
    assert np.isfinite(val(rc.bce_multilabel(z, [[1.0, 0.0]])))


# ---------------------------------------------------------------------------
# KL divergence


def test_kl_zero_on_identical_logits():
    z = np.random.default_rng(3).normal(size=(4, 5))
    assert val(rc.kl_div(z, z)) == 0.0


def test_kl_shift_invariance_of_target():
    rng = np.random.default_rng(4)
    t = rng.normal(size=(2, 3))
    p = rng.normal(size=(2, 3))
    assert val(rc.kl_div(t + 3.0, p)) == pytest.approx(val(rc.kl_div(t, p)), abs=1e-12)


def test_kl_hand_computed_value():
    # KL((2/3, 1/3) || (1/2, 1/2)) = (2/3) ln(4/3) + (1/3) ln(2/3)
    target = np.array([[math.log(2), 0.0]])
    pred = np.zeros((1, 2))
    expected = (2 / 3) * math.log(4 / 3) + (1 / 3) * math.log(2 / 3)
    assert val(rc.kl_div(target, pred)) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.056633, abs=1e-6)


def test_kl_width_mismatch():
    with pytest.raises(DimensionError):
        rc.kl_div(np.zeros((1, 2)), np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# MSE


def test_mse_examples():
    assert val(rc.mse(np.ones((1, 2)), np.ones((1, 2)))) == 0.0
    assert val(rc.mse(np.ones((1, 2)), np.zeros((1, 2)))) == pytest.approx(1.0)
    a = np.random.default_rng(5).normal(size=(3, 4))
    b = np.random.default_rng(6).normal(size=(3, 4))
    assert val(rc.mse(a, b)) == pytest.approx(val(rc.mse(b, a)))


# ---------------------------------------------------------------------------
# asymmetric CE


def test_ace_equals_ce_when_all_present():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(4, 3))
    y = rng.integers(0, 3, size=4)
    assert val(rc.ace(z, y, [0, 1, 2])) == pytest.approx(val(rc.ce(z, y)), abs=1e-12)


def test_ace_masks_excluded_class():
    z = np.array([[0.0, 0.0, 100.0]])
    assert val(rc.ace(z, [0], [0, 1])) == pytest.approx(math.log(2))


def test_ace_singleton_denominator_is_zero():
    z = np.array([[3.0, -1.0]])
    assert val(rc.ace(z, [0], [0])) == pytest.approx(0.0, abs=1e-12)


def test_ace_label_outside_present_set():
    with pytest.raises(LabelError):
        rc.ace(np.zeros((1, 3)), [2], [0, 1])


# ---------------------------------------------------------------------------
# shared properties


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1))
def test_losses_nonnegative(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=3.0, size=(3, 4))
    t = rng.normal(scale=3.0, size=(3, 4))
    y = rng.integers(0, 4, size=3)
    targets = rng.uniform(size=(3, 4))
    assert val(rc.ce(z, y)) >= 0.0
    assert val(rc.bce_multilabel(z, targets)) >= 0.0
    assert val(rc.kl_div(t, z)) >= -1e-12
    assert val(rc.mse(t, z)) >= 0.0


def test_batch_permutation_invariance():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(6, 4))
    y = rng.integers(0, 4, size=6)
    perm = rng.permutation(6)
    assert val(rc.ce(z[perm], y[perm])) == pytest.approx(val(rc.ce(z, y)), abs=1e-12)
    targets = rng.uniform(size=(6, 4))
    assert val(rc.bce_multilabel(z[perm], targets[perm])) == pytest.approx(
        val(rc.bce_multilabel(z, targets)), abs=1e-12)


def test_no_nan_or_inf_up_to_1e4_magnitude():
    z = np.array([[1e4, -1e4, 5e3, 0.0]])
    y = [3]
    assert np.isfinite(val(rc.ce(z, y)))
    assert np.isfinite(val(rc.kl_div(z, -z)))
    assert np.isfinite(val(rc.bce_multilabel(z, np.array([[1.0, 0, 0.5, 0.2]]))))


# ---------------------------------------------------------------------------
# slicing


@pytest.mark.parametrize("y", [[0.5, 1.7, 0.2], [0.0, np.nan, 1.0]],
                         ids=["fraction", "nan"])
def test_one_hot_in_slice_rejects_non_integer_labels(y):
    with pytest.raises(LabelError):
        losses.one_hot_in_slice(np.array(y), 0, 2)


@pytest.mark.parametrize("y", [[0, 3], [-1, 1]], ids=["too-large", "negative"])
def test_one_hot_rejects_labels_outside_the_width(y):
    with pytest.raises(LabelError):
        losses.one_hot(np.array(y), 3)


def test_one_hot_equals_the_full_width_slice():
    y = np.array([2, 0, 1, 2, 1])
    t = losses.one_hot(y, 3)
    assert np.array_equal(t, losses.one_hot_in_slice(y, 0, 3))
    assert np.array_equal(t, np.eye(3)[y])


def test_one_hot_in_slice_zero_rows_for_outside_labels():
    t = losses.one_hot_in_slice(np.array([0, 2, 3]), 2, 4)
    assert np.array_equal(t, [[0, 0], [1, 0], [0, 1]])

