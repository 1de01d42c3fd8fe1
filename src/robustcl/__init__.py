"""Desk-scale lab for adversarially robust class-incremental learning."""

__version__ = "0.1.0"

from .attacks import AttackConfig, parse_rational, pgd
from .continual import (ReservoirBuffer, Schedule, buffer_update_herding,
                        herding_select, reservoir_update, run_task, split_dataset)
from .data import Dataset, augment, gen_gaussian_tasks, load_csv_dataset
from .losses import (ace, bce_multilabel, ce, kl_div, mse, one_hot,
                     one_hot_in_slice, sigmoid, slice_bounds)
from .methods import (MethodConfig, RegState, build_training_loss,
                      flatness_distill_loss, make_method_config, refresh_fisher,
                      si_consolidate, si_step)
from .metrics import (FlatnessReport, accuracy, flatness_forgetting, landscape_grid,
                      r_bwt, robust_accuracy)
from .network import (Layer, Network, Passes, expand_head, grad_input,
                      grad_params, hessian_input, sgd_step, snapshot)
from .runner import (ExperimentConfig, RunReport, config_from_dict, emit_report,
                     evaluate_row, expand_grid, load_checkpoint, load_config,
                     run_experiment, save_checkpoint)
