"""Spans and exact counts around robustcl's public functions, from outside.

`Tracer.install()` replaces each traced name where its caller looks it up
(`robustcl.runner.run_task`, `Network.forward_graph`, ...) with a wrapper
that records a span per call: name, start, end, parent span and run id.
Spans stay in memory until `write_spans`. Per name the tracer keeps
calls, total seconds, self seconds (total minus the time covered by
wrapped children) and calls that raised. `restore()` puts the originals
back, so untraced runs execute the unmodified package.

Some wrappers also count work exactly (graph nodes, gradient evaluations,
matmul flops, checkpoint bytes). That counting happens on a paused clock:
its cost is excluded from every span and reported as `trace.hook_s`.
"""
from __future__ import annotations

import json
import os
import time
from typing import Callable

import numpy as np

import robustcl.autodiff
import robustcl.continual
import robustcl.methods
import robustcl.metrics
import robustcl.network
import robustcl.runner

# (layer metric prefix, module object, attribute name): every place a
# caller resolves the traced function. A name imported into several
# modules is wrapped in each of them, and the wrappers share one prefix.
TIMED = [
    ("runner.run_experiment", robustcl.runner, "run_experiment"),
    ("continual.run_task", robustcl.runner, "run_task"),
    ("continual.split_dataset", robustcl.runner, "split_dataset"),
    ("continual.buffer_update_herding", robustcl.runner, "buffer_update_herding"),
    ("continual.reservoir_update", robustcl.continual, "reservoir_update"),
    ("data.gen_gaussian_tasks", robustcl.runner, "gen_gaussian_tasks"),
    ("runner.save_checkpoint", robustcl.runner, "save_checkpoint"),
    ("runner.emit_report", robustcl.runner, "emit_report"),
    ("metrics.flatness_forgetting", robustcl.runner, "flatness_forgetting"),
    ("metrics.robust_accuracy", robustcl.runner, "robust_accuracy"),
    ("metrics.accuracy", robustcl.runner, "accuracy"),
    ("methods.build_training_loss", robustcl.methods, "build_training_loss"),
    ("attacks.pgd", robustcl.continual, "pgd"),
    ("attacks.pgd", robustcl.metrics, "pgd"),
    ("network.hessian_input", robustcl.metrics, "hessian_input"),
    ("network.grad_input", robustcl.metrics, "grad_input"),
    ("network.grad_input", robustcl.network, "grad_input"),
    ("network.forward_graph", robustcl.network.Network, "forward_graph"),
    ("network.sgd_step", robustcl.continual, "sgd_step"),
    ("network.snapshot", robustcl.continual, "snapshot"),
    ("network.snapshot", robustcl.runner, "snapshot"),
    ("network.snapshot", robustcl.metrics, "snapshot"),
    ("autodiff.backward", robustcl.autodiff, "backward"),
]

# counted per call but not timed: a span per matmul would cost more than
# the small matmuls it measures
MATMUL = (robustcl.autodiff, "matmul")

# exact counts; the benchmark's test requires each to repeat across runs
EXACT_COUNTS = ("attacks.pgd.grad_evals", "autodiff.backward.nodes",
                "autodiff.backward.leaves", "autodiff.matmul.fwd_flops",
                "network.hessian_input.calls", "runner.save_checkpoint.bytes")

# counts the hooks below keep, beside each timed name's call statistics
COUNTS = ("attacks.pgd.grad_evals", "attacks.pgd.examples",
          "attacks.pgd.successes", "autodiff.backward.nodes",
          "autodiff.backward.leaves", "autodiff.matmul.calls",
          "autodiff.matmul.fwd_flops", "runner.save_checkpoint.bytes")

_STAT_FIELDS = ("calls", "s", "self_s", "errors")


def _graph_size(root) -> tuple[int, int]:
    """(reachable nodes, leaves) of an autodiff graph, walked from `root`."""
    seen = {id(root)}
    stack = [root]
    leaves = 0
    while stack:
        node = stack.pop()
        if not node._parents:
            leaves += 1
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), leaves


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self, run_id: int):
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.run_id = run_id
        self.hook_s = 0.0             # paused-clock time spent counting
        self._stack: list[list] = []  # open spans: [index, child seconds]
        self._originals: list[tuple] = []

    # -- counting hooks, run on a paused clock -------------------------------
    def _count_graph(self, args, result) -> None:
        nodes, leaves = _graph_size(args[0])
        self.counts["autodiff.backward.nodes"] += nodes
        self.counts["autodiff.backward.leaves"] += leaves

    def _count_pgd(self, args, result) -> None:
        model, _, y, cfg = args
        y = np.asarray(y)
        self.counts["attacks.pgd.grad_evals"] += (cfg.n_steps + 1) * cfg.n_restarts
        self.counts["attacks.pgd.examples"] += int(y.size)
        self.counts["attacks.pgd.successes"] += int(
            (np.argmax(model.forward(result), axis=1) != y).sum())

    def _count_checkpoint(self, args, result) -> None:
        path = str(args[1])
        self.counts["runner.save_checkpoint.bytes"] += (
            os.path.getsize(path + ".manifest") + os.path.getsize(path + ".blob"))

    def _count_matmul(self, args, result) -> None:
        m, k = np.shape(getattr(args[0], "value", args[0]))
        n = np.shape(getattr(args[1], "value", args[1]))[1]
        self.counts["autodiff.matmul.calls"] += 1
        self.counts["autodiff.matmul.fwd_flops"] += 2 * m * k * n

    def _paused(self, hook, args, result) -> None:
        h0 = time.perf_counter()
        hook(args, result)
        self.hook_s += time.perf_counter() - h0

    # -- wrappers ------------------------------------------------------------
    def _timed(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        spans, stack = self.spans, self._stack
        before = self._count_graph if name == "autodiff.backward" else None
        after = {"attacks.pgd": self._count_pgd,
                 "runner.save_checkpoint": self._count_checkpoint}.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                self._paused(before, args, None)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            # the clock excludes hook time, so spans never include counting
            start = time.perf_counter() - self.hook_s
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                end = time.perf_counter() - self.hook_s
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (name, start, end, parent, self.run_id)
            if after is not None:
                self._paused(after, args, result)
            return result

        return wrapper

    def _counted(self, fn: Callable) -> Callable:
        def wrapper(*args):
            result = fn(*args)
            self._paused(self._count_matmul, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced name; `restore` undoes it."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr in TIMED:
            self._wrap(owner, attr, lambda fn, name=name: self._timed(name, fn))
        self._wrap(*MATMUL, self._counted)

    def _wrap(self, owner, attr: str, make: Callable) -> None:
        fn = owner.__dict__[attr]
        self._originals.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    # -- results -------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Flat {metric: value} over every traced name and count."""
        out: dict[str, float] = {}
        for name, stats in self.stats.items():
            for field, value in zip(_STAT_FIELDS, stats):
                out[f"{name}.{field}"] = value
        out.update(self.counts)
        examples = self.counts["attacks.pgd.examples"]
        out["attacks.pgd.success_ratio"] = (
            self.counts["attacks.pgd.successes"] / examples if examples else 0.0)
        out["trace.hook_s"] = self.hook_s
        return out

    def write_spans(self, fh) -> None:
        """One JSON array per span and line: name, start, end, index of the
        parent span within the same run (-1 for none), run id."""
        for span in self.spans:
            fh.write(json.dumps(span) + "\n")
