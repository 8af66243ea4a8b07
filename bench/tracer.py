"""Span recorder for the traced benchmark run.

The program has no spans of its own yet, so the benchmark wraps each public
function it measures.  Modules import names directly (``cli`` binds
``grad_params``, ``trainer`` binds ``spectral_norm``), so a function is
replaced at every module attribute that binds it, not only where it is
defined; ``unwrapped()`` lists any binding left behind.  Spans stay in
memory as (name, parent, start, end, counts) and are written at exit.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT_SPAN = "cli"


def _forward_counts(args, kwargs):
    p, xs = args[0], args[1]
    entries = sum(w.size for w in p.weights)
    return {"flops": 2 * len(xs) * entries, "bytes": 8 * entries}


def _mode(args, kwargs):
    return kwargs.get("mode", args[3] if len(args) > 3 else "exact")


def _loss_and_vectors_name(args, kwargs):
    return "contrastive.loss_and_vectors." + ("mc" if _mode(args, kwargs) == "monte-carlo" else "exact")


def _loss_and_vectors_counts(args, kwargs):
    n, k = args[0].n, args[1]
    if _mode(args, kwargs) == "monte-carlo":
        return {"subset_losses": n * kwargs.get("mc_samples", args[4] if len(args) > 4 else 2000)}
    return {"subset_losses": n * math.comb(n - 1, k)}


def _total_exact_counts(args, kwargs):
    n, k = args[0].n, args[1]
    return {"subset_losses": n * math.comb(n - 1, k)}


def _total_mc_counts(args, kwargs):
    samples = kwargs["samples"] if "samples" in kwargs else args[3]
    return {"subset_losses": args[0].n * samples}


# (module, attribute, span name or naming function, counting function)
TARGETS = (
    ("contrast_lab.rng", "RngState.generator", "rng.generator", None),
    ("contrast_lab.rng", "RngState.child", "rng.child", None),
    ("contrast_lab.linalg", "gaussian_matrix", "linalg.gaussian_matrix",
     lambda a, kw: {"entries": a[1] * a[2]}),
    ("contrast_lab.linalg", "spectral_norm", "linalg.spectral_norm", None),
    ("contrast_lab.data", "generate_separated", "data.generate_separated", None),
    ("contrast_lab.encoder", "init_params", "encoder.init_params", None),
    ("contrast_lab.encoder", "forward_batch", "encoder.forward_batch", _forward_counts),
    ("contrast_lab.contrastive", "encode_batch", "contrastive.encode_batch", None),
    ("contrast_lab.contrastive", "loss_and_vectors", _loss_and_vectors_name,
     _loss_and_vectors_counts),
    ("contrast_lab.contrastive", "total_loss_exact", "contrastive.total_loss_exact",
     _total_exact_counts),
    ("contrast_lab.contrastive", "total_loss_mc", "contrastive.total_loss_mc",
     _total_mc_counts),
    ("contrast_lab.contrastive", "grad_params", "contrastive.grad_params", None),
    ("contrast_lab.oracle", "fd_gradient", "oracle.fd_gradient", None),
    ("contrast_lab.oracle", "kink_mask", "oracle.kink_mask", None),
    ("contrast_lab.trainer", "train", "trainer.train", None),
    ("contrast_lab.trainer", "gd_step", "trainer.gd_step", None),
    ("contrast_lab.monitors", "init_probe", "monitors.init_probe", None),
    ("contrast_lab.monitors", "masked_chain_norms", "monitors.masked_chain_norms", None),
    ("contrast_lab.monitors", "perturbation_probe", "monitors.perturbation_probe", None),
    ("contrast_lab.monitors", "ce_smoothness_check", "monitors.ce_smoothness_check", None),
    ("contrast_lab.config", "load_config", "config.load_config", None),
    ("contrast_lab.cli", "main", "cli", None),
)


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "contrast_lab" or name.startswith("contrast_lab."))]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, parent index, start, end, counts]
        self._stack: list[int] = []
        self._originals: list = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name, fn, count=None):
        """fn wrapped so each call records a span; name may be a function of
        the call's arguments, and count returns the work counts of a call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            counts = count(args, kwargs) if count is not None else None
            index = len(spans)
            spans.append([label, stack[-1] if stack else -1, clock(), 0.0, counts])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()

        return traced

    def install(self) -> None:
        modules = _package_modules()
        for module_name, attr, name, count in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: its class is the only binding
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                owners = [owner]
            else:
                original = getattr(owner, attr)
                owners = modules
            inner = original
            if name == "oracle.fd_gradient":
                # the loss closure is the caller's, so its evaluations are
                # counted by wrapping the argument
                def inner(loss_fn, *args, _fd=original, **kwargs):
                    return _fd(self.span("oracle.fd_gradient.loss_fn", loss_fn), *args, **kwargs)
            wrapper = self.span(name, inner, count)
            self._originals.append(original)
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, key, value))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def unwrapped(self) -> list[str]:
        """Bindings of a measured function that still point at the original."""
        originals = {id(f) for f in self._originals}
        left = []
        for module in _package_modules():
            for key, value in vars(module).items():
                if id(value) in originals:
                    left.append(f"{module.__name__}.{key}")
                if isinstance(value, type):
                    left += [f"{module.__name__}.{key}.{k}" for k, v in vars(value).items()
                             if id(v) in originals]
        return left

    def write(self, path: Path) -> None:
        lines = ["run_id,index,parent,name,start,end"]
        lines += [f"{self.run_id},{i},{s[1]},{s[0]},{s[2]!r},{s[3]!r}"
                  for i, s in enumerate(self.spans)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.  A span's self time is its
    duration minus the durations of its direct children."""
    calls: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    children: Counter[tuple[str, str]] = Counter()
    busy: defaultdict[str, float] = defaultdict(float)
    self_s: defaultdict[str, float] = defaultdict(float)
    inner_grad_s = 0.0
    for name, parent, start, end, work in spans:
        duration = end - start
        calls[name] += 1
        busy[name] += duration
        self_s[name] += duration
        if parent >= 0:
            parent_name = spans[parent][0]
            self_s[parent_name] -= duration
            children[parent_name, name] += 1
            if (parent_name, name) == ("trainer.gd_step", "contrastive.grad_params"):
                inner_grad_s += duration
        for key, value in (work or {}).items():
            counts[f"{name}.{key}"] += value

    gd_busy = busy["trainer.gd_step"]
    covered = sum(v for k, v in self_s.items() if k != ROOT_SPAN)
    return {
        "rng.generator.calls": calls["rng.generator"],
        "rng.child.calls": calls["rng.child"],
        "rng.self_s": self_s["rng.generator"] + self_s["rng.child"],
        "linalg.gaussian_matrix.calls": calls["linalg.gaussian_matrix"],
        "linalg.gaussian_matrix.entries": counts["linalg.gaussian_matrix.entries"],
        "linalg.gaussian_matrix.self_s": self_s["linalg.gaussian_matrix"],
        "linalg.spectral_norm.calls": calls["linalg.spectral_norm"],
        "linalg.spectral_norm.self_s": self_s["linalg.spectral_norm"],
        "data.generate_separated.self_s": self_s["data.generate_separated"],
        "encoder.init_params.busy_s": busy["encoder.init_params"],
        "encoder.forward_batch.calls": calls["encoder.forward_batch"],
        "encoder.forward_batch.self_s": self_s["encoder.forward_batch"],
        "encoder.forward_batch.flops": counts["encoder.forward_batch.flops"],
        "encoder.forward_batch.bytes": counts["encoder.forward_batch.bytes"],
        "contrastive.encode_batch.self_s": self_s["contrastive.encode_batch"],
        "contrastive.loss_and_vectors.exact.calls": calls["contrastive.loss_and_vectors.exact"],
        "contrastive.loss_and_vectors.exact.self_s": self_s["contrastive.loss_and_vectors.exact"],
        "contrastive.loss_and_vectors.mc.calls": calls["contrastive.loss_and_vectors.mc"],
        "contrastive.loss_and_vectors.mc.self_s": self_s["contrastive.loss_and_vectors.mc"],
        "contrastive.total_loss_mc.calls": calls["contrastive.total_loss_mc"],
        "contrastive.total_loss_mc.self_s": self_s["contrastive.total_loss_mc"],
        "contrastive.total_loss_exact.calls": calls["contrastive.total_loss_exact"],
        "contrastive.total_loss_exact.self_s": self_s["contrastive.total_loss_exact"],
        "contrastive.grad_params.self_s": self_s["contrastive.grad_params"],
        "contrastive.subset_losses": sum(v for k, v in counts.items()
                                         if k.endswith(".subset_losses")),
        "oracle.fd_gradient.self_s": self_s["oracle.fd_gradient"],
        "oracle.fd_gradient.loss_evals": calls["oracle.fd_gradient.loss_fn"],
        "oracle.kink_mask.self_s": self_s["oracle.kink_mask"],
        "oracle.kink_mask.forwards": children["oracle.kink_mask", "encoder.forward_batch"],
        "trainer.gd_step.calls": calls["trainer.gd_step"],
        "trainer.gd_step.self_s": self_s["trainer.gd_step"],
        "trainer.train.self_s": self_s["trainer.train"],
        "trainer.instrumentation_share": (gd_busy - inner_grad_s) / gd_busy if gd_busy else 0.0,
        "monitors.init_probe.self_s": self_s["monitors.init_probe"],
        "monitors.masked_chain_norms.calls": calls["monitors.masked_chain_norms"],
        "monitors.masked_chain_norms.self_s": self_s["monitors.masked_chain_norms"],
        "monitors.perturbation_probe.self_s": self_s["monitors.perturbation_probe"],
        "monitors.ce_smoothness_check.self_s": self_s["monitors.ce_smoothness_check"],
        "cli.self_s": self_s["cli"],
        "config.load_config.busy_s": busy["config.load_config"],
        "trace.coverage": covered / wall_s,
    }
