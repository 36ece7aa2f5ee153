"""Out-of-program tracing: wrap the public functions of bmklab's modules.

The tracer replaces every public module-level function, and every public
method (plus ``__call__``) of every public class, defined in one of the layer
modules with a wrapper that records a span: name, parent span, start and
end.  A wrapper is installed on the defining module *and* on every other
module that imported the function by name (``from .geometry import
volume_rule``), and inside module-level dicts such as ``cli.EXPERIMENTS``;
a wrapper installed only where a function is defined would read zero
calls without any error.  The traced run's self-test (run.py) catches that.

Per-function totals (calls, inclusive and self time, escaped errors) and
a few work counters are kept in memory; the full span list is written
out once, when the run ends.  Self time is a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np

LAYERS = ("geometry", "fields", "bmk", "mollify", "young", "operators", "cli")


def _domain_key(domain):
    def flat(v):
        return None if v is None else tuple(float(x) for x in np.ravel(v))
    return (domain.kind, domain.m, flat(domain.center), domain.radius,
            flat(domain.semi_axes), flat(domain.bounds))


def _points(x):
    """Number of points in an (..., m) coordinate array."""
    return int(np.prod(np.shape(x)[:-1]))


def _is_field_call(name):
    return name.startswith("fields.") and name.endswith(".__call__")


class Tracer:
    """Spans and counters for one traced repetition."""

    def __init__(self):
        self.spans = []            # [id, parent, name, start, end, error]
        self.stack = []            # [span id, name, layer, start, child time]
        self.stats = {}            # name -> [calls, incl_s, self_s, errors]
        self.counts = {}
        self.rule_sizes = {}       # (domain, level, region) -> nodes
        self._modules = {}

    # ------------------------------------------------------------ recording
    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name, layer, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span_id = len(tracer.spans)
            start = time.perf_counter()
            frame = [span_id, name, layer, start, 0.0]
            tracer.stack.append(frame)
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[4]
                if parent is not None:
                    parent[4] += dur
                if error is not None and (parent is None or parent[2] != layer):
                    stats[3] += 1
                tracer.spans.append([span_id, parent[0] if parent else None,
                                     name, start, end, error])
            if after is not None:
                after(args, kwargs, result, parent)
            return result
        return wrapper

    # ------------------------------------------------------------ work hooks
    def _after_rule(self, region):
        def hook(args, kwargs, rule, parent):
            domain = args[0] if args else kwargs["domain"]
            level = args[1] if len(args) > 1 else kwargs["level"]
            key = (_domain_key(domain), int(level), region)
            self.rule_sizes[key] = len(rule.weights)
            self._count("geometry.rule_nodes", len(rule.weights))
        return hook

    def _after_field(self, args, kwargs, result, parent):
        if parent is None or not _is_field_call(parent[1]):
            self._count("fields.eval_points", _points(args[1]))

    def _after_evaluate(self, args, kwargs, result, parent):
        self._count("mollify.eval_points", _points(args[1]))

    def _after_convolve(self, args, kwargs, result, parent):
        x = args[2]
        quad = kwargs.get("quad", args[4] if len(args) > 4 else None)
        self._count("mollify.conv_pairs", len(quad[0]) * _points(x))

    def _after_residual(self, args, kwargs, result, parent):
        """Node-point pairs the three-term identity requires, per level."""
        f, f_b, dbar_f, domain, z_points = args[:5]
        config = kwargs.get("config", args[5] if len(args) > 5 else None)
        if config is None:
            config = self._modules["bmk"].SingularQuadratureConfig()
        levels = config.levels()
        per_level = len(result["rows"]) // max(1, len(levels))
        n = domain.n_complex
        total = 0
        key = _domain_key(domain)
        for level in levels:
            nb = self.rule_sizes[(key, level, "boundary")]
            nv = self.rule_sizes[(key, level, "interior")]
            need = nb + (nv if dbar_f is not None else 0) + (4 * n * nv if f.q > 0 else 0)
            total += per_level * need
        self._count("bmk.pairs", total)

    def _count_kernel(self, kern):
        """Count the per-y kernel calls and their (x, y) pairs."""
        @functools.wraps(kern)
        def counted(xs, y):
            self._count("young.kernel_calls", 1)
            self._count("young.kernel_pairs", _points(xs))
            return kern(xs, y)
        return counted

    # ------------------------------------------------------------ install
    def install(self, modules, extra_modules=()):
        """Wrap the layer modules' public callables and rebind every alias.

        modules: {layer name: module}.  extra_modules: further modules
        (scripts, the benchmark's own) whose by-name imports must also
        see the wrappers.
        """
        self._modules = dict(modules)
        hooks = {
            "geometry.volume_rule": self._after_rule("interior"),
            "geometry.boundary_rule": self._after_rule("boundary"),
            "mollify.HalfSpaceField.evaluate": self._after_evaluate,
            "mollify.convolve_field": self._after_convolve,
            "bmk.reproduce_residual": self._after_residual,
        }
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrapped = self._wrap(name, layer, obj, hooks.get(name))
                    if name == "young.bmk_norm_kernel":
                        wrapped = self._wrap_returning(wrapped)
                    replace[id(obj)] = (obj, wrapped, name)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    self._install_class(layer, obj, hooks)
        for mod in list(modules.values()) + list(extra_modules):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    setattr(mod, attr, replace[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replace and replace[id(val)][0] is val:
                            obj[key] = replace[id(val)][1]

    def _wrap_returning(self, wrapped):
        """bmk_norm_kernel returns the kernel young calls once per y."""
        @functools.wraps(wrapped)
        def outer(*args, **kwargs):
            return self._count_kernel(wrapped(*args, **kwargs))
        return outer

    def _install_class(self, layer, cls, hooks):
        is_field = layer == "fields"
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, layer, raw.__func__, hooks.get(name)))
            elif inspect.isfunction(raw):
                after = self._after_field if is_field and attr == "__call__" \
                    else hooks.get(name)
                wrapped = self._wrap(name, layer, raw, after)
            else:
                continue
            setattr(cls, attr, wrapped)

    # ------------------------------------------------------------ results
    def _sum(self, names, field):
        idx = {"calls": 0, "incl": 1, "self": 2, "errors": 3}[field]
        return sum(self.stats[n][idx] for n in names if n in self.stats)

    def _field_call_s(self):
        """Inclusive time of Field calls not made from inside another one."""
        parents = {s[0]: s[2] for s in self.spans}
        return sum(s[4] - s[3] for s in self.spans if _is_field_call(s[2])
                   and not _is_field_call(parents.get(s[1], "")))

    def layer_totals(self):
        """Calls per layer over every wrapped function, for the self-test."""
        totals = {layer: 0 for layer in LAYERS}
        for name, stat in self.stats.items():
            totals[name.split(".", 1)[0]] += stat[0]
        return totals

    def metrics(self):
        """Per-layer metrics of this repetition (see README.md)."""
        c = self.counts
        rules = ["geometry.volume_rule", "geometry.boundary_rule"]
        out = {
            "bmk.residual_s": self._sum(["bmk.reproduce_residual"], "self"),
            "bmk.fd_s": self._sum(["bmk.dbar_potential"], "self"),
            "bmk.pairs": c.get("bmk.pairs", 0),
            "bmk.kernel_norm_s": self._sum(["bmk.kernel_norm"], "incl"),
            "geometry.rule_s": self._sum(rules, "incl"),
            "geometry.rule_builds": self._sum(rules, "calls"),
            "geometry.rule_nodes": c.get("geometry.rule_nodes", 0),
            "fields.eval_s": self._field_call_s(),
            "fields.eval_points": c.get("fields.eval_points", 0),
            "mollify.eval_s": self._sum(["mollify.HalfSpaceField.evaluate"], "incl"),
            "mollify.eval_points": c.get("mollify.eval_points", 0),
            "mollify.conv_s": self._sum(["mollify.convolve_field"], "self"),
            "mollify.conv_pairs": c.get("mollify.conv_pairs", 0),
            "mollify.tau_s": self._sum(["mollify.choose_tau"], "incl"),
            "mollify.slab_calls": self._sum(["mollify.slab_mass"], "calls"),
            "young.norm_s": self._sum(["young.empirical_norm"], "incl"),
            "young.kernel_calls": c.get("young.kernel_calls", 0),
            "young.kernel_pairs": c.get("young.kernel_pairs", 0),
            "operators.gs_s": self._sum(
                ["operators.FirstOrderOperator.green_stokes_residual"], "incl"),
            "cli.report_s": self._sum(["cli.emit_report"], "incl"),
        }
        sweep = out["bmk.residual_s"] + out["bmk.fd_s"]
        out["bmk.pair_rate"] = out["bmk.pairs"] / sweep if sweep > 0 else 0.0
        builds = out["geometry.rule_builds"]
        out["geometry.rule_reuse"] = len(self.rule_sizes) / builds if builds else 0.0
        conv = self._sum(["mollify.convolve_field"], "incl")
        out["mollify.conv_rate"] = out["mollify.conv_pairs"] / conv if conv > 0 else 0.0
        for layer in LAYERS:
            names = [n for n in self.stats if n.startswith(layer + ".")]
            out[f"{layer}.errors"] = self._sum(names, "errors")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "name", "start", "end", "error"],
                       "spans": self.spans,
                       "functions": {k: dict(zip(("calls", "incl_s", "self_s", "errors"), v))
                                     for k, v in sorted(self.stats.items())},
                       "counts": self.counts}, fh)
