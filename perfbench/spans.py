"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each traced function on every ``hyperideal``
module attribute that holds it, so a caller that looked the name up with
``from .coherent import find_coherent`` is traced as well; ``uninstall``
puts the originals back.  A function the program no longer has is listed
as absent and its metrics read 0.  Spans stay in memory; ``layer_metrics``
turns them into self times (span minus child spans) and counts per op.
"""

import functools
import sys
import time

# span name -> (defining module, function name)
SPANS = {
    "surface.parse": ("hyperideal.surface", "parse_problem"),
    "coherent.build": ("hyperideal.coherent", "build_constraints"),
    "coherent.lp": ("hyperideal.coherent", "find_coherent"),
    "coherent.is_coherent": ("hyperideal.coherent", "is_coherent"),
    "coherent.tangent": ("hyperideal.coherent", "tangent_basis"),
    "solve.maximize": ("hyperideal.solve", "maximize"),
    "solve.f": ("hyperideal.solve", "objective_f"),
    "solve.grad": ("hyperideal.solve", "objective_grad"),
    "solve.hess": ("hyperideal.energy", "tet_volume_hess"),
    "lob": ("hyperideal.lob", "lob"),
    "pattern.probe": ("hyperideal.pattern", "probe"),
    "pattern.compat": ("hyperideal.pattern", "compat_residuals"),
    "pattern.truncated_lengths": ("hyperideal.pattern", "truncated_lengths"),
    "pattern.metric": ("hyperideal.pattern", "metric_from_lengths"),
    "pattern.verify": ("hyperideal.pattern", "verify_pattern"),
    "layout.lay_out": ("hyperideal.layout", "lay_out"),
    "layout.svg": ("hyperideal.layout", "export_svg"),
    "files.json": ("hyperideal.files", "canonical_json"),
}


def _size(args, result):
    return int(getattr(args[0], "size", 1))


def _length(args, result):
    return len(result)


def _iterations(args, result):
    return result[1].iterations


# span name -> units of work counted from (args, result)
UNITS = {
    "lob": _size,
    "layout.svg": _length,
    "files.json": _length,
    "solve.maximize": _iterations,
}

# metric name -> (unit, span names, what is summed: "self" seconds, "calls" or "units")
LAYER_METRICS = {
    "surface.parse_s": ("s", ["surface.parse"], "self"),
    "coherent.build_s": ("s", ["coherent.build"], "self"),
    "coherent.lp_s": ("s", ["coherent.lp"], "self"),
    "coherent.lp_calls": ("count", ["coherent.lp"], "calls"),
    "coherent.tangent_s": ("s", ["coherent.tangent"], "self"),
    "coherent.is_coherent_s": ("s", ["coherent.is_coherent"], "self"),
    "solve.maximize_self_s": ("s", ["solve.maximize"], "self"),
    "solve.newton_iters": ("count", ["solve.maximize"], "units"),
    "solve.f_evals": ("count", ["solve.f"], "calls"),
    "solve.f_s": ("s", ["solve.f"], "self"),
    "solve.grad_s": ("s", ["solve.grad"], "self"),
    "solve.hess_s": ("s", ["solve.hess"], "self"),
    "lob.calls": ("count", ["lob"], "calls"),
    "lob.args": ("count", ["lob"], "units"),
    "lob.s": ("s", ["lob"], "self"),
    "pattern.probe_s": ("s", ["pattern.probe"], "self"),
    "pattern.compat_s": ("s", ["pattern.compat"], "self"),
    "pattern.lengths_s": ("s", ["pattern.truncated_lengths", "pattern.metric"], "self"),
    "pattern.verify_s": ("s", ["pattern.verify"], "self"),
    "layout.lay_out_s": ("s", ["layout.lay_out"], "self"),
    "layout.svg_s": ("s", ["layout.svg"], "self"),
    "layout.svg_bytes": ("bytes", ["layout.svg"], "units"),
    "files.json_s": ("s", ["files.json"], "self"),
    "files.json_bytes": ("bytes", ["files.json"], "units"),
}


class Tracer:
    """Records (op, span id, parent id, name, start, end, units) per call.

    Built after ``hyperideal`` is imported: it finds every module attribute
    that holds a traced function once, and swaps them on ``install``.
    """

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._op = None
        self._sites = []  # (module, attribute, original, wrapper)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hyperideal" or name.startswith("hyperideal."))]
        for span, (module_name, attr) in SPANS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original, UNITS.get(span))
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._sites.append((module, key, original, wrapper))

    def install(self):
        for module, key, _, wrapper in self._sites:
            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original, _ in self._sites:
            setattr(module, key, original)

    def begin_op(self, op):
        self._op = op

    def _wrap(self, span, fn, units):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [self._op, len(self.spans), self._stack[-1][1] if self._stack else None,
                      span, time.perf_counter(), None, 0]
            self.spans.append(record)
            self._stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                self._stack.pop()
            if units is not None:
                record[6] = units(args, result)
            return result

        return traced


def layer_metrics(spans, ops):
    """Per-op self seconds, calls and units of each layer metric, as
    ``{metric: [value per op in ops]}``; a span never seen contributes 0."""
    child = {}
    for op, _, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    per_op = {op: {} for op in ops}
    for op, sid, _, name, t0, t1, units in spans:
        if op not in per_op:  # an op that failed
            continue
        acc = per_op[op].setdefault(name, [0.0, 0, 0])
        acc[0] += (t1 - t0) - child.get(sid, 0.0)
        acc[1] += 1
        acc[2] += units
    field = {"self": 0, "calls": 1, "units": 2}
    return {
        metric: [sum(per_op[op].get(name, (0.0, 0, 0))[field[kind]] for name in names) for op in ops]
        for metric, (_, names, kind) in LAYER_METRICS.items()
    }
