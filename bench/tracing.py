"""Per-layer tracing from outside quadft.

Each traced target is a module-level function of quadft.  `Tracer.install`
replaces every module attribute that refers to it (the defining module and
every module that imported it by name, such as `_branch` in both
`quadft.gauss` and `quadft.universal`) by a wrapper that records a span.  A
span's self time is its duration minus the durations of the spans it caused.
Spans are aggregated in memory as they close: per target, the calls, the self
time, the calls it made to every other target, and target-specific counts read
from the return value.

A target that a later version of quadft removes or renames is reported in
`Tracer.absent` and its metrics read 0; it is never an error.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# (span name, module, attribute)
TARGETS = (
    ("universal.universal_minimum", "quadft.universal", "universal_minimum"),
    ("universal.absorbing_xg", "quadft.universal", "absorbing_xg"),
    ("universal.weights_for_storage", "quadft.universal", "weights_for_storage"),
    ("universal.evolve", "quadft.universal", "evolve"),
    ("gauss._branch", "quadft.gauss", "_branch"),
    ("gauss.solve_gauss_tree", "quadft.gauss", "solve_gauss_tree"),
    ("fermat.locate_4wft", "quadft.fermat", "locate_4wft"),
    ("fermat.classify_case", "quadft.fermat", "classify_case"),
    ("fermat._weiszfeld_full", "quadft.fermat", "_weiszfeld_full"),
    ("fermat._damped_newton", "quadft.fermat", "_damped_newton"),
    ("fermat.solve_4wft_square", "quadft.fermat", "solve_4wft_square"),
    ("plasticity.plasticity_line", "quadft.plasticity", "plasticity_line"),
    ("plasticity.verify_plasticity", "quadft.plasticity", "verify_plasticity"),
    ("documents.parse_problem_document", "quadft.documents", "parse_problem_document"),
    ("documents.record_to_json", "quadft.documents", "record_to_json"),
    ("svgplot.level_curve_loops", "quadft.svgplot", "level_curve_loops"),
    ("svgplot.render_scene", "quadft.svgplot", "render_scene"),
)

PATCHED_MODULES = (
    "quadft", "quadft.geometry", "quadft.fermat", "quadft.gauss", "quadft.plasticity",
    "quadft.universal", "quadft.documents", "quadft.svgplot", "quadft.cli",
)

CLI_SUBCOMMANDS = ("wft-triangle", "wft-quad", "gauss", "plasticity", "universal",
                   "evolve", "plot")


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _iterations(name, out, exc):
    """Iterations a call reports: Weiszfeld returns (point, iterations,
    residual); Newton returns (x, norm, trace) or raises with a trace."""
    if name == "fermat._weiszfeld_full" and out is not None:
        return out[1]
    if name == "fermat._damped_newton":
        trace = out[2] if out is not None else getattr(exc, "trace", None)
        return max(len(trace) - 1, 0) if trace else 0
    return 0


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_raw = defaultdict(float)
        self.nested = defaultdict(int)       # (ancestor, descendant) -> calls
        self.iterations = defaultdict(int)
        self.iterated_calls = defaultdict(int)
        self.skipped = 0
        self.absent: list[str] = []
        self._stack: list[list] = []         # [name, child seconds]
        self._restore: list[tuple] = []

    # -------------------------------------------------------------- spans
    def _enter(self, name):
        for anc in {frame[0] for frame in self._stack}:
            self.nested[(anc, name)] += 1
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, frame, t0):
        dt = time.perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dt
        name = frame[0]
        self.calls[name] += 1
        self.self_raw[name] += dt - frame[1]

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        frame, t0 = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, t0)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            frame, t0 = self._enter(name)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as error:
                exc = error
                raise
            finally:
                self._exit(frame, t0)
                if name in ("fermat._weiszfeld_full", "fermat._damped_newton"):
                    self.iterations[name] += _iterations(name, out, exc)
                    self.iterated_calls[name] += 1
                elif name == "universal.universal_minimum" and out is not None:
                    self.skipped += len(out.skipped)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for m in map(_module, PATCHED_MODULES) if m is not None]
        for name, module, attr in TARGETS:
            original = getattr(_module(module), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def snapshot(self) -> dict:
        return dict(self.self_raw)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, ops: int, self_s: dict, op_times: list,
                      imports: dict) -> tuple[dict, list]:
    """Per-layer metrics from a traced run, and the bases of its ratios.

    `self_s` maps span name to self time in reference seconds summed over the
    run; per-operation figures divide by `ops`.
    """
    c, n = tr.calls, tr.nested
    um, axg, wfs = ("universal.universal_minimum", "universal.absorbing_xg",
                    "universal.weights_for_storage")
    loc, ver = "fermat.locate_4wft", "plasticity.verify_plasticity"
    wz, nt = "fermat._weiszfeld_full", "fermat._damped_newton"

    def per_op(value):
        return _ratio(value, ops)

    m = {
        "trace.ops": (ops, "count"),
        "trace.op_s_p50": (statistics.median(op_times) if op_times else 0.0, "s"),
        f"{um}.calls": (per_op(c[um]), "count"),
        f"{axg}.calls": (per_op(c[axg]), "count"),
        f"{axg}.calls_per_minimum": (_ratio(n[(um, axg)], c[um]), "count"),
        "universal.skipped_samples": (_ratio(tr.skipped, c[um]), "count"),
        f"{wfs}.calls": (per_op(c[wfs]), "count"),
        f"{wfs}.absorbing_xg_calls": (_ratio(n[(wfs, axg)], c[wfs]), "count"),
        "gauss._branch.calls": (per_op(c["gauss._branch"]), "count"),
        "gauss._branch.calls_per_absorbing_xg":
            (_ratio(n[(axg, "gauss._branch")], c[axg]), "count"),
        "gauss.solve_gauss_tree.calls": (per_op(c["gauss.solve_gauss_tree"]), "count"),
        f"{loc}.calls": (per_op(c[loc]), "count"),
        "fermat.classify_case.calls_per_locate":
            (_ratio(n[(loc, "fermat.classify_case")], c[loc]), "count"),
        f"{wz}.calls_per_locate": (_ratio(n[(loc, wz)], c[loc]), "count"),
        f"{wz}.iterations": (_ratio(tr.iterations[wz], tr.iterated_calls[wz]), "count"),
        f"{nt}.iterations": (_ratio(tr.iterations[nt], tr.iterated_calls[nt]), "count"),
        f"{ver}.calls": (per_op(c[ver]), "count"),
        f"{ver}.locate_calls": (_ratio(n[(ver, loc)], c[ver]), "count"),
    }
    for name, _, _ in TARGETS:
        m[f"{name}.self_s"] = (per_op(self_s.get(name, 0.0)), "s")
    for sub in CLI_SUBCOMMANDS:
        key = f"cli.{sub}"
        m[f"{key}.self_s"] = (_ratio(self_s.get(key, 0.0), c[key]), "s")
    for key in ("quadft", "scipy", "numpy"):
        m[f"import.{key}_s"] = (imports.get(key, 0.0), "s")
    bases = [
        ("trace.ops", ops, "operations traced"),
        (f"{um}.*", c[um], "universal_minimum calls"),
        (f"{axg}.calls_per_minimum", n[(um, axg)], "absorbing_xg calls inside universal_minimum"),
        (f"{wfs}.absorbing_xg_calls", n[(wfs, axg)], "absorbing_xg calls inside weights_for_storage"),
        ("gauss._branch.calls_per_absorbing_xg", c[axg], "absorbing_xg calls"),
        ("fermat.*_per_locate", c[loc], "locate_4wft calls"),
        (f"{wz}.iterations", tr.iterated_calls[wz], "_weiszfeld_full calls"),
        (f"{nt}.iterations", tr.iterated_calls[nt], "_damped_newton calls"),
        (f"{ver}.locate_calls", c[ver], "verify_plasticity calls"),
    ] + [(f"cli.{sub}.self_s", c[f"cli.{sub}"], f"{sub} calls") for sub in CLI_SUBCOMMANDS]
    return m, bases


def parse_importtime(stderr: str) -> dict:
    """Seconds per package from `python -X importtime` output: quadft is the
    cumulative time of its top-level imports, numpy and scipy the summed self
    time of their modules."""
    out = {"quadft": 0.0, "numpy": 0.0, "scipy": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cum_us, label = int(fields[0]), int(fields[1]), fields[2]
        name = label.strip()
        top = name.split(".")[0]
        level = (len(label) - len(label.lstrip()) - 1) // 2
        if top == "quadft" and level == 0:
            out["quadft"] += cum_us * 1e-6
        elif top in ("numpy", "scipy"):
            out[top] += self_us * 1e-6
    return out
