"""Outside-in tracing of revtherm by wrapping module attributes.

revtherm calls across and within its modules through module globals
(gksl.propagate -> qlinalg.matrix_exp -> eig_general), so replacing a
module attribute with a timing wrapper puts a span on every call to it,
from the CLI handlers and from inside the library alike. Nothing under
src/ changes. Spans live in memory as [name, start, end, parent, scenario]
and are written out once the run ends.

Self time is a span's duration minus the durations of its child spans;
time in an unwrapped function counts toward its nearest wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("qlinalg", "qstate", "compmodel", "compops", "resource", "channels", "gksl", "adiabatic")

# Functions reported by name, per layer. Every other public function and
# constructor of these modules is wrapped too, so library time never
# lands in cli self time; only the qlinalg helpers cheap enough to be hot
# in every layer (as_complex_matrix, hs_norm, tensor, vectorize, ...) stay
# unwrapped, and tensor is counted instead.
NAMED = {
    "qlinalg": ("eig_general", "matrix_exp", "vec_product_map"),
    "gksl": ("build_superoperator", "propagate", "decompose", "cesaro_projector",
             "dephasing_check", "asymptotic_evolution"),
    "qstate": ("check_density_matrix", "von_neumann_entropy", "relative_entropy", "alpha_rre",
               "gibbs_state"),
    "compmodel": ("entropy_decompose", "pinch"),
    "compops": ("implements", "is_reversible", "computational_entropy_delta"),
    "resource": ("thermomaj_curve", "thermomaj_feasible", "second_laws_check",
                 "cto_feasible_general"),
    "channels": ("simulate_reset", "heat_decomposition", "partovi_check", "extract_env_kraus"),
    "adiabatic": ("sweep",),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.scenario = None
        self.open = defaultdict(int)  # open spans per name and per module
        self.n3_sum = 0
        self.defective = 0
        self.builds = defaultdict(int)  # build_superoperator calls per scenario
        self.joint_groups: list[int] = []  # tensor calls per landauer task
        self.gibbs_groups: list[int] = []  # gibbs_state calls per second-laws check
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else None,
                           self.scenario])
        self.stack.append(sid)
        self.open[name] += 1
        self.open[name.split(".")[0]] += 1
        return sid

    def exit(self, sid: int):
        span = self.spans[sid]
        span[2] = perf_counter()
        self.stack.pop()
        self.open[span[0]] -= 1
        self.open[span[0].split(".")[0]] -= 1

    def _wrap(self, name, fn):
        tracer = self
        hook = self._hooks().get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            sid = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            except tracer.defective_error:
                if name == "qlinalg.eig_general":
                    tracer.defective += 1
                raise
            finally:
                tracer.exit(sid)

        return wrapper

    # -- counters recorded where the work happens ------------------------------

    def _hooks(self):
        def eig(args):
            n = len(args[0])
            self.n3_sum += n**3

        def build(args):
            self.builds[self.scenario] += 1

        def reset(args):
            self.joint_groups.append(0)

        def laws(args):
            self.gibbs_groups.append(0)

        def gibbs(args):
            if self.open["resource.second_laws_check"]:
                self.gibbs_groups[-1] += 1

        return {
            "qlinalg.eig_general": eig,
            "gksl.build_superoperator": build,
            "channels.simulate_reset": reset,
            "resource.second_laws_check": laws,
            "qstate.gibbs_state": gibbs,
        }

    def _count_tensor(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.open["channels"] and tracer.joint_groups:
                tracer.joint_groups[-1] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove -------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package):
        self.defective_error = package.errors.NonDiagonalizable
        for mod_name in MODULES:
            mod = getattr(package, mod_name)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{mod_name}.{attr}"
                if inspect.isfunction(obj):
                    if mod_name == "qlinalg" and attr not in NAMED["qlinalg"]:
                        continue
                    self._patch(mod, attr, self._wrap(name, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    hook = "__post_init__" if "__post_init__" in vars(obj) else "__init__"
                    if hook in vars(obj):
                        self._patch(obj, hook, self._wrap(name, vars(obj)[hook]))
        self._patch(package.qlinalg, "tensor", self._count_tensor(package.qlinalg.tensor))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def summary(self, passes: int, scenario_d: dict) -> dict:
        """Per-layer metrics, normalized per pass over the workload.

        scenario_d maps a scenario id to its dimension d (or None).
        """
        selfs = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        module_s = defaultdict(float)
        numeric = wall = 0.0
        for s, own in zip(self.spans, selfs):
            calls[s[0]] += 1
            self_s[s[0]] += own
            module = s[0].split(".")[0]
            module_s[module] += own
            big = (scenario_d[s[4].split(":", 1)[1]] or 0) >= 8
            if big and module in ("gksl", "qlinalg"):
                numeric += own
            if big and s[0] == "cli.main":
                wall += s[2] - s[1]
        m = {}
        for module, fns in NAMED.items():
            for fn in fns:
                name = f"{module}.{fn}"
                m[f"{name}.calls"] = (calls[name] / passes, "count")
                m[f"{name}.self_s"] = (self_s[name] / passes, "s")
        for module in MODULES + ("cli",):
            m[f"{module}.self_s"] = (module_s[module] / passes, "s")
        m["qlinalg.eig_general.defective"] = (self.defective / passes, "count")
        m["qlinalg.eig_general.n3_sum"] = (self.n3_sum / passes, "count")
        m["gksl.builds_per_scenario"] = (max(self.builds.values(), default=0), "count")
        m["qstate.gibbs_per_second_laws"] = (max(self.gibbs_groups, default=0), "count")
        feasible = calls["resource.thermomaj_feasible"]
        m["resource.curves_per_thermo_check"] = (
            calls["resource.thermomaj_curve"] / feasible if feasible else 0, "count")
        m["channels.joint_builds"] = (max(self.joint_groups, default=0), "count")
        m["trace.numeric_share_d8plus"] = (numeric / wall if wall else 0.0, "ratio")
        return m

    def write(self, path: Path):
        with path.open("w") as fh:
            for i, (name, start, end, parent, scenario) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "scenario": scenario}) + "\n")
