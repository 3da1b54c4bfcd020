"""Spans and probes recorded from outside the program.

The benchmark never edits ``vppdispatch``: it swaps the public functions the
controller calls for thin wrappers while a run is in progress and puts the
originals back afterwards.  Two levels exist:

* the untraced probe wraps only ``Simulator.step`` (to time the decision
  intervals) and ``solve_lp`` (to count re-plans and failures and to keep a
  sample of programs for the HiGHS check), a counter and two clock reads
  per call;
* the traced run wraps every layer boundary and records a span per call,
  with its parent, so that nested work (predict calls inside a fine-tune,
  for instance) can be attributed to the caller.

Spans stay in memory and are written out once the run has ended.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vppdispatch.controller as controller_mod
import vppdispatch.forecast.training as training_mod
from vppdispatch.controller import ModelProvider
from vppdispatch.simulator import Simulator

# layer boundaries as vppdispatch.controller imports them
CONTROLLER_FUNCTIONS = (
    "train", "predict", "estimate_variance", "apply_update", "sample_scenarios",
    "build_stochastic", "build_deterministic", "solve_lp", "extract_plan",
)
LAYER_UNITS = {
    "forecast.train_s": "s",
    "forecast.predict_calls": "count",
    "forecast.predict_ms": "ms",
    "forecast.update_s": "s",
    "forecast.estimate_variance_s": "s",
    "forecast.finetune_events": "count",
    "forecast.finetune_predict_calls": "count",
    "scenario.sample_ms": "ms",
    "dispatch.build_ms": "ms",
    "dispatch.lp_rows": "count",
    "dispatch.lp_nnz": "count",
    "simplex.solve_ms": "ms",
    "simplex.iterations": "count",
    "simplex.solves": "count",
    "dispatch.extract_ms": "ms",
    "simulator.step_us": "us",
    "controller.self_ms": "ms",
}

SAMPLE_EVERY = 24  # keep every 24th program (plus the first) for the HiGHS re-solve


@dataclass
class SampledProgram:
    """What the HiGHS check needs from one solved program."""

    index: int
    c: np.ndarray
    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray
    row_lo: np.ndarray
    row_up: np.ndarray
    col_lo: np.ndarray
    col_up: np.ndarray
    status: str
    x: np.ndarray
    objective: float


@dataclass
class Span:
    sid: int
    parent: int  # -1 for a root span
    name: str
    phase: str
    t0: float
    t1: float
    info: dict

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class Recorder:
    traced: bool
    phase: str = "setup"
    # Simulator.step entry times per episode, on the wall clock (which the
    # spans use) and on the process CPU clock (which the end-to-end
    # metrics use)
    step_entries: list[list[float]] = field(default_factory=list)
    step_cpu: list[list[float]] = field(default_factory=list)
    solves: int = 0
    failed_solves: int = 0
    iterations: int = 0
    programs: list[SampledProgram] = field(default_factory=list)
    spans: list[Span | None] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def begin_episode(self) -> None:
        self.phase = f"episode{len(self.step_entries)}"
        self.step_entries.append([])
        self.step_cpu.append([])

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn, info=None):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(sid, parent, name, self.phase, t0, t1, info(out) if info and out is not None else {})

        return wrapper

    def _step_probe(self, fn):
        def step(sim, actions):
            self.step_entries[-1].append(time.perf_counter())
            self.step_cpu[-1].append(time.process_time())
            return fn(sim, actions)

        return step

    def _solve_probe(self, fn):
        def solve_lp(lp, options=None):
            solution = fn(lp, options)
            self.iterations += solution.iterations
            if solution.status != "optimal":
                self.failed_solves += 1
            if self.solves % SAMPLE_EVERY == 0:
                self.programs.append(SampledProgram(
                    self.solves, lp.c, lp.a_rows, lp.a_cols, lp.a_vals, lp.row_lo, lp.row_up,
                    lp.col_lo, lp.col_up, solution.status, solution.x, solution.objective,
                ))
            self.solves += 1
            return solution

        return solve_lp

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr, new):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        solve = self._solve_probe(controller_mod.solve_lp)
        if self.traced:
            lp_size = lambda lp: {"rows": lp.n_rows, "nnz": int(lp.a_vals.size)}
            infos = {
                "build_stochastic": lp_size,
                "build_deterministic": lp_size,
                "solve_lp": lambda s: {"iterations": s.iterations, "status": s.status},
            }
            for name in CONTROLLER_FUNCTIONS:
                original = solve if name == "solve_lp" else getattr(controller_mod, name)
                patch(controller_mod, name, self._span(name, original, infos.get(name)))
            # estimate_variance reaches predict through its own module
            patch(training_mod, "predict", self._span("predict", training_mod.predict))
            # the interval clock reads before the step's span opens, so each
            # step span falls inside the interval that it starts
            patch(Simulator, "step", self._step_probe(self._span("Simulator.step", Simulator.step)))
            patch(ModelProvider, "maybe_finetune", self._span(
                "maybe_finetune", ModelProvider.maybe_finetune, lambda s: {"event": True},
            ))
        else:
            patch(controller_mod, "solve_lp", solve)
            patch(Simulator, "step", self._step_probe(Simulator.step))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def decision_intervals(self, cpu: bool) -> np.ndarray:
        """Seconds between successive actions handed to the simulator, all episodes."""
        entries = self.step_cpu if cpu else self.step_entries
        return np.concatenate([np.diff(np.asarray(e)) for e in entries])

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "name": s.name, "phase": s.phase,
                    "start": s.t0, "end": s.t1, **s.info,
                }) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the traced run (see README for each one's meaning)."""
        spans = [s for s in self.spans if s is not None]
        episodes = max(len(self.step_entries), 1)
        in_ft = {}
        for s in spans:  # parents start before children, so one pass resolves ancestry
            in_ft[s.sid] = s.name == "maybe_finetune" or in_ft.get(s.parent, False)
        run = [s for s in spans if s.phase != "setup"]

        def pick(*names, finetune=None):
            return [s for s in run if s.name in names and (finetune is None or in_ft[s.sid] == finetune)]

        def total(items) -> float:
            return float(sum(s.seconds for s in items))

        def mean_info(items, key) -> float:
            return float(np.mean([s.info[key] for s in items])) if items else 0.0

        solves = pick("solve_lp")
        replans = max(len(solves), 1)
        builds = pick("build_stochastic", "build_deterministic")
        inference = pick("predict", finetune=False)
        steps = pick("Simulator.step")

        # controller self time: each decision interval minus the root spans
        # that start inside it (spans are stored in start order)
        roots = [s for s in run if s.parent == -1]
        starts = np.array([s.t0 for s in roots])
        covered = np.concatenate([[0.0], np.cumsum([s.seconds for s in roots])])
        self_times = []
        for entries in self.step_entries:
            e = np.asarray(entries)
            idx = np.searchsorted(starts, e)
            self_times.extend(np.diff(e) - np.diff(covered[idx]))

        return {
            "forecast.train_s": total(s for s in spans if s.phase == "setup" and s.name == "train"),
            "forecast.predict_calls": len(inference) / episodes,
            "forecast.predict_ms": 1e3 * total(inference) / replans,
            "forecast.update_s": total(pick("apply_update")) / episodes,
            "forecast.estimate_variance_s": total(pick("estimate_variance")) / episodes,
            "forecast.finetune_events": sum(bool(s.info) for s in pick("maybe_finetune")) / episodes,
            "forecast.finetune_predict_calls": len(pick("predict", finetune=True)) / episodes,
            "scenario.sample_ms": 1e3 * total(pick("sample_scenarios")) / replans,
            "dispatch.build_ms": 1e3 * total(builds) / replans,
            "dispatch.lp_rows": mean_info(builds, "rows"),
            "dispatch.lp_nnz": mean_info(builds, "nnz"),
            "simplex.solve_ms": 1e3 * total(solves) / replans,
            "simplex.iterations": mean_info(solves, "iterations"),
            "simplex.solves": len(solves) / episodes,
            "dispatch.extract_ms": 1e3 * total(pick("extract_plan")) / replans,
            "simulator.step_us": 1e6 * total(steps) / max(len(steps), 1),
            "controller.self_ms": 1e3 * float(np.mean(self_times)) if self_times else 0.0,
        }
