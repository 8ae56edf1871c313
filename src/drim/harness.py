"""Experiment harness: specs, policy management, sweeps, timing, CSVs.

An experiment evaluates one (scheme, opinion model, FP strategy) cell, or
a sweep of cells along one axis (TP propagation count, network
observability, or prior belief), as the mean of `runs` independent
episodes. DRL policies are trained on demand and cached as parameter
files keyed by the cell, the training settings and the dataset's bytes;
per-run seeds derive from the master seed and the cell's `COORDINATES`,
so any spec re-run reproduces its result CSVs byte for byte
(wall-clock timings live in a separate file). Per-run wave-kernel
counters go to `counters.csv`, which is byte-reproducible too. Every
result CSV leads with the `COORDINATES` columns, and `results.csv` has
one column per `ResultRow` field. `ExperimentSpec` is the one place
that turns sweep points into their axis's type.

A cell's runs are split into one contiguous batch per worker process
(`worker_count()` bounds them), and each batch runs its episodes in
lockstep (`propagation.run_lockstep`). The harness builds no planning
view: each episode picks its own, and at p_nv = 1 that view is the graph
itself (`network.full_view`), so every episode on the graph, in every
cell and training run, shares its cached degrees and 2-hop counts.
Every result CSV is written atomically.

The process pool is the only parallelism: every pooled map and every
training run holds each loaded OpenBLAS at one thread, and starts any
loaded later (scipy's, with the first C-STORM agent) at one thread
(`single_thread_blas`), so workers do not oversubscribe the cores and a
trained policy's bytes do not depend on the core count (OpenBLAS only;
other BLAS libraries are left as they are).
"""

from __future__ import annotations

import copy
import csv
import ctypes
import hashlib
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from drim.baselines import make_scheme_agent
from drim.datasets import load_urv_email, urv_email_path
from drim.network import Graph, load_edge_list
from drim.network import full_view  # noqa: F401  (re-exported; perfbench's tracer rebinds it)
from drim.opinion import TrustModel, TrustVariant
from drim.propagation import (
    DRAW_CONTRACT,
    Episode,
    EpisodeConfig,
    RoundLog,
    WaveCounters,
    run_episode,
    run_lockstep,
)
from drim.rl import (
    PolicyAgent,
    PPOConfig,
    TrainResult,
    atomic_write,
    load_params,
    save_params,
    train_agent,
)
from drim.strategies import Agent, Scheme, action_space, make_heuristic_agent

FP_STRATEGIES = ("random", "af", "bf", "sgf", "cf", "drl")
OPINION_MODELS = ("uom", "hom", "nom")

SWEEP_DEFAULTS = {
    "ip": (1, 2, 3, 4, 5),
    "p_nv": (0.2, 0.4, 0.6, 0.8, 1.0),
    "prior_a": (0.1, 0.3, 0.5, 0.7, 0.9),
}
# The EpisodeConfig field each sweep axis sets.
_SWEEP_FIELDS = {"ip": "p_t", "p_nv": "p_nv", "prior_a": "prior_a"}

# The columns that name a cell; they lead every result CSV.
COORDINATES = ("scheme", "opinion_model", "fp_strategy", "sweep_axis", "sweep_value")

WORKER_ENV_VAR = "DRIM_WORKERS"


def trust_model(name: str) -> TrustModel:
    return TrustModel(TrustVariant(name))


@dataclass
class ExperimentSpec:
    """One experiment cell or sweep, plus its training configuration."""

    scheme: Scheme = Scheme.DRIM_A
    opinion_model: str = "uom"
    fp_strategy: str = "cf"
    runs: int = 20
    sweep_axis: str | None = None
    sweep_values: tuple | None = None
    dataset: str | Path | None = None
    out_dir: Path = Path("results")
    policy_dir: Path | None = None
    master_seed: int = 0
    k: int = 50
    p_t: int = 2
    p_f: int = 1
    p_nv: float = 1.0
    prior_a: float = 0.5
    auto_train: bool = True
    ppo: PPOConfig = field(default_factory=PPOConfig)

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.opinion_model not in OPINION_MODELS:
            raise ValueError(f"unknown opinion model {self.opinion_model!r}")
        if self.fp_strategy not in FP_STRATEGIES:
            raise ValueError(f"unknown FP strategy {self.fp_strategy!r}")
        if self.sweep_axis is None:
            if self.sweep_values is not None:
                raise ValueError(f"sweep_values {self.sweep_values!r} given without a sweep_axis")
        else:
            if self.sweep_axis not in SWEEP_DEFAULTS:
                raise ValueError(f"unknown sweep axis {self.sweep_axis!r}")
            if self.sweep_values is None:
                self.sweep_values = SWEEP_DEFAULTS[self.sweep_axis]
            if not self.sweep_values:
                raise ValueError("sweep grid must be nonempty")
            self.sweep_values = tuple(self._sweep_point(v) for v in self.sweep_values)
        for value in self.sweep_values or (None,):
            self.episode_config(value)  # rejects a bad scenario before anything runs
        self.out_dir = Path(self.out_dir)
        if self.policy_dir is None:
            self.policy_dir = self.out_dir / "policies"
        self.policy_dir = Path(self.policy_dir)

    def _sweep_point(self, value) -> int | float:
        """A sweep point (number or text) as its axis's type: a whole
        number for ip, a float otherwise."""
        number = float(value)
        if self.sweep_axis != "ip":
            return number
        if not number.is_integer():
            raise ValueError(f"ip sweep points must be whole numbers, got {value!r}")
        return int(number)

    def episode_config(self, sweep_value=None) -> EpisodeConfig:
        cfg = EpisodeConfig(
            k=self.k,
            p_t=self.p_t,
            p_f=self.p_f,
            opinion_model=trust_model(self.opinion_model),
            p_nv=self.p_nv,
            prior_a=self.prior_a,
        )
        if sweep_value is None:
            return cfg
        return replace(cfg, **{_SWEEP_FIELDS[self.sweep_axis]: sweep_value})

    def coordinates(self, scheme: Scheme | None = None, fp: str | None = None, sweep_value=None):
        """A cell's values of `COORDINATES`."""
        return (
            (scheme or self.scheme).value,
            self.opinion_model,
            fp or self.fp_strategy,
            self.sweep_axis or "none",
            "none" if sweep_value is None else f"{sweep_value:g}",
        )


@dataclass
class ResultRow:
    """Aggregated metrics for one experiment cell, led by its
    `COORDINATES`; results.csv has one column per field, in order."""

    scheme: str
    opinion_model: str
    fp_strategy: str
    sweep_axis: str
    sweep_value: str
    runs: int
    mean_n_true: float
    std_n_true: float
    mean_n_false: float
    mean_decided_n_true: float

    def csv_values(self) -> list[str]:
        """Each field as text; the float means to 4 decimals."""
        return [f"{getattr(self, name):.4f}" if kind is float else str(getattr(self, name))
                for name, kind in get_type_hints(ResultRow).items()]


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and a coordinate tuple."""
    text = "|".join([str(master_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def worker_count(workers: int | None = None) -> int:
    """Worker processes: `workers` if given, else `DRIM_WORKERS` if set,
    else min(CPUs this process may run on, 4)."""
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers={workers!r} is not an integer >= 1")
        return workers
    env = os.environ.get(WORKER_ENV_VAR)
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{WORKER_ENV_VAR}={env!r} is not an integer >= 1")
        return workers
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, 4))


# (get, set) thread-count symbols of numpy's OpenBLAS wheel, scipy's
# (the one ARPACK calls) and a system build.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# Read by an OpenBLAS when it loads.
_OPENBLAS_ENV_VAR = "OPENBLAS_NUM_THREADS"


def _openblas_controls() -> list[tuple]:
    """(get, set) ctypes functions of every OpenBLAS loaded in this process;
    empty without /proc or without OpenBLAS (MKL, Accelerate)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    controls = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for get, set_ in _OPENBLAS_SYMBOLS:
            if hasattr(handle, get) and hasattr(handle, set_):
                getter, setter = getattr(handle, get), getattr(handle, set_)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return controls


@contextmanager
def single_thread_blas() -> Iterator[None]:
    """Run the body with every loaded OpenBLAS at one thread, then restore
    the previous counts. The pool is drim's only parallelism, and one BLAS
    thread makes results independent of the core count. Entered in the
    parent so forked workers inherit the count: setting it inside a worker
    starts OpenBLAS's thread server there, so a count already 1 is left as is.

    scipy's OpenBLAS loads late, when a C-STORM agent is first built
    (`baselines.CommunityRestriction`), possibly inside the body or in a
    worker forked in it. So the body also runs with OPENBLAS_NUM_THREADS=1
    in os.environ (inherited by workers; the previous value, or its
    absence, is restored afterwards), and an OpenBLAS first loaded in the
    body reads it: it starts, and is left, at one thread."""
    restore = []
    for getter, setter in _openblas_controls():
        threads = getter()
        if threads != 1:
            setter(1)
            restore.append((setter, threads))
    env = os.environ.get(_OPENBLAS_ENV_VAR)
    os.environ[_OPENBLAS_ENV_VAR] = "1"
    try:
        yield
    finally:
        if env is None:
            del os.environ[_OPENBLAS_ENV_VAR]
        else:
            os.environ[_OPENBLAS_ENV_VAR] = env
        for setter, threads in restore:
            setter(threads)


def _parallel_map(fn, items: list, workers: int | None = None) -> list:
    workers = worker_count(workers)
    with single_thread_blas():
        if workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
            return list(pool.map(fn, items))


def load_graph(spec: ExperimentSpec) -> Graph:
    if spec.dataset is None:
        return load_urv_email()
    return load_edge_list(spec.dataset)


# ----------------------------------------------------------------------
# Policy training & caching
# ----------------------------------------------------------------------

def _policy_tag(spec: ExperimentSpec) -> str:
    """Hash of what determines a policy besides its cell and master seed:
    the PPO and training-episode settings, the edge-list file's bytes
    (the bundled file when the spec names no dataset) and the wave's
    draw-order contract."""
    cfg = spec.episode_config()
    dataset = urv_email_path() if spec.dataset is None else Path(spec.dataset)
    text = "|".join(
        str(x)
        for x in (
            *astuple(spec.ppo),
            cfg.k, cfg.p_t, cfg.p_f, cfg.p_nv, cfg.prior_a,
            hashlib.sha256(dataset.read_bytes()).hexdigest(),
            DRAW_CONTRACT,
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def fp_policy_path(tp_path: Path) -> Path:
    """Where a self-play run keeps the false party's policy beside tp_path."""
    return tp_path.with_name(f"{tp_path.stem}_fp{tp_path.suffix}")


def policy_paths(spec: ExperimentSpec, scheme: Scheme, fp: str) -> tuple[Path, Path | None]:
    stem = f"{scheme.value}_{spec.opinion_model}_vs_{fp}_{_policy_tag(spec)}_s{spec.master_seed}"
    tp = spec.policy_dir / f"{stem}.bin"
    return tp, fp_policy_path(tp) if fp == "drl" else None


def train_policy(spec: ExperimentSpec, scheme: Scheme, fp: str, tp_path: Path) -> TrainResult:
    """Train the true party's policy for one cell and write its artifacts.

    Writes the self-play FP policy (fp == "drl") to `<stem>_fp.bin` and
    the learning curve to `<stem>.curve.csv` before the TP policy, each
    atomically, so an existing TP file means a complete set.
    """
    graph = load_graph(spec)
    cfg = spec.episode_config()
    seed = derive_seed(spec.master_seed, "train", scheme.value, spec.opinion_model, fp)
    with single_thread_blas():
        result = train_agent(scheme, fp, graph, cfg, spec.ppo, seed)
    tp_path.parent.mkdir(parents=True, exist_ok=True)
    if result.opponent_params is not None:
        save_params(result.opponent_params, fp_policy_path(tp_path))
    curve = "".join(f"{u},{r:.4f},{e:.6f}\n" for u, r, e in result.curve)
    with atomic_write(tp_path.with_suffix(".curve.csv")) as fh:
        fh.write(f"update,mean_return,entropy\n{curve}".encode())
    save_params(result.params, tp_path)
    return result


@dataclass
class _TrainTask:
    spec: ExperimentSpec
    scheme: Scheme
    fp: str


def _train_one(task: _TrainTask) -> None:
    tp_path, _ = policy_paths(task.spec, task.scheme, task.fp)
    train_policy(task.spec, task.scheme, task.fp, tp_path)


def _missing_policies(
    spec: ExperimentSpec, cells: list[tuple[Scheme, str]]
) -> list[tuple[Scheme, str, Path]]:
    """(scheme, fp, first missing policy file) of every distinct cell lacking one."""
    missing = {}
    for scheme, fp in cells:
        paths = [path for path in policy_paths(spec, scheme, fp) if path is not None]
        absent = [path for path in paths if not path.exists()]
        if absent:
            missing.setdefault(paths[0], (scheme, fp, absent[0]))
    return list(missing.values())


def ensure_policies(spec: ExperimentSpec, cells: list[tuple[Scheme, str]], workers: int | None = None) -> None:
    """Train (in parallel) any policies the given cells are missing."""
    missing = _missing_policies(spec, cells)
    if missing and not spec.auto_train:
        raise FileNotFoundError(f"missing policy file {missing[0][2]} (auto_train disabled)")
    _parallel_map(_train_one, [_TrainTask(spec, scheme, fp) for scheme, fp, _ in missing], workers)


def load_cell_agents(spec: ExperimentSpec, scheme: Scheme, fp: str) -> tuple[Agent, Agent]:
    """Evaluation agents (tp_agent, fp_agent) for one cell."""
    tp_path, fp_path = policy_paths(spec, scheme, fp)
    params = load_params(tp_path, expected_actions=len(action_space(scheme)))
    tp_agent = make_scheme_agent(scheme, params)
    if fp == "drl":
        fp_params = load_params(fp_path, expected_actions=len(action_space(Scheme.DRIM_A)))
        fp_agent = PolicyAgent(fp_params, action_space(Scheme.DRIM_A))
    else:
        fp_agent = make_heuristic_agent(fp)
    return tp_agent, fp_agent


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

@dataclass
class _EvalTask:
    """One worker's share of a cell: its runs' configs, in run order."""

    graph: Graph
    cfgs: list[EpisodeConfig]
    tp_agent: Agent
    fp_agent: Agent


def _run_eval(task: _EvalTask) -> list[tuple[dict[str, float], float, WaveCounters]]:
    """Run the task's episodes in lockstep, each with its own copies of
    the cell's agents. A lockstep episode has no wall clock of its own,
    so each is timed as the batch's wall clock over the batch size."""
    start = time.perf_counter()
    episodes = [Episode(task.graph, cfg) for cfg in task.cfgs]
    agents = [(copy.deepcopy(task.tp_agent), copy.deepcopy(task.fp_agent)) for _ in episodes]
    run_lockstep(episodes, agents)
    seconds = (time.perf_counter() - start) / len(episodes)
    return [(ep.final_metrics(), seconds, ep.counters) for ep in episodes]


def run_cell(
    spec: ExperimentSpec,
    graph: Graph,
    scheme: Scheme,
    fp: str,
    sweep_value=None,
    workers: int | None = None,
) -> tuple[ResultRow, list[dict], list[float]]:
    """Evaluate one cell: `spec.runs` episodes with derived seeds, split
    into one contiguous lockstep batch per worker."""
    cfg = spec.episode_config(sweep_value)
    tp_agent, fp_agent = load_cell_agents(spec, scheme, fp)
    coords = spec.coordinates(scheme, fp, sweep_value)
    workers = worker_count(workers)
    cfgs = [cfg.with_seed(derive_seed(spec.master_seed, *coords, run)) for run in range(spec.runs)]
    tasks = [
        _EvalTask(graph, [cfgs[run] for run in batch], tp_agent, fp_agent)
        for batch in np.array_split(np.arange(spec.runs), min(workers, spec.runs))
    ]
    outcomes = [o for batch in _parallel_map(_run_eval, tasks, workers) for o in batch]
    metrics = [m for m, _, _ in outcomes]
    seconds = [s for _, s, _ in outcomes]
    n_true = np.array([m["n_true"] for m in metrics])
    decided = np.array([m["decided_n_true"] for m in metrics])
    n_false = np.array([m["n_false"] for m in metrics])
    row = ResultRow(
        *coords,
        runs=spec.runs,
        mean_n_true=float(n_true.mean()),
        std_n_true=float(n_true.std()),
        mean_n_false=float(n_false.mean()),
        mean_decided_n_true=float(decided.mean()),
    )
    raw = [
        {**dict(zip(COORDINATES, coords)), "run": run, **m, **asdict(counters)}
        for run, (m, _, counters) in enumerate(outcomes)
    ]
    return row, raw, seconds


def run_grid(
    spec: ExperimentSpec,
    schemes: tuple[Scheme, ...] | None = None,
    opinion_models: tuple[str, ...] | None = None,
    fp_strategies: tuple[str, ...] | None = None,
    graph: Graph | None = None,
    workers: int | None = None,
) -> list[ResultRow]:
    """Evaluate a grid of cells sharing the spec's episode and training
    configuration; write combined result CSVs into spec.out_dir.

    Missing policies are trained on the spec's dataset. A caller-supplied
    graph must come with every policy already in place: a ValueError
    naming the first missing file is raised before anything is trained.
    """
    schemes = schemes or (spec.scheme,)
    opinion_models = opinion_models or (spec.opinion_model,)
    fp_strategies = fp_strategies or (spec.fp_strategy,)
    cells = [(s, fp) for s in schemes for fp in fp_strategies]
    if graph is not None:
        for om in opinion_models:
            missing = _missing_policies(replace(spec, opinion_model=om), cells)
            if missing:
                raise ValueError(
                    f"missing policy file {missing[0][2]}: run_grid would train it on the "
                    "spec's dataset, not on the graph passed in; train it first"
                )
    graph = graph if graph is not None else load_graph(spec)
    points = list(spec.sweep_values) if spec.sweep_axis else [None]

    for om in opinion_models:
        ensure_policies(replace(spec, opinion_model=om), cells, workers)

    rows: list[ResultRow] = []
    raw_rows: list[dict] = []
    timing_rows: list[tuple] = []
    for om in opinion_models:
        om_spec = replace(spec, opinion_model=om)
        for scheme in schemes:
            for fp in fp_strategies:
                for point in points:
                    row, raw, seconds = run_cell(om_spec, graph, scheme, fp, point, workers)
                    rows.append(row)
                    raw_rows.extend(raw)
                    coords = om_spec.coordinates(scheme, fp, point)
                    timing_rows.extend((*coords, i, s) for i, s in enumerate(seconds))

    spec.out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(spec.out_dir / "results.csv", rows)
    write_raw_csv(spec.out_dir / "raw_runs.csv", raw_rows)
    write_counters_csv(spec.out_dir / "counters.csv", raw_rows)
    write_timings_csv(spec.out_dir / "timings.csv", timing_rows)
    return rows


# ----------------------------------------------------------------------
# CSV writers / readers
# ----------------------------------------------------------------------

@contextmanager
def _atomic_csv(path: Path) -> Iterator:
    """csv writer on a temp file that `atomic_write` moves onto path
    when the block completes; if it raises, path is left as it was."""
    with atomic_write(path) as fh, io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        yield csv.writer(text, lineterminator="\n")


def write_results_csv(path: Path, rows: list[ResultRow]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with _atomic_csv(path) as writer:
        writer.writerow(f.name for f in fields(ResultRow))
        for row in sorted(rows, key=attrgetter(*COORDINATES)):
            writer.writerow(row.csv_values())


def read_results_csv(path: Path) -> list[ResultRow]:
    types = get_type_hints(ResultRow)
    with open(path, encoding="utf-8", newline="") as fh:
        return [ResultRow(**{name: kind(rec[name]) for name, kind in types.items()})
                for rec in csv.DictReader(fh)]


def write_raw_csv(path: Path, raw_rows: list[dict]) -> None:
    cols = (*COORDINATES, "run", "n_true", "n_false", "decided_n_true", "decided_n_false")
    with _atomic_csv(path) as writer:
        writer.writerow(cols)
        for rec in raw_rows:
            writer.writerow([f"{rec[c]:g}" if isinstance(rec[c], float) else rec[c] for c in cols])


def write_counters_csv(path: Path, raw_rows: list[dict]) -> None:
    """Per-run wave-kernel counters (`WaveCounters`), keyed like raw_runs.csv."""
    cols = (*COORDINATES, "run", *(f.name for f in fields(WaveCounters)))
    with _atomic_csv(path) as writer:
        writer.writerow(cols)
        writer.writerows([rec[c] for c in cols] for rec in raw_rows)


def write_timings_csv(path: Path, timing_rows: list[tuple]) -> None:
    """Per-run seconds: a lockstep batch's wall clock over its batch size."""
    with _atomic_csv(path) as writer:
        writer.writerow((*COORDINATES, "run", "seconds"))
        for rec in timing_rows:
            writer.writerow([*rec[:-1], f"{rec[-1]:.6f}"])


def write_roundlog_csv(path: Path, episode_logs: list[tuple[int, list[RoundLog]]]) -> None:
    """Per-step audit export: episode, t, party, strategy, seed, counts, reward."""
    with _atomic_csv(path) as writer:
        writer.writerow(("episode", "t", "party", "strategy", "seed_id",
                         "n_true", "n_false", "reward"))
        for episode_idx, logs in episode_logs:
            for e in logs:
                writer.writerow((episode_idx, e.t, e.party.value, e.strategy, e.seed,
                                 e.n_true, e.n_false, f"{e.reward:g}"))


# ----------------------------------------------------------------------
# Report layouts
# ----------------------------------------------------------------------

LAYOUTS = ("table1", "fig2", "fig3a", "fig3b", "fig3c", "table2")

_SCHEME_ORDER = ("drim-a", "drim-na", "storm", "cstorm")


def _cell_value(rows, **filters) -> ResultRow:
    matches = [
        r for r in rows
        if all(getattr(r, key) == val for key, val in filters.items())
    ]
    if not matches:
        wanted = ", ".join(f"{k}={v}" for k, v in filters.items())
        raise ValueError(f"missing result cell: {wanted}")
    return matches[0]


def _pivot_results(rows: list[ResultRow], layout: str) -> tuple[list, list[list]]:
    """Header and lines of a results.csv layout: decided true-party counts."""
    lines: list[list] = []
    if layout == "table1":
        header = ["scheme_om"] + list(FP_STRATEGIES)
        for scheme in _SCHEME_ORDER:
            for om in OPINION_MODELS:
                line = [f"{scheme}/{om}"]
                for fp in FP_STRATEGIES:
                    cell = _cell_value(rows, scheme=scheme, opinion_model=om,
                                       fp_strategy=fp, sweep_axis="none")
                    line.append(f"{cell.mean_decided_n_true:.4f}")
                lines.append(line)
    elif layout == "fig2":
        header = ["scheme"] + list(FP_STRATEGIES)
        for scheme in _SCHEME_ORDER:
            line = [scheme]
            for fp in FP_STRATEGIES:
                cell = _cell_value(rows, scheme=scheme, opinion_model="uom",
                                   fp_strategy=fp, sweep_axis="none")
                line.append(f"{cell.mean_decided_n_true:.4f}")
            lines.append(line)
    else:  # fig3a, fig3b, fig3c
        axis = {"fig3a": "ip", "fig3b": "p_nv", "fig3c": "prior_a"}[layout]
        header = [axis] + list(_SCHEME_ORDER)
        values = sorted(
            {r.sweep_value for r in rows if r.sweep_axis == axis},
            key=float,
        )
        if not values:
            raise ValueError(f"missing result cell: sweep_axis={axis}")
        for value in values:
            line = [value]
            for scheme in _SCHEME_ORDER:
                cell = _cell_value(rows, scheme=scheme, sweep_axis=axis, sweep_value=value)
                line.append(f"{cell.mean_decided_n_true:.4f}")
            lines.append(line)
    return header, lines


def emit_report(results_dirs: list[str | Path], layout: str, out_path: Path) -> Path:
    """Pivot the result files of output directories into one layout CSV
    keyed to the experiment grids.

    table2 reads each directory's `bench.csv` (written by `bench_runtime`)
    and reports mean seconds per episode by scheme; the other layouts
    read `results.csv`, and their cells report the decided true-party
    count.
    """
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}")
    if layout == "table2":
        times: dict[str, float] = {}
        for results_dir in results_dirs:
            times.update(_read_bench_csv(Path(results_dir) / "bench.csv"))
        missing = [scheme for scheme in _SCHEME_ORDER if scheme not in times]
        if missing:
            raise ValueError(f"missing result cell: scheme={','.join(missing)}")
        header = ["scheme", "mean_episode_seconds"]
        lines = [[scheme, f"{times[scheme]:.6f}"] for scheme in _SCHEME_ORDER]
    else:
        rows = [row for results_dir in results_dirs
                for row in read_results_csv(Path(results_dir) / "results.csv")]
        header, lines = _pivot_results(rows, layout)

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with _atomic_csv(out_path) as writer:
        writer.writerow(header)
        writer.writerows(lines)
    return out_path


# ----------------------------------------------------------------------
# Runtime benchmark
# ----------------------------------------------------------------------

def bench_runtime(
    spec: ExperimentSpec,
    schemes: tuple[Scheme, ...] = (Scheme.DRIM_A, Scheme.DRIM_NA, Scheme.STORM, Scheme.C_STORM),
    episodes: int = 20,
    workers: int | None = None,
) -> dict[str, float]:
    """Mean wall-clock seconds per evaluation episode for each scheme,
    also written to `bench.csv` in spec.out_dir.

    Runs episodes+1 per scheme in-process, one at a time (no lockstep
    batch), and discards the first (warmup).
    """
    if episodes < 1:
        raise ValueError("bench needs at least one timed episode")
    graph = load_graph(spec)
    ensure_policies(spec, [(s, spec.fp_strategy) for s in schemes], workers)
    cfg = spec.episode_config()
    out: dict[str, float] = {}
    for scheme in schemes:
        tp_agent, fp_agent = load_cell_agents(spec, scheme, spec.fp_strategy)
        times = []
        for run in range(episodes + 1):
            seed = derive_seed(spec.master_seed, "bench", scheme.value, run)
            start = time.perf_counter()
            run_episode(graph, cfg.with_seed(seed), tp_agent, fp_agent)
            times.append(time.perf_counter() - start)
        out[scheme.value] = float(np.mean(times[1:]))
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    with _atomic_csv(spec.out_dir / "bench.csv") as writer:
        writer.writerow(("scheme", "mean_episode_seconds"))
        writer.writerows((scheme, f"{seconds:.6f}") for scheme, seconds in out.items())
    return out


def _read_bench_csv(path: Path) -> dict[str, float]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {rec["scheme"]: float(rec["mean_episode_seconds"]) for rec in csv.DictReader(fh)}
