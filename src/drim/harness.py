"""Experiment harness: specs, policy management, sweeps, CSVs, reports.

An experiment evaluates one (scheme, opinion model, FP strategy) cell, or
a sweep of cells along one axis (TP propagation count, network
observability, or prior belief), as the mean of `runs` independent
episodes. DRL policies live in one policy store (`policy_paths`), as
parameter files keyed by the cell, the training settings and the
dataset's bytes. `train_policy`, the one training path, writes there,
both for `drim train` and for any policy an evaluation finds missing.
Per-run seeds derive from the master seed and the cell's `COORDINATES`,
so any spec re-run reproduces its result CSVs byte for byte
(wall-clock timings live in a separate file, `timings.csv`, which Table 2
is reported from). Per-run wave-kernel
counters go to `counters.csv`, which is byte-reproducible too. Every
run leaves its batch as one record (its final counts, wave counters and
seconds, stamped by `run_cell` with its coordinates, `run` and `batch`),
and `raw_runs.csv`, `counters.csv` and `timings.csv` each project their
columns from those records. Every result CSV leads with the
`COORDINATES` columns, and `results.csv` has one column per `ResultRow`
field. `ExperimentSpec` is the one place that turns sweep points into
their axis's type.

A cell's runs are split into one contiguous batch per worker process
(`worker_count`: the `workers` argument if given, else min(usable CPUs,
4)), and each batch runs its episodes in lockstep
(`propagation.run_lockstep`). The harness builds no planning view: each
episode picks its own, and at p_nv = 1 that view is the graph itself
(`network.full_view`), so every episode on the graph, in every cell and
training run, shares its cached degrees and 2-hop counts.
Every CSV goes through one writer, `_write_csv`, which writes atomically.

The process pool is the only parallelism: every pooled map and every
training run holds each loaded OpenBLAS at one thread, and starts any
loaded later (scipy's, with the first C-STORM agent) at one thread
(`single_thread_blas`), so workers do not oversubscribe the cores and a
trained policy's bytes do not depend on the core count (OpenBLAS only;
other BLAS libraries are left as they are).
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import io
import multiprocessing
import os
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from numbers import Integral
from operator import attrgetter
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from drim.datasets import load_urv_email, urv_email_path
from drim.network import COMMUNITY_CONTRACT, Graph, load_edge_list
from drim.network import full_view  # noqa: F401  (re-exported; perfbench's tracer rebinds it)
from drim.opinion import TrustModel, TrustVariant
from drim.propagation import (
    DRAW_CONTRACT,
    Episode,
    EpisodeConfig,
    RoundLog,
    WaveCounters,
    run_lockstep,
)
from drim.propagation import run_episode  # noqa: F401  (re-exported; perfbench's tracer rebinds it)
from drim.rl import (
    POLICY_CONTRACT,
    PolicyAgent,
    PPOConfig,
    TrainResult,
    atomic_write,
    load_params,
    make_scheme_agent,
    save_params,
    train_agent,
)
from drim.strategies import Agent, Scheme, StrategyKind, action_space, make_heuristic_agent

FP_STRATEGIES = ("random", *(k.value for k in StrategyKind), "drl")
OPINION_MODELS = tuple(v.value for v in TrustVariant)

SWEEP_DEFAULTS = {
    "ip": (1, 2, 3, 4, 5),
    "p_nv": (0.2, 0.4, 0.6, 0.8, 1.0),
    "prior_a": (0.1, 0.3, 0.5, 0.7, 0.9),
}
# The EpisodeConfig field each sweep axis sets.
_SWEEP_FIELDS = {"ip": "p_t", "p_nv": "p_nv", "prior_a": "prior_a"}

# The columns that name a cell; they lead every result CSV.
COORDINATES = ("scheme", "opinion_model", "fp_strategy", "sweep_axis", "sweep_value")


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
        for name in ("runs", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        self.scheme = Scheme(self.scheme)
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
            seen: dict[str, int | float] = {}
            for value in self.sweep_values:  # two points of one coordinate would share seeds
                text = self.coordinates(sweep_value=value)[-1]
                if text in seen:
                    raise ValueError(f"sweep points {seen[text]!r} and {value!r} "
                                     f"share the coordinate sweep_value={text}")
                seen[text] = value
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
            opinion_model=TrustModel(TrustVariant(self.opinion_model)),
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
    """Worker processes: `workers` if given (a whole number >= 1, not a
    bool), else min(CPUs this process may run on, 4)."""
    if workers is not None:
        if isinstance(workers, bool) or not isinstance(workers, Integral) or workers < 1:
            raise ValueError(f"workers={workers!r} is not an integer >= 1")
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


def _openblas_libraries() -> list[ctypes.CDLL]:
    """Every OpenBLAS loaded in this process; empty without /proc or
    without OpenBLAS (MKL, Accelerate)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    return [ctypes.CDLL(lib) for lib in libs]


def _openblas_controls() -> list[tuple]:
    """(get, set) ctypes functions of every OpenBLAS loaded in this process."""
    controls = []
    for handle in _openblas_libraries():
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


_PR_SET_PDEATHSIG = 1  # prctl option, from <linux/prctl.h>

# On Linux pool workers are forked from the process that maps, whatever the
# interpreter's default start method (forkserver from Python 3.14 on):
# `_exit_with_parent` takes that process for their parent, and
# `single_thread_blas` relies on workers inheriting its BLAS setting.
_POOL_CONTEXT = multiprocessing.get_context("fork") if sys.platform == "linux" else None


def _exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: on Linux, have the kernel SIGKILL this
    worker when its parent dies, and exit at once if the parent died
    before that took effect (the worker was then reparented). On other
    platforms it does nothing, and a killed parent may leave its
    workers behind."""
    if sys.platform != "linux":
        return
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:
        os._exit(1)


def _parallel_map(fn, calls: list[tuple], workers: int | None = None) -> list:
    """fn(*args) for each argument tuple in calls, in order. Pool workers
    are forked on Linux (`_POOL_CONTEXT`) and exit with a killed parent
    (`_exit_with_parent`)."""
    workers = worker_count(workers)
    with single_thread_blas():
        if workers <= 1 or len(calls) <= 1:
            return [fn(*args) for args in calls]
        with ProcessPoolExecutor(max_workers=min(workers, len(calls)),
                                 mp_context=_POOL_CONTEXT,
                                 initializer=_exit_with_parent,
                                 initargs=(os.getpid(),)) as pool:
            return list(pool.map(fn, *zip(*calls)))


class MissingPolicy(FileNotFoundError):
    """A policy file an evaluation needs is missing, and auto_train is off."""


class UnplayableSpec(ValueError):
    """The spec cannot be played: its dataset does not load, its game does
    not fit its graph, its output or policy directory is a file or lies
    under one, or a policy file in its store does not load."""


def load_graph(spec: ExperimentSpec) -> Graph:
    """The spec's graph; a dataset that does not load is `UnplayableSpec`."""
    if spec.dataset is None:
        return load_urv_email()
    try:
        return load_edge_list(spec.dataset)
    except (OSError, ValueError) as exc:
        raise UnplayableSpec(f"--dataset {spec.dataset}: {exc}") from exc


def check_playable(spec: ExperimentSpec, graph: Graph, fps: tuple[str, ...]) -> None:
    """The one gate before `train_policy` or `run_grid` trains or writes:
    raise `UnplayableSpec` unless the graph holds the 2·k users that k rounds
    seed, if fps holds "drl", self-play can split `updates`, and the output
    and policy directories are, or can be made, directories."""
    for flag, path in (("--out", spec.out_dir), ("--policies", spec.policy_dir)):
        existing = next((p for p in (path, *path.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise UnplayableSpec(f"{flag} {path}: {existing} is not a directory")
    if 2 * spec.k > graph.n:
        raise UnplayableSpec(f"--k {spec.k}: k rounds seed 2·k = {2 * spec.k} users, "
                             f"but the graph has only n={graph.n}")
    if "drl" in fps:
        try:
            spec.ppo.side_updates()
        except ValueError as exc:
            raise UnplayableSpec(f"--updates {spec.ppo.updates}: self-play cannot split it evenly"
                                 f" over 2 sides × {spec.ppo.selfplay_alternations} alternation(s)"
                                 ) from exc


# ----------------------------------------------------------------------
# Policy training & caching
# ----------------------------------------------------------------------

def _policy_tag(spec: ExperimentSpec, *contracts: str) -> str:
    """Hash of what determines a policy besides its cell and master seed:
    the PPO and training-episode settings, the edge-list file's bytes
    (the bundled file when the spec names no dataset), the wave's
    draw-order contract, the learner's `POLICY_CONTRACT` and the
    scheme's own `contracts`, if any."""
    cfg = spec.episode_config()
    dataset = urv_email_path() if spec.dataset is None else Path(spec.dataset)
    text = "|".join(
        str(x)
        for x in (
            *astuple(spec.ppo),
            cfg.k, cfg.p_t, cfg.p_f, cfg.p_nv, cfg.prior_a,
            hashlib.sha256(dataset.read_bytes()).hexdigest(),
            DRAW_CONTRACT,
            POLICY_CONTRACT,
            *contracts,
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def policy_paths(spec: ExperimentSpec, scheme: Scheme, fp: str) -> tuple[Path, Path | None]:
    """Where the policy store keeps a cell's TP policy and, for self-play
    (fp == "drl"), the false party's policy beside it. C-STORM's tag
    also hashes its community labels' contract, so changing them moves
    only C-STORM's policies."""
    tag = _policy_tag(spec, *([COMMUNITY_CONTRACT] if scheme is Scheme.C_STORM else []))
    stem = f"{scheme.value}_{spec.opinion_model}_vs_{fp}_{tag}_s{spec.master_seed}"
    tp = spec.policy_dir / f"{stem}.bin"
    return tp, tp.with_name(f"{stem}_fp.bin") if fp == "drl" else None


def train_policy(spec: ExperimentSpec, scheme: Scheme, fp: str) -> TrainResult:
    """Train the true party's policy for one cell into the policy store.

    Writes the self-play FP policy (fp == "drl") and the learning curve
    (`<stem>.curve.csv`) before the TP policy, at `policy_paths`, each
    atomically, so an existing TP file means a complete set.
    """
    graph = load_graph(spec)
    check_playable(spec, graph, (fp,))
    cfg = spec.episode_config()
    seed = derive_seed(spec.master_seed, "train", scheme.value, spec.opinion_model, fp)
    with single_thread_blas():
        result = train_agent(scheme, fp, graph, cfg, spec.ppo, seed)
    tp_path, fp_path = policy_paths(spec, scheme, fp)
    tp_path.parent.mkdir(parents=True, exist_ok=True)
    if fp_path is not None:
        save_params(result.opponent_params, fp_path)
    _write_csv(tp_path.with_suffix(".curve.csv"), ("update", "mean_return", "entropy"),
               ((u, f"{r:.4f}", f"{e:.6f}") for u, (r, e) in enumerate(result.curve)))
    save_params(result.params, tp_path)
    return result


def ensure_policies(spec: ExperimentSpec, cells: list[tuple[Scheme, str]], workers: int | None = None) -> None:
    """Train (in parallel) any policies the given cells are missing; with
    auto_train off, the first missing file is `MissingPolicy`."""
    missing = {}
    for scheme, fp in cells:
        paths = [path for path in policy_paths(spec, scheme, fp) if path is not None]
        absent = [path for path in paths if not path.exists()]
        if absent and not spec.auto_train:
            raise MissingPolicy(f"missing policy file {absent[0]} (auto_train disabled)")
        if absent:
            missing.setdefault(paths[0], (spec, scheme, fp))
    _parallel_map(train_policy, list(missing.values()), workers)


def load_cell_agents(spec: ExperimentSpec, scheme: Scheme, fp: str) -> tuple[Agent, Agent]:
    """Evaluation agents (tp_agent, fp_agent) for one cell; a policy file
    that does not load is `UnplayableSpec`, as a bad `--dataset` is."""
    tp_path, fp_path = policy_paths(spec, scheme, fp)
    try:
        params = load_params(tp_path, expected_actions=len(action_space(scheme)))
        fp_params = None if fp_path is None else load_params(
            fp_path, expected_actions=len(action_space(Scheme.DRIM_A)))
    except ValueError as exc:
        raise UnplayableSpec(f"--policies {spec.policy_dir}: {exc}") from exc
    tp_agent = make_scheme_agent(scheme, params)
    if fp_params is None:
        fp_agent = make_heuristic_agent(fp)
    else:
        fp_agent = PolicyAgent(fp_params, action_space(Scheme.DRIM_A))
    return tp_agent, fp_agent


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def _run_eval(graph: Graph, cfgs: list[EpisodeConfig], tp_agent: Agent,
              fp_agent: Agent) -> list[dict]:
    """Run one batch of episodes in lockstep, the cell's one agent per
    party playing every episode, and return one record per episode: its
    final counts, wave counters and `seconds`. A lockstep episode has no
    wall clock of its own, so each is timed as the batch's wall clock
    (episode set-up included) over the batch size."""
    start = time.perf_counter()
    episodes = [Episode(graph, cfg) for cfg in cfgs]
    run_lockstep(episodes, tp_agent, fp_agent)
    seconds = (time.perf_counter() - start) / len(episodes)
    return [{**ep.final_metrics(), **asdict(ep.counters), "seconds": seconds} for ep in episodes]


def run_cell(
    spec: ExperimentSpec,
    graph: Graph,
    scheme: Scheme,
    fp: str,
    sweep_value=None,
    workers: int | None = None,
) -> tuple[ResultRow, list[dict]]:
    """Evaluate one cell: `spec.runs` episodes with derived seeds, split
    into one contiguous lockstep batch per worker. Returns the cell's
    row and one record per run, in run order: the run's coordinates,
    `run` and `batch` (its batch index within the cell), then what
    `_run_eval` recorded."""
    cfg = spec.episode_config(sweep_value)
    tp_agent, fp_agent = load_cell_agents(spec, scheme, fp)
    coords = spec.coordinates(scheme, fp, sweep_value)
    workers = worker_count(workers)
    cfgs = [cfg.with_seed(derive_seed(spec.master_seed, *coords, run)) for run in range(spec.runs)]
    parts = np.array_split(np.arange(spec.runs), min(workers, spec.runs))
    calls = [(graph, [cfgs[run] for run in part], tp_agent, fp_agent) for part in parts]
    batches = _parallel_map(_run_eval, calls, workers)
    runs = [{**dict(zip(COORDINATES, coords)), "run": int(run), "batch": b, **rec}
            for b, (part, batch) in enumerate(zip(parts, batches)) for run, rec in zip(part, batch)]
    n_true = np.array([rec["n_true"] for rec in runs])
    decided = np.array([rec["decided_n_true"] for rec in runs])
    n_false = np.array([rec["n_false"] for rec in runs])
    row = ResultRow(
        *coords,
        runs=spec.runs,
        mean_n_true=float(n_true.mean()),
        std_n_true=float(n_true.std()),
        mean_n_false=float(n_false.mean()),
        mean_decided_n_true=float(decided.mean()),
    )
    return row, runs


def run_grid(
    spec: ExperimentSpec,
    schemes: tuple[Scheme | str, ...] | None = None,
    opinion_models: tuple[str, ...] | None = None,
    fp_strategies: tuple[str, ...] | None = None,
    graph: Graph | None = None,
    workers: int | None = None,
) -> list[ResultRow]:
    """Evaluate a grid of cells sharing the spec's episode and training
    configuration; write combined result CSVs into spec.out_dir.

    Before the graph loads, a `schemes` entry may be a scheme's value, and
    an entry repeated on any axis is a ValueError. Then `check_playable`
    runs, and missing policies are trained on the spec's dataset, which
    keys them, so a passed graph needs auto_train off (else ValueError).
    """
    if graph is not None and spec.auto_train:
        raise ValueError("policies are keyed by the spec's dataset, so a graph passed to "
                         "run_grid needs auto_train=False")
    schemes = tuple(map(Scheme, schemes or (spec.scheme,)))
    for name, given in (("schemes", [s.value for s in schemes]), ("opinion_models", opinion_models),
                        ("fp_strategies", fp_strategies)):
        repeated = next((v for i, v in enumerate(given or ()) if v in given[:i]), None)
        if repeated is not None:
            raise ValueError(f"{name}: {repeated!r} given twice")
    fp_strategies = fp_strategies or (spec.fp_strategy,)
    cells = [(s, fp) for s in schemes for fp in fp_strategies]
    om_specs = [replace(spec, opinion_model=om) for om in opinion_models or (spec.opinion_model,)]
    graph = graph if graph is not None else load_graph(spec)
    check_playable(spec, graph, fp_strategies)
    points = list(spec.sweep_values) if spec.sweep_axis else [None]

    for om_spec in om_specs:
        ensure_policies(om_spec, cells, workers)

    rows: list[ResultRow] = []
    runs: list[dict] = []
    for om_spec in om_specs:
        for scheme, fp in cells:
            for point in points:
                row, cell_runs = run_cell(om_spec, graph, scheme, fp, point, workers)
                rows.append(row)
                runs.extend(cell_runs)

    write_results_csv(spec.out_dir / "results.csv", rows)
    write_raw_csv(spec.out_dir / "raw_runs.csv", runs)
    write_counters_csv(spec.out_dir / "counters.csv", runs)
    write_timings_csv(spec.out_dir / "timings.csv", runs)
    return rows


# ----------------------------------------------------------------------
# CSV writers
# ----------------------------------------------------------------------

def _write_csv(path: Path, header, rows) -> None:
    """Write a header and rows to a temp file that `atomic_write` moves
    onto path once every row is written; if a row raises, path is left
    as it was. Creates path's directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as fh, io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(path: Path, rows: list[ResultRow]) -> None:
    _write_csv(path, (f.name for f in fields(ResultRow)),
               (row.csv_values() for row in sorted(rows, key=attrgetter(*COORDINATES))))


def write_raw_csv(path: Path, runs: list[dict]) -> None:
    """Per-run final counts of `run_cell`'s run records."""
    cols = (*COORDINATES, "run", "n_true", "n_false", "decided_n_true", "decided_n_false")
    _write_csv(path, cols, ([rec[c] for c in cols] for rec in runs))


def write_counters_csv(path: Path, runs: list[dict]) -> None:
    """Per-run wave-kernel counters (`WaveCounters`), keyed like raw_runs.csv."""
    cols = (*COORDINATES, "run", *(f.name for f in fields(WaveCounters)))
    _write_csv(path, cols, ([rec[c] for c in cols] for rec in runs))


def write_timings_csv(path: Path, runs: list[dict]) -> None:
    """Per-run seconds (a lockstep batch's wall clock over its batch size)
    and the run's batch index within its cell."""
    cols = (*COORDINATES, "run", "seconds", "batch")
    _write_csv(path, cols, ([f"{rec[c]:.6f}" if c == "seconds" else rec[c] for c in cols]
                            for rec in runs))


def write_roundlog_csv(path: Path, episode_logs: list[tuple[int, list[RoundLog]]]) -> None:
    """Per-step audit export: episode, t, party, strategy, seed, counts, reward."""
    _write_csv(path, ("episode", "t", "party", "strategy", "seed_id", "n_true", "n_false", "reward"),
               ((episode_idx, e.t, e.party.value, e.strategy, e.seed, e.n_true, e.n_false, e.reward)
                for episode_idx, logs in episode_logs for e in logs))


# ----------------------------------------------------------------------
# Report layouts
# ----------------------------------------------------------------------

LAYOUTS = ("table1", "fig2", "fig3a", "fig3b", "fig3c", "table2")

_SCHEME_ORDER = tuple(s.value for s in Scheme)


def _read_cells(results_dirs: list[str | Path], name: str, columns: dict) -> dict:
    """The rows of each `--results` directory's `name` CSV by cell (their
    `COORDINATES` values), then by argument index, so a directory given
    twice counts as two. A row is ("<file>:<line>", its `columns` (name:
    type), converted). A missing column, a value that does not convert and
    a cell outside drim's grids are ValueErrors naming the file."""
    index: dict[tuple, dict] = {}
    for argument, path in enumerate(Path(d) / name for d in results_dirs):
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh, restval="")  # a short row's missing values fail below
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"{path} has no {', '.join(missing)} column")
            for rec in reader:
                place = f"{path}:{reader.line_num}"
                try:
                    rec = {c: kind(rec[c]) for c, kind in columns.items()}
                    cell = tuple(rec[c] for c in COORDINATES)
                    if cell not in index:  # one outside drim's grids fails as its spec would
                        scheme, om, fp, axis, value = cell
                        ExperimentSpec(scheme, om, fp,
                                       sweep_axis=None if axis == "none" else axis,
                                       sweep_values=None if axis == value == "none" else (value,))
                except ValueError as exc:
                    raise ValueError(f"{place}: {exc}") from None
                index.setdefault(cell, {}).setdefault(argument, []).append((place, rec))
    return index


def _lookup(index: dict, one_row: bool, **filters) -> list[dict]:
    """The records of the one cell, from one argument, that the filters
    (coordinate=value) match: none is a `missing result cell`, two (two
    arguments, two cells or, if `one_row`, two rows) an `ambiguous result cell`."""
    wanted = ", ".join(f"{c}={filters[c]}" for c in COORDINATES if c in filters)
    matches = [rows for cell, by_argument in index.items()
               if all(filters.get(c, value) == value for c, value in zip(COORDINATES, cell))
               for rows in by_argument.values()]
    if one_row:
        matches = [[row] for rows in matches for row in rows]
    if not matches:
        raise ValueError(f"missing result cell: {wanted}")
    if len(matches) > 1:
        (first, _), (second, _) = matches[0][0], matches[1][0]
        raise ValueError(f"ambiguous result cell: {wanted} in {first} and {second}")
    return [rec for _, rec in matches[0]]


def _pivot_results(index: dict, layout: str) -> tuple[list, list[list]]:
    """Header and lines of a results.csv layout: one line per (label,
    filters) and one column per (name, filters), each entry the decided
    true-party count of the one row both match."""
    fps = [(fp, {"fp_strategy": fp, "sweep_axis": "none"}) for fp in FP_STRATEGIES]
    if layout == "table1":
        corner, columns = "scheme_om", fps
        lines = [(f"{scheme}/{om}", {"scheme": scheme, "opinion_model": om})
                 for scheme in _SCHEME_ORDER for om in OPINION_MODELS]
    elif layout == "fig2":
        corner, columns = "scheme", fps
        lines = [(scheme, {"scheme": scheme, "opinion_model": "uom"}) for scheme in _SCHEME_ORDER]
    else:  # fig3a, fig3b, fig3c
        corner = {"fig3a": "ip", "fig3b": "p_nv", "fig3c": "prior_a"}[layout]
        columns = [(scheme, {"scheme": scheme}) for scheme in _SCHEME_ORDER]
        values = sorted({cell[4] for cell in index if cell[3] == corner}, key=float)
        if not values:
            raise ValueError(f"missing result cell: sweep_axis={corner}")
        lines = [(value, {"sweep_axis": corner, "sweep_value": value}) for value in values]
    return [corner, *(name for name, _ in columns)], [
        [label, *(f"{_lookup(index, True, **line, **column)[0]['mean_decided_n_true']:.4f}"
                  for _, column in columns)]
        for label, line in lines]


def _table2(index: dict) -> tuple[list, list[list]]:
    """Header and lines of table2 from the `sweep_axis = none` cells of a
    timings.csv index: per scheme, seconds per episode (its runs' seconds
    over its runs, i.e. the summed batch clocks over the summed batch
    sizes) and the mean batch size."""
    runs: dict[str, list] = {scheme: [] for scheme in _SCHEME_ORDER}
    for cell in index:
        if cell[3] == "none":
            records = _lookup(index, False, **dict(zip(COORDINATES, cell)))
            runs[cell[0]] += [(cell, rec) for rec in records]
    missing = [scheme for scheme in _SCHEME_ORDER if not runs[scheme]]
    if missing:
        raise ValueError(f"missing result cell: scheme={','.join(missing)}")
    return ["scheme", "mean_episode_seconds", "episodes_per_batch"], [
        [scheme, f"{sum(rec['seconds'] for _, rec in rows) / len(rows):.6f}",
         f"{len(rows) / len({(cell, rec['batch']) for cell, rec in rows}):.4f}"]
        for scheme, rows in runs.items()]


def emit_report(results_dirs: list[str | Path], layout: str, out_path: Path) -> Path:
    """Pivot the result files of output directories into one layout CSV
    keyed to the experiment grids: table2 from their `timings.csv`, the
    others from their `results.csv`, each cell the decided true-party
    count. Every layout looks its cells up in one index (`_read_cells`,
    `_lookup`), so a cell that more than one row matches, as when two
    directories hold it, is an error rather than a silent pick."""
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}")
    if layout == "table2":
        columns = {**dict.fromkeys(COORDINATES, str), "seconds": float, "batch": str}
        header, lines = _table2(_read_cells(results_dirs, "timings.csv", columns))
    else:
        index = _read_cells(results_dirs, "results.csv", get_type_hints(ResultRow))
        header, lines = _pivot_results(index, layout)

    _write_csv(out_path, header, lines)
    return Path(out_path)
