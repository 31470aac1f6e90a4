"""Trajectory datasets, rollout batches, the rollout loop, intervals and
JSONL persistence.

A dataset is one padded ``RolloutBatch`` plus its discount and horizon:
``states[b, t]`` is the state action ``actions[b, t]`` was taken from and
``rewards[b, t]`` the reward it produced, so ``states[:, 0]`` holds the
initial states and the first reward belongs to step one.  Steps at or beyond
``lengths[b]`` are padding.  Estimators read the arrays directly, flattened
trajectory by trajectory through ``step_mask()``, and take discounted returns
from ``RolloutBatch.returns``, which skips the padding; the batch is the one
trajectory representation.  The one rollout driver ``_steps`` runs the step
protocol of a simulator or model into two sinks: ``_roll_out`` records a
batch, and ``_fold`` keeps only the rewards and, given a target, each row's
likelihood ratio, all that score pairs, augis and dm read; both sum returns
with ``_returns``.  The Monte Carlo ground truth (``envs.monte_carlo_value``)
sums each row's return in time order instead, within horizon·ε of ``_returns``
relative to the sum of the terms' magnitudes.  A dataset is also an
initial-state sampler, ``sample_initial_states(rng, n)``.  Actions are
integers.  All types are immutable after construction and all functions are
pure; randomness always enters through an explicit generator argument.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ZeroBehaviorProbability
from .policies import policy_probs, policy_sample

State = tuple[float, ...]


@dataclass(frozen=True, eq=False)
class RowView:
    """One row of a batch up to its length: array slices of its states,
    actions and rewards.  Its one reader is the benchmark's tracer
    (``perfbench/tracer.py``), which counts a dataset's steps as the lengths
    of what iterating the dataset yields; estimators read the batch."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class RolloutBatch:
    """Padded arrays for a batch of rollouts: ``states[b, t]`` is the state
    action ``actions[b, t]`` was taken from; entries at or beyond
    ``lengths[b]`` are padding and must be ignored."""

    states: np.ndarray  # (B, T, d)
    actions: np.ndarray  # (B, T) integer actions
    rewards: np.ndarray  # (B, T)
    lengths: np.ndarray  # (B,)

    @classmethod
    def pad(cls, states, actions, rewards) -> "RolloutBatch":
        """Batch of per-trajectory ``(L, d)`` states, ``(L,)`` integer
        actions and ``(L,)`` rewards, zero-padded to the longest one."""
        lengths = np.array([len(a) for a in actions], dtype=np.int64)
        if lengths.size == 0:
            raise ValueError("dataset must hold at least one trajectory")
        if not lengths.size == len(states) == len(rewards):
            raise ValueError("states, actions and rewards must list the same trajectories")
        d = next((np.shape(s)[-1] for s in states if len(s)), 0)
        shape = (lengths.size, int(lengths.max()))
        out = cls(
            np.zeros((*shape, d)), np.zeros(shape, dtype=np.int64),
            np.zeros(shape), lengths,
        )
        for i, L in enumerate(lengths):
            s = np.asarray(states[i], dtype=float)
            if L and s.shape != (L, d) or len(rewards[i]) != L:
                raise ValueError(
                    f"trajectory {i}: expected ({L}, {d}) states and {L} rewards "
                    f"for its {L} actions"
                )
            a = np.asarray(actions[i])
            if L and a.dtype.kind not in "iu":
                raise ValueError(f"trajectory {i}: actions must be integers, got {a.dtype}")
            out.states[i, :L] = s
            out.actions[i, :L] = a
            out.rewards[i, :L] = rewards[i]
        return out

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def step_mask(self) -> np.ndarray:
        t = np.arange(self.states.shape[1])
        return t[None, :] < self.lengths[:, None]

    def returns(self, discount: float) -> np.ndarray:
        """Discounted return of each row over its own length (``_returns``)."""
        return _returns(self.rewards, self.lengths, discount)

    def flatten(self):
        """Valid steps in trajectory-major order as ``(states, actions,
        rewards, next_states, terminal)``; ``next_states`` is zero on each
        trajectory's last step, which ``terminal`` marks."""
        mask = self.step_mask()
        has_next = np.zeros_like(mask)
        has_next[:, :-1] = mask[:, 1:]
        next_states = np.zeros_like(self.states)
        next_states[:, :-1] = self.states[:, 1:]
        next_states[~has_next] = 0.0
        return (
            self.states[mask],
            self.actions[mask],
            self.rewards[mask],
            next_states[mask],
            ~has_next[mask],
        )

    def trajectories(self) -> list[RowView]:
        return [RowView(self.states[i, :n], self.actions[i, :n], self.rewards[i, :n])
                for i, n in enumerate(self.lengths.tolist())]


def _steps(sim, policy, x, horizon, rng, drawn_probs=None):
    """The one rollout driver, over the step protocol of a simulator or
    model ``sim``: ``step_batch(states, actions, rng) -> (next_states,
    rewards)`` and an optional ``is_absorbing`` (states to ``(N,)``
    booleans), from starts ``x`` that ``sim._start_states`` prepared.  Each
    step draws every row's action with one ``policy_sample`` call, which
    writes the drawn probabilities into an ``(N,)`` buffer ``drawn_probs``,
    then steps, and yields ``(t, states, actions, rewards, live)``.  A row
    ends in an absorbing state but keeps taking its draws unrecorded; the
    loop ends once every row has ended.  A yielded ``live`` never changes.
    A folding consumer drops its names of a step, as the driver does, before
    asking for the next: held, they would be dead ``(N,)`` arrays."""
    stopped = getattr(sim, "is_absorbing", None)
    live = np.ones(x.shape[0], dtype=bool) if stopped is None else ~stopped(x)
    for t in range(horizon):
        if not live.any():
            return
        a = policy_sample(policy, x, rng, drawn_probs)
        x_next, r = sim.step_batch(x, a, rng)
        yield t, x, a, r, live
        x, a, r = x_next, None, None
        if stopped is not None:
            live = live & ~stopped(x)


def _roll_out(sim, policy, initial_states, horizon, rng) -> RolloutBatch:
    """The steps of ``_steps`` recorded into time-major buffers, each freed
    once copied into a C-ordered ``(N, T, ...)`` array, zero past each row's
    length."""
    x = sim._start_states(initial_states)
    n, d = x.shape
    buffers = [np.empty((horizon, n, d)), np.empty((horizon, n), dtype=np.int64),
               np.empty((horizon, n))]
    lengths = np.zeros(n, dtype=np.int64)
    for t, x, a, r, live in _steps(sim, policy, x, horizon, rng):
        buffers[0][t], buffers[1][t], buffers[2][t] = x, a, r
        lengths += live
    arrays = [np.ascontiguousarray(buffers.pop(0).swapaxes(0, 1)) for _ in range(len(buffers))]
    if lengths.min(initial=horizon) < horizon:
        pad = np.arange(horizon) >= lengths[:, None]
        for array in arrays:
            array[pad] = 0
    return RolloutBatch(*arrays, lengths)


def _returns(rewards, lengths, discount: float) -> np.ndarray:
    """Discounted return of each ``(N, T)`` rewards row over its length; the
    cells past it never reach the sum, so they may hold anything, even NaN."""
    t = np.arange(rewards.shape[1])
    return (np.where(t < lengths[:, None], rewards, 0.0) * discount**t).sum(axis=1)


def _nonzero(p_behavior: np.ndarray) -> np.ndarray:
    """``p_behavior``, refused if it holds a zero: the one support check."""
    if (p_behavior == 0.0).any():
        message = "behavior policy assigns zero probability to an observed action"
        raise ZeroBehaviorProbability(message)
    return p_behavior


def _fold(sim, behavior, target, initial_states, horizon, discount, rng):
    """``(returns, ratios)`` of rollouts under ``behavior``, with the bits of
    a recorded batch's returns and ratio-table row products, from a rewards
    buffer and a running product of each step's target over drawn
    probabilities (``policy_sample``'s); with no ``target``, ``ratios`` is
    None.  Besides the buffer it holds about one step of arrays.  It refuses
    what the dataset and table refuse."""
    x = sim._start_states(initial_states)
    n = x.shape[0]
    rewards, lengths = np.empty((n, horizon)), np.zeros(n, dtype=np.int64)
    ratios, drawn = (None, None) if target is None else (np.ones(n), np.empty(n))
    for t, x, a, r, live in _steps(sim, behavior, x, horizon, rng, drawn):
        if not (np.isfinite(x[live]).all() and np.isfinite(r[live]).all()):
            raise ValueError("states and rewards must be finite")
        rewards[:, t] = r
        lengths += live
        if target is not None:
            _nonzero(drawn[live])
            ratios *= np.divide(policy_probs(target, x, a), drawn, out=np.ones(n), where=live)
        del x, a, r, live  # before the driver computes the next step
    if lengths.min() < 1:
        raise ValueError(f"trajectory lengths must lie in 1..{horizon}")
    return _returns(rewards, lengths, discount), ratios


@dataclass(frozen=True)
class TrajectoryDataset:
    """A batch of behavior trajectories with the discount and horizon they
    are evaluated under.  The batch's arrays must have the shapes
    ``RolloutBatch`` documents, with integer actions; iterating yields each
    row's ``RowView``."""

    batch: RolloutBatch
    discount: float
    horizon: int

    def __post_init__(self) -> None:
        b = self.batch
        if np.ndim(b.states) != 3:
            raise ValueError(f"states must be a (B, T, d) array, got shape {np.shape(b.states)}")
        B, T = b.states.shape[:2]
        for name in ("actions", "rewards", "lengths"):
            array, want = getattr(b, name), (B,) if name == "lengths" else (B, T)
            if np.shape(array) != want:
                raise ValueError(f"{name} must have shape {want}, got {np.shape(array)}")
        if np.asarray(b.actions).dtype.kind not in "iu":
            raise ValueError(f"actions must be integers, got dtype {np.asarray(b.actions).dtype}")
        if b.size == 0:
            raise ValueError("dataset must hold at least one trajectory")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must lie in (0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if b.lengths.min() < 1 or b.lengths.max() > min(self.horizon, b.states.shape[1]):
            raise ValueError(f"trajectory lengths must lie in 1..{self.horizon}")
        if not (np.isfinite(b.states).all() and np.isfinite(b.rewards).all()):
            mask = b.step_mask()  # padding may hold anything
            if not (np.isfinite(b.states[mask]).all() and np.isfinite(b.rewards[mask]).all()):
                raise ValueError("states and rewards must be finite")

    def __len__(self) -> int:
        return self.batch.size

    def __iter__(self) -> Iterator[RowView]:
        return iter(self.batch.trajectories())

    @property
    def state_dim(self) -> int:
        return self.batch.states.shape[2]

    def returns(self) -> np.ndarray:
        """Discounted returns under the dataset's discount: ``RolloutBatch.returns``."""
        return self.batch.returns(self.discount)

    def initial_states(self) -> np.ndarray:
        return self.batch.states[:, 0]

    def sample_initial_states(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` initial states resampled uniformly from the dataset's own: an
        environment's sampler, for real data that no simulator can draw."""
        return self.initial_states()[rng.integers(0, len(self), size=n)]

    def subset(self, indices) -> "TrajectoryDataset":
        idx = np.asarray(indices, dtype=np.int64)
        b = self.batch
        picked = RolloutBatch(b.states[idx], b.actions[idx], b.rewards[idx], b.lengths[idx])
        return TrajectoryDataset(picked, self.discount, self.horizon)

    def split_half(self) -> tuple["TrajectoryDataset", "TrajectoryDataset"]:
        """Deterministic half split; the first half gets the odd trajectory."""
        if len(self) < 2:
            raise ValueError("cannot split a dataset with fewer than 2 trajectories")
        cut = (len(self) + 1) // 2
        return self.subset(range(cut)), self.subset(range(cut, len(self)))


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    point: float | None = None

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


# ---------------------------------------------------------------------------
# JSON Lines persistence.  One trajectory per line plus a sidecar metadata
# file; floats go through repr so a write/read round trip is bit exact.


def dataset_meta_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def write_jsonl_dataset(dataset: TrajectoryDataset, path, env: str | None = None) -> None:
    """Write ``dataset`` and its sidecar; ``env`` names the environment that
    produced it, so that readers can refuse it for another one."""
    path = Path(path)
    b = dataset.batch
    lines = []
    for i, L in enumerate(b.lengths):
        record = {
            "states": b.states[i, :L].tolist(),
            "actions": b.actions[i, :L].tolist(),
            "rewards": b.rewards[i, :L].tolist(),
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")
    meta = {
        "gamma": dataset.discount,
        "horizon": dataset.horizon,
        "state_dim": dataset.state_dim,
    }
    if env is not None:
        meta["env"] = env
    dataset_meta_path(path).write_text(json.dumps(meta, separators=(",", ":")) + "\n")


def _json_record(text: str, where: str, keys: tuple[str, ...]) -> dict:
    """One JSON object with at least ``keys``; errors name ``where``."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: malformed JSON ({exc.msg})") from None
    if not isinstance(record, dict) or not set(keys) <= record.keys():
        raise ValueError(f"{where}: expected an object with the keys {', '.join(keys)}")
    return record


def read_jsonl_dataset(path, env: str | None = None) -> TrajectoryDataset:
    """Dataset of a JSON Lines file and its sidecar.  ``ValueError`` names the
    file and the line of a malformed line, and the sidecar and the key of a
    ``gamma`` that is no JSON number in (0, 1], a ``horizon`` that is no JSON
    integer of at least 1 and the longest trajectory's length, or a
    ``state_dim`` (optional) that is no JSON integer equal to the states'
    width.  With ``env``, a sidecar that names another environment raises it
    too."""
    path = Path(path)
    lines = path.read_text().splitlines()
    meta_path = dataset_meta_path(path)
    meta = _json_record(meta_path.read_text(), str(meta_path), ("gamma", "horizon"))
    gamma, horizon = meta["gamma"], meta["horizon"]
    if type(gamma) not in (int, float):  # type(), so that true is no number
        raise ValueError(f"{meta_path}: gamma must be a number, got {gamma!r}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"{meta_path}: gamma must lie in (0, 1], got {gamma!r}")
    if type(horizon) is not int:
        raise ValueError(f"{meta_path}: horizon must be an integer, got {horizon!r}")
    if horizon < 1:
        raise ValueError(f"{meta_path}: horizon must be at least 1, got {horizon}")
    state_dim = meta.get("state_dim")
    if "state_dim" in meta and type(state_dim) is not int:
        raise ValueError(f"{meta_path}: state_dim must be an integer, got {state_dim!r}")
    if env is not None and meta.get("env", env) != env:
        raise ValueError(
            f"{meta_path}: the dataset comes from the {meta['env']!r} environment, "
            f"not {env!r}"
        )
    states, actions, rewards = [], [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        record = _json_record(line, where, ("states", "actions", "rewards"))
        fields = [record["states"], record["actions"], record["rewards"]]
        if not all(type(f) is list and f for f in fields) or len({len(f) for f in fields}) > 1:
            raise ValueError(
                f"{where}: states, actions and rewards must be nonempty lists of one length"
            )
        L = len(fields[1])
        if not all(type(a) is int for a in record["actions"]):
            raise ValueError(f"{where}: actions must be integers")
        try:
            s, r = np.asarray(fields[0], dtype=float), np.asarray(fields[2], dtype=float)
        except (TypeError, ValueError):
            raise ValueError(
                f"{where}: states must be lists of numbers of one length, rewards numbers"
            ) from None
        d = states[0].shape[1] if states else s.shape[-1]
        if s.shape != (L, d) or r.shape != (L,):
            raise ValueError(f"{where}: expected ({L}, {d}) states and {L} rewards")
        states.append(s)
        actions.append(record["actions"])
        rewards.append(r)
    longest = max(map(len, actions), default=0)
    if horizon < longest:
        raise ValueError(
            f"{meta_path}: horizon {horizon} is below the longest trajectory's "
            f"{longest} steps"
        )
    if states and state_dim is not None and state_dim != states[0].shape[1]:
        raise ValueError(
            f"{meta_path}: state_dim {state_dim} differs from the "
            f"{states[0].shape[1]} coordinates of the states"
        )
    return TrajectoryDataset(RolloutBatch.pad(states, actions, rewards), float(gamma), horizon)
