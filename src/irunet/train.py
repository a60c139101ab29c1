"""Adam training loop over multi-sigma batches, with exact resume.

Every source of randomness is counter-based (parameter init from the init
seed, per-epoch batch order from the epoch seed mixed with the epoch index,
corruption from per-row manifest seeds), so a step's batch is a pure
function of the step index and the run is bit-reproducible single-threaded.
Resuming from a training checkpoint replays the remaining steps exactly as
an uninterrupted run would have produced them.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint, rng
from .config import TrainConfig, echo_lines
from .data import DatasetManifest, epoch_plan, materialize_batch
from .metrics import mae_loss
from .model import ModelConfig, ParamStore, build_params, forward
from .optim import AdamState, adam_step


class NonFiniteLossError(RuntimeError):
    """Training aborted on a NaN/Inf loss or parameter."""

    def __init__(self, message: str, checkpoint_path: str | None = None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass
class TrainResult:
    losses: list[float] = field(default_factory=list)
    final_checkpoint: str | None = None


def _abort_saving_last_good(what: str, step: int, params: ParamStore, config: ModelConfig,
                            state: AdamState, out_dir) -> NonFiniteLossError:
    """Save the pre-step parameters and return the error that reports them."""
    path = os.path.join(out_dir, "abort_last_good.ckpt")
    checkpoint.save_training_checkpoint(params, config, state, path)
    return NonFiniteLossError(
        f"non-finite {what} at step {step}; last good parameters saved to {path}",
        checkpoint_path=path)


def _check_resume(start: checkpoint.LoadedCheckpoint, model_config: ModelConfig,
                  max_steps: int) -> None:
    """Reject a checkpoint a run cannot continue from.

    It needs optimizer state, and a step no later than max_steps: a run resumed
    past its end would save the checkpoint's state under an earlier step's name.
    Training runs the checkpoint's architecture, so model_config must equal it.
    """
    path, state = start.path, start.state
    if state is None:
        raise ValueError(f"{path}: not a training checkpoint (no optimizer state)")
    if max_steps < state.t:
        raise ValueError(f"{path}: checkpoint is at step {state.t}, past max_steps "
                         f"{max_steps}; set max_steps to {state.t} or more")
    conflicts = [f"{mine} (checkpoint: {stored.partition('=')[2]})"
                 for mine, stored in zip(echo_lines(model_config), echo_lines(start.config))
                 if mine != stored]
    if conflicts:
        raise ValueError(f"--resume {path}: model config differs from the "
                         f"checkpoint's: {'; '.join(conflicts)}")


def train(model_config: ModelConfig, train_config: TrainConfig,
          manifest: DatasetManifest, out_dir,
          start: checkpoint.LoadedCheckpoint | None = None, log_stream=None) -> TrainResult:
    """Run Adam on MAE over the train split; write logs and checkpoints.

    A run continues from start, a loaded training checkpoint, in its
    architecture; with start None it begins at step 0 from init_seed. A
    checkpoint the run cannot continue from raises ValueError before anything
    is written. Log lines are `step<TAB>loss<TAB>seconds`, flushed per
    step. Checkpoints (with optimizer state) land in out_dir every
    checkpoint_every steps and at the end. A non-finite loss or parameter
    aborts with the last good parameters saved alongside a diagnostic.
    """
    if start is None:
        params = build_params(model_config, train_config.init_seed)
        state = AdamState.initial(params)
    else:
        _check_resume(start, model_config, train_config.max_steps)
        params, state = start.params, start.state
    rows = manifest.split_rows("train")
    if not rows:
        raise ValueError("manifest has no train rows")
    os.makedirs(out_dir, exist_ok=True)

    log = log_stream if log_stream is not None else sys.stdout
    result = TrainResult()
    cache: dict = {}
    batches_per_epoch = -(-len(rows) // train_config.batch_size)
    plan: list | None = None
    plan_epoch = -1

    def checkpoint_path(step: int) -> str:
        return os.path.join(out_dir, f"step{step:06d}.ckpt")

    for step in range(state.t, train_config.max_steps):
        t0 = time.perf_counter()
        epoch = step // batches_per_epoch
        if epoch != plan_epoch:
            plan = epoch_plan(rows, train_config.batch_size,
                              rng.hash64(train_config.epoch_seed, epoch))
            plan_epoch = epoch
        noisy, clean = materialize_batch(manifest, plan[step % batches_per_epoch], cache=cache)

        z = forward(noisy, model_config, params)
        loss = mae_loss(z, clean)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise _abort_saving_last_good("loss", step, params, model_config, state, out_dir)
        # the graph holds what backward reads, so the batch and output go first;
        # step N's must not live through step N+1's forward either
        del noisy, clean, z
        loss.backward()
        del loss
        tensors = params.named_tensors()
        if any(t.grad is not None and not np.all(np.isfinite(t.grad)) for t in tensors.values()):
            raise _abort_saving_last_good("gradient", step, params, model_config, state, out_dir)
        adam_step(params, state, train_config.learning_rate,
                  train_config.beta1, train_config.beta2, train_config.epsilon)
        params.zero_grad()
        if any(not np.all(np.isfinite(t.data)) for t in tensors.values()):
            raise NonFiniteLossError(
                f"non-finite parameter after step {step}", checkpoint_path=None)

        result.losses.append(loss_value)
        log.write(f"{step}\t{loss_value!r}\t{time.perf_counter() - t0:.3f}\n")
        log.flush()

        if (step + 1) % train_config.checkpoint_every == 0 and (step + 1) < train_config.max_steps:
            checkpoint.save_training_checkpoint(params, model_config, state,
                                                checkpoint_path(step + 1))

    final = checkpoint_path(train_config.max_steps)
    checkpoint.save_training_checkpoint(params, model_config, state, final)
    result.final_checkpoint = final
    return result
