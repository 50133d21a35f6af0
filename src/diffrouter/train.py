"""Training objectives and loops.

Three regimes:
  paired-only: the bidirectional noise-matching loss on tree-edge pairs,
      giving the indirect translator (iDR in the report CSVs: mode=indirect).
  finetune: starts from a paired-only checkpoint; combines the unpaired
      distillation loss (teacher = frozen copy of the pretrained
      predictor, conditioned on the paired central sample) with a rehearsal
      paired term.
  from-scratch: same combined loss, but the reference predictor is the
      current parameters themselves; each step queries it before its update.

Both variants share one corruption, x_t = alpha_t x_tgt + beta_t x_src +
sigma_t eps, read from the schedule's tables: diffusion (beta = 0) noises the
target, and the bridge (beta != 0) bridges the pair's two sides and supports
paired training only.

Training runs in float32 on one parameter vector: the trained
`RouterParams.flat`, its gradient and the AdamW moments are all float32, and
each step's AdamW update writes into `flat` in place. A gradient is a flat
vector in the layout of `RouterParams.flat`, made new by each step's
backward pass (`router.backward`) and consumed by its optimizer step. Labels
are per row, so a paired or combined step is one forward and one backward
pass over its rows (`_regress`).

The unpaired loss draws the noisy target via Tweedie refinement: starting
from a forward-diffused random target-domain sample, iterate
x <- x + sigma_t (eps - eps_ref(x, t, x_c, tgt, c)) with fresh eps each
iteration, which moves the unconditional noisy sample toward the conditional
population before the teacher is queried. The refine iterations and that
final query share t, x_c and the labels, so the step binds the teacher to
x_c and the labels once (`router.condition`) and `tweedie_refine` takes the
bound predictor(x, t): the teacher's layer-0 source, label and time blocks
and its layer copies are made once per step, not once per query. From
scratch the teacher is the live parameters, and its binding is a snapshot of
them at the start of the step.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import router as router_mod
from .datagen import PairedDataset, Topology
from .netcore import DivergenceError, OptimizerState, optimizer_step
from .router import RouterParams, condition, freeze
from .sample import route_path
from .schedules import Schedule

REGIMES = ("paired-only", "finetune", "from-scratch")


@dataclass
class TrainConfig:
    lambda1: float = 1.0
    lambda2: float = 1.0
    n_refine: int = 5
    regime: str = "paired-only"
    steps: int = 20000
    batch_size: int = 128
    seed: int = 0
    lr: float = 1e-4
    finetune_lr: float = 5e-5
    warmup_steps: int = 3000
    log_window: int = 100
    hidden: tuple[int, ...] = (128, 128, 128)
    time_dim: int = 16
    emb_dim: int = 8
    activation: str = "silu"
    out_scale: float = 1.0  # shrink factor on the output layer at init
    curriculum: bool = True

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss coefficients must be nonnegative")
        if self.n_refine < 0:
            raise ValueError("n_refine must be >= 0")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")


def _corrupt(x_tgt, x_src, t, eps, sch):
    x_t = sch.alpha[t][:, None] * x_tgt
    if sch.variant == "bridge":  # diffusion (beta = 0) adds no source term
        x_t += sch.beta[t][:, None] * x_src
    x_t += sch.sigma[t][:, None] * eps
    return x_t


def paired_loss_step(params: RouterParams, ds: PairedDataset, batch_idx: np.ndarray,
                     sch, rng: np.random.Generator, *,
                     topo: Topology | None = None, predict_fn=None,
                     zeta=None) -> tuple[float, np.ndarray | None]:
    """One evaluation of the bidirectional paired objective on a batch.

    Per example: t ~ U(1, T), eps ~ N(0, I), zeta ~ Bernoulli(0.5); the
    zeta-selected side of the pair is corrupted and only that direction's
    squared noise-prediction error contributes; zeta = 1 corrupts the a side.
    Returns the mean per-example loss and the gradient of `params.flat`. A
    `predict_fn` stands in for params and computes no gradient: the second
    value is then None.
    """
    *inputs, eps = _paired_rows(ds, batch_idx, sch, rng, zeta, topo)
    if predict_fn is not None:
        resid = predict_fn(*inputs) - eps
        return float(np.sum(resid * resid)) / len(eps), None
    return _regress(params, [(*inputs, eps, 1.0)])


def _paired_rows(ds: PairedDataset, batch_idx, sch, rng, zeta=None, topo=None) -> tuple:
    """The rows (x_t, t, x_src, tgt, src, eps) of a paired batch, drawn in that order."""
    if topo is not None and not topo.is_edge(*ds.edge):
        raise ValueError(f"dataset edge {ds.edge} is not a topology edge; "
                         "paired training is restricted to tree edges")
    B = len(batch_idx)
    xa = ds.x_a[batch_idx]
    xb = ds.x_b[batch_idx]
    t = rng.integers(1, sch.T + 1, size=B)
    eps = rng.standard_normal(xa.shape)
    if zeta is None:
        zeta = rng.integers(0, 2, size=B)
    to_a = np.asarray(zeta) == 1
    a, b = ds.edge
    x_tgt = np.where(to_a[:, None], xa, xb)
    x_src = np.where(to_a[:, None], xb, xa)
    tgt, src = np.where(to_a, a, b), np.where(to_a, b, a)
    return _corrupt(x_tgt, x_src, t, eps, sch), t, x_src, tgt, src, eps


def _regress(params: RouterParams, blocks: list[tuple]) -> tuple:
    """One pass of params over the row blocks (x_t, t, x_src, tgt, src, target,
    weight), stacked: each block's mean squared residual L_k, then the gradient
    of sum_k weight_k L_k, each row's output gradient weighted by its block's."""
    cols = [col[0] if len(col) == 1 else np.concatenate(col) for col in list(zip(*blocks))[:6]]
    pred, cache = router_mod.forward_cached(params, *cols[:5])
    resid = pred - cols[5]
    losses, lo = [], 0
    for x_t, *_, weight in blocks:
        r = resid[lo:lo + len(x_t)]
        lo += len(r)
        losses.append(float(np.sum(r * r)) / len(r))
        r *= 2.0 * weight
        r /= len(r)
    return *losses, router_mod.backward(params, cache, resid)


def tweedie_refine(predictor, x_t_init: np.ndarray, t, sch: Schedule,
                   rng: np.random.Generator, *, n: int) -> np.ndarray:
    """n refinement iterations x <- x + sigma_t (eps - predictor(x, t)), with a
    fresh eps draw per iteration, by a predictor bound to the conditioning
    sample and the labels (see `router.condition`). t may be a scalar step or
    a per-row array when x_t_init is a batch."""
    if n < 0:
        raise ValueError("refinement step count must be >= 0")
    x = np.asarray(x_t_init, dtype=np.float64).copy()
    sigma = sch.sigma[t]
    if np.ndim(sigma) == 1:
        sigma = sigma[:, None]
    for _ in range(n):
        eps = rng.standard_normal(x.shape)
        x = x + sigma * (eps - predictor(x, t))
    return x


def unpaired_loss_step(params: RouterParams, ref, batch_i: np.ndarray, batch_c: np.ndarray,
                       i: int, c: int, j: int, x_j_pool: np.ndarray,
                       sch: Schedule, cfg: TrainConfig, rng: np.random.Generator,
                       topo: Topology, rehearsal: PairedDataset | None = None) -> tuple:
    """Distillation step for the direct mapping i -> j.

    batch_i / batch_c are aligned pair sides from the (i, c) dataset. The
    noisy target x_t^j starts from a forward-diffused draw out of x_j_pool and
    is Tweedie-refined against x_c before the frozen reference is queried.
    The reference receives no gradient. Returns (loss, grads) of this term, or
    with a `rehearsal` dataset (loss, paired_loss, grads) of `final_loss_step`.
    """
    if sch.variant == "bridge":
        raise ValueError(
            "unpaired finetuning is refused for the bridge variant: the paths "
            "conditioned on x_src and x_c start from different endpoints, so "
            "the reference path distribution is not a usable proxy")
    if topo.is_edge(i, j):
        raise ValueError(f"({i}, {j}) is a topology edge; the unpaired loss is "
                         "only for non-edge pairs")
    B = batch_i.shape[0]
    t = rng.integers(1, sch.T + 1, size=B)
    x_j0 = x_j_pool[rng.integers(0, len(x_j_pool), size=B)]
    x_t_j = _corrupt(x_j0, None, t, rng.standard_normal(x_j0.shape), sch)
    teacher = condition(ref, batch_c, j, c)
    x_t_j = tweedie_refine(teacher, x_t_j, t, sch, rng, n=cfg.n_refine)
    block = (x_t_j, t, batch_i, np.full(B, j), np.full(B, i), teacher(x_t_j, t))
    if rehearsal is None:
        return _regress(params, [(*block, 1.0)])
    if cfg.lambda2 == 0.0:
        l_u, grads = _regress(params, [(*block, cfg.lambda1)])
        return l_u, 0.0, grads
    return _regress(params, [(*block, cfg.lambda1),
                             _rehearsal_rows(rehearsal, cfg, sch, rng, topo)])


def _rehearsal_rows(ds: PairedDataset, cfg: TrainConfig, sch, rng, topo) -> tuple:
    idx = rng.integers(0, len(ds), size=cfg.batch_size)
    return (*_paired_rows(ds, idx, sch, rng, topo=topo), cfg.lambda2)


def final_loss_step(params: RouterParams, ref, paired_ds: PairedDataset,
                    unpaired: tuple, cfg: TrainConfig, sch: Schedule,
                    rng: np.random.Generator, topo: Topology
                    ) -> tuple[float, float, float, np.ndarray]:
    """Combined objective lambda1 * L_unpaired + lambda2 * L_paired for one
    step. `unpaired` is (batch_i, batch_c, i, c, j, x_j_pool); its rows are
    drawn first, then a rehearsal batch from paired_ds, and one forward and
    one backward pass over both gives the gradient. Returns (total,
    unpaired_loss, paired_loss, grads); a term with a zero coefficient is
    skipped."""
    if cfg.lambda1 == 0.0 and cfg.lambda2 == 0.0:
        raise ValueError("at least one loss coefficient must be positive")
    if cfg.lambda1 > 0.0:
        l_u, l_p, grads = unpaired_loss_step(params, ref, *unpaired, sch, cfg, rng, topo,
                                             rehearsal=paired_ds)
    else:
        l_u = 0.0
        l_p, grads = _regress(params, [_rehearsal_rows(paired_ds, cfg, sch, rng, topo)])
    return cfg.lambda1 * l_u + cfg.lambda2 * l_p, l_u, l_p, grads


@dataclass
class TrainResult:
    params: RouterParams
    log_rows: list[tuple[int, str, float, float]] = field(default_factory=list)


class _WindowLog:
    def __init__(self):
        self.acc: dict[str, list[float]] = {}
        self.rows: list[tuple[int, str, float, float]] = []

    def push(self, direction: str, value: float) -> None:
        self.acc.setdefault(direction, []).append(value)

    def flush(self, step: int, lr: float) -> None:
        for direction in sorted(self.acc):
            self.rows.append((step, direction, float(np.mean(self.acc[direction])), lr))
        self.acc = {}


def _dataset_for_edge(datasets: list[PairedDataset], a: int, b: int) -> PairedDataset:
    for ds in datasets:
        if set(ds.edge) == {a, b}:
            return ds
    raise ValueError(f"no dataset for edge ({a}, {b})")


def train(cfg: TrainConfig, topo: Topology, datasets: list[PairedDataset],
          sch, init_params: RouterParams | None = None) -> TrainResult:
    """Run the configured regime; deterministic given cfg.seed. Trains, in
    place, a float32 copy of init_params (else of a fresh initialisation),
    and returns it with the windowed loss rows (step, direction, loss, lr),
    which the CLI writes as the loss log; init_params is left as it was."""
    for ds in datasets:
        if not topo.is_edge(*ds.edge):
            raise ValueError(f"dataset edge {ds.edge} is not in the topology")
    rng = np.random.default_rng(cfg.seed)
    d = datasets[0].x_a.shape[1]
    if init_params is None:
        init_params = router_mod.init_router(d, topo.K, sch.T, list(cfg.hidden), rng,
                                             time_dim=cfg.time_dim, emb_dim=cfg.emb_dim,
                                             activation=cfg.activation,
                                             out_scale=cfg.out_scale)
    params = replace(init_params, flat=init_params.flat.astype(np.float32))
    if cfg.regime != "paired-only":
        params.kind = router_mod.KIND_DIRECT

    lr = cfg.finetune_lr if cfg.regime == "finetune" else cfg.lr
    warmup = 0 if cfg.regime == "finetune" else cfg.warmup_steps
    opt = OptimizerState(lr=lr, warmup_steps=warmup)
    log = _WindowLog()

    if cfg.regime == "paired-only":
        _run_paired(cfg, topo, datasets, sch, params, opt, rng, log)
    else:
        _run_combined(cfg, topo, datasets, sch, params, opt, rng, log)
    if log.acc:  # the trailing partial window
        log.flush(cfg.steps, opt.effective_lr())
    return TrainResult(params=params, log_rows=log.rows)


def _run_paired(cfg, topo, datasets, sch, params, opt, rng, log):
    for step in range(1, cfg.steps + 1):
        ds = datasets[(step - 1) % len(datasets)]
        idx = rng.integers(0, len(ds), size=cfg.batch_size)
        loss, grads = paired_loss_step(params, ds, idx, sch, rng, topo=topo)
        if not np.isfinite(loss):
            raise DivergenceError(f"paired loss diverged at step {step}")
        optimizer_step(opt, params.flat, grads)
        log.push(f"paired:{ds.edge[0]}-{ds.edge[1]}", loss)
        if step % cfg.log_window == 0:
            log.flush(step, opt.effective_lr())


def _run_combined(cfg, topo, datasets, sch, params, opt, rng, log):
    # each non-edge direction i -> j with its route resolved once: the hop
    # count, the first hop c, the (i, c) dataset and the dataset holding j
    directions = []
    for i, j in topo.directions("nonedges"):
        path = route_path(topo, i, j)
        directions.append((i, j, len(path) - 1, path[1],
                           _dataset_for_edge(datasets, i, path[1]),
                           _dataset_for_edge(datasets, j, path[-2])))
    if not directions:
        raise ValueError("topology has no non-edge pairs to finetune")
    # the curriculum trains one phase per hop count, nearest first; without
    # it one phase holds every direction
    phases = [directions]
    if cfg.curriculum:
        phases = [[route for route in directions if route[2] == hops]
                  for hops in sorted({route[2] for route in directions})]
    # each phase but the last trains steps // len(phases) steps, the last the
    # rest, and a phase's steps take its directions in turn
    n = len(phases)
    steps_per_phase = [cfg.steps // n] * (n - 1) + [cfg.steps - (n - 1) * (cfg.steps // n)]
    for phase, (phase_steps, phase_dirs) in enumerate(zip(steps_per_phase, phases)):
        if phase_steps < len(phase_dirs):
            raise ValueError(f"{cfg.steps} steps give phase {phase + 1} of {n} only "
                             f"{phase_steps} steps for its {len(phase_dirs)} non-edge "
                             "directions; each direction needs at least one step")
    ref = params if cfg.regime == "from-scratch" else freeze(params)
    step = 0
    for phase, (phase_steps, phase_dirs) in enumerate(zip(steps_per_phase, phases)):
        if phase > 0 and cfg.regime == "finetune":
            ref = freeze(params)  # distance-(h-1) directs teach the next phase
        for _ in range(phase_steps):
            step += 1
            i, j, _, c, ds_ic, ds_j = phase_dirs[(step - 1) % len(phase_dirs)]
            idx = rng.integers(0, len(ds_ic), size=cfg.batch_size)
            unpaired = (ds_ic.side(i)[idx], ds_ic.side(c)[idx], i, c, j, ds_j.side(j))
            paired_ds = datasets[(step - 1) % len(datasets)]
            total, l_u, l_p, grads = final_loss_step(params, ref, paired_ds,
                                                     unpaired, cfg, sch, rng, topo)
            if not np.isfinite(total):
                raise DivergenceError(f"combined loss diverged at step {step}")
            optimizer_step(opt, params.flat, grads)
            if cfg.lambda1 > 0.0:
                log.push(f"unpaired:{i}->{j}", l_u)
            if cfg.lambda2 > 0.0:
                log.push(f"paired:{paired_ds.edge[0]}-{paired_ds.edge[1]}", l_p)
            log.push("total", total)
            if step % cfg.log_window == 0:
                log.flush(step, opt.effective_lr())
