"""Training objectives and loops.

Three regimes:
  paired-only: the bidirectional noise-matching loss on tree-edge pairs,
      giving the indirect translator (iDR in the report CSVs: mode=indirect).
  finetune: starts from a paired-only checkpoint; combines the unpaired
      distillation loss (teacher = frozen copy of the pretrained predictor,
      conditioned on the paired central sample) with a rehearsal paired term.
  from-scratch: same combined loss, but the reference predictor is the
      current parameters themselves; each step queries it before its update.

The unpaired loss draws the noisy target via Tweedie refinement: starting
from a forward-diffused random target-domain sample, iterate
x <- x + sigma_t (eps - eps_ref(x, t, x_c, tgt, c)) with fresh eps each
iteration, which moves the unconditional noisy sample toward the conditional
population before the teacher is queried.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import router as router_mod
from .datagen import PairedDataset, Topology
from .netcore import DivergenceError, OptimizerState, optimizer_step
from .router import RouterGrads, RouterParams, freeze
from .sample import route_path
from .schedules import DiffusionSchedule

VARIANTS = ("diffusion", "bridge")
REGIMES = ("paired-only", "finetune", "from-scratch")


@dataclass
class TrainConfig:
    lambda1: float = 1.0
    lambda2: float = 1.0
    n_refine: int = 5
    regime: str = "paired-only"
    variant: str = "diffusion"
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
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


def _corrupt(x_tgt, x_src, t, eps, sch, variant: str):
    if variant == "diffusion":
        return sch.a[t][:, None] * x_tgt + sch.sigma[t][:, None] * eps
    return (sch.alpha[t][:, None] * x_tgt + sch.beta[t][:, None] * x_src
            + sch.sigma[t][:, None] * eps)


def paired_loss_step(params: RouterParams, ds: PairedDataset, batch_idx: np.ndarray,
                     sch, rng: np.random.Generator, *, variant: str = "diffusion",
                     topo: Topology | None = None, predict_fn=None, zeta=None
                     ) -> tuple[float, RouterGrads | None]:
    """One evaluation of the bidirectional paired objective on a batch.

    Per example: t ~ U(1, T), eps ~ N(0, I), zeta ~ Bernoulli(0.5); the
    zeta-selected side of the pair is corrupted and only that direction's
    squared noise-prediction error contributes. Returns the mean per-example
    loss and the gradients of `params`. A `predict_fn` stands in for params
    and computes no gradients: the second value is then None.
    """
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
    zeta = np.asarray(zeta)

    loss = 0.0
    grads = router_mod.zeros_like_grads(params) if predict_fn is None else None
    for flag, (x_tgt, x_src, tgt, src) in ((1, (xa, xb, ds.edge[0], ds.edge[1])),
                                           (0, (xb, xa, ds.edge[1], ds.edge[0]))):
        mask = zeta == flag
        if not np.any(mask):
            continue
        x_t = _corrupt(x_tgt[mask], x_src[mask], t[mask], eps[mask], sch, variant)
        if predict_fn is not None:
            pred = predict_fn(x_t, t[mask], x_src[mask], tgt, src)
        else:
            pred, cache = router_mod.forward_cached(params, x_t, t[mask], x_src[mask], tgt, src)
        resid = pred - eps[mask]
        loss += float(np.sum(resid * resid)) / B
        if grads is not None:
            grads.add_(router_mod.backward(params, cache, 2.0 * resid / B))
    return loss, grads


def tweedie_refine(ref, x_t_init: np.ndarray, t, x_c: np.ndarray, tgt: int, c: int,
                   n: int, sch: DiffusionSchedule, rng: np.random.Generator) -> np.ndarray:
    """n refinement iterations x <- x + sigma_t (eps - ref(x, t, x_c, tgt, c)),
    with a fresh eps draw per iteration. t may be a scalar step or a per-row
    array when x_t_init is a batch."""
    if n < 0:
        raise ValueError("refinement step count must be >= 0")
    x = np.asarray(x_t_init, dtype=np.float64).copy()
    if n == 0:
        return x
    sigma = sch.sigma[t]
    if np.ndim(sigma) == 1:
        sigma = sigma[:, None]
    for _ in range(n):
        eps = rng.standard_normal(x.shape)
        x = x + sigma * (eps - ref(x, t, x_c, tgt, c))
    return x


def unpaired_loss_step(params: RouterParams, ref, batch_i: np.ndarray, batch_c: np.ndarray,
                       i: int, c: int, j: int, x_j_pool: np.ndarray,
                       sch: DiffusionSchedule, cfg: TrainConfig, rng: np.random.Generator,
                       topo: Topology) -> tuple[float, RouterGrads]:
    """Distillation step for the direct mapping i -> j.

    batch_i / batch_c are aligned pair sides from the (i, c) dataset. The
    noisy target x_t^j starts from a forward-diffused draw out of x_j_pool and
    is Tweedie-refined against x_c before the frozen reference is queried.
    The reference receives no gradient.
    """
    if cfg.variant == "bridge":
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
    eps0 = rng.standard_normal(x_j0.shape)
    x_t_j = sch.a[t][:, None] * x_j0 + sch.sigma[t][:, None] * eps0
    x_t_j = tweedie_refine(ref, x_t_j, t, batch_c, j, c, cfg.n_refine, sch, rng)

    eps_ref = ref(x_t_j, t, batch_c, j, c)
    pred, cache = router_mod.forward_cached(params, x_t_j, t, batch_i, j, i)
    resid = pred - eps_ref
    loss = float(np.sum(resid * resid)) / B
    return loss, router_mod.backward(params, cache, 2.0 * resid / B)


def final_loss_step(params: RouterParams, ref, paired_ds: PairedDataset,
                    unpaired: tuple, cfg: TrainConfig, sch: DiffusionSchedule,
                    rng: np.random.Generator, topo: Topology
                    ) -> tuple[float, float, float, RouterGrads]:
    """Combined objective lambda1 * L_unpaired + lambda2 * L_paired for one
    step. `unpaired` is (batch_i, batch_c, i, c, j, x_j_pool). Returns
    (total, unpaired_loss, paired_loss, grads)."""
    if cfg.lambda1 == 0.0 and cfg.lambda2 == 0.0:
        raise ValueError("at least one loss coefficient must be positive")
    grads = router_mod.zeros_like_grads(params)
    l_unpaired = 0.0
    l_paired = 0.0
    if cfg.lambda1 > 0.0:
        batch_i, batch_c, i, c, j, x_j_pool = unpaired
        l_unpaired, g_u = unpaired_loss_step(params, ref, batch_i, batch_c, i, c, j,
                                             x_j_pool, sch, cfg, rng, topo)
        g_u.scale_(cfg.lambda1)
        grads.add_(g_u)
    if cfg.lambda2 > 0.0:
        idx = rng.integers(0, len(paired_ds), size=cfg.batch_size)
        l_paired, g_p = paired_loss_step(params, paired_ds, idx, sch, rng,
                                         variant=cfg.variant, topo=topo)
        g_p.scale_(cfg.lambda2)
        grads.add_(g_p)
    total = cfg.lambda1 * l_unpaired + cfg.lambda2 * l_paired
    return total, l_unpaired, l_paired, grads


@dataclass
class TrainResult:
    params: RouterParams
    log_rows: list[tuple[int, str, float, float]] = field(default_factory=list)


class _WindowLog:
    def __init__(self, window: int):
        self.window = window
        self.acc: dict[str, list[float]] = {}
        self.rows: list[tuple[int, str, float, float]] = []

    def push(self, direction: str, value: float) -> None:
        self.acc.setdefault(direction, []).append(value)

    def flush(self, step: int, lr: float) -> None:
        for direction in sorted(self.acc):
            vals = self.acc[direction]
            if vals:
                self.rows.append((step, direction, float(np.mean(vals)), lr))
        self.acc = {}


def _dataset_for_edge(datasets: list[PairedDataset], a: int, b: int) -> PairedDataset:
    for ds in datasets:
        if set(ds.edge) == {a, b}:
            return ds
    raise ValueError(f"no dataset for edge ({a}, {b})")


def _unpaired_directions(topo: Topology) -> list[tuple[int, int, int]]:
    """Ordered non-edge directions (i, j, distance), both orders of each pair."""
    out = []
    for i in range(topo.K):
        for j in range(topo.K):
            if i == j or topo.is_edge(i, j):
                continue
            out.append((i, j, len(route_path(topo, i, j)) - 1))
    return out


def train(cfg: TrainConfig, topo: Topology, datasets: list[PairedDataset],
          sch, init_params: RouterParams | None = None,
          log_path=None) -> TrainResult:
    """Run the configured regime; deterministic given cfg.seed."""
    for ds in datasets:
        if not topo.is_edge(*ds.edge):
            raise ValueError(f"dataset edge {ds.edge} is not in the topology")
    rng = np.random.default_rng(cfg.seed)
    d = datasets[0].x_a.shape[1]
    if init_params is None:
        params = router_mod.init_router(d, topo.K, sch.T, list(cfg.hidden), rng,
                                        time_dim=cfg.time_dim, emb_dim=cfg.emb_dim,
                                        activation=cfg.activation,
                                        out_scale=cfg.out_scale)
    else:
        params = router_mod.as_float64(init_params)
    if cfg.regime != "paired-only":
        params.kind = router_mod.KIND_DIRECT

    lr = cfg.finetune_lr if cfg.regime == "finetune" else cfg.lr
    warmup = 0 if cfg.regime == "finetune" else cfg.warmup_steps
    opt = OptimizerState(lr=lr, warmup_steps=warmup)
    log = _WindowLog(cfg.log_window)

    if cfg.regime == "paired-only":
        _run_paired(cfg, topo, datasets, sch, params, opt, rng, log)
    else:
        _run_combined(cfg, topo, datasets, sch, params, opt, rng, log)
    if log.acc:  # the trailing partial window
        log.flush(cfg.steps, opt.effective_lr())

    if log_path is not None:
        with open(log_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "direction", "loss", "lr"])
            for row in log.rows:
                writer.writerow([row[0], row[1], f"{row[2]:.6g}", f"{row[3]:.6g}"])
    return TrainResult(params=params, log_rows=log.rows)


def _run_paired(cfg, topo, datasets, sch, params, opt, rng, log):
    for step in range(1, cfg.steps + 1):
        ds = datasets[(step - 1) % len(datasets)]
        idx = rng.integers(0, len(ds), size=cfg.batch_size)
        loss, grads = paired_loss_step(params, ds, idx, sch, rng,
                                       variant=cfg.variant, topo=topo)
        if not np.isfinite(loss):
            raise DivergenceError(f"paired loss diverged at step {step}")
        optimizer_step(opt, [params.flat], [grads.flat])
        log.push(f"paired:{ds.edge[0]}-{ds.edge[1]}", loss)
        if step % cfg.log_window == 0:
            log.flush(step, opt.effective_lr())


def _run_combined(cfg, topo, datasets, sch, params, opt, rng, log):
    directions = _unpaired_directions(topo)
    if not directions:
        raise ValueError("topology has no non-edge pairs to finetune")
    distances = sorted({dist for *_, dist in directions})
    if not cfg.curriculum:
        distances = [None]
    ref = params if cfg.regime == "from-scratch" else freeze(params)
    step = 0
    for phase, dist in enumerate(distances):
        if dist is None:
            phase_dirs = directions
            phase_steps = cfg.steps
        else:
            phase_dirs = [(i, j, h) for i, j, h in directions if h == dist]
            phase_steps = cfg.steps // len(distances)
            if phase == len(distances) - 1:
                phase_steps = cfg.steps - step
        if phase > 0 and cfg.regime == "finetune":
            ref = freeze(params)  # distance-(h-1) directs teach the next phase
        for _ in range(phase_steps):
            step += 1
            i, j, _ = phase_dirs[(step - 1) % len(phase_dirs)]
            path = route_path(topo, i, j)
            c = path[1]
            ds_ic = _dataset_for_edge(datasets, i, c)
            ds_j = _dataset_for_edge(datasets, j, path[-2])
            idx = rng.integers(0, len(ds_ic), size=cfg.batch_size)
            unpaired = (ds_ic.side(i)[idx], ds_ic.side(c)[idx], i, c, j, ds_j.side(j))
            paired_ds = datasets[(step - 1) % len(datasets)]
            total, l_u, l_p, grads = final_loss_step(params, ref, paired_ds,
                                                     unpaired, cfg, sch, rng, topo)
            if not np.isfinite(total):
                raise DivergenceError(f"combined loss diverged at step {step}")
            optimizer_step(opt, [params.flat], [grads.flat])
            log.push(f"unpaired:{i}->{j}", l_u)
            if cfg.lambda2 > 0.0:
                log.push(f"paired:{paired_ds.edge[0]}-{paired_ds.edge[1]}", l_p)
            log.push("total", total)
            if step % cfg.log_window == 0:
                log.flush(step, opt.effective_lr())
