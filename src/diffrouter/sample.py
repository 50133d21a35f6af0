"""Reverse-process sampling and spanning-tree routing.

A predictor is any callable(x_t, t, x_src, tgt, src) -> noise estimate; both
the learned router and the analytic oracle satisfy this. A reverse chain keeps
x_src and the labels fixed, so `sample_chain_*` binds the predictor to them
once per chain (`router.condition`), and each reverse step takes the bound
f(x_t, t). For the router that binding computes layer 0's source, label and
time blocks once per chain instead of once per step, copies the later
layers, and holds a workspace that every step of the chain writes its layers
into; the chain's binding, and so its copies and workspace, is freed with
the chain. Indirect translation
chains one full reverse pass per tree hop, feeding each hop's output into the
next hop's conditioning, and so binds once per hop. Direct translation is a
one-hop route: a single reverse pass with the requested (src, tgt) labels.

Each hop draws its noise from its own stream, seeded by
(seed, src, hop target). In a tree the path from src to a hop's target is
unique, so that key names the hop's input, and a hop's output does not depend
on the final target: the first hop i->c of i->j is the translation i->c. A
one-hop route's stream is (seed, src, tgt). Requests that share x_src, seed
and steps can share a `hops` cache, so each hop runs once; the result is the
same with or without it.

A chain owns all the state it writes: its binding (the snapshot and the
workspace, made by the chain and freed with it), its noise generator, seeded
by its hop, and its sample x. The predictor, the schedule and x_src are only
read. So chains run in separate threads need no lock, as long as no `hops`
cache is shared between threads; `metrics.evaluate_checkpoint` gives each
group of routes it runs its own.

The schedule's type picks the sampler, and its eta the reverse-step noise: a
`DiffusionSchedule` starts from Gaussian noise, a `BridgeSchedule` from the source.
"""

from dataclasses import dataclass, field

import numpy as np

from .datagen import Topology, check_labels
from .router import KIND_DIRECT, condition
from .schedules import (BridgeSchedule, DiffusionSchedule, bridge_reverse_std, prev_step,
                        reverse_variance)


@dataclass(frozen=True)
class TranslationRequest:
    x_src: np.ndarray
    src: int
    tgt: int
    mode: str = "indirect"  # "indirect" | "direct"
    steps: int = 0          # 0: use the schedule's full T
    seed: int = 0

    def __post_init__(self):
        if self.src == self.tgt:
            raise ValueError("translation requires src != tgt")
        if self.mode not in ("indirect", "direct"):
            raise ValueError(f"unknown translation mode {self.mode!r}")
        if self.steps < 0:
            raise ValueError("steps must be >= 1 (or 0 for the full schedule)")


@dataclass
class TranslationResult:
    x_tgt: np.ndarray
    intermediates: list[np.ndarray] = field(default_factory=list)
    total_steps: int = 0


def route_path(topo: Topology, src: int, tgt: int) -> list[int]:
    """Unique simple path from src to tgt in the spanning tree."""
    check_labels(topo.K, src, tgt)
    toward_tgt = topo.parents(tgt)
    path = [src]
    while path[-1] != tgt:
        path.append(toward_tgt[path[-1]])
    return path


def _time_grid(T: int, steps: int) -> np.ndarray:
    """Strictly increasing sub-sequence of [0, T] with `steps` reverse steps."""
    if steps <= 0 or steps >= T:
        return np.arange(T + 1)
    grid = np.unique(np.round(np.linspace(0, T, steps + 1)).astype(int))
    return grid


def reverse_step_diffusion(predictor, x_t, t: int, sch: DiffusionSchedule,
                           rng: np.random.Generator,
                           t_prev: int | None = None) -> np.ndarray:
    """One DDIM/ancestral step by a bound predictor(x_t, t) (see
    `router.condition`): x_prev = mu + omega * xi.

    mu = (a_prev/a_t) x_t + (sqrt(sigma_prev^2 - omega^2) - sigma_t a_prev / a_t) eps_hat.
    Noise is suppressed on the final step to t_prev = 0, so outputs are means.
    """
    t_prev = prev_step(sch, t, t_prev)
    eps_hat = predictor(x_t, t)
    omega = reverse_variance(sch, t, t_prev)
    a_p, a_t = sch.a[t_prev], sch.a[t]
    s_p, s_t = sch.sigma[t_prev], sch.sigma[t]
    coef = np.sqrt(max(s_p * s_p - omega * omega, 0.0)) - s_t * a_p / a_t
    mean = (a_p / a_t) * np.asarray(x_t) + coef * eps_hat
    if omega > 0.0:
        return mean + omega * rng.standard_normal(np.shape(mean))
    return mean


def reverse_step_bridge(predictor, x_t, t: int, y, sch: BridgeSchedule,
                        rng: np.random.Generator,
                        t_prev: int | None = None) -> np.ndarray:
    """One bridge reverse step with endpoint y (x_T == y), by a predictor
    bound to y and the labels.

    The t = T step is singular (alpha_T = 0, sigma_T = 0); there the unknown
    clean sample is approximated by the endpoint itself, giving
    x_prev = (alpha_prev + beta_prev) y + sigma_prev * xi with O(1/T) bias.
    """
    t_prev = prev_step(sch, t, t_prev)
    y = np.asarray(y)
    a_p, a_t = sch.alpha[t_prev], sch.alpha[t]
    b_p, b_t = sch.beta[t_prev], sch.beta[t]
    s_p, s_t = sch.sigma[t_prev], sch.sigma[t]
    if t == sch.T:
        mean = (a_p + b_p) * y
        if sch.eta > 0.0 and s_p > 0.0:
            return mean + s_p * rng.standard_normal(np.shape(mean))
        return mean
    eps_hat = predictor(x_t, t)
    delta_std = bridge_reverse_std(sch, t, t_prev)
    delta_sq = (delta_std * s_t / s_p) ** 2 if s_p > 0.0 else 0.0
    coef = s_p * np.sqrt(max(s_t * s_t - delta_sq, 0.0)) / s_t - s_t * a_p / a_t
    mean = (a_p / a_t) * np.asarray(x_t) + (b_p - b_t * a_p / a_t) * y + coef * eps_hat
    if delta_std > 0.0 and t_prev > 0:
        return mean + delta_std * rng.standard_normal(np.shape(mean))
    return mean


def sample_chain_diffusion(predictor, x_src, tgt: int, src: int, sch: DiffusionSchedule,
                           rng: np.random.Generator,
                           steps: int = 0) -> tuple[np.ndarray, int]:
    """Full reverse pass from Gaussian noise, conditioned on x_src.
    Returns (sample, number of denoising steps run)."""
    grid = _time_grid(sch.T, steps)
    x_src = np.asarray(x_src, dtype=np.float64)
    bound = condition(predictor, x_src, tgt, src)
    x = rng.standard_normal(x_src.shape)
    for i in range(len(grid) - 1, 0, -1):
        x = reverse_step_diffusion(bound, x, int(grid[i]), sch, rng, t_prev=int(grid[i - 1]))
    return x, len(grid) - 1


def sample_chain_bridge(predictor, y, tgt: int, src: int, sch: BridgeSchedule,
                        rng: np.random.Generator, steps: int = 0) -> tuple[np.ndarray, int]:
    """Full bridge reverse pass starting from the endpoint x_T == y."""
    grid = _time_grid(sch.T, steps)
    y = np.asarray(y, dtype=np.float64)
    bound = condition(predictor, y, tgt, src)
    x = y.copy()
    for i in range(len(grid) - 1, 0, -1):
        x = reverse_step_bridge(bound, x, int(grid[i]), y, sch, rng, t_prev=int(grid[i - 1]))
    return x, len(grid) - 1


def translate(predictor, req: TranslationRequest, topo: Topology,
              sch: DiffusionSchedule | BridgeSchedule,
              hops: dict | None = None) -> TranslationResult:
    """Run the requested translation by the sampler of `sch`; see module
    docstring. `hops` maps (src, hop_src, hop_tgt) to the hop's chain output;
    it is read and filled here, and is only shared between requests with the
    same x_src, seed and steps and the same predictor and schedule."""
    chain = sample_chain_bridge if isinstance(sch, BridgeSchedule) else sample_chain_diffusion
    check_labels(topo.K, req.src, req.tgt)
    if req.mode == "direct":
        if not topo.is_edge(req.src, req.tgt):
            kind = getattr(predictor, "kind", None)
            if kind is not None and kind != KIND_DIRECT:
                raise ValueError(
                    "direct translation between non-adjacent domains requires a "
                    "checkpoint trained with the combined direct objective; this "
                    "one is paired-only")
        path = [req.src, req.tgt]  # one hop
    else:
        path = route_path(topo, req.src, req.tgt)
    hops = {} if hops is None else hops
    x = np.asarray(req.x_src, dtype=np.float64)
    intermediates = []
    total = 0
    for hop_src, hop_tgt in zip(path[:-1], path[1:]):
        key = (req.src, hop_src, hop_tgt)
        if key not in hops:
            rng = np.random.default_rng(np.random.SeedSequence([req.seed, req.src, hop_tgt]))
            hops[key] = chain(predictor, x, hop_tgt, hop_src, sch, rng, steps=req.steps)
        x, n_steps = hops[key]
        total += n_steps
        if hop_tgt != req.tgt:
            intermediates.append(x)
    return TranslationResult(x_tgt=x, intermediates=intermediates, total_steps=total)
