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

Both variants run one chain and one reverse step, which read the schedule's
alpha, beta and sigma tables, and its eta scales the reverse-step std. A chain
starts from the source on the bridge (beta != 0, x_T == x_src) and from
Gaussian noise on diffusion (beta = 0).
"""

from dataclasses import dataclass, field

import numpy as np

from .datagen import Topology, check_labels
from .router import KIND_DIRECT, condition
from .schedules import Schedule, prev_step, reverse_variance


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


def reverse_step_diffusion(predictor, x_t, t: int, sch: Schedule,
                           rng: np.random.Generator,
                           t_prev: int | None = None, y=None) -> np.ndarray:
    """One reverse step by a bound predictor(x_t, t) (see `router.condition`),
    for either variant; the name is kept for the benchmark's tracer until
    ROADMAP item 2 renames it. y is the chain's source x_src; the bridge
    reads it, and without it the step raises ValueError.
    x_prev = mu + omega * xi, with omega from `reverse_variance` and

    mu = (a_p/a_t) x_t + (b_p - b_t a_p/a_t) y
         + (sqrt(sigma_p^2 - omega^2) - sigma_t a_p / a_t) eps_hat.

    Noise is suppressed on the final step to t_prev = 0, so outputs are means.
    The bridge's t = T step is singular (alpha_T = 0, sigma_T = 0); there the
    unknown clean sample is approximated by the endpoint itself, giving
    x_prev = (alpha_prev + beta_prev) y + omega xi with O(1/T) bias.
    """
    t_prev = prev_step(sch, t, t_prev)
    a_p, a_t = sch.alpha[t_prev], sch.alpha[t]
    b_p, b_t = sch.beta[t_prev], sch.beta[t]
    if y is None and sch.variant == "bridge":
        raise ValueError("the bridge's reverse step needs the source: pass y=x_src")
    s_p, s_t = sch.sigma[t_prev], sch.sigma[t]
    omega = reverse_variance(sch, t, t_prev)
    if a_t == 0.0:
        mean = (a_p + b_p) * np.asarray(y)
    else:
        eps_hat = predictor(x_t, t)
        coef = np.sqrt(max(s_p * s_p - omega * omega, 0.0)) - s_t * a_p / a_t
        mean = (a_p / a_t) * np.asarray(x_t)
        src_coef = b_p - b_t * a_p / a_t
        if src_coef != 0.0:  # diffusion (beta = 0) adds no source term
            mean += src_coef * np.asarray(y)
        mean += coef * eps_hat
    if omega > 0.0:
        return mean + omega * rng.standard_normal(np.shape(mean))
    return mean


def sample_chain_diffusion(predictor, x_src, tgt: int, src: int, sch: Schedule,
                           rng: np.random.Generator,
                           steps: int = 0) -> tuple[np.ndarray, int]:
    """Full reverse pass conditioned on x_src, for either variant; the name is
    kept for the benchmark's tracer until ROADMAP item 2 renames it. Starts
    from x_T == x_src on the bridge, else from Gaussian noise.
    Returns (sample, number of denoising steps run)."""
    grid = _time_grid(sch.T, steps)
    x_src = np.asarray(x_src, dtype=np.float64)
    bound = condition(predictor, x_src, tgt, src)
    x = x_src.copy() if sch.variant == "bridge" else rng.standard_normal(x_src.shape)
    for i in range(len(grid) - 1, 0, -1):
        x = reverse_step_diffusion(bound, x, int(grid[i]), sch, rng,
                                   t_prev=int(grid[i - 1]), y=x_src)
    return x, len(grid) - 1


def translate(predictor, req: TranslationRequest, topo: Topology, sch: Schedule,
              hops: dict | None = None) -> TranslationResult:
    """Run the requested translation under the schedule `sch`; see module
    docstring. `hops` maps (src, hop_src, hop_tgt) to the hop's chain output;
    it is read and filled here, and is only shared between requests with the
    same x_src, seed and steps and the same predictor and schedule."""
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
            hops[key] = sample_chain_diffusion(predictor, x, hop_tgt, hop_src, sch, rng,
                                               steps=req.steps)
        x, n_steps = hops[key]
        total += n_steps
        if hop_tgt != req.tgt:
            intermediates.append(x)
    return TranslationResult(x_tgt=x, intermediates=intermediates, total_steps=total)
