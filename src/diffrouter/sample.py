"""Reverse-process sampling and spanning-tree routing.

A predictor is any callable(x_t, t, x_src, tgt, src) -> noise estimate; both
the learned router and the analytic oracle satisfy this. Indirect translation
chains one full reverse pass per tree hop, feeding each hop's output into the
next hop's conditioning. Direct translation runs a single reverse pass with
the requested (src, tgt) labels.
"""

from dataclasses import dataclass, field

import numpy as np

from .datagen import Topology
from .router import KIND_DIRECT
from .schedules import BridgeSchedule, DiffusionSchedule, bridge_reverse_std, reverse_variance


@dataclass(frozen=True)
class TranslationRequest:
    x_src: np.ndarray
    src: int
    tgt: int
    mode: str = "indirect"  # "indirect" | "direct"
    steps: int = 0          # 0: use the schedule's full T
    eta: float = 0.0
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
    for lbl in (src, tgt):
        if not 0 <= lbl < topo.K:
            raise ValueError(f"domain label {lbl} out of range [0, {topo.K})")
    if src == tgt:
        return [src]
    adj = topo.adjacency()
    prev = {src: None}
    stack = [src]
    while stack:
        node = stack.pop()
        if node == tgt:
            break
        for nxt in adj[node]:
            if nxt not in prev:
                prev[nxt] = node
                stack.append(nxt)
    path = [tgt]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


def _time_grid(T: int, steps: int) -> np.ndarray:
    """Strictly increasing sub-sequence of [0, T] with `steps` reverse steps."""
    if steps <= 0 or steps >= T:
        return np.arange(T + 1)
    grid = np.unique(np.round(np.linspace(0, T, steps + 1)).astype(int))
    return grid


def reverse_step_diffusion(predictor, x_t, t: int, x_src, tgt: int, src: int,
                           sch: DiffusionSchedule, rng: np.random.Generator,
                           t_prev: int | None = None) -> np.ndarray:
    """One DDIM/ancestral step: x_prev = mu + omega * xi.

    mu = (a_prev/a_t) x_t + (sqrt(sigma_prev^2 - omega^2) - sigma_t a_prev / a_t) eps_hat.
    Noise is suppressed on the final step to t_prev = 0, so outputs are means.
    """
    if not 1 <= t <= sch.T:
        raise ValueError(f"t={t} out of range [1, {sch.T}]")
    if t_prev is None:
        t_prev = t - 1
    eps_hat = predictor(x_t, t, x_src, tgt, src)
    omega = reverse_variance(sch, t, t_prev)
    a_p, a_t = sch.a[t_prev], sch.a[t]
    s_p, s_t = sch.sigma[t_prev], sch.sigma[t]
    coef = np.sqrt(max(s_p * s_p - omega * omega, 0.0)) - s_t * a_p / a_t
    mean = (a_p / a_t) * np.asarray(x_t) + coef * eps_hat
    if omega > 0.0:
        return mean + omega * rng.standard_normal(np.shape(mean))
    return mean


def reverse_step_bridge(predictor, x_t, t: int, y, tgt: int, src: int,
                        sch: BridgeSchedule, rng: np.random.Generator,
                        t_prev: int | None = None) -> np.ndarray:
    """One bridge reverse step with endpoint y (x_T == y).

    The t = T step is singular (alpha_T = 0, sigma_T = 0); there the unknown
    clean sample is approximated by the endpoint itself, giving
    x_prev = (alpha_prev + beta_prev) y + sigma_prev * xi with O(1/T) bias.
    """
    if not 1 <= t <= sch.T:
        raise ValueError(f"t={t} out of range [1, {sch.T}]")
    if t_prev is None:
        t_prev = t - 1
    y = np.asarray(y)
    a_p, a_t = sch.alpha[t_prev], sch.alpha[t]
    b_p, b_t = sch.beta[t_prev], sch.beta[t]
    s_p, s_t = sch.sigma[t_prev], sch.sigma[t]
    if t == sch.T:
        mean = (a_p + b_p) * y
        if sch.eta > 0.0 and s_p > 0.0:
            return mean + s_p * rng.standard_normal(np.shape(mean))
        return mean
    eps_hat = predictor(x_t, t, y, tgt, src)
    delta_std = bridge_reverse_std(sch, t, t_prev)
    delta_sq = (delta_std * s_t / s_p) ** 2 if s_p > 0.0 else 0.0
    coef = s_p * np.sqrt(max(s_t * s_t - delta_sq, 0.0)) / s_t - s_t * a_p / a_t
    mean = (a_p / a_t) * np.asarray(x_t) + (b_p - b_t * a_p / a_t) * y + coef * eps_hat
    if delta_std > 0.0 and t_prev > 0:
        return mean + delta_std * rng.standard_normal(np.shape(mean))
    return mean


def sample_chain_diffusion(predictor, x_src, tgt: int, src: int, sch: DiffusionSchedule,
                           rng: np.random.Generator, steps: int = 0,
                           eta: float | None = None) -> tuple[np.ndarray, int]:
    """Full reverse pass from Gaussian noise, conditioned on x_src.
    Returns (sample, number of denoising steps run)."""
    if eta is not None and eta != sch.eta:
        sch = DiffusionSchedule(T=sch.T, a=sch.a, sigma=sch.sigma, eta=eta)
    grid = _time_grid(sch.T, steps)
    x_src = np.asarray(x_src, dtype=np.float64)
    x = rng.standard_normal(x_src.shape)
    for i in range(len(grid) - 1, 0, -1):
        x = reverse_step_diffusion(predictor, x, int(grid[i]), x_src, tgt, src,
                                   sch, rng, t_prev=int(grid[i - 1]))
    return x, len(grid) - 1


def sample_chain_bridge(predictor, y, tgt: int, src: int, sch: BridgeSchedule,
                        rng: np.random.Generator, steps: int = 0) -> tuple[np.ndarray, int]:
    """Full bridge reverse pass starting from the endpoint x_T == y."""
    grid = _time_grid(sch.T, steps)
    y = np.asarray(y, dtype=np.float64)
    x = y.copy()
    for i in range(len(grid) - 1, 0, -1):
        x = reverse_step_bridge(predictor, x, int(grid[i]), y, tgt, src,
                                sch, rng, t_prev=int(grid[i - 1]))
    return x, len(grid) - 1


def translate(predictor, req: TranslationRequest, topo: Topology, sch,
              variant: str = "diffusion") -> TranslationResult:
    """Run the requested translation; see module docstring for the two modes."""
    rng = np.random.default_rng(np.random.SeedSequence([req.seed, req.src, req.tgt]))
    chain = sample_chain_diffusion if variant == "diffusion" else sample_chain_bridge
    if req.mode == "direct":
        if not topo.is_edge(req.src, req.tgt):
            kind = getattr(predictor, "kind", None)
            if kind is not None and kind != KIND_DIRECT:
                raise ValueError(
                    "direct translation between non-adjacent domains requires a "
                    "checkpoint trained with the combined direct objective; this "
                    "one is paired-only")
        if variant == "diffusion":
            x, n_steps = chain(predictor, req.x_src, req.tgt, req.src, sch, rng,
                               steps=req.steps, eta=req.eta)
        else:
            x, n_steps = chain(predictor, req.x_src, req.tgt, req.src, sch, rng,
                               steps=req.steps)
        return TranslationResult(x_tgt=x, intermediates=[], total_steps=n_steps)

    path = route_path(topo, req.src, req.tgt)
    x = np.asarray(req.x_src, dtype=np.float64)
    intermediates = []
    total = 0
    for hop_src, hop_tgt in zip(path[:-1], path[1:]):
        if variant == "diffusion":
            x, n_steps = chain(predictor, x, hop_tgt, hop_src, sch, rng,
                               steps=req.steps, eta=req.eta)
        else:
            x, n_steps = chain(predictor, x, hop_tgt, hop_src, sch, rng,
                               steps=req.steps)
        total += n_steps
        if hop_tgt != req.tgt:
            intermediates.append(x)
    return TranslationResult(x_tgt=x, intermediates=intermediates, total_steps=total)
