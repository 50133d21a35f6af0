"""Minimal dense-network core: forward, reverse-mode gradients, AdamW.

Parameters are numpy arrays: float64 while training, float32 as loaded from
a checkpoint. The forward pass computes in the dtype of the weights. Weights
have shape (out, in); the forward map for one layer is h @ W.T + b with SiLU
between layers (none after the last). A network's parameters, its gradients
and the optimizer's inputs all share one layout: a list of arrays in
`param_list()` order, layer by layer the weight then the bias. `backward` can
write its gradients into caller-owned arrays; the router passes views into
one flat vector, so its optimizer step is one AdamW update of one array.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _blockfile, _kernels

ACTIVATIONS = ("silu", "identity")

CHECKPOINT_MAGIC = "diffrouter-checkpoint"
CHECKPOINT_VERSION = 1


class DivergenceError(RuntimeError):
    """Raised when non-finite gradients or losses are encountered."""


@dataclass
class DenseNet:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "silu"

    @property
    def widths(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def param_list(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def init_dense(widths: list[int], rng: np.random.Generator, activation: str = "silu",
               scale: float | None = None) -> DenseNet:
    """He-style Gaussian init; biases start at zero."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unsupported activation {activation!r}")
    weights, biases = [], []
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        s = scale if scale is not None else np.sqrt(2.0 / n_in)
        weights.append(rng.normal(0.0, s, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return DenseNet(weights=weights, biases=biases, activation=activation)


def _activate(net: DenseNet, z: np.ndarray) -> np.ndarray:
    if net.activation == "silu":
        return _kernels.silu(z)
    if net.activation == "identity":
        return z
    raise ValueError(f"unsupported activation {net.activation!r}")


def _activate_grad(net: DenseNet, z: np.ndarray) -> np.ndarray:
    if net.activation == "silu":
        return _kernels.silu_grad(z)
    if net.activation == "identity":
        return np.ones_like(z)
    raise ValueError(f"unsupported activation {net.activation!r}")


def forward_cached(net: DenseNet, x: np.ndarray):
    """Forward pass keeping pre-activations for the backward pass.

    x: (B, d_in) or (d_in,), cast once to the dtype of the weights.
    Returns (output, cache).
    """
    squeeze = x.ndim == 1
    h = np.atleast_2d(np.asarray(x, dtype=net.weights[0].dtype))
    if h.shape[1] != net.weights[0].shape[1]:
        raise ValueError(f"input width {h.shape[1]} != layer width {net.weights[0].shape[1]}")
    hs = [h]
    zs = []
    n_layers = len(net.weights)
    for li, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = _kernels.affine(h, w, b)
        zs.append(z)
        h = _activate(net, z) if li < n_layers - 1 else z
        hs.append(h)
    out = h[0] if squeeze else h
    return out, (hs, zs, squeeze)


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    out, _ = forward_cached(net, x)
    return out


def backward(net: DenseNet, cache, output_grad: np.ndarray,
             out: list[np.ndarray] | None = None):
    """Backpropagate output_grad; returns (gradients, input_grad), the
    gradients a list in `param_list()` order. They are written into `out`
    when it is given (float64 arrays shaped like the parameters), else into
    new arrays."""
    hs, zs, squeeze = cache
    g = np.atleast_2d(np.asarray(output_grad, dtype=np.float64))
    if g.shape != zs[-1].shape:
        raise ValueError(f"output grad shape {g.shape} != output shape {zs[-1].shape}")
    if out is None:
        out = [np.empty(p.shape) for p in net.param_list()]
    n_layers = len(net.weights)
    for li in range(n_layers - 1, -1, -1):
        if li < n_layers - 1:
            g = g * _activate_grad(net, zs[li])
        np.matmul(g.T, hs[li], out=out[2 * li])
        np.sum(g, axis=0, out=out[2 * li + 1])
        g = g @ net.weights[li]
    gx = g[0] if squeeze else g
    return out, gx


@dataclass
class OptimizerState:
    """AdamW with decoupled weight decay and linear learning-rate warm-up."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.9
    eps: float = 1e-8
    weight_decay: float = 0.0
    warmup_steps: int = 0
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def effective_lr(self) -> float:
        if self.warmup_steps > 0 and self.step < self.warmup_steps:
            return self.lr * (self.step + 1) / self.warmup_steps
        return self.lr


def optimizer_step(state: OptimizerState, params: list[np.ndarray],
                   grads: list[np.ndarray]) -> None:
    """One in-place AdamW update of each array in `params` by the gradient at
    the same index. Raises DivergenceError on non-finite grads."""
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient encountered; run aborted")
    lr = state.effective_lr()
    state.step += 1
    for p, g, m, v in zip(params, grads, state.m, state.v):
        _kernels.adamw_update(p, g, m, v, lr, state.beta1, state.beta2,
                              state.eps, state.weight_decay, state.step)


def save_params(path, header: dict, arrays: list[np.ndarray]) -> None:
    """Checkpoint file in the `_blockfile` format: `version` first, then the
    header keys sorted, then the arrays as float32 blocks."""
    header = {"version": CHECKPOINT_VERSION, **dict(sorted(header.items()))}
    _blockfile.write_blocks(path, CHECKPOINT_MAGIC, header, arrays)


def load_params(path) -> tuple[dict, list[np.ndarray]]:
    """Returns (header dict, flat float32 arrays in file order). Raises
    ValueError for another file kind or checkpoint version."""
    header, arrays = _blockfile.read_blocks(path, CHECKPOINT_MAGIC)
    if header.get("version") != str(CHECKPOINT_VERSION):
        raise ValueError(f"{path}: checkpoint version {header.get('version')} "
                         f"is not the supported {CHECKPOINT_VERSION}")
    return header, [a.astype(np.float32) for a in arrays]
