"""Minimal dense-network core: forward, reverse-mode gradients, AdamW.

Parameters are numpy arrays of one dtype: float32 for training and for a
loaded checkpoint, float64 for the gradient checks. The forward and backward
passes compute in the dtype of the weights, and AdamW updates the parameters
in place in their own dtype. Weights
have shape (out, in); the forward map for one layer is h @ W.T + b with SiLU
between layers (none after the last). Two passes share that map.
`forward_cached`, the training pass, keeps each layer's input and
pre-activation and each hidden layer's SiLU gate 1 + tanh(z / 2), from which
`backward` forms the SiLU derivative without a tanh of its own: it holds one
more (B, width) array per hidden layer. `forward_inplace`, the forward-only
pass, keeps nothing: it runs the layers after the first from layer 0's
pre-activation (which the router assembles from a block computed once per
binding), over copies of those layers made once by `forward_only_layers`,
writing every layer into two caller-owned work arrays with `out=` ufuncs.
With SiLU it carries each pre-activation halved, u = z / 2: the hidden
layers' copies are multiplied by 0.5, which is exact in binary floating
point, so each SiLU is `_kernels.silu_of_half` and the output is
bit-identical to the training pass's. A network's parameters and its
gradients share one layout: a list of arrays in `param_list()` order, layer
by layer the weight then the bias. `backward` can write its gradients into
caller-owned arrays; the router passes views into one flat vector, so its
optimizer step is one AdamW update of that one array. `backward` stops at
layer 0's pre-activation: the router needs the input gradient of only its
embedding columns.
"""

from dataclasses import dataclass

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


def init_dense(widths: list[int], rng: np.random.Generator,
               activation: str = "silu") -> DenseNet:
    """He-style Gaussian init; biases start at zero."""
    if activation not in ACTIVATIONS:
        raise ValueError(f"unsupported activation {activation!r}")
    weights, biases = [], []
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return DenseNet(weights=weights, biases=biases, activation=activation)


def _activate(net: DenseNet, z: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(activation of z, the gate `_activate_grad` takes: None for identity)."""
    if net.activation == "silu":
        return _kernels.silu(z)
    if net.activation == "identity":
        return z, None
    raise ValueError(f"unsupported activation {net.activation!r}")


def _activate_grad(net: DenseNet, z: np.ndarray, q: np.ndarray | None) -> np.ndarray:
    if net.activation == "silu":
        return _kernels.silu_grad(z, q)
    if net.activation == "identity":
        return np.ones_like(z)
    raise ValueError(f"unsupported activation {net.activation!r}")


def forward_cached(net: DenseNet, x: np.ndarray):
    """Forward pass keeping each layer's input and pre-activation, and each
    hidden layer's activation gate, for the backward pass.

    x: (B, d_in) or (d_in,), cast once to the dtype of the weights.
    Returns (output, cache).
    """
    squeeze = x.ndim == 1
    h = np.atleast_2d(np.asarray(x, dtype=net.weights[0].dtype))
    if h.shape[1] != net.weights[0].shape[1]:
        raise ValueError(f"input width {h.shape[1]} != layer width {net.weights[0].shape[1]}")
    z = _kernels.affine(h, net.weights[0], net.biases[0])
    hs, zs, qs = [h], [z], []
    for w, b in zip(net.weights[1:], net.biases[1:]):
        h, q = _activate(net, z)
        z = _kernels.affine(h, w, b)
        hs.append(h)
        zs.append(z)
        qs.append(q)
    return (z[0] if squeeze else z), (hs, zs, qs, squeeze)


def forward_only_layers(net: DenseNet) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """(scale, layers) for `forward_inplace`: copies of the (w, b) of the
    layers after layer 0, each hidden one multiplied by scale, the output
    layer as is. scale is 0.5 when a SiLU follows layer 0 and 1 otherwise;
    a caller multiplies layer 0's pre-activation by it too."""
    if net.activation not in ACTIVATIONS:
        raise ValueError(f"unsupported activation {net.activation!r}")
    scale = 0.5 if net.activation == "silu" and len(net.weights) > 1 else 1.0
    scales = [scale] * (len(net.weights) - 2) + [1.0]
    return scale, [(w * c, b * c) for w, b, c in zip(net.weights[1:], net.biases[1:], scales)]


def forward_inplace(u: np.ndarray, layers, scale: float, work: list[np.ndarray]) -> np.ndarray:
    """The output of `layers` from layer 0's pre-activation u, (B, width_1),
    both multiplied by the scale `forward_only_layers` returned: at 0.5 each
    layer's SiLU is `_kernels.silu_of_half`, at 1 there is no activation.
    `work` is two flat arrays of u's dtype, each of at least B times the
    widest layer; u is a view of the first. Each layer writes into the one
    that does not hold its input, so u is overwritten, and the output is a
    view into `work`: a caller copies it out before the next call."""
    i = 0
    for w, b in layers:
        h = u
        if scale != 1.0:
            i = 1 - i
            h = _kernels.silu_of_half(u, work_array(work[i], u.shape))
        i = 1 - i
        u = np.matmul(h, w.T, out=work_array(work[i], (len(h), w.shape[0])))
        u += b
    return u


def work_array(flat: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The leading part of a flat work array as a C-ordered array of `shape`."""
    return flat[:shape[0] * shape[1]].reshape(shape)


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    out, _ = forward_cached(net, x)
    return out


def backward(net: DenseNet, cache, output_grad: np.ndarray,
             out: list[np.ndarray] | None = None):
    """Backpropagate output_grad; returns (gradients, gz), the gradients a
    list in `param_list()` order and gz the gradient at layer 0's
    pre-activation, (B, width_1) or (width_1,) like the output. A caller that
    needs the gradient of some input columns multiplies gz by those columns
    of the layer-0 weight. The gradients are written into `out` when it is
    given (arrays shaped like the parameters, of their dtype), else into new
    arrays. output_grad is cast once to the weights' dtype."""
    hs, zs, qs, squeeze = cache
    g = np.atleast_2d(np.asarray(output_grad, dtype=net.weights[0].dtype))
    if g.shape != zs[-1].shape:
        raise ValueError(f"output grad shape {g.shape} != output shape {zs[-1].shape}")
    if out is None:
        out = [np.empty_like(p) for p in net.param_list()]
    for li in range(len(net.weights) - 1, -1, -1):
        np.matmul(g.T, hs[li], out=out[2 * li])
        np.add.reduce(g, axis=0, out=out[2 * li + 1])
        if li:
            g = g @ net.weights[li]
            g *= _activate_grad(net, zs[li - 1], qs[li - 1])
    return out, (g[0] if squeeze else g)


@dataclass
class OptimizerState:
    """AdamW without weight decay (Adam), with linear learning-rate warm-up.
    `m` and `v` are the moments of the one parameter array, made at the
    first step."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.9
    eps: float = 1e-8
    warmup_steps: int = 0
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def effective_lr(self) -> float:
        if self.warmup_steps > 0 and self.step < self.warmup_steps:
            return self.lr * (self.step + 1) / self.warmup_steps
        return self.lr


def optimizer_step(state: OptimizerState, param: np.ndarray, grad: np.ndarray) -> None:
    """One in-place AdamW update of `param` by `grad`, in the dtype of the
    parameter. Raises DivergenceError on a non-finite grad, before anything
    is changed."""
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("non-finite gradient encountered; run aborted")
    if state.m is None:
        state.m = np.zeros_like(param)
        state.v = np.zeros_like(param)
    lr = state.effective_lr()
    state.step += 1
    _kernels.adamw_update(param, grad, state.m, state.v, lr, state.beta1, state.beta2,
                          state.eps, state.step)


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
