"""Routing-conditioned noise predictor.

The backbone consumes the concatenation
[x_t | x_src | time_features(t) | emb[tgt] | emb[src]] and emits a length-d
noise estimate. One parameter set serves every (src, tgt) direction; the
domain embedding table is trained jointly with the backbone. Like t, each
label is an int for the whole batch or a (B,) int array of per-row labels.

The backbone runs in the dtype of its weights. Training keeps a float64
master copy and runs each step on a float32 cast of it (see train.py); a
loaded checkpoint runs at the float32 it stores. Noise estimates are returned
as float64 either way.

All parameters live in one contiguous vector, `RouterParams.flat`: the
backbone weights and biases, layer by layer, then the embedding table, in
`param_list()` order, which is also the checkpoint block order. The arrays
the backbone and `domain_emb` expose are views into it. A gradient is a flat
vector of the same layout and dtype, so adding, scaling and the optimizer
step are each one operation on one array. A reference predictor, such as the
finetune teacher, is a RouterParams holding a copy of `flat`.
"""

import functools
import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _blockfile, netcore
from .datagen import check_labels
from .netcore import DenseNet

DEFAULT_TIME_DIM = 16
DEFAULT_EMB_DIM = 8

KIND_PAIRED = "paired-only"
KIND_DIRECT = "direct"


@dataclass
class RouterParams:
    """Router parameters. On construction the backbone arrays and `domain_emb`
    become views into `flat`, which is built from them when not given."""

    backbone: DenseNet
    domain_emb: np.ndarray  # (K, E)
    data_dim: int
    n_domains: int
    n_timesteps: int
    time_dim: int = DEFAULT_TIME_DIM
    kind: str = KIND_PAIRED
    flat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.flat is None:
            self.flat = np.concatenate([a.ravel() for a in self.param_list()])
        arrays = _param_views(self, self.flat)
        self.backbone = DenseNet(weights=arrays[:-1:2], biases=arrays[1:-1:2],
                                 activation=self.backbone.activation)
        self.domain_emb = arrays[-1]

    @property
    def emb_dim(self) -> int:
        return self.domain_emb.shape[1]

    def param_list(self) -> list[np.ndarray]:
        return self.backbone.param_list() + [self.domain_emb]

    def __call__(self, x_t, t, x_src, tgt, src) -> np.ndarray:
        return predict_noise(self, x_t, t, x_src, tgt, src)


@dataclass
class RouterGrads:
    """A gradient vector with a view of its embedding tail. Nothing in the
    library uses it: it, its methods and `zeros_like_grads` stay only because
    perfbench/tracer.py names them."""

    flat: np.ndarray
    domain_emb: np.ndarray

    def add_(self, other: "RouterGrads") -> None:
        self.flat += other.flat

    def scale_(self, c: float) -> None:
        self.flat *= c


def init_router(data_dim: int, n_domains: int, n_timesteps: int,
                hidden: list[int], rng: np.random.Generator,
                time_dim: int = DEFAULT_TIME_DIM, emb_dim: int = DEFAULT_EMB_DIM,
                activation: str = "silu", out_scale: float = 1.0) -> RouterParams:
    in_dim = 2 * data_dim + time_dim + 2 * emb_dim
    widths = [in_dim] + list(hidden) + [data_dim]
    backbone = netcore.init_dense(widths, rng, activation=activation)
    if out_scale != 1.0:
        backbone.weights[-1] *= out_scale
    domain_emb = rng.normal(0.0, 0.1, size=(n_domains, emb_dim))
    return RouterParams(backbone=backbone, domain_emb=domain_emb, data_dim=data_dim,
                        n_domains=n_domains, n_timesteps=n_timesteps, time_dim=time_dim)


def time_features(t, n_timesteps: int, width: int) -> np.ndarray:
    """Sinusoidal features of t / T at geometrically spaced frequencies.

    t: int or int array (B,); returns (width,) or (B, width).
    """
    t_arr = np.asarray(t, dtype=np.float64)
    half = width // 2
    freqs = np.exp(np.linspace(0.0, np.log(4.0 * n_timesteps), half))
    phase = (t_arr[..., None] / n_timesteps) * freqs
    return np.concatenate([np.sin(phase), np.cos(phase)], axis=-1)


@functools.lru_cache(maxsize=16)
def time_table(n_timesteps: int, width: int) -> np.ndarray:
    """Read-only (T + 1, width) table: row t is time_features(t, T, width)."""
    table = time_features(np.arange(n_timesteps + 1), n_timesteps, width)
    table.flags.writeable = False
    return table


def backbone_input(params: RouterParams, x_t, t, x_src, tgt, src) -> np.ndarray:
    """The (B, in_dim) backbone input, in the dtype of the backbone weights."""
    check_labels(params.n_domains, tgt, src)
    x_t = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    x_src = np.atleast_2d(np.asarray(x_src, dtype=np.float64))
    if x_t.shape[1] != params.data_dim or x_src.shape[1] != params.data_dim:
        raise ValueError(f"expected data dimension {params.data_dim}, "
                         f"got {x_t.shape[1]} / {x_src.shape[1]}")
    t = np.asarray(t)
    if t.dtype.kind not in "iu" or t.size and not (
            0 <= t.min() and t.max() <= params.n_timesteps):
        raise ValueError(f"time steps must be integers in [0, {params.n_timesteps}]")
    d, E = params.data_dim, params.emb_dim
    lo = 2 * d + params.time_dim
    inp = np.empty((x_t.shape[0], lo + 2 * E), dtype=params.backbone.weights[0].dtype)
    inp[:, :d] = x_t
    inp[:, d:2 * d] = x_src
    inp[:, 2 * d:lo] = time_table(params.n_timesteps, params.time_dim)[t]
    inp[:, lo:lo + E] = params.domain_emb[tgt]
    inp[:, lo + E:] = params.domain_emb[src]
    return inp


def predict_noise(params: RouterParams, x_t, t, x_src, tgt, src) -> np.ndarray:
    """Noise estimate for x_t at step t, conditioned on the source sample and
    the (tgt, src) label pair. Accepts a single vector or a (B, d) batch; t,
    tgt and src may each be a scalar or a per-row array. Returns float64."""
    squeeze = np.asarray(x_t).ndim == 1
    inp = backbone_input(params, x_t, t, x_src, tgt, src)
    out = netcore.forward(params.backbone, inp).astype(np.float64, copy=False)
    return out[0] if squeeze else out


def forward_cached(params: RouterParams, x_t, t, x_src, tgt, src):
    inp = backbone_input(params, x_t, t, x_src, tgt, src)
    out, cache = netcore.forward_cached(params.backbone, inp)
    return out, (cache, tgt, src)


def backward(params: RouterParams, cache, output_grad: np.ndarray) -> np.ndarray:
    """The gradient of <output, output_grad> as a vector in the layout and
    dtype of `params.flat`; each row's embedding gradient goes to its labels."""
    net_cache, tgt, src = cache
    grads = np.empty_like(params.flat)
    *net_grads, emb_grad = _param_views(params, grads)
    emb_grad[:] = 0.0
    _, gx = netcore.backward(params.backbone, net_cache, output_grad, out=net_grads)
    gx = np.atleast_2d(gx)
    B, E = gx.shape[0], params.emb_dim
    lo = 2 * params.data_dim + params.time_dim
    np.add.at(emb_grad, np.broadcast_to(tgt, B), gx[:, lo:lo + E])
    np.add.at(emb_grad, np.broadcast_to(src, B), gx[:, lo + E:lo + 2 * E])
    return grads


def _param_views(params: RouterParams, flat: np.ndarray) -> list[np.ndarray]:
    """Consecutive views into the 1-D `flat`, shaped like `params.param_list()`."""
    out, lo = [], 0
    for a in params.param_list():
        out.append(flat[lo:lo + a.size].reshape(a.shape))
        lo += a.size
    if lo != flat.size:
        raise ValueError(f"the parameters hold {lo} values, the vector {flat.size}")
    return out


def zeros_like_grads(params: RouterParams) -> RouterGrads:
    flat = np.zeros_like(params.flat)
    return RouterGrads(flat=flat, domain_emb=_param_views(params, flat)[-1])


def as_float64(params: RouterParams) -> RouterParams:
    """Independent float64 copy of params, e.g. of a loaded float32
    checkpoint that is to be trained further."""
    return replace(params, flat=params.flat.astype(np.float64))


def freeze(params: RouterParams) -> RouterParams:
    """A reference predictor holding a copy of params' current values."""
    return replace(params, flat=params.flat.copy())


def save_checkpoint(path, params: RouterParams, extra_header: dict | None = None) -> None:
    header = {
        "widths": ",".join(str(w) for w in params.backbone.widths),
        "activation": params.backbone.activation,
        "data_dim": params.data_dim,
        "n_domains": params.n_domains,
        "n_timesteps": params.n_timesteps,
        "time_dim": params.time_dim,
        "emb_dim": params.emb_dim,
        "kind": params.kind,
    }
    if extra_header:
        header.update(extra_header)
    netcore.save_params(path, header, params.param_list())


def load_checkpoint(path) -> tuple[RouterParams, dict]:
    """Parameters at the float32 the file stores, and the header. Raises
    ValueError if the blocks do not match the layout the header gives."""
    header, arrays = netcore.load_params(path)
    with _blockfile.header_fields(path):
        widths = [int(w) for w in header["widths"].split(",")]
        n_domains, emb_dim = int(header["n_domains"]), int(header["emb_dim"])
        data_dim, n_timesteps = int(header["data_dim"]), int(header["n_timesteps"])
        time_dim, activation = int(header["time_dim"]), header["activation"]
    if activation not in netcore.ACTIVATIONS:
        raise ValueError(f"{path}: unsupported activation {activation!r}")
    # per layer a (out, in) weight and an (out,) bias, then the embedding table
    shapes = [s for n_in, n_out in zip(widths[:-1], widths[1:])
              for s in ((n_out, n_in), (n_out,))] + [(n_domains, emb_dim)]
    _blockfile.check_sizes(path, arrays, [math.prod(s) for s in shapes])
    arrays = [a.reshape(s) for a, s in zip(arrays, shapes)]
    backbone = DenseNet(weights=arrays[:-1:2], biases=arrays[1:-1:2], activation=activation)
    params = RouterParams(backbone=backbone, domain_emb=arrays[-1], data_dim=data_dim,
                          n_domains=n_domains, n_timesteps=n_timesteps,
                          time_dim=time_dim, kind=header.get("kind", KIND_PAIRED))
    return params, header


def topology_hash(edges: list[tuple[int, int]]) -> str:
    canon = ";".join(f"{a}-{b}" for a, b in sorted(tuple(sorted(e)) for e in edges))
    return hashlib.sha1(canon.encode()).hexdigest()[:12]
