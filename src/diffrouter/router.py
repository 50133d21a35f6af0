"""Routing-conditioned noise predictor.

The backbone consumes the concatenation
[x_t | x_src | time_features(t) | emb[tgt] | emb[src]] and emits a length-d
noise estimate. One parameter set serves every (src, tgt) direction; the
domain embedding table is trained jointly with the backbone.

The backbone runs in the dtype of its weights: float64 in training, float32
for a loaded checkpoint. Noise estimates are returned as float64 either way.
"""

import copy
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _blockfile, netcore
from .netcore import DenseNet, GradBuffer

DEFAULT_TIME_DIM = 16
DEFAULT_EMB_DIM = 8

KIND_PAIRED = "paired-only"
KIND_DIRECT = "direct"


@dataclass
class RouterParams:
    backbone: DenseNet
    domain_emb: np.ndarray  # (K, E)
    data_dim: int
    n_domains: int
    n_timesteps: int
    time_dim: int = DEFAULT_TIME_DIM
    kind: str = KIND_PAIRED

    @property
    def emb_dim(self) -> int:
        return self.domain_emb.shape[1]

    def param_list(self) -> list[np.ndarray]:
        return self.backbone.param_list() + [self.domain_emb]

    def __call__(self, x_t, t, x_src, tgt: int, src: int) -> np.ndarray:
        return predict_noise(self, x_t, t, x_src, tgt, src)


@dataclass
class RouterGrads:
    net: GradBuffer
    domain_emb: np.ndarray

    def param_list(self) -> list[np.ndarray]:
        return self.net.param_list() + [self.domain_emb]

    def add_(self, other: "RouterGrads") -> None:
        self.net.add_(other.net)
        self.domain_emb += other.domain_emb

    def scale_(self, c: float) -> None:
        self.net.scale_(c)
        self.domain_emb *= c


@dataclass(frozen=True)
class FrozenRouter:
    """Immutable deep copy of RouterParams used as the reference predictor."""

    params: RouterParams

    def __call__(self, x_t, t, x_src, tgt: int, src: int) -> np.ndarray:
        return predict_noise(self.params, x_t, t, x_src, tgt, src)


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


def _check_labels(params: RouterParams, tgt: int, src: int) -> None:
    for lbl in (tgt, src):
        if not 0 <= lbl < params.n_domains:
            raise ValueError(f"domain label {lbl} out of range [0, {params.n_domains})")


def backbone_input(params: RouterParams, x_t, t, x_src, tgt: int, src: int) -> np.ndarray:
    """The (B, in_dim) backbone input, in the dtype of the backbone weights."""
    _check_labels(params, tgt, src)
    x_t = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    x_src = np.atleast_2d(np.asarray(x_src, dtype=np.float64))
    if x_t.shape[1] != params.data_dim or x_src.shape[1] != params.data_dim:
        raise ValueError(f"expected data dimension {params.data_dim}, "
                         f"got {x_t.shape[1]} / {x_src.shape[1]}")
    B = x_t.shape[0]
    tf = time_features(t, params.n_timesteps, params.time_dim)
    tf = np.broadcast_to(np.atleast_2d(tf), (B, params.time_dim))
    e_tgt = np.broadcast_to(params.domain_emb[tgt], (B, params.emb_dim))
    e_src = np.broadcast_to(params.domain_emb[src], (B, params.emb_dim))
    return np.concatenate([x_t, x_src, tf, e_tgt, e_src], axis=1,
                          dtype=params.backbone.weights[0].dtype)


def predict_noise(params: RouterParams, x_t, t, x_src, tgt: int, src: int) -> np.ndarray:
    """Noise estimate for x_t at step t, conditioned on the source sample and
    the (tgt, src) label pair. Accepts a single vector or a (B, d) batch; t may
    be a scalar or per-row array. Returns float64."""
    squeeze = np.asarray(x_t).ndim == 1
    inp = backbone_input(params, x_t, t, x_src, tgt, src)
    out = netcore.forward(params.backbone, inp).astype(np.float64, copy=False)
    return out[0] if squeeze else out


def forward_cached(params: RouterParams, x_t, t, x_src, tgt: int, src: int):
    inp = backbone_input(params, x_t, t, x_src, tgt, src)
    out, cache = netcore.forward_cached(params.backbone, inp)
    return out, (cache, tgt, src)


def backward(params: RouterParams, cache, output_grad: np.ndarray) -> RouterGrads:
    net_cache, tgt, src = cache
    net_grads, gx = netcore.backward(params.backbone, net_cache, output_grad)
    gx = np.atleast_2d(gx)
    emb_grad = np.zeros_like(params.domain_emb)
    E = params.emb_dim
    lo = 2 * params.data_dim + params.time_dim
    emb_grad[tgt] += gx[:, lo:lo + E].sum(axis=0)
    emb_grad[src] += gx[:, lo + E:lo + 2 * E].sum(axis=0)
    return RouterGrads(net=net_grads, domain_emb=emb_grad)


def zeros_like_grads(params: RouterParams) -> RouterGrads:
    return RouterGrads(net=netcore.zeros_like_grads(params.backbone),
                       domain_emb=np.zeros_like(params.domain_emb))


def as_float64(params: RouterParams) -> RouterParams:
    """Independent float64 copy of params, e.g. of a loaded float32
    checkpoint that is to be trained further."""
    net = params.backbone
    backbone = DenseNet(weights=[w.astype(np.float64) for w in net.weights],
                        biases=[b.astype(np.float64) for b in net.biases],
                        activation=net.activation)
    return replace(params, backbone=backbone,
                   domain_emb=params.domain_emb.astype(np.float64))


def freeze(params: RouterParams) -> FrozenRouter:
    return FrozenRouter(params=copy.deepcopy(params))


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
