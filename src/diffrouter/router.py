"""Routing-conditioned noise predictor.

The backbone consumes the concatenation
[x_t | x_src | time_features(t) | emb[tgt] | emb[src]] and emits a length-d
noise estimate. One parameter set serves every (src, tgt) direction; the
domain embedding table is trained jointly with the backbone. Like t, each
label is an int for the whole batch or a (B,) int array of per-row labels.

A reverse chain or a refine loop queries the predictor many times with the
same x_src and labels. `condition` binds a predictor to them once and returns
f(x_t, t). For the router it prepares a `Binding`: layer 0's constant part,
the x_src, label and bias block (B, H) and the time block of every step
(T + 1, H), so each step multiplies only the d columns of x_t; copies of
those columns and of every later layer, so the binding is a snapshot of the
parameters; and a workspace of two (B, H) arrays, made on the first call,
into which each step writes every layer (`predict_noise`). With SiLU the
copies and blocks are halved (see netcore.forward_inplace). Training builds
the full input (`backbone_input`), because the backward pass needs it for
layer 0's weight gradient.

The backbone runs in the dtype of its weights. Training and a loaded
checkpoint are float32 (see train.py); float64 parameters serve the gradient
checks. Noise estimates are returned as float64 either way.

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

from . import _blockfile, _kernels, netcore
from .datagen import check_labels
from .netcore import DenseNet

DEFAULT_TIME_DIM = 16
DEFAULT_EMB_DIM = 8

KIND_PAIRED = "paired-only"
KIND_DIRECT = "direct"


@dataclass
class RouterParams:
    """Router parameters. On construction the backbone arrays and `domain_emb`
    become views into `flat`, which is built from them when not given.

    The shape is read off the arrays, never passed: `data_dim` is the output
    width, `n_domains` the rows of `domain_emb`, and `time_dim` what is left
    of the layer-0 input width [x_t | x_src | time | emb_tgt | emb_src]."""

    backbone: DenseNet
    domain_emb: np.ndarray  # (K, E)
    n_timesteps: int
    kind: str = KIND_PAIRED
    flat: np.ndarray | None = field(default=None, repr=False)
    data_dim: int = field(init=False)
    n_domains: int = field(init=False)
    time_dim: int = field(init=False)

    def __post_init__(self):
        if self.flat is None:
            self.flat = np.concatenate([a.ravel() for a in self.param_list()])
        arrays = _param_views(self, self.flat)
        self.backbone = DenseNet(weights=arrays[:-1:2], biases=arrays[1:-1:2],
                                 activation=self.backbone.activation)
        self.domain_emb = arrays[-1]
        self.data_dim = self.backbone.weights[-1].shape[0]
        self.n_domains = self.domain_emb.shape[0]
        self.time_dim = self.backbone.weights[0].shape[1] - 2 * (self.data_dim + self.emb_dim)

    @property
    def emb_dim(self) -> int:
        return self.domain_emb.shape[1]

    def param_list(self) -> list[np.ndarray]:
        return self.backbone.param_list() + [self.domain_emb]

    def __call__(self, x_t, t, x_src, tgt, src) -> np.ndarray:
        """One-shot noise estimate; see `condition` for repeated queries."""
        return condition(self, x_src, tgt, src)(x_t, t)


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
    return RouterParams(backbone=backbone, domain_emb=domain_emb, n_timesteps=n_timesteps)


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


def _check_width(params: RouterParams, *xs) -> None:
    if any(x.shape[1] != params.data_dim for x in xs):
        raise ValueError(f"expected data dimension {params.data_dim}, "
                         f"got {' / '.join(str(x.shape[1]) for x in xs)}")


def _check_steps(params: RouterParams, t) -> None:
    t = np.asarray(t)
    if t.dtype.kind not in "iu" or t.size and not (
            0 <= t.min() and t.max() <= params.n_timesteps):
        raise ValueError(f"time steps must be integers in [0, {params.n_timesteps}]")


def backbone_input(params: RouterParams, x_t, t, x_src, tgt, src) -> np.ndarray:
    """The (B, in_dim) backbone input of a training pass, in the dtype of the
    backbone weights."""
    check_labels(params.n_domains, tgt, src)
    x_t = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    x_src = np.atleast_2d(np.asarray(x_src, dtype=np.float64))
    _check_width(params, x_t, x_src)
    _check_steps(params, t)
    d, E = params.data_dim, params.emb_dim
    lo = 2 * d + params.time_dim
    inp = np.empty((x_t.shape[0], lo + 2 * E), dtype=params.backbone.weights[0].dtype)
    inp[:, :d] = x_t
    inp[:, d:2 * d] = x_src
    inp[:, 2 * d:lo] = time_table(params.n_timesteps, params.time_dim)[t]
    inp[:, lo:lo + E] = params.domain_emb[tgt]
    inp[:, lo + E:] = params.domain_emb[src]
    return inp


@dataclass(eq=False)
class Binding:
    """What `condition` prepares for one RouterParams, x_src and (tgt, src):
    every array a query reads, copied at bind time, in the dtype of the
    weights. With SiLU, layer 0's parts and the hidden layers are halved (see
    `netcore.forward_inplace`). `params` is read for its shape only."""

    params: RouterParams
    w_xt: np.ndarray       # (H, d) x_t columns of layer 0, a view of a copy of it
    base: np.ndarray       # (B, H), or (1, H) for one source vector: x_src, labels, bias
    time_rows: np.ndarray  # (T + 1, H): row t is the time columns' pre-activation
    scale: float           # 0.5 with SiLU, else 1: see netcore.forward_only_layers
    layers: list           # the layers after layer 0
    work: list = field(default_factory=list)  # two flat (B * widest,) arrays
    widest: int = field(init=False)

    def __post_init__(self):
        self.widest = max(w.shape[0] for w in [self.w_xt, *(w for w, _ in self.layers)])

    def workspace(self, rows: int) -> list[np.ndarray]:
        """The two work arrays, made on the first call and again when a
        call has more rows than they hold."""
        if not self.work or self.work[0].size < rows * self.widest:
            self.work = [np.empty(rows * self.widest, self.w_xt.dtype) for _ in range(2)]
        return self.work


def condition(predictor, x_src, tgt, src):
    """Bind a predictor to the source sample and the (tgt, src) labels that a
    reverse chain or a refine loop keeps fixed; returns f(x_t, t) -> noise
    estimate. For RouterParams the labels and x_src's width are checked here,
    once, and a `Binding` is prepared: layer 0's constant part and copies of
    every later layer. A binding is a snapshot of the parameters at bind
    time: an in-place change to `params.flat` afterwards (a training step)
    does not reach it, so bind again to query the changed network. Each call
    of f is one `predict_noise`. Any other predictor(x_t, t, x_src, tgt,
    src), such as the oracle, is bound by closing over its arguments."""
    if not isinstance(predictor, RouterParams):
        return lambda x_t, t: predictor(x_t, t, x_src, tgt, src)
    params = predictor
    check_labels(params.n_domains, tgt, src)
    w0, b0 = params.backbone.weights[0], params.backbone.biases[0]
    x_src = np.atleast_2d(np.asarray(x_src, dtype=w0.dtype))
    _check_width(params, x_src)
    d, E = params.data_dim, params.emb_dim
    lo = 2 * d + params.time_dim
    emb = params.domain_emb
    base = (_kernels.affine(x_src, w0[:, d:2 * d], b0)
            + (emb @ w0[:, lo:lo + E].T)[tgt] + (emb @ w0[:, lo + E:].T)[src])
    table = time_table(params.n_timesteps, params.time_dim).astype(w0.dtype)
    time_rows = table @ w0[:, 2 * d:lo].T
    scale, layers = netcore.forward_only_layers(params.backbone)
    base *= scale
    time_rows *= scale
    # x_t's columns as a view of a whole copy of w0, with w0's strides: a
    # contiguous (H, d) copy sends a 1-row float32 product down another BLAS
    # path, which rounds differently
    bound = Binding(params, (w0 * scale)[:, :d], base, time_rows, scale, layers)
    return lambda x_t, t: predict_noise(bound, x_t, t)


def predict_noise(bound: Binding, x_t, t) -> np.ndarray:
    """Noise estimate for x_t at step t under a binding made by `condition`.
    Accepts a single vector or a (B, d) batch; t may be a scalar or a
    per-row array. Layer 0's pre-activation, x_t times its columns plus the
    bound block plus row t of the time block, goes into the binding's
    workspace, and `netcore.forward_inplace` runs the later layers there.
    Returns a new float64 array."""
    squeeze = np.ndim(x_t) == 1
    x_t = np.atleast_2d(np.asarray(x_t, dtype=bound.w_xt.dtype))
    _check_width(bound.params, x_t)
    _check_steps(bound.params, t)
    work = bound.workspace(len(x_t))
    u = netcore.work_array(work[0], (len(x_t), bound.w_xt.shape[0]))
    np.matmul(x_t, bound.w_xt.T, out=u)
    u += bound.base
    if np.ndim(t):
        u += np.take(bound.time_rows, t, axis=0, out=netcore.work_array(work[1], u.shape),
                     mode="clip")  # t is checked; "raise" would buffer `out`
    else:
        u += bound.time_rows[t]
    out = np.array(netcore.forward_inplace(u, bound.layers, bound.scale, work), np.float64)
    return out[0] if squeeze else out


def forward_cached(params: RouterParams, x_t, t, x_src, tgt, src):
    inp = backbone_input(params, x_t, t, x_src, tgt, src)
    out, cache = netcore.forward_cached(params.backbone, inp)
    return out, (cache, tgt, src)


def backward(params: RouterParams, cache, output_grad: np.ndarray) -> np.ndarray:
    """The gradient of <output, output_grad> as a new vector in the layout and
    dtype of `params.flat`; each row's embedding gradient goes to its labels.
    Of layer 0's input gradient only the 2 E embedding columns are formed."""
    net_cache, tgt, src = cache
    grads = np.empty_like(params.flat)
    *net_grads, emb_grad = _param_views(params, grads)
    _, gz = netcore.backward(params.backbone, net_cache, output_grad, out=net_grads)
    E = params.emb_dim
    g_emb = gz @ params.backbone.weights[0][:, 2 * params.data_dim + params.time_dim:]
    np.matmul(_one_hot(tgt, params.n_domains, gz), g_emb[:, :E], out=emb_grad)
    emb_grad += _one_hot(src, params.n_domains, gz) @ g_emb[:, E:]
    return grads


def _one_hot(labels, K: int, rows: np.ndarray) -> np.ndarray:
    """(K, B) indicator of each row's label, in the dtype of `rows`: its
    product with the rows sums them per label, for an int or per-row labels."""
    return np.equal(np.arange(K)[:, None], labels, out=np.empty((K, len(rows)), rows.dtype))


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
    ValueError if the blocks do not match the layout the header gives, if
    the header's data_dim or time_dim disagrees with the shape of the
    arrays, or if its kind is neither paired-only nor direct."""
    header, arrays = netcore.load_params(path)
    with _blockfile.header_fields(path):
        widths = [int(w) for w in header["widths"].split(",")]
        n_domains, emb_dim = int(header["n_domains"]), int(header["emb_dim"])
        stated = {"data_dim": int(header["data_dim"]), "time_dim": int(header["time_dim"])}
        n_timesteps, activation = int(header["n_timesteps"]), header["activation"]
    if activation not in netcore.ACTIVATIONS:
        raise ValueError(f"{path}: unsupported activation {activation!r}")
    kind = header.get("kind", KIND_PAIRED)
    if kind not in (KIND_PAIRED, KIND_DIRECT):
        raise ValueError(f"{path}: unknown checkpoint kind {kind!r}; expected "
                         f"{KIND_PAIRED!r} or {KIND_DIRECT!r}")
    # per layer a (out, in) weight and an (out,) bias, then the embedding table
    shapes = [s for n_in, n_out in zip(widths[:-1], widths[1:])
              for s in ((n_out, n_in), (n_out,))] + [(n_domains, emb_dim)]
    _blockfile.check_sizes(path, arrays, [math.prod(s) for s in shapes])
    arrays = [a.reshape(s) for a, s in zip(arrays, shapes)]
    backbone = DenseNet(weights=arrays[:-1:2], biases=arrays[1:-1:2], activation=activation)
    params = RouterParams(backbone=backbone, domain_emb=arrays[-1], n_timesteps=n_timesteps,
                          kind=kind)
    for key, value in stated.items():
        if value != getattr(params, key):
            raise ValueError(f"{path}: header {key}={value} does not match the "
                             f"arrays' {getattr(params, key)}")
    return params, header


def topology_hash(edges: list[tuple[int, int]]) -> str:
    canon = ";".join(f"{a}-{b}" for a, b in sorted(tuple(sorted(e)) for e in edges))
    return hashlib.sha1(canon.encode()).hexdigest()[:12]
