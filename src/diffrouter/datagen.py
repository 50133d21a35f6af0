"""Synthetic multi-domain translation instances.

Three families:
  gaussian-affine: shared latent z ~ N(0, I), x^k = A_k z + b_k + s_k eps.
      The central domain uses an invertible map with near-zero noise, so
      non-central domains are conditionally independent given the central
      sample and every cross-domain conditional is available in closed form.
  moons-warp: two-moons latent with smooth per-domain warps (nonlinear
      stress test, no analytic oracle).
  glyphs: 8x8 glyph images (d=64); the central domain is the raw glyph, the
      non-central domains are a Sobel edge map and a rotated-and-shrunk copy.

Each edge dataset draws its pairs from a disjoint slice of one latent pool;
evaluation tuples come from a third disjoint slice and are aligned across
all K domains.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _blockfile

FAMILIES = ("gaussian-affine", "moons-warp", "glyphs")

GLYPH_SIDE = 8
GLYPH_DIM = GLYPH_SIDE * GLYPH_SIDE

DATASET_MAGIC = "diffrouter-dataset"


def check_labels(K: int, *labels) -> None:
    """Refuse any domain label outside [0, K). A label is an int or an int
    array of per-row labels; the message names an array's first bad label."""
    for lbl in labels:
        if isinstance(lbl, np.ndarray):  # ints stay on the cheap comparison below
            bad = lbl[(lbl < 0) | (lbl >= K)]
            if not bad.size:
                continue
            lbl = bad[0]
        if not 0 <= lbl < K:
            raise ValueError(f"domain label {lbl} out of range [0, {K})")


@dataclass(frozen=True)
class Topology:
    """A spanning tree over K domains; each edge has a paired dataset."""

    K: int
    edges: tuple[tuple[int, int], ...]
    central: int | None = None

    def __post_init__(self):
        if len(self.edges) != self.K - 1:
            raise ValueError(f"spanning tree over {self.K} domains needs {self.K - 1} edges")
        check_labels(self.K, *(v for edge in self.edges for v in edge))
        if len(self.parents(0)) != self.K:
            raise ValueError("edge set does not connect all domains")
        if self.central is not None and any(self.central not in e for e in self.edges):
            raise ValueError("in star mode every edge must touch the central domain")

    @classmethod
    def star(cls, K: int, central: int) -> "Topology":
        """Every edge joins a non-central domain to `central`."""
        if K < 2:
            raise ValueError("star topology needs at least 2 domains")
        if not 0 <= central < K:
            raise ValueError(f"central domain {central} out of range")
        return cls(K=K, edges=tuple((k, central) for k in range(K) if k != central),
                   central=central)

    @classmethod
    def chain(cls, K: int) -> "Topology":
        """The path 0-1-...-K-1."""
        if K < 3:
            raise ValueError("chain topology needs at least 3 domains")
        return cls(K=K, edges=tuple((k, k + 1) for k in range(K - 1)))

    def directions(self, which: str) -> list[tuple[int, int]]:
        """The ordered pairs (i, j), i != j, in row-major order: "all" of
        them, the "edges" of the tree in both orders, or the "nonedges"."""
        if which not in ("all", "edges", "nonedges"):
            raise ValueError(f"unknown direction set {which!r}")
        return [(i, j) for i in range(self.K) for j in range(self.K) if i != j
                and (which == "all" or self.is_edge(i, j) == (which == "edges"))]

    def adjacency(self) -> dict[int, list[int]]:
        adj = {k: [] for k in range(self.K)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def is_edge(self, a: int, b: int) -> bool:
        return (a, b) in self.edges or (b, a) in self.edges

    def parents(self, root: int) -> dict[int, int | None]:
        """Each domain reachable from `root` -> its neighbour one hop closer to it."""
        adj = self.adjacency()
        prev = {root: None}
        stack = [root]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in prev:
                    prev[nxt] = node
                    stack.append(nxt)
        return prev


@dataclass
class PairedDataset:
    """Aligned pairs for one tree edge: x_a[i] is from domain edge[0],
    x_b[i] from domain edge[1]."""

    edge: tuple[int, int]
    x_a: np.ndarray
    x_b: np.ndarray
    latent_indices: np.ndarray = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.x_a.shape[0]

    def side(self, domain: int) -> np.ndarray:
        if domain == self.edge[0]:
            return self.x_a
        if domain == self.edge[1]:
            return self.x_b
        raise ValueError(f"domain {domain} is not on edge {self.edge}")


@dataclass
class EvalTuples:
    """Evaluation-only aligned tuples, samples[m, k] is domain k's view.
    Training operations only accept PairedDataset, never this type."""

    samples: np.ndarray  # (M, K, d)
    latent_indices: np.ndarray = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.samples.shape[0]

    def domain(self, k: int) -> np.ndarray:
        check_labels(self.samples.shape[1], k)
        return self.samples[:, k, :]


@dataclass
class GaussianInstance:
    """Linear-Gaussian instance with closed-form cross-domain conditionals."""

    maps: list[np.ndarray]      # per-domain (d, dz)
    offsets: list[np.ndarray]   # per-domain (d,)
    noise: list[float]          # per-domain observation noise std
    latent_dim: int

    @property
    def K(self) -> int:
        return len(self.maps)

    @property
    def data_dim(self) -> int:
        return self.maps[0].shape[0]

    def sample_domains(self, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """All K domain views of latent rows z: returns (n, K, d)."""
        n = z.shape[0]
        out = np.empty((n, self.K, self.data_dim))
        for k in range(self.K):
            eps = rng.standard_normal((n, self.data_dim))
            out[:, k, :] = z @ self.maps[k].T + self.offsets[k] + self.noise[k] * eps
        return out


def analytic_conditional(inst: GaussianInstance, src: int, tgt: int,
                         x_src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian conditional p(x_tgt | x_src), composed through the shared
    latent. x_src may be a vector or (B, d) batch; the covariance does not
    depend on the conditioning value. Raises on a singular source covariance."""
    if src == tgt:
        raise ValueError("src and tgt must differ")
    A_s, A_t = inst.maps[src], inst.maps[tgt]
    cov_ss = A_s @ A_s.T + inst.noise[src] ** 2 * np.eye(inst.data_dim)
    cov_ts = A_t @ A_s.T
    try:
        gain = np.linalg.solve(cov_ss, cov_ts.T).T
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular source covariance; degenerate instance") from exc
    cond = np.linalg.cond(cov_ss)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError("singular source covariance; degenerate instance")
    delta = np.asarray(x_src, dtype=np.float64) - inst.offsets[src]
    mean = inst.offsets[tgt] + delta @ gain.T
    cov_tt = A_t @ A_t.T + inst.noise[tgt] ** 2 * np.eye(inst.data_dim)
    cov = cov_tt - gain @ cov_ts.T
    return mean, cov


def sample_conditional(inst: GaussianInstance, src: int, tgt: int, x_src: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """One draw from p(x_tgt | x_src) per row of x_src."""
    mean, cov = analytic_conditional(inst, src, tgt, np.atleast_2d(x_src))
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(cov.shape[0]))
    eps = rng.standard_normal(mean.shape)
    return mean + eps @ chol.T


def noisy_conditional(inst: GaussianInstance, src: int, tgt: int, x_src: np.ndarray,
                      a_t: float, sigma_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Conditional of the diffused target at signal level a_t:
    p(x_t^tgt | x_src) = N(a_t mu, a_t^2 Sigma + sigma_t^2 I)."""
    mean, cov = analytic_conditional(inst, src, tgt, x_src)
    return a_t * mean, a_t * a_t * cov + sigma_t * sigma_t * np.eye(cov.shape[0])


class OracleScorePredictor:
    """Exact noise predictor for a gaussian-affine instance.

    Implements the same call signature as the learned router:
    eps*(x_t, t, x_src, tgt, src) = sigma_t St^{-1} (x_t - a_t mu) with
    (mu, Sigma) the analytic conditional and St = a_t^2 Sigma + sigma_t^2 I.
    t is a scalar step, or one step per row of a batch x_t with aligned x_src
    rows; then each distinct step is solved once for its rows.
    """

    def __init__(self, inst: GaussianInstance, sch):
        self.inst = inst
        self.sch = sch

    def __call__(self, x_t, t, x_src, tgt: int, src: int) -> np.ndarray:
        squeeze = np.asarray(x_t).ndim == 1
        x_t = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
        x_src = np.atleast_2d(x_src)
        if np.ndim(t) == 0:
            out = self._eps(x_t, int(t), x_src, tgt, src)
        else:
            t = np.asarray(t)
            out = np.empty_like(x_t)
            for step in np.unique(t):
                rows = t == step
                out[rows] = self._eps(x_t[rows], int(step), x_src[rows], tgt, src)
        return out[0] if squeeze else out

    def _eps(self, x_t, t: int, x_src, tgt: int, src: int) -> np.ndarray:
        a_t = self.sch.a[t]
        sigma_t = self.sch.sigma[t]
        mean, cov = noisy_conditional(self.inst, src, tgt, x_src, a_t, sigma_t)
        return sigma_t * np.linalg.solve(cov, (x_t - mean).T).T


def _make_gaussian_instance(K: int, d: int, rng: np.random.Generator,
                            central: int = 0, central_noise: float = 0.01) -> GaussianInstance:
    maps, offsets, noise = [], [], []
    for k in range(K):
        if k == central:
            maps.append(np.eye(d))
            offsets.append(np.zeros(d))
            noise.append(central_noise)
        else:
            g = rng.normal(0.0, 0.35, size=(d, d))
            maps.append(np.eye(d) * rng.uniform(0.7, 1.3) + g)
            offsets.append(rng.normal(0.0, 1.0, size=d))
            noise.append(0.12)
    return GaussianInstance(maps=maps, offsets=offsets, noise=noise, latent_dim=d)


def _moons_latent(n: int, rng: np.random.Generator) -> np.ndarray:
    theta = rng.uniform(0.0, np.pi, size=n)
    upper = rng.integers(0, 2, size=n).astype(bool)
    x = np.where(upper, np.cos(theta), 1.0 - np.cos(theta))
    y = np.where(upper, np.sin(theta), 0.5 - np.sin(theta))
    return np.column_stack([x, y]) + rng.normal(0.0, 0.05, size=(n, 2))


def _moons_warp(z: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    if k == 0:
        out = z.copy()
    else:
        ang = 0.9 * k
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        out = z @ rot.T
        out[:, 1] += 0.5 * np.tanh(out[:, 0] * k)
    return out + rng.normal(0.0, 0.05, size=out.shape)


def _glyph_prototypes() -> np.ndarray:
    protos = []
    side = GLYPH_SIDE
    canvas = np.zeros((side, side))
    for r in (1, 3, 5):
        g = canvas.copy()
        g[r, 1:-1] = 1.0
        protos.append(g)
    for c in (2, 5):
        g = canvas.copy()
        g[1:-1, c] = 1.0
        protos.append(g)
    g = canvas.copy()
    np.fill_diagonal(g, 1.0)
    protos.append(g)
    g = canvas.copy()
    g[2:6, 2:6] = 1.0
    g[3:5, 3:5] = 0.0
    protos.append(g)
    g = canvas.copy()
    g[3:5, 1:-1] = 1.0
    g[1:-1, 3:5] = 1.0
    protos.append(g)
    return np.stack(protos)


# Rows per batched pass of _glyph_domains: large enough that each view's
# numpy kernel runs over many images at once, small enough to keep the work
# arrays to a few MB.
GLYPH_CHUNK = 512


def _neighbours(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(x[i-1], x[i+1]) along `axis` of a stack, 0.0 past either edge."""
    padded = np.zeros(x.shape[:axis] + (x.shape[axis] + 2,) + x.shape[axis + 1:])
    lead = (slice(None),) * axis
    padded[lead + (slice(1, -1),)] = x
    return padded[lead + (slice(None, -2),)], padded[lead + (slice(2, None),)]


def _sobel_pass(x: np.ndarray, diff_axis: int, smooth_axis: int) -> np.ndarray:
    """One Sobel derivative: d = x[i+1] - x[i-1] along diff_axis, then
    2*d[j] + (d[j-1] + d[j+1]) along smooth_axis."""
    prev, nxt = _neighbours(x, diff_axis)
    d = nxt - prev
    prev, nxt = _neighbours(d, smooth_axis)
    return 2.0 * d + (prev + nxt)


def _sobel_edges(imgs: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude / 4 of each (side, side) image in a stack,
    zero past the image edges: hypot(gx, gy) / 4, gx differencing along the
    rows and smoothing along the columns, gy the other way round.

    The sums run in the order `scipy.ndimage.sobel(img, axis, mode="constant")`
    forms them, so the bytes are the same; tests/test_bit_identity.py pins this
    against scipy. Any other association differs in the last bit."""
    return np.hypot(_sobel_pass(imgs, 1, 2), _sobel_pass(imgs, 2, 1)) / 4.0


@lru_cache(maxsize=None)
def _rotation_taps(angle_deg: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pixel, w_row, w_col), each (4, GLYPH_DIM): per output pixel, the flat
    index and two weights of the four bilinear corners of its source point,
    in the corner order (0,0), (0,1), (1,0), (1,1). A pixel whose source
    falls outside the image reads pixel 0 with weight 0; a corner one past
    the last row or column has weight 0 and reads the last one."""
    ang = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]]) / 0.8
    center = (GLYPH_SIDE - 1) / 2.0
    offset = center - rot @ np.array([center, center])
    i = np.arange(GLYPH_SIDE, dtype=np.float64)[:, None]
    j = np.arange(GLYPH_SIDE, dtype=np.float64)[None, :]
    coords = [offset[a] + rot[a, 0] * i + rot[a, 1] * j for a in (0, 1)]
    inside = np.logical_and.reduce([(c >= 0) & (c <= GLYPH_SIDE - 1) for c in coords])
    lows, weights = [], []
    for c in coords:
        low = np.floor(c)
        w_low = 1.0 - (c - low)
        lows.append(low.astype(np.int64))
        weights.append((w_low, 1.0 - w_low))  # the second weight as scipy forms it
    pixel, w_row, w_col = [], [], []
    for dr in (0, 1):
        for dc in (0, 1):
            row = np.minimum(lows[0] + dr, GLYPH_SIDE - 1)
            col = np.minimum(lows[1] + dc, GLYPH_SIDE - 1)
            pixel.append(np.where(inside, row * GLYPH_SIDE + col, 0))
            w_row.append(np.where(inside, weights[0][dr], 0.0))
            w_col.append(np.where(inside, weights[1][dc], 0.0))
    taps = tuple(np.stack(t).reshape(4, GLYPH_DIM) for t in (pixel, w_row, w_col))
    for t in taps:
        t.setflags(write=False)
    return taps


def _rotate_shrink(imgs: np.ndarray, angle_deg: float = 20.0) -> np.ndarray:
    """Each image of a stack rotated by angle_deg and shrunk by 0.8 about its
    centre, bilinear, 0 where the source point leaves the image.

    Output pixel (i, j) reads from c = offset + m[:, 0]*i + m[:, 1]*j, summed
    in that order, with m the inverse map. Its value is 0.0 plus
    (v * w_row) * w_col over the four corners in the order of
    `_rotation_taps`, with weights (1 - t, 1 - (1 - t)) for t = c - floor(c).
    That is the order of scipy.ndimage's order-1 `affine_transform` in
    "constant" mode, so the bytes are the same; tests/test_bit_identity.py pins
    this against scipy."""
    pixel, w_row, w_col = _rotation_taps(float(angle_deg))
    flat = imgs.reshape(len(imgs), GLYPH_DIM)
    out = np.zeros_like(flat)
    for k in range(4):
        corner = flat[:, pixel[k]]
        corner *= w_row[k]
        corner *= w_col[k]
        out += corner
    return out.reshape(imgs.shape)


def _glyph_domains(z: np.ndarray, protos: np.ndarray, K: int,
                   rng: np.random.Generator) -> np.ndarray:
    """z columns: prototype index, row shift, col shift, brightness. Rows are
    processed GLYPH_CHUNK at a time; per chunk the noise is drawn in one
    call, in the row-by-row, domain-by-domain order of the views."""
    n = z.shape[0]
    out = np.empty((n, K, GLYPH_DIM))
    side = np.arange(GLYPH_SIDE)
    for lo in range(0, n, GLYPH_CHUNK):
        zc = z[lo:lo + GLYPH_CHUNK]
        # np.roll by (r, c) as a gather: pixel (i, j) comes from (i - r, j - c)
        rows = (side[None, :] - zc[:, 1, None].astype(int)) % GLYPH_SIDE
        cols = (side[None, :] - zc[:, 2, None].astype(int)) % GLYPH_SIDE
        imgs = protos[zc[:, 0].astype(int)[:, None, None], rows[:, :, None],
                      cols[:, None, :]]
        imgs *= zc[:, 3, None, None]
        views = [imgs, _sobel_edges(imgs), _rotate_shrink(imgs)]
        if K > 3:
            views.append(_rotate_shrink(imgs, angle_deg=-20.0))
        block = out[lo:lo + GLYPH_CHUNK]
        block[...] = rng.normal(0.0, 0.02, size=block.shape)
        for k in range(K):
            block[:, k, :] += views[min(k, 3)].reshape(len(zc), GLYPH_DIM)
    return out


def _glyph_latent(n: int, rng: np.random.Generator) -> np.ndarray:
    protos = _glyph_prototypes()
    idx = rng.integers(0, len(protos), size=n)
    shifts = rng.integers(-1, 2, size=(n, 2))
    brightness = rng.uniform(0.7, 1.0, size=n)
    return np.column_stack([idx, shifts[:, 0], shifts[:, 1], brightness])


def _build_instance(topo: Topology, d: int, N: int, M: int, family: str,
                    seed: int, edge_shift: float = 0.0):
    """Shared machinery: draws one latent pool, cuts disjoint slices per edge
    and for evaluation, and maps latents through the family's domain views."""
    if edge_shift != 0.0 and family != "gaussian-affine":
        raise ValueError(f"edge_shift applies only to the gaussian-affine family, not {family}")
    rng = np.random.default_rng(seed)
    K = topo.K
    n_pool = (K - 1) * N + M
    inst = None
    if family == "gaussian-affine":
        inst = _make_gaussian_instance(K, d, rng, central=topo.central or 0)
        pool = rng.standard_normal((n_pool, inst.latent_dim))

        def views(z, rng):
            return inst.sample_domains(z, rng)
    elif family == "moons-warp":
        if d != 2:
            raise ValueError("moons-warp requires d=2")
        pool = _moons_latent(n_pool, rng)

        def views(z, rng):
            out = np.empty((z.shape[0], K, 2))
            for k in range(K):
                out[:, k, :] = _moons_warp(z, k, rng)
            return out
    elif family == "glyphs":
        if d != GLYPH_DIM:
            raise ValueError(f"glyphs family requires d={GLYPH_DIM}")
        protos = _glyph_prototypes()
        pool = _glyph_latent(n_pool, rng)

        def views(z, rng):
            return _glyph_domains(z, protos, K, rng)
    else:
        raise ValueError(f"unknown instance family {family!r}")

    datasets = []
    for e_idx, (a, b) in enumerate(topo.edges):
        idx = np.arange(e_idx * N, (e_idx + 1) * N)
        z = pool[idx].copy()
        if edge_shift != 0.0:
            z = z + edge_shift * e_idx
        all_views = views(z, rng)
        datasets.append(PairedDataset(edge=(a, b), x_a=all_views[:, a, :],
                                      x_b=all_views[:, b, :], latent_indices=idx))
    eval_idx = np.arange((K - 1) * N, n_pool)
    eval_views = views(pool[eval_idx], rng)
    tuples = EvalTuples(samples=eval_views, latent_indices=eval_idx)
    return topo, datasets, tuples, inst


def make_star_instance(K: int, d: int, N: int, seed: int, family: str = "gaussian-affine",
                       M: int = 5000, central: int = 0, edge_shift: float = 0.0):
    """Star topology: every edge joins a non-central domain to `central`.
    Returns (Topology, [PairedDataset], EvalTuples, GaussianInstance | None)."""
    return _build_instance(Topology.star(K, central), d, N, M, family, seed, edge_shift)


def make_chain_instance(K: int, d: int, N: int, seed: int, M: int = 5000,
                        family: str = "gaussian-affine"):
    """Path topology 0-1-...-K-1 with one paired dataset per consecutive pair."""
    return _build_instance(Topology.chain(K), d, N, M, family, seed)


def _check_latent_indices(path, indices: np.ndarray) -> None:
    """Blocks are float32, which holds every integer below 2**24 exactly."""
    if np.size(indices) and np.max(indices) >= 2**24:
        raise ValueError(f"{path}: latent index {int(np.max(indices))} is not below "
                         "2**24, the largest a float32 block stores exactly")


def save_paired_dataset(path, ds: PairedDataset, meta: dict) -> None:
    """Dataset file in the `_blockfile` format: edge, n and d, then the meta
    keys sorted; blocks x_a, x_b and the latent indices."""
    _check_latent_indices(path, ds.latent_indices)
    header = {"edge": f"{ds.edge[0]},{ds.edge[1]}", "n": len(ds), "d": ds.x_a.shape[1],
              **dict(sorted(meta.items()))}
    _blockfile.write_blocks(path, DATASET_MAGIC, header,
                            (ds.x_a, ds.x_b, ds.latent_indices))


def _paired_shape(path, header: dict) -> tuple[tuple[int, int], int, int, tuple]:
    """(edge, n, d, values per block) that a paired-dataset header declares."""
    with _blockfile.header_fields(path):
        a, b = (int(v) for v in header["edge"].split(","))
        n, d = int(header["n"]), int(header["d"])
    return (a, b), n, d, (n * d, n * d, n)


def read_paired_header(path, check_size: bool = True) -> tuple[dict, tuple[int, int], int]:
    """(header, edge, d) of a paired-dataset file, read without its blocks.
    Raises a one-line ValueError naming `path` if the magic or a shape field
    is wrong and, with `check_size`, if the file is not as long as its
    header's n and d make it: one stat refuses a file that was cut short."""
    header, offset = _blockfile.read_header(path, DATASET_MAGIC)
    edge, _n, d, sizes = _paired_shape(path, header)
    if check_size:
        _blockfile.check_file_size(path, offset, sizes)
    return header, edge, d


def load_paired_dataset(path) -> PairedDataset:
    """The dataset as stored: x_a and x_b are read-only float32 views of the
    file's blocks. Every use widens them to float64 or casts them to the
    weights' dtype, which float32 holds exactly."""
    header, arrays = _blockfile.read_blocks(path, DATASET_MAGIC)
    (a, b), n, d, sizes = _paired_shape(path, header)
    _blockfile.check_sizes(path, arrays, sizes)
    return PairedDataset(edge=(a, b), x_a=arrays[0].reshape(n, d), x_b=arrays[1].reshape(n, d),
                         latent_indices=arrays[2].astype(np.int64))


def save_eval_tuples(path, tuples: EvalTuples, meta: dict) -> None:
    """Eval file in the `_blockfile` format: m, k and d, then the meta keys
    sorted; blocks the (M, K, d) samples and the latent indices."""
    _check_latent_indices(path, tuples.latent_indices)
    M, K, d = tuples.samples.shape
    header = {"m": M, "k": K, "d": d, **dict(sorted(meta.items()))}
    _blockfile.write_blocks(path, DATASET_MAGIC, header,
                            (tuples.samples, tuples.latent_indices))


def _eval_shape(path, header: dict) -> tuple[int, int, int, tuple]:
    """(M, K, d, values per block) that an eval-tuples header declares."""
    with _blockfile.header_fields(path):
        M, K, d = int(header["m"]), int(header["k"]), int(header["d"])
    return M, K, d, (M * K * d, M)


def read_eval_header(path, check_size: bool = True) -> tuple[dict, int, int]:
    """(header, K, d) of an eval-tuples file, read without its blocks; raises
    like read_paired_header, the length checked against m, k and d."""
    header, offset = _blockfile.read_header(path, DATASET_MAGIC)
    _M, K, d, sizes = _eval_shape(path, header)
    if check_size:
        _blockfile.check_file_size(path, offset, sizes)
    return header, K, d


def load_eval_tuples(path) -> EvalTuples:
    """The tuples as stored: samples is a read-only float32 view of the
    file's block, used like the arrays of `load_paired_dataset`."""
    header, arrays = _blockfile.read_blocks(path, DATASET_MAGIC)
    M, K, d, sizes = _eval_shape(path, header)
    _blockfile.check_sizes(path, arrays, sizes)
    return EvalTuples(samples=arrays[0].reshape(M, K, d),
                      latent_indices=arrays[1].astype(np.int64))


def instance_to_dict(inst: GaussianInstance) -> dict:
    return {"latent_dim": inst.latent_dim,
            "maps": [m.tolist() for m in inst.maps],
            "offsets": [o.tolist() for o in inst.offsets],
            "noise": list(inst.noise)}


def instance_from_dict(data: dict) -> GaussianInstance:
    """The instance `instance_to_dict` wrote. Raises ValueError unless
    latent_dim is a positive integer and there are at least 2 domains, each
    with a finite (d, latent_dim) map, a finite (d,) offset and a finite
    nonnegative noise std, d the same for all."""
    latent_dim = data["latent_dim"]
    if type(latent_dim) is not int or latent_dim < 1:  # not a bool or a float
        raise ValueError(f"latent_dim must be a positive integer, got {latent_dim!r}")
    maps = [np.asarray(m, dtype=np.float64) for m in data["maps"]]
    offsets = [np.asarray(o, dtype=np.float64) for o in data["offsets"]]
    noise = [float(s) for s in data["noise"]]
    if len(maps) < 2:
        raise ValueError(f"an instance needs at least 2 maps, got {len(maps)}")
    if not len(maps) == len(offsets) == len(noise):
        raise ValueError(f"{len(maps)} maps, {len(offsets)} offsets and {len(noise)} "
                         "noise stds; one of each per domain")
    d = maps[0].shape[0] if maps[0].ndim else 0
    for k, (m, o, s) in enumerate(zip(maps, offsets, noise)):
        if m.shape != (d, latent_dim) or d < 1:
            raise ValueError(f"map {k} has shape {m.shape}, not (d, latent_dim={latent_dim})"
                             f" with d={d} from map 0")
        if o.shape != (d,):
            raise ValueError(f"offset {k} has shape {o.shape}, not ({d},)")
        if not (np.isfinite(m).all() and np.isfinite(o).all()):
            raise ValueError(f"map or offset {k} is not finite")
        if not (np.isfinite(s) and s >= 0.0):
            raise ValueError(f"noise {k} must be finite and nonnegative, got {s}")
    return GaussianInstance(maps=maps, offsets=offsets, noise=noise, latent_dim=latent_dim)
