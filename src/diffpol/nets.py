"""Fully connected denoiser network with hand-written gradients.

A small tanh MLP implemented directly in numpy: explicit forward pass,
explicit reverse-mode gradients, Adam, and a flat binary checkpoint
format.  Keeping the backward pass analytic (instead of relying on an
autodiff framework) lets the test suite verify every gradient against
central finite differences as an independent route.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .diffusion import BETA_END, BETA_START, NoiseSchedule, make_noise_schedule

CHECKPOINT_MAGIC = b"DIFFPOL2"

# -- sinusoidal step embedding ------------------------------------------------


def check_embed_dim(dim: int) -> None:
    """ValueError unless dim is even and >= 2: one sin/cos pair each."""
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"embedding dim must be even and >= 2, got {dim}")


@lru_cache(maxsize=8)
def _embed_freqs(dim: int, T: int) -> np.ndarray:
    half = dim // 2
    if half == 1:
        return np.ones(1)
    return float(T) ** (-np.arange(half) / (half - 1))


@lru_cache(maxsize=8)
def _embed_table(dim: int, T: int) -> np.ndarray:
    """Sin/cos features of steps k = 1..T, one read-only row each, at
    frequencies falling geometrically from 1 to 1/T: entries lie in
    [-1, 1] and distinct k map to distinct rows."""
    freqs = _embed_freqs(dim, T)
    ks = np.arange(1, T + 1, dtype=np.float64)[:, None]
    table = np.empty((T, dim))
    table[:, 0::2] = np.sin(ks * freqs)
    table[:, 1::2] = np.cos(ks * freqs)
    table.setflags(write=False)
    return table


# -- generic MLP: forward, backward, init ------------------------------------


class MlpParams:
    """Layer weights (fan_in x fan_out) and biases, hidden tanh, linear out.

    Every array is a view into one contiguous vector ``flat``, laid out
    W0 b0 W1 b1 ... with each array raveled row-major (the checkpoint
    payload order).  Gradients and Adam moments share this layout and
    ``flat``'s dtype, so an optimizer step is a handful of passes over
    ``flat``.  Nets are built in float64; ``astype`` gives a copy in
    another dtype, and forward and backward passes compute in it.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases):
            raise ValueError("need one bias per weight matrix")
        shapes = [(np.shape(w), np.shape(b)) for w, b in zip(weights, biases)]
        n = sum(int(np.prod(ws)) + int(np.prod(bs)) for ws, bs in shapes)
        self._bind(np.empty(n), shapes)
        for dst, src in zip(self.weights + self.biases, weights + biases):
            dst[...] = src

    def _bind(self, flat: np.ndarray, shapes) -> None:
        self.flat = flat
        self.shapes = tuple(shapes)
        self.weights, self.biases = [], []
        off = 0
        for ws, bs in self.shapes:
            for shape, out in ((ws, self.weights), (bs, self.biases)):
                size = int(np.prod(shape))
                out.append(flat[off:off + size].reshape(shape))
                off += size

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes) -> "MlpParams":
        """Views into ``flat`` (not copied); shapes lists each layer's
        (weight shape, bias shape)."""
        p = cls.__new__(cls)
        p._bind(flat, shapes)
        return p

    def copy(self) -> "MlpParams":
        return MlpParams.from_flat(self.flat.copy(), self.shapes)

    def astype(self, dtype) -> "MlpParams":
        """A copy whose vector has ``dtype`` (values rounded to it)."""
        return MlpParams.from_flat(self.flat.astype(dtype), self.shapes)


def init_mlp(rng: np.random.Generator, sizes: list[int]) -> MlpParams:
    """Fan-in scaled uniform init: W ~ U(+-sqrt(3/fan_in)), unit variance
    of each pre-activation on unit-variance inputs."""
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(3.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-limit, limit, size=fan_out))
    return MlpParams(weights, biases)


def mlp_forward(p: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batched forward pass in the net's dtype; x is (n, d_in).  Returns
    (y, cache) where the cache holds each layer's input for the backward
    pass."""
    x = np.asarray(x, dtype=p.flat.dtype)
    cache = [x]
    return _mlp_from_first(p, x @ p.weights[0] + p.biases[0], cache), cache


def _mlp_from_first(p: MlpParams, z: np.ndarray,
                    cache: list[np.ndarray] | None = None) -> np.ndarray:
    """The rest of a forward pass, given layer 0's pre-activation z;
    appends each layer's output to ``cache`` when one is given."""
    for w, b in zip(p.weights[1:], p.biases[1:]):
        z = np.tanh(z)
        if cache is not None:
            cache.append(z)
        z = z @ w + b
    if cache is not None:
        cache.append(z)
    return z


def mlp_backward(p: MlpParams, cache: list[np.ndarray],
                 dy: np.ndarray) -> MlpParams:
    """Gradients of a scalar loss wrt every weight, given dL/dy; written
    straight into a fresh vector laid out like ``p.flat``, in its dtype."""
    grads = MlpParams.from_flat(np.empty_like(p.flat), p.shapes)
    g = np.asarray(dy, dtype=p.flat.dtype)
    for i in range(len(p.weights) - 1, -1, -1):
        if i < len(p.weights) - 1:
            g = g * (1.0 - cache[i + 1] ** 2)  # tanh'
        np.matmul(cache[i].T, g, out=grads.weights[i])
        np.sum(g, axis=0, out=grads.biases[i])
        if i > 0:
            g = g @ p.weights[i].T
    return grads


# -- Adam --------------------------------------------------------------------

# float64 elements per block of the in-place Adam update.  Six block-sized
# arrays are live in a block (parameters, gradient, both moments and two
# scratch arrays); at 32,768 float64 elements each is 256 KiB, so together
# they fit in a 2 MiB per-core L2, and the update's dozen passes over a
# block read it from cache instead of from memory.  Other dtypes keep the
# block's byte size: 65,536 float32 elements.
ADAM_BLOCK = 32_768


@dataclass
class AdamState:
    """Hyperparameters, step count and the two moment vectors, which are
    laid out like ``MlpParams.flat`` (None until the first step)."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def optimizer_step(p: MlpParams, grads: MlpParams, st: AdamState) -> None:
    """One Adam update of ``p.flat``, ``st.m``, ``st.v`` and ``st.t``, in
    place and in ``p.flat``'s dtype; ``grads`` is left untouched.

    Works through the vectors in blocks of ADAM_BLOCK float64s' bytes,
    applying per element exactly the operations, in the order, of the
    textbook form
        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        theta -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
    with c1 = 1 - b1**t and c2 = 1 - b2**t, so results are bit-identical
    to it.
    """
    if grads.flat.shape != p.flat.shape:
        raise ValueError(f"gradient vector {grads.flat.shape} != "
                         f"parameter vector {p.flat.shape}")
    if st.m is None:
        st.m = np.zeros_like(p.flat)
    if st.v is None:
        st.v = np.zeros_like(p.flat)
    st.t += 1
    # Python floats, so that a float32 update stays float32 throughout
    b1, b2, lr, eps = (float(x) for x in (st.beta1, st.beta2, st.lr, st.eps))
    c1, c2 = 1 - b1 ** st.t, 1 - b2 ** st.t
    n = p.flat.size
    block = ADAM_BLOCK * 8 // p.flat.itemsize
    s1, s2 = (np.empty(min(n, block), dtype=p.flat.dtype) for _ in range(2))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        theta, g = p.flat[lo:hi], grads.flat[lo:hi]
        m, v = st.m[lo:hi], st.v[lo:hi]
        a, b = s1[:hi - lo], s2[:hi - lo]
        np.multiply(m, b1, out=m)
        np.multiply(g, 1 - b1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, 1 - b2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        np.add(a, eps, out=a)
        np.divide(m, c1, out=b)
        np.multiply(b, lr, out=b)
        np.divide(b, a, out=b)
        np.subtract(theta, b, out=theta)


# -- denoiser: obs + noisy action window + step embedding -> noise estimate --


@dataclass
class DenoiserParams:
    """MLP denoiser over concat(obs, flattened noisy window, step embed),
    with the linear noise schedule it was trained under."""

    d_o: int
    T_p: int
    d_a: int
    embed_dim: int
    hidden: int
    T: int
    net: MlpParams = field(repr=False)
    beta_start: float = BETA_START
    beta_end: float = BETA_END

    @property
    def d_in(self) -> int:
        return self.d_o + self.T_p * self.d_a + self.embed_dim

    def noise_schedule(self) -> NoiseSchedule:
        """The noise schedule the denoiser was trained under."""
        return make_noise_schedule(self.T, self.beta_start, self.beta_end)


def init_params(seed: int, d_o: int, T_p: int, d_a: int, hidden: int = 256,
                embed_dim: int = 128, T: int = 100) -> DenoiserParams:
    """Seeded init of the 3-hidden-layer denoiser."""
    for name, v in (("d_o", d_o), ("T_p", T_p), ("d_a", d_a),
                    ("hidden", hidden), ("T", T)):
        if v < 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    check_embed_dim(embed_dim)
    rng = np.random.default_rng(seed)
    d_in = d_o + T_p * d_a + embed_dim
    net = init_mlp(rng, [d_in, hidden, hidden, hidden, T_p * d_a])
    return DenoiserParams(d_o=d_o, T_p=T_p, d_a=d_a, embed_dim=embed_dim,
                          hidden=hidden, T=T, net=net)


def _check_steps(ks: np.ndarray, T: int) -> None:
    if ks.ndim != 1 or not np.issubdtype(ks.dtype, np.integer) \
            or np.any((ks < 1) | (ks > T)):
        raise ValueError(f"steps must be integers in [1, {T}], got {ks!r}")


def denoiser_context(p: DenoiserParams, obs: np.ndarray,
                     ks: np.ndarray) -> np.ndarray:
    """The first layer's step-invariant part for one observation and
    steps ``ks`` (integers in 1..T, else ValueError): row i is
    ``obs @ W0[obs rows] + b0 + embed(ks[i]) @ W0[embed rows]``, shape
    (len(ks), hidden), in the net's dtype.  A reverse chain builds it
    once per window."""
    dtype = p.net.flat.dtype
    obs = np.asarray(obs, dtype=dtype)
    if obs.shape != (p.d_o,):
        raise ValueError(f"obs shape {obs.shape} != ({p.d_o},)")
    ks = np.asarray(ks)
    _check_steps(ks, p.T)
    w0 = p.net.weights[0]
    rows = _embed_table(p.embed_dim, p.T)[ks - 1].astype(dtype, copy=False)
    ctx = rows @ w0[p.d_o + p.T_p * p.d_a:]
    ctx += obs @ w0[:p.d_o] + p.net.biases[0]
    return ctx


# First layer split: obs and step terms per window, the action term per step.
def denoiser_forward(p: DenoiserParams, obs: np.ndarray, ak: np.ndarray,
                     k: int, context: np.ndarray | None = None) -> np.ndarray:
    """Noise estimate for one noisy window at step k; returns (T_p, d_a)
    in the net's dtype, to which the inputs are cast.

    ``context`` is k's row of ``denoiser_context(p, obs, ks)`` when the
    caller built one for a whole window (obs is then not read); without
    it the row is built here, a window of one.  k must be an integer in
    1..T, else ValueError.
    """
    dtype = p.net.flat.dtype
    if context is None:
        context = denoiser_context(p, obs, [k])[0]
    elif isinstance(k, bool) or not isinstance(k, (int, np.integer)) \
            or not 1 <= k <= p.T:
        raise ValueError(f"step must be an integer in [1, {p.T}], got {k!r}")
    context = np.asarray(context, dtype=dtype)
    ak = np.asarray(ak, dtype=dtype)
    if ak.shape != (p.T_p, p.d_a):
        raise ValueError(f"ak shape {ak.shape} != ({p.T_p}, {p.d_a})")
    w_act = p.net.weights[0][p.d_o:p.d_o + p.T_p * p.d_a]
    y = _mlp_from_first(p.net, ak.reshape(-1) @ w_act + context)
    return y.reshape(p.T_p, p.d_a)


def denoiser_batch_grads(p: DenoiserParams, obs_b: np.ndarray, ak_b: np.ndarray,
                         ks: np.ndarray, eps_b: np.ndarray
                         ) -> tuple[np.ndarray, MlpParams]:
    """Per-sample losses and the exact gradient of their mean, in one pass.

    obs_b is (B, d_o), ak_b and eps_b are (B, T_p, d_a) and ks is (B,)
    integer steps in 1..T, else ValueError.  Each loss is the entry-mean
    squared error of the noise estimate; the analytic backward pass gives
    the gradient, so a batch of one gives one sample's exact gradient.
    """
    obs_b, ak_b, ks, eps_b = (np.asarray(a) for a in (obs_b, ak_b, ks, eps_b))
    if obs_b.ndim != 2 or obs_b.shape[1] != p.d_o:
        raise ValueError(f"obs_b shape {obs_b.shape} != (B, {p.d_o})")
    B = obs_b.shape[0]
    window = (B, p.T_p, p.d_a)
    for name, arr in (("ak_b", ak_b), ("eps_b", eps_b)):
        if arr.shape != window:
            raise ValueError(f"{name} shape {arr.shape} != {window}")
    if ks.shape != (B,):
        raise ValueError(f"ks shape {ks.shape} != ({B},)")
    _check_steps(ks, p.T)
    table = _embed_table(p.embed_dim, p.T)
    dtype = p.net.flat.dtype
    x = np.concatenate([obs_b, ak_b.reshape(B, -1), table[ks - 1]], axis=1,
                       dtype=dtype)
    y, cache = mlp_forward(p.net, x)
    diff = y - eps_b.reshape(B, -1).astype(dtype, copy=False)
    losses = np.mean(diff * diff, axis=1)
    dy = (2.0 / diff.shape[1]) * diff / B  # gradient of the batch-mean loss
    return losses, mlp_backward(p.net, cache, dy)


# -- checkpoint: magic + dims and schedule header + flat float64 payload ------

_HEADER = "<7q2d"  # dims, then the schedule's beta_start and beta_end
HEADER_BYTES = len(CHECKPOINT_MAGIC) + struct.calcsize(_HEADER)


def save_checkpoint(path: str, p: DenoiserParams) -> None:
    """Layout: 8-byte magic; 7 little-endian int64 dims (d_o, T_p, d_a,
    embed_dim, hidden, n_hidden, T); 2 little-endian float64 schedule
    endpoints (beta_start, beta_end); then every layer's W and b raveled
    row-major as little-endian float64, in layer order (``net.flat``)."""
    dims = (p.d_o, p.T_p, p.d_a, p.embed_dim, p.hidden,
            len(p.net.weights) - 1, p.T)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC
                + struct.pack(_HEADER, *dims, p.beta_start, p.beta_end))
        f.write(np.ascontiguousarray(p.net.flat, dtype="<f8"))


def load_checkpoint(path: str) -> DenoiserParams:
    """Read a save_checkpoint file; any other is a ValueError."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] == b"DIFFPOL1":  # no schedule to read, and none is guessed
        raise ValueError(f"{path}: DIFFPOL1 checkpoint predates the noise "
                         "schedule header; retrain to write a DIFFPOL2 file")
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a denoiser checkpoint (bad magic)")
    if len(blob) < HEADER_BYTES:
        raise ValueError(f"{path}: truncated header")
    d_o, T_p, d_a, embed_dim, hidden, n_hidden, T, beta_start, beta_end = \
        struct.unpack_from(_HEADER, blob, 8)
    if min(d_o, T_p, d_a, embed_dim, hidden, T) < 1 or n_hidden < 0:
        raise ValueError(f"{path}: bad dims in header")
    if not 0.0 < beta_start <= beta_end < 1.0:  # False for NaN too
        raise ValueError(f"{path}: bad noise schedule in header: beta_start "
                         f"{beta_start!r}, beta_end {beta_end!r}")
    sizes = [d_o + T_p * d_a + embed_dim] + [hidden] * n_hidden + [T_p * d_a]
    shapes = [((fan_in, fan_out), (fan_out,))
              for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]
    n = sum(fan_in * fan_out + fan_out for (fan_in, fan_out), _ in shapes)
    if len(blob) != HEADER_BYTES + 8 * n:
        raise ValueError(f"{path}: payload size mismatch")
    flat = np.frombuffer(blob, dtype="<f8", offset=HEADER_BYTES).astype(
        np.float64)
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: non-finite weight")
    return DenoiserParams(d_o=d_o, T_p=T_p, d_a=d_a, embed_dim=embed_dim,
                          hidden=hidden, T=T,
                          net=MlpParams.from_flat(flat, shapes),
                          beta_start=beta_start, beta_end=beta_end)
