"""Trainable causal sequence predictor and its training loop.

The predictor maps an interpolated motion state ``x_t`` and a flow time
``t`` to either the clean reaction endpoint (``x1`` mode) or the path
velocity (``v`` mode); the actor enters only as the path's source, so there
is no condition input.  It is a small pre-normalization transformer built on
the package's own reverse-mode tape: frame rows are projected to
``width``-dimensional tokens, a summary token formed from the timestep
features is prepended, sinusoidal positions are added, and a directional
(lower-triangular) attention mask keeps the computation causal when
configured.

Training minimizes the endpoint / velocity regression loss plus a weighted
interaction loss with Adam updates.  Everything is seeded and
bit-reproducible.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import cache
from . import flowpath as fp
from . import geometry as geo
from .data import MAX_FRAMES, _numbers
from .errors import DimensionMismatch, InvalidConfig, NonFiniteLoss, shown

PARAMS_FORMAT = "arflow-predictor"
PARAMS_VERSION = 3
MAX_LAYERS = 64     # most transformer blocks of a predictor
MAX_WIDTH = 1024    # widest token; heads divide it, so at most this many heads
MAX_BATCH = 4096    # most pairs in one training batch
MAX_STEPS = 10 ** 6  # most training steps

_LN_EPS = 1e-5
_MASK_VALUE = -1e9
_T_SCALE = 1000.0
_T_GRID = 1000


@dataclass(frozen=True)
class PredictorConfig:
    frame_dim: int
    max_frames: int
    layers: int = 2
    width: int = 64
    heads: int = 2
    causal: bool = True
    prediction_mode: str = "x1"  # "x1" or "v"
    sigma_min: float = fp.SIGMA_MIN_DEFAULT  # of the path the model is trained on

    def __post_init__(self):
        # a model file is JSON: a float, bool or string here would pass the
        # range checks below and fail later, or load as the wrong model
        for name in ("frame_dim", "max_frames", "layers", "width", "heads"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidConfig(f"{name} must be an integer, got {shown(value)}")
        if not isinstance(self.causal, bool):
            raise InvalidConfig(f"causal must be true or false, got {shown(self.causal)}")
        if (isinstance(self.sigma_min, bool) or not isinstance(self.sigma_min, (int, float))
                or not 0.0 <= self.sigma_min < 1.0):  # NaN fails too
            raise InvalidConfig(
                f"sigma_min must be a number in [0, 1), got {shown(self.sigma_min)}")
        # checked before any array is sized from them
        if not (1 <= self.layers <= MAX_LAYERS and 2 <= self.width <= MAX_WIDTH
                and 1 <= self.heads <= self.width):
            raise InvalidConfig(f"layers must be in [1, {MAX_LAYERS}], width in "
                                f"[2, {MAX_WIDTH}] and heads in [1, width], got "
                                f"{shown(self.layers)}, {shown(self.width)} and "
                                f"{shown(self.heads)}")
        if self.width % self.heads != 0 or self.width % 2 != 0:
            raise InvalidConfig("width must be even and divisible by heads")
        if not 1 <= self.max_frames <= MAX_FRAMES or self.frame_dim < 1:
            raise InvalidConfig(f"frame_dim must be >= 1 and max_frames in "
                                f"[1, {MAX_FRAMES}], got {shown(self.frame_dim)} and "
                                f"{shown(self.max_frames)}")
        if self.prediction_mode not in ("x1", "v"):
            raise InvalidConfig("prediction_mode must be 'x1' or 'v'")


@dataclass
class PredictorParams:
    config: PredictorConfig
    arrays: dict[str, np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 10000
    batch_size: int = 16
    learning_rate: float = 1e-3
    lambda_inter: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.steps <= MAX_STEPS and 1 <= self.batch_size <= MAX_BATCH):
            raise InvalidConfig(f"steps must be in [1, {MAX_STEPS}] and batch_size in "
                                f"[1, {MAX_BATCH}], got {self.steps} and {self.batch_size}")
        if not 0.0 < self.learning_rate < np.inf:
            raise InvalidConfig(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.lambda_inter < np.inf:
            raise InvalidConfig(f"lambda_inter must be finite and >= 0, "
                                f"got {self.lambda_inter}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------

def _param_specs(cfg: PredictorConfig) -> dict[str, tuple[tuple[int, ...], float | str]]:
    """Every parameter array in file and draw order: name -> (shape, init),
    where ``init`` is the standard deviation of a normal draw, or "zeros"
    or "ones"."""
    w = cfg.width
    d = cfg.frame_dim

    # math.sqrt takes any int; np.sqrt raises TypeError beyond int64 (a model
    # file's frame_dim is not bounded, and its arrays' shapes refuse it later)
    def dense(fan_in, fan_out, scale=1.0):
        return (fan_in, fan_out), scale / math.sqrt(fan_in)

    specs: dict[str, tuple[tuple[int, ...], float | str]] = {
        "in_proj_w": dense(d, w),
        "in_proj_b": ((w,), "zeros"),
        "t_mlp_w1": dense(w, w),
        "t_mlp_b1": ((w,), "zeros"),
        "t_mlp_w2": dense(w, w),
        "t_mlp_b2": ((w,), "zeros"),
        "final_ln_g": ((w,), "ones"),
        "final_ln_b": ((w,), "zeros"),
        "out_proj_w": ((w, d), 1e-3 / np.sqrt(w)),
        "out_proj_b": ((d,), "zeros"),
    }
    for i in range(cfg.layers):
        specs[f"l{i}_ln1_g"] = ((w,), "ones")
        specs[f"l{i}_ln1_b"] = ((w,), "zeros")
        specs[f"l{i}_qkv_w"] = dense(w, 3 * w)
        specs[f"l{i}_qkv_b"] = ((3 * w,), "zeros")
        specs[f"l{i}_att_w"] = dense(w, w, scale=1.0 / np.sqrt(2 * cfg.layers))
        specs[f"l{i}_att_b"] = ((w,), "zeros")
        specs[f"l{i}_ln2_g"] = ((w,), "ones")
        specs[f"l{i}_ln2_b"] = ((w,), "zeros")
        specs[f"l{i}_ff_w1"] = dense(w, 4 * w)
        specs[f"l{i}_ff_b1"] = ((4 * w,), "zeros")
        specs[f"l{i}_ff_w2"] = dense(4 * w, w, scale=1.0 / np.sqrt(2 * cfg.layers))
        specs[f"l{i}_ff_b2"] = ((w,), "zeros")
    return specs


def init_params(cfg: PredictorConfig, seed: int = 0) -> PredictorParams:
    """Seeded fan-in initialization; the output projection starts small."""
    rng = np.random.default_rng(seed)
    fills = {"zeros": np.zeros, "ones": np.ones}
    arrays = {name: fills[init](shape) if isinstance(init, str)
              else rng.normal(scale=init, size=shape)
              for name, (shape, init) in _param_specs(cfg).items()}
    return PredictorParams(cfg, arrays)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _timestep_features(t: np.ndarray, width: int) -> np.ndarray:
    half = width // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = np.asarray(t, dtype=np.float64)[:, None] * _T_SCALE * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


def _positional(seq_len: int, width: int) -> np.ndarray:
    pos = np.arange(seq_len, dtype=np.float64)[:, None]
    idx = np.arange(width, dtype=np.float64)[None, :]
    ang = pos / np.power(10000.0, (idx // 2) * 2.0 / width)
    pe = np.where(idx % 2 == 0, np.sin(ang), np.cos(ang))
    return pe


def _forward(tensors: dict[str, ad.Tensor], cfg: PredictorConfig,
             x_t: np.ndarray, t) -> ad.Tensor:
    """Batched forward pass up to the final hidden state (B, H, width).

    ``t`` is one flow time per sample, or a scalar shared by the batch
    (embedded once).  Every dense layer, layer norm and attention block is
    one tape node; dense layers run on (B*S, .) matrices so their parameter
    gradients are single GEMMs instead of broadcast reductions.
    """
    b, h, _ = x_t.shape
    w = cfg.width
    seq = h + 1

    def dense(x, name, suffix=""):
        return ad.linear(x, tensors[f"{name}_w{suffix}"], tensors[f"{name}_b{suffix}"])

    def norm(x, name):
        return ad.layer_norm(x, tensors[f"{name}_g"], tensors[f"{name}_b"], _LN_EPS)

    frames = dense(ad.constant(x_t), "in_proj")

    tfeat = ad.constant(_timestep_features(np.atleast_1d(t), w))
    temb = dense(ad.gelu(dense(tfeat, "t_mlp", "1")), "t_mlp", "2")
    if temb.shape[0] != b:  # a scalar t: one embedded row, copied to every sample
        temb = ad.concat([temb] * b, axis=0)
    z = temb.reshape(b, 1, w)

    x = ad.concat([z, frames], axis=1) + ad.constant(_positional(seq, w))

    if cfg.causal:
        mask = np.triu(np.full((seq, seq), _MASK_VALUE), k=1)
    else:
        mask = np.zeros((seq, seq))

    for i in range(cfg.layers):
        qkv = dense(norm(x, f"l{i}_ln1"), f"l{i}_qkv")
        x = x + dense(ad.attention(qkv, cfg.heads, mask), f"l{i}_att")
        ff = ad.gelu(dense(norm(x, f"l{i}_ln2"), f"l{i}_ff", "1"))
        x = x + dense(ff, f"l{i}_ff", "2")

    return norm(x, "final_ln")[:, 1:, :]


def _as_tensors(params: PredictorParams, trainable: bool) -> dict[str, ad.Tensor]:
    wrap = ad.leaf if trainable else ad.constant
    return {name: wrap(arr) for name, arr in params.arrays.items()}


def _check_input(cfg: PredictorConfig, x_t: np.ndarray) -> np.ndarray:
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.ndim != 3 or x_t.shape[-1] != cfg.frame_dim:
        raise DimensionMismatch(
            f"expected a (B, H, {cfg.frame_dim}) batch, got {x_t.shape}")
    if x_t.shape[1] > cfg.max_frames:
        raise DimensionMismatch(
            f"{x_t.shape[1]} frames exceeds max_frames={cfg.max_frames}")
    return x_t


def predict(params: PredictorParams, x_t: np.ndarray, t: float) -> np.ndarray:
    """Raw network output (B, H, D) for a (B, H, D) batch of motion states.

    One forward pass covers the whole batch.  In causal mode output frame h
    depends only on input frames <= h (plus t).  Pure and deterministic.
    """
    cfg = params.config
    x_t = _check_input(cfg, x_t)
    hidden = _forward(_as_tensors(params, trainable=False), cfg, x_t, float(t)).data
    # one (H, width) x (width, D) product per sample, so a sample's output
    # does not depend on the batch it is in
    return hidden @ params.arrays["out_proj_w"] + params.arrays["out_proj_b"]


def as_x1_predictor(params: PredictorParams):
    """Wrap trained params as a sampler-facing callable (x_t, t) -> x1_hat
    on (B, H, D) batches; a ``v`` model's velocity becomes an endpoint at
    the model's ``sigma_min``."""
    cfg = params.config

    def predictor(x_t: np.ndarray, t: float) -> np.ndarray:
        raw = predict(params, x_t, t)
        if cfg.prediction_mode == "x1":
            return raw
        return fp.x1_from_v(raw, x_t, t, cfg.sigma_min)

    return predictor


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------

def grad_loss(params: PredictorParams, x0: np.ndarray, x1: np.ndarray,
              skel: geo.Skeleton, cfg: TrainConfig, *, ts: np.ndarray,
              targets: tuple[np.ndarray, np.ndarray] | None = None):
    """Training loss and parameter gradients on a batch of (B, H, D) pairs
    x0 -> x1 at the per-sample flow times ``ts``.

    ``targets`` is the batch's :func:`flowpath.interaction_targets` pair
    ``(pos, rot)``, one row per frame, sample after sample (rows of the
    pair :func:`train` builds once); it is
    required unless ``cfg.lambda_inter`` is 0, an ``InvalidConfig`` if
    missing.  Returns ``(total, fm, inter, grads)`` with grads keyed like
    ``params.arrays``.
    """
    pcfg = params.config
    x0, x1 = (np.asarray(x, dtype=np.float64) for x in (x0, x1))
    if x0.ndim != 3 or x0.shape != x1.shape or len(x0) == 0:
        raise DimensionMismatch(f"x0 {x0.shape} and x1 {x1.shape} must be one "
                                f"non-empty (B, H, D) shape")
    if cfg.lambda_inter != 0.0 and targets is None:
        raise InvalidConfig("lambda_inter != 0 needs the batch's interaction targets")
    b, h, _ = x0.shape
    ts = np.asarray(ts, dtype=np.float64)
    x_t = fp.interpolate(x0, x1, ts[:, None, None], pcfg.sigma_min)

    tensors = _as_tensors(params, trainable=True)
    hidden = _forward(tensors, pcfg, x_t, ts)
    raw = ad.linear(hidden, tensors["out_proj_w"], tensors["out_proj_b"])

    if pcfg.prediction_mode == "x1":
        target = x1
        x1_hat = raw
    else:
        target = fp.target_velocity(x0, x1, pcfg.sigma_min)
        x1_hat = fp.x1_from_v_t(raw, ad.constant(x_t), ts[:, None, None],
                                pcfg.sigma_min)

    diff = raw - ad.constant(target)
    loss_fm = (diff * diff).mean()

    loss = loss_fm
    inter_val = 0.0
    if cfg.lambda_inter != 0.0:
        # flattening the batch into b*h frames makes the 1/(b*h) inside the
        # interaction loss exactly the batch mean of per-sample losses
        loss_inter = fp.interaction_loss_t(x1_hat.reshape(b * h, pcfg.frame_dim),
                                           targets, skel)
        inter_val = float(loss_inter.data)
        loss = loss + loss_inter * cfg.lambda_inter

    total = float(loss.data)
    if not np.isfinite(total):
        raise NonFiniteLoss("non-finite training loss")
    loss.backward()
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in tensors.items()}
    return total, float(loss_fm.data), inter_val, grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(x0s: np.ndarray, x1s: np.ndarray, skel: geo.Skeleton,
          predictor_cfg: PredictorConfig, train_cfg: TrainConfig, *,
          log_every: int = 0, phase_end: Callable[[str], None] | None = None):
    """Train a predictor on the (N, H, D) actions ``x0s`` and reactions
    ``x1s``; each step's batch is rows of them.  ``InvalidConfig`` unless
    both are one non-empty shape that fits ``predictor_cfg`` as
    :func:`predict` requires: at most ``max_frames`` frames of ``frame_dim``.

    Returns ``(params, history)`` where history has one
    ``(fm, inter, total)`` row per step.  Bit-reproducible for a fixed
    ``train_cfg.seed``.  A negative ``log_every`` is an ``InvalidConfig``.
    ``phase_end``, when given, is called with ``"targets"`` once the set-up
    and the interaction-target table are done, before the first step.
    """
    if log_every < 0:
        raise InvalidConfig(f"log_every must be >= 0, got {log_every}")
    x0s, x1s = (np.asarray(x, dtype=np.float64) for x in (x0s, x1s))
    if (x0s.ndim != 3 or x0s.shape != x1s.shape or x0s.size == 0
            or x0s.shape[1] > predictor_cfg.max_frames
            or x0s.shape[2] != predictor_cfg.frame_dim):
        raise InvalidConfig(f"training arrays {x0s.shape} and {x1s.shape} are not one non-empty "
                            f"(N, H <= {predictor_cfg.max_frames}, {predictor_cfg.frame_dim}) shape")
    rng = np.random.default_rng(train_cfg.seed)
    params = init_params(predictor_cfg, train_cfg.seed)
    # Adam runs over one flat buffer; the parameter arrays are views into it
    names = list(params.arrays)
    flat = np.concatenate([params.arrays[k].ravel() for k in names])
    ends = np.cumsum([params.arrays[k].size for k in names])[:-1]
    for k, part in zip(names, np.split(flat, ends)):
        params.arrays[k] = part.reshape(params.arrays[k].shape)
    grad, m, v, tmp = (np.zeros_like(flat) for _ in range(4))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = train_cfg.learning_rate

    n, h, _ = x0s.shape
    table = None
    if train_cfg.lambda_inter != 0.0:
        # one call over all n*h frames; a batch takes its frames' rows
        table = fp.interaction_targets(skel, x1s.reshape(n * h, -1))
    if phase_end is not None:
        phase_end("targets")

    history: list[tuple[float, float, float]] = []
    for step in range(train_cfg.steps):
        idx = rng.integers(0, n, size=train_cfg.batch_size)
        ts = rng.integers(0, _T_GRID, size=train_cfg.batch_size) / _T_GRID
        rows = (idx[:, None] * h + np.arange(h)).ravel()
        targets = None if table is None else (table[0][rows], table[1][rows])
        try:
            total, fm, inter, grads = grad_loss(params, x0s[idx], x1s[idx], skel,
                                                train_cfg, ts=ts, targets=targets)
        except NonFiniteLoss as err:
            raise NonFiniteLoss(f"non-finite loss at step {step}", step=step) from err
        t_adam = step + 1
        np.concatenate([grads[k].ravel() for k in names], out=grad)
        # per element: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
        # p = p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
        m *= beta1
        m += np.multiply(1 - beta1, grad, out=tmp)
        v *= beta2
        np.multiply(1 - beta2, grad, out=tmp)
        tmp *= grad
        v += tmp
        np.divide(v, 1 - beta2 ** t_adam, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m, 1 - beta1 ** t_adam, out=grad)
        grad *= lr
        grad /= tmp
        flat -= grad
        history.append((fm, inter, total))
        if log_every and (step + 1) % log_every == 0:
            print(f"step {step + 1}/{train_cfg.steps} "
                  f"fm={fm:.6f} inter={inter:.6f} total={total:.6f}")
    return params, history


# ---------------------------------------------------------------------------
# Serialization (documented in README: "Model parameter file")
# ---------------------------------------------------------------------------

def _check_arrays(cfg: PredictorConfig, arrays: dict) -> None:
    """``InvalidConfig`` unless ``arrays`` has the names and shapes that
    :func:`init_params` gives ``cfg``, each of finite numbers: the one rule
    :func:`save_params` checks before writing and :func:`load_params` after."""
    specs = _param_specs(cfg)
    if set(arrays) != set(specs):
        raise InvalidConfig(
            f"arrays {shown(sorted(set(arrays) ^ set(specs)))} missing or unknown")
    for name, (shape, _) in specs.items():
        arr = np.asarray(arrays[name])
        if arr.shape != shape or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            raise InvalidConfig(f"array {name} of shape {arr.shape} is not {shape} finite numbers")


def save_params(path: str, params: PredictorParams,
                digests: dict[str, str] | None = None) -> None:
    """Write a parameter file, then its binary cache ``path + ".f8"``;
    ``InvalidConfig`` before either is written if :func:`_check_arrays`
    fails.  ``digests[path]`` receives the file's SHA-256 when a dict is given."""
    _check_arrays(params.config, params.arrays)
    digests = {} if digests is None else digests
    head = json.dumps({"format": PARAMS_FORMAT, "version": PARAMS_VERSION,
                       "config": asdict(params.config)})
    items = sorted(params.arrays.items())
    # the bytes json.dumps gives the whole document, written one array at a
    # time: the C encoder's speed without holding every array's text at once
    with cache.atomic_open(path, digests) as fh:
        fh.write(head[:-1] + ', "arrays": {')
        for i, (name, arr) in enumerate(items):
            rec = json.dumps({"shape": list(arr.shape),
                              "data": arr.reshape(-1).tolist()})
            fh.write(f'{", " if i else ""}{json.dumps(name)}: {rec}')
        fh.write("}}")
    meta = {"config": asdict(params.config),
            "arrays": [[name, list(arr.shape)] for name, arr in items]}
    cache.write(path, digests[path], meta, (arr for _, arr in items))


def _cached_params(path: str, digests: dict[str, str] | None) -> PredictorParams | None:
    """What :func:`load_params` returns, from the binary cache of ``path``;
    None when the cache cannot stand in for the file.  The decoded
    parameters pass the reader's rules: ``PredictorConfig`` and
    :func:`_check_arrays`."""
    def layout(meta):
        cfg = PredictorConfig(**meta["config"])
        entries = [(name, shape) for name, shape in meta["arrays"]]
        if any(type(name) is not str or type(shape) is not list
               or any(type(n) is not int or n < 0 for n in shape) for name, shape in entries):
            raise TypeError("array entries are not a name and a list of sizes")
        total = sum(math.prod(shape) for _, shape in entries)
        return (cfg, entries), total, 0, total

    found = cache.read(path, layout, digests)
    if found is None:
        return None
    (cfg, entries), values = found
    arrays, start = {}, 0
    for name, shape in entries:
        size = math.prod(shape)
        arrays[name] = values[start:start + size].reshape(shape)
        start += size
    try:
        _check_arrays(cfg, arrays)
    except InvalidConfig:
        return None
    return PredictorParams(cfg, arrays)


def load_params(path: str, digests: dict[str, str] | None = None) -> PredictorParams:
    """Read a parameter file; ``InvalidConfig`` unless it has this format and
    version, a valid config and arrays that pass :func:`_check_arrays`, each
    a flat ``data`` list of as many numbers as its ``shape`` of integers
    asks for.  Other top-level keys are ignored.  A valid binary cache
    ``path + ".f8"`` (see :mod:`arflow.cache`) gives the same parameters
    without parsing the file; when the cache lookup hashes the file,
    ``digests[path]`` receives its SHA-256."""
    if (cached := _cached_params(path, digests)) is not None:
        return cached
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as err:
            raise InvalidConfig(f"{path} is not JSON: {err}") from err
    version = doc.get("version") if isinstance(doc, dict) else None
    if (not isinstance(doc, dict) or doc.get("format") != PARAMS_FORMAT
            or type(version) is not int or version != PARAMS_VERSION
            or type(doc.get("arrays")) is not dict):
        raise InvalidConfig(f"not a {PARAMS_FORMAT} v{PARAMS_VERSION} file with arrays "
                            f"(version {shown(version)}): {path}")
    try:
        cfg = PredictorConfig(**doc["config"])
    except (KeyError, TypeError) as err:
        raise InvalidConfig(f"malformed parameter file {path}: {shown(err)}") from err
    arrays = {}
    for name, rec in doc["arrays"].items():
        try:
            shape, values = rec["shape"], rec["data"]
            if type(shape) is not list or any(type(n) is not int for n in shape):
                raise TypeError(f"shape {shown(shape)} is not a list of integers")
            # a model file always holds a boolean (causal): check each array for one
            arr = _numbers(values, has_bools=True)
            if arr.shape != (math.prod(shape),):
                raise ValueError(f"data is not a flat list of {math.prod(shape)} numbers")
            arrays[name] = arr.reshape(shape).astype(np.float64, copy=False)
        except (KeyError, TypeError, ValueError) as err:
            raise InvalidConfig(f"array {shown(name)}: {err}") from err
    _check_arrays(cfg, arrays)
    return PredictorParams(cfg, arrays)
