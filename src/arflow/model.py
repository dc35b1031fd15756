"""Trainable causal sequence predictor and its training loop.

The predictor maps an interpolated motion state ``x_t`` plus a flow time
``t`` and an optional condition id to either the clean reaction endpoint
(``x1`` mode) or the path velocity (``v`` mode).  It is a small
pre-normalization transformer built on the package's own reverse-mode tape:
frame rows are projected to ``width``-dimensional tokens, a summary token
formed from the timestep features and the condition embedding is prepended,
sinusoidal positions are added, and a directional (lower-triangular)
attention mask keeps the computation causal when configured.

Training minimizes the endpoint / velocity regression loss plus a weighted
interaction loss, with classifier-free condition dropout and Adam updates.
Everything is seeded and bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import flowpath as fp
from . import geometry as geo
from .data import atomic_open
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    NonFiniteLoss,
    UnknownCondition,
)

PARAMS_FORMAT = "arflow-predictor"
PARAMS_VERSION = 1

_LN_EPS = 1e-5
_MASK_VALUE = -1e9
_T_SCALE = 1000.0


@dataclass(frozen=True)
class PredictorConfig:
    frame_dim: int
    max_frames: int
    layers: int = 2
    width: int = 64
    heads: int = 2
    causal: bool = True
    cond_vocab: int = 0
    prediction_mode: str = "x1"  # "x1" or "v"

    def __post_init__(self):
        if self.layers < 1 or self.width < 2 or self.heads < 1:
            raise InvalidConfig("layers, width, heads must be positive")
        if self.width % self.heads != 0 or self.width % 2 != 0:
            raise InvalidConfig("width must be even and divisible by heads")
        if self.max_frames < 1 or self.frame_dim < 1:
            raise InvalidConfig("frame_dim and max_frames must be >= 1")
        if self.prediction_mode not in ("x1", "v"):
            raise InvalidConfig("prediction_mode must be 'x1' or 'v'")
        if self.cond_vocab < 0:
            raise InvalidConfig("cond_vocab must be >= 0")


@dataclass
class PredictorParams:
    config: PredictorConfig
    arrays: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)  # free-form training provenance


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    batch_size: int = 32
    learning_rate: float = 1e-3
    lambda_inter: float = 1.0
    sigma_min: float = fp.SIGMA_MIN_DEFAULT
    t_grid: int = 1000
    cond_dropout_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise InvalidConfig("steps and batch_size must be >= 1")
        if not 0.0 <= self.cond_dropout_prob <= 1.0:
            raise InvalidConfig("cond_dropout_prob must be in [0, 1]")
        if self.t_grid < 1:
            raise InvalidConfig("t_grid must be >= 1")


# ---------------------------------------------------------------------------
# Parameter initialization
# ---------------------------------------------------------------------------

def init_params(cfg: PredictorConfig, seed: int = 0) -> PredictorParams:
    """Seeded fan-in initialization; the output projection starts small."""
    rng = np.random.default_rng(seed)
    w = cfg.width
    d = cfg.frame_dim

    def dense(fan_in, fan_out, scale=1.0):
        return rng.normal(scale=scale / np.sqrt(fan_in), size=(fan_in, fan_out))

    arrays: dict[str, np.ndarray] = {
        "in_proj_w": dense(d, w),
        "in_proj_b": np.zeros(w),
        "t_mlp_w1": dense(w, w),
        "t_mlp_b1": np.zeros(w),
        "t_mlp_w2": dense(w, w),
        "t_mlp_b2": np.zeros(w),
        "cond_embed": rng.normal(scale=0.02, size=(cfg.cond_vocab + 1, w)),
        "final_ln_g": np.ones(w),
        "final_ln_b": np.zeros(w),
        "out_proj_w": rng.normal(scale=1e-3 / np.sqrt(w), size=(w, d)),
        "out_proj_b": np.zeros(d),
    }
    for i in range(cfg.layers):
        arrays[f"l{i}_ln1_g"] = np.ones(w)
        arrays[f"l{i}_ln1_b"] = np.zeros(w)
        arrays[f"l{i}_qkv_w"] = dense(w, 3 * w)
        arrays[f"l{i}_qkv_b"] = np.zeros(3 * w)
        arrays[f"l{i}_att_w"] = dense(w, w, scale=1.0 / np.sqrt(2 * cfg.layers))
        arrays[f"l{i}_att_b"] = np.zeros(w)
        arrays[f"l{i}_ln2_g"] = np.ones(w)
        arrays[f"l{i}_ln2_b"] = np.zeros(w)
        arrays[f"l{i}_ff_w1"] = dense(w, 4 * w)
        arrays[f"l{i}_ff_b1"] = np.zeros(4 * w)
        arrays[f"l{i}_ff_w2"] = dense(4 * w, w, scale=1.0 / np.sqrt(2 * cfg.layers))
        arrays[f"l{i}_ff_b2"] = np.zeros(w)
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


def _layer_norm(x: ad.Tensor, g: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / (var + _LN_EPS).sqrt() * g + b


def _cond_rows(cfg: PredictorConfig, conds) -> np.ndarray:
    """Map per-sample condition ids (None = null token) to embedding rows."""
    rows = np.empty(len(conds), dtype=np.int64)
    for i, c in enumerate(conds):
        if c is None:
            rows[i] = cfg.cond_vocab
        else:
            c = int(c)
            if not 0 <= c < cfg.cond_vocab:
                raise UnknownCondition(
                    f"condition {c} outside vocabulary of {cfg.cond_vocab}")
            rows[i] = c
    return rows


def _forward(tensors: dict[str, ad.Tensor], cfg: PredictorConfig,
             x_t: np.ndarray, t, cond_rows: np.ndarray) -> ad.Tensor:
    """Batched forward pass up to the final hidden state (B, H, width).

    ``t`` is one flow time per sample, or a scalar shared by the batch
    (embedded once).  Dense projections run on (B*S, .) matrices so their
    parameter gradients are single GEMMs instead of broadcast reductions.
    """
    b, h, _ = x_t.shape
    w = cfg.width
    seq = h + 1

    frames = (ad.constant(x_t.reshape(b * h, -1)) @ tensors["in_proj_w"]
              + tensors["in_proj_b"]).reshape(b, h, w)

    tfeat = ad.constant(_timestep_features(np.atleast_1d(t), w))
    temb = ad.gelu(tfeat @ tensors["t_mlp_w1"] + tensors["t_mlp_b1"])
    temb = temb @ tensors["t_mlp_w2"] + tensors["t_mlp_b2"]
    onehot = np.zeros((b, cfg.cond_vocab + 1))
    onehot[np.arange(b), cond_rows] = 1.0
    cemb = ad.constant(onehot) @ tensors["cond_embed"]
    z = (temb + cemb).reshape(b, 1, w)

    x = ad.concat([z, frames], axis=1) + ad.constant(_positional(seq, w))

    if cfg.causal:
        mask = np.triu(np.full((seq, seq), _MASK_VALUE), k=1)
    else:
        mask = np.zeros((seq, seq))
    mask_t = ad.constant(mask)

    head_dim = w // cfg.heads
    scale = 1.0 / np.sqrt(head_dim)
    for i in range(cfg.layers):
        ln = _layer_norm(x, tensors[f"l{i}_ln1_g"], tensors[f"l{i}_ln1_b"])
        qkv = (ln.reshape(b * seq, w) @ tensors[f"l{i}_qkv_w"]
               + tensors[f"l{i}_qkv_b"]).reshape(b, seq, 3, cfg.heads, head_dim)
        q = qkv[:, :, 0].swapaxes(1, 2)
        k = qkv[:, :, 1].swapaxes(1, 2)
        v = qkv[:, :, 2].swapaxes(1, 2)
        scores = (q @ k.swapaxes(2, 3)) * scale + mask_t
        att = ad.softmax(scores, axis=-1) @ v
        att = att.swapaxes(1, 2).reshape(b * seq, w)
        x = x + (att @ tensors[f"l{i}_att_w"]
                 + tensors[f"l{i}_att_b"]).reshape(b, seq, w)
        ln = _layer_norm(x, tensors[f"l{i}_ln2_g"], tensors[f"l{i}_ln2_b"])
        ff = ad.gelu(ln.reshape(b * seq, w) @ tensors[f"l{i}_ff_w1"]
                     + tensors[f"l{i}_ff_b1"])
        x = x + (ff @ tensors[f"l{i}_ff_w2"]
                 + tensors[f"l{i}_ff_b2"]).reshape(b, seq, w)

    return _layer_norm(x, tensors["final_ln_g"], tensors["final_ln_b"])[:, 1:, :]


def _as_tensors(params: PredictorParams, trainable: bool) -> dict[str, ad.Tensor]:
    wrap = ad.leaf if trainable else ad.constant
    return {name: wrap(arr) for name, arr in params.arrays.items()}


def _check_input(cfg: PredictorConfig, x_t: np.ndarray,
                 batched: bool = False) -> np.ndarray:
    x_t = np.asarray(x_t, dtype=np.float64)
    ranks = (2, 3) if batched else (2,)
    if x_t.ndim not in ranks or x_t.shape[-1] != cfg.frame_dim:
        raise DimensionMismatch(
            f"expected ({'[B,] ' if batched else ''}H, {cfg.frame_dim}) input, "
            f"got {x_t.shape}")
    if x_t.shape[-2] > cfg.max_frames:
        raise DimensionMismatch(
            f"{x_t.shape[-2]} frames exceeds max_frames={cfg.max_frames}")
    return x_t


def predict(params: PredictorParams, x_t: np.ndarray, t: float,
            c=None) -> np.ndarray:
    """Raw network output for one motion state (H, D), or a batch (B, H, D).

    For a batch, ``c`` is a length-B sequence of condition ids (None entries
    take the null token) or None for the null token throughout; one forward
    pass covers the whole batch.  In causal mode output frame h depends only
    on input frames <= h (plus t and c).  Pure and deterministic.
    """
    cfg = params.config
    x_t = _check_input(cfg, x_t, batched=True)
    if x_t.ndim == 2:
        batch, conds = x_t[None], [c]
    else:
        batch, conds = x_t, ([None] * len(x_t) if c is None else list(c))
        if len(conds) != len(batch):
            raise DimensionMismatch(
                f"{len(conds)} conditions for a batch of {len(batch)}")
    hidden = _forward(_as_tensors(params, trainable=False), cfg, batch, float(t),
                      _cond_rows(cfg, conds)).data
    # one (H, width) x (width, D) product per sample, the shape of a single
    # call, so a sample's output does not depend on the batch it is in
    out = hidden @ params.arrays["out_proj_w"] + params.arrays["out_proj_b"]
    return out if x_t.ndim == 3 else out[0]


def hidden_features(params: PredictorParams, motion: np.ndarray, t: float = 1.0,
                    c: int | None = None) -> np.ndarray:
    """Mean-pooled final hidden state of a motion: (width,)."""
    cfg = params.config
    motion = _check_input(cfg, motion)
    rows = _cond_rows(cfg, [c])
    hidden = _forward(_as_tensors(params, trainable=False), cfg,
                      motion[None], float(t), rows)
    return hidden.data[0].mean(axis=0)


def prediction_to_x1(raw: np.ndarray, x_t: np.ndarray, t: float,
                     sigma_min: float, mode: str) -> np.ndarray:
    """Unify a raw prediction into an endpoint estimate regardless of mode."""
    if mode == "x1":
        return raw
    if mode == "v":
        return fp.x1_from_v(raw, x_t, t, sigma_min)
    raise InvalidConfig(f"unknown prediction mode {mode!r}")


def as_x1_predictor(params: PredictorParams, sigma_min: float):
    """Wrap trained params as a sampler-facing callable (x_t, t, c) -> x1_hat."""
    mode = params.config.prediction_mode

    def predictor(x_t: np.ndarray, t: float, c) -> np.ndarray:
        raw = predict(params, x_t, t, c)
        return prediction_to_x1(raw, x_t, t, sigma_min, mode)

    return predictor


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------

def _loss_graph(tensors: dict[str, ad.Tensor], pcfg: PredictorConfig, batch,
                skel: geo.Skeleton, cfg: TrainConfig, ts: np.ndarray,
                conds: list[int | None],
                targets: fp.InteractionTargets | None = None):
    """Training loss on the tape: ``(total, fm, inter value)``.

    Shared by :func:`grad_loss` and :func:`loss_value`, so the gradient
    checks differentiate exactly the forward they check.  ``targets`` holds
    the interaction targets of the batch's b*h frames in order; without
    it they are built here with the same one call.
    """
    rows = _cond_rows(pcfg, conds)
    b = len(batch)
    x0 = np.stack([np.asarray(s[0], dtype=np.float64) for s in batch])
    x1 = np.stack([np.asarray(s[1], dtype=np.float64) for s in batch])
    h = x0.shape[1]
    ts = np.asarray(ts, dtype=np.float64)
    x_t = fp.interpolate(x0, x1, ts[:, None, None], cfg.sigma_min)

    hidden = _forward(tensors, pcfg, x_t, ts, rows)
    raw = (hidden.reshape(b * h, pcfg.width) @ tensors["out_proj_w"]
           + tensors["out_proj_b"]).reshape(b, h, pcfg.frame_dim)

    if pcfg.prediction_mode == "x1":
        target = x1
        x1_hat = raw
    else:
        target = fp.target_velocity(x0, x1, cfg.sigma_min)
        x1_hat = fp.x1_from_v_t(raw, ad.constant(x_t), ts[:, None, None],
                                cfg.sigma_min)

    diff = raw - ad.constant(target)
    loss_fm = (diff * diff).mean()

    loss = loss_fm
    inter_val = 0.0
    if cfg.lambda_inter != 0.0:
        # flattening the batch into b*h frames makes the 1/(b*h) inside the
        # interaction loss exactly the batch mean of per-sample losses
        if targets is None:
            targets = fp.interaction_targets(skel, x0.reshape(b * h, -1),
                                             x1.reshape(b * h, -1))
        loss_inter = fp.interaction_loss_t(x1_hat.reshape(b * h, pcfg.frame_dim),
                                           targets, skel)
        inter_val = float(loss_inter.data)
        loss = loss + loss_inter * cfg.lambda_inter
    return loss, loss_fm, inter_val


def grad_loss(params: PredictorParams, batch, skel: geo.Skeleton,
              cfg: TrainConfig, *, ts: np.ndarray | None = None,
              conds: list[int | None] | None = None,
              rng: np.random.Generator | None = None,
              targets: fp.InteractionTargets | None = None):
    """Loss and parameter gradients on a batch of (x0, x1, c) triples.

    ``ts``/``conds`` override the per-sample flow times and condition ids;
    otherwise they are drawn from ``rng`` (times from the uniform t_grid,
    conditions from the batch with classifier-free dropout).  ``targets``
    optionally carries the batch's precomputed interaction targets, one
    row per frame, sample after sample.
    Returns ``(total, fm, inter, grads)`` with grads keyed like
    ``params.arrays``.
    """
    if len(batch) == 0:
        raise InvalidConfig("batch must be non-empty")
    if ts is None:
        if rng is None:
            raise InvalidConfig("either ts or rng must be given")
        ts = rng.integers(0, cfg.t_grid, size=len(batch)) / cfg.t_grid
    if conds is None:
        conds = []
        for _, _, c in batch:
            if c is not None and rng is not None and cfg.cond_dropout_prob > 0.0 \
                    and rng.random() < cfg.cond_dropout_prob:
                c = None
            conds.append(c)

    tensors = _as_tensors(params, trainable=True)
    loss, loss_fm, inter_val = _loss_graph(tensors, params.config, batch, skel,
                                           cfg, ts, conds, targets)
    total = float(loss.data)
    if not np.isfinite(total):
        raise NonFiniteLoss("non-finite training loss")
    loss.backward()
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in tensors.items()}
    return total, float(loss_fm.data), inter_val, grads


def loss_value(params: PredictorParams, batch, skel: geo.Skeleton,
               cfg: TrainConfig, *, ts: np.ndarray,
               conds: list[int | None]) -> float:
    """Forward-only total loss at fixed (ts, conds); used by gradient checks."""
    loss, _, _ = _loss_graph(_as_tensors(params, trainable=False), params.config,
                             batch, skel, cfg, ts, conds)
    return float(loss.data)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(dataset, skel: geo.Skeleton, predictor_cfg: PredictorConfig,
          train_cfg: TrainConfig, *, log_every: int = 0):
    """Train a predictor on (x0, x1, c) triples of one frame count.

    Returns ``(params, history)`` where history has one
    ``(fm, inter, total)`` row per step.  Bit-reproducible for a fixed
    ``train_cfg.seed``.
    """
    if len(dataset) == 0:
        raise InvalidConfig("dataset must be non-empty")
    counts = sorted({len(s[i]) for s in dataset for i in (0, 1)})
    if len(counts) > 1:
        raise InvalidConfig(f"training records differ in frame count {counts}; "
                            f"train needs one frame count")
    rng = np.random.default_rng(train_cfg.seed)
    params = init_params(predictor_cfg, train_cfg.seed)

    m = {k: np.zeros_like(v) for k, v in params.arrays.items()}
    v = {k: np.zeros_like(a) for k, a in params.arrays.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = train_cfg.learning_rate

    n, h = len(dataset), counts[0]
    table = None
    if train_cfg.lambda_inter != 0.0:
        # one call over all n*h frames; a batch takes its frames' rows
        table = fp.interaction_targets(skel, *(
            np.stack([np.asarray(s[i], dtype=np.float64) for s in dataset])
            .reshape(n * h, -1) for i in (0, 1)))

    history: list[tuple[float, float, float]] = []
    for step in range(train_cfg.steps):
        idx = rng.integers(0, n, size=train_cfg.batch_size)
        batch = [dataset[i] for i in idx]
        targets = (None if table is None
                   else table.rows((idx[:, None] * h + np.arange(h)).ravel()))
        try:
            total, fm, inter, grads = grad_loss(params, batch, skel, train_cfg,
                                                rng=rng, targets=targets)
        except NonFiniteLoss as err:
            raise NonFiniteLoss(f"non-finite loss at step {step}", step=step) from err
        t_adam = step + 1
        for key, g in grads.items():
            m[key] = beta1 * m[key] + (1 - beta1) * g
            v[key] = beta2 * v[key] + (1 - beta2) * g * g
            m_hat = m[key] / (1 - beta1 ** t_adam)
            v_hat = v[key] / (1 - beta2 ** t_adam)
            params.arrays[key] = params.arrays[key] - lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append((fm, inter, total))
        if log_every and (step + 1) % log_every == 0:
            print(f"step {step + 1}/{train_cfg.steps} "
                  f"fm={fm:.6f} inter={inter:.6f} total={total:.6f}")
    return params, history


# ---------------------------------------------------------------------------
# Serialization (documented in README: "Model parameter file")
# ---------------------------------------------------------------------------

def save_params(path: str, params: PredictorParams) -> None:
    head = json.dumps({"format": PARAMS_FORMAT, "version": PARAMS_VERSION,
                       "config": asdict(params.config), "meta": params.meta})
    # the bytes json.dumps gives the whole document, written one array at a
    # time: the C encoder's speed without holding every array's text at once
    with atomic_open(path) as fh:
        fh.write(head[:-1] + ', "arrays": {')
        for i, (name, arr) in enumerate(sorted(params.arrays.items())):
            rec = json.dumps({"shape": list(arr.shape),
                              "data": arr.reshape(-1).tolist()})
            fh.write(f'{", " if i else ""}{json.dumps(name)}: {rec}')
        fh.write("}}")


def load_params(path: str) -> PredictorParams:
    """Read a parameter file; ``InvalidConfig`` unless every array has the
    shape :func:`init_params` gives its config and only finite values."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise InvalidConfig(f"{path} is not JSON: {err}") from err
    if (not isinstance(doc, dict) or doc.get("format") != PARAMS_FORMAT
            or doc.get("version") != PARAMS_VERSION):
        raise InvalidConfig(f"not a {PARAMS_FORMAT} v{PARAMS_VERSION} file: {path}")
    try:
        cfg = PredictorConfig(**doc["config"])
        arrays = {name: np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"])
                  for name, rec in doc["arrays"].items()}
    except (KeyError, TypeError, ValueError) as err:
        raise InvalidConfig(f"malformed parameter file {path}: {err}") from err
    expected = init_params(cfg, 0).arrays
    if set(arrays) != set(expected):
        raise InvalidConfig("parameter file is missing arrays")
    for name, arr in arrays.items():
        if arr.shape != expected[name].shape:
            raise InvalidConfig(f"array {name} has shape {arr.shape}, "
                                f"config needs {expected[name].shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidConfig(f"array {name} has non-finite values")
    return PredictorParams(cfg, arrays, meta=doc.get("meta", {}))
