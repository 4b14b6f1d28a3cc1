"""Hand-crafted per-frame features and the logistic boundary classifier.

Each window slot, a gray frame and the flow into it, yields 27 features

    [0]     mean flow magnitude
    [1]     max flow magnitude
    [2:10]  8-bin flow angle histogram (magnitude weighted, sums to 1)
    [10:26] 16-bin gray intensity histogram (sums to 1)
    [26]    mean absolute gray difference against the previous frame

The classifier input concatenates the mean feature vector of the m frames
before a candidate with the mean of the m frames after it (54 values), and
a logistic model with z-scored inputs is trained by minibatch gradient
descent with adaptive moment estimation (decay rates 0.9/0.999, epsilon
1e-8).  The default schedule is 16 epochs at batch size 16, learning rate
1e-4 multiplied by 0.1 after every 10 epochs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .config import TrainConfig
from .container import atomic_open
from .flow import flow_stats_rows
from .postprocess import ScoreSequence

FEATURE_DIM = 27
FEATURE_SCHEMA_VERSION = 1
# flow columns [0:10] of a window's first slot or a clamped repeat: the
# flow_stats_rows of a zero field, written out so that importing runs no kernel
STATIC_FLOW_FEATURES = np.array([0.0, 0.0] + [1.0 / 8.0] * 8)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    train_config: TrainConfig | None = None

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.feature_mean) / self.feature_std

    def score(self, inputs: np.ndarray) -> np.ndarray:
        """Boundary probabilities for one (D,) or many (N,D) inputs.

        The dot product reduces each row independently, so batch scoring is
        bit-identical to scoring rows one at a time.
        """
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if x.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"input dim {x.shape[1]} does not match model dim "
                f"{self.weights.shape[0]}")
        z = (self.standardize(x) * self.weights).sum(axis=1) + self.bias
        return _sigmoid(z)


def _sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def slot_features(gray, flow, prev_gray) -> np.ndarray:
    """(B, FEATURE_DIM) features of a stack of window slots: (B,S,S) gray,
    (B,2,S,S) flow and the (B,S,S) previous gray slots.

    Every reduction runs along one slot's row of S*S values, so a row is
    bit-identical to that slot featurized alone.  Intensity bins are
    ``min(int(gray * 16), 15)`` of the clipped gray value: the edges k/16 and
    the scaling by 16 are exact, so they equal ``np.histogram``'s bins.
    """
    gray = np.asarray(gray, dtype=np.float64)
    flow = np.asarray(flow, dtype=np.float64)
    prev_gray = np.asarray(prev_gray, dtype=np.float64)
    if (gray.ndim != 3 or gray.shape != prev_gray.shape
            or flow.shape != gray.shape[:1] + (2,) + gray.shape[1:]):
        raise ValueError(
            f"slice shapes disagree: gray {gray.shape}, flow {flow.shape}, "
            f"prev {prev_gray.shape}")
    n = len(gray)
    mean_mag, max_mag, angle_hist = flow_stats_rows(flow[:, 0].reshape(n, -1),
                                                    flow[:, 1].reshape(n, -1))
    gray = gray.reshape(n, -1)
    bins = np.minimum((np.clip(gray, 0, 1) * 16).astype(np.intp), 15)
    bins += 16 * np.arange(n)[:, None]
    intensity_hist = np.bincount(bins.ravel(), minlength=16 * n).reshape(n, 16)
    intensity_hist = intensity_hist / gray.shape[1]
    diff = np.abs(gray - prev_gray.reshape(n, -1)).mean(axis=1)
    return np.concatenate([mean_mag[:, None], max_mag[:, None], angle_hist,
                           intensity_hist, diff[:, None]], axis=1)


def window_features(gray_window, flow_window) -> np.ndarray:
    """Classifier input for one extracted window ((2m,S,S), (2m,2,S,S)):
    the mean features of its first m slots, then those of its last m."""
    n = gray_window.shape[0]
    if n % 2 != 0 or flow_window.shape[0] != n:
        raise ValueError("windows must hold 2m matching slots")
    prev = np.concatenate([gray_window[:1], gray_window[:-1]])
    feats = slot_features(gray_window, flow_window, prev)
    m = n // 2
    return np.concatenate([feats[:m].mean(axis=0), feats[m:].mean(axis=0)])


def window_inputs(table, indices) -> np.ndarray:
    """Classifier inputs of many windows, gathered from a per-frame table.

    ``table`` is (N, FEATURE_DIM) from
    :func:`gebd.windows.frame_feature_table`, each row a frame as a moving
    slot.  ``indices`` is (W, 2m), each row the frame indices of one window.
    A slot is static when it is the window's first or repeats the previous
    slot's frame, as in :func:`gebd.windows.extract_window`: its flow
    columns become :data:`STATIC_FLOW_FEATURES` and its difference column 0.
    The result row equals :func:`window_features` of that window's tensors
    bit for bit.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 2 or idx.shape[1] % 2 != 0:
        raise ValueError(f"indices must be (W, 2m), got shape {idx.shape}")
    static = np.ones(idx.shape, dtype=bool)
    static[:, 1:] = idx[:, 1:] == idx[:, :-1]
    feats = table[idx]
    feats[static, :len(STATIC_FLOW_FEATURES)] = STATIC_FLOW_FEATURES
    feats[static, -1] = 0.0
    m = idx.shape[1] // 2
    return np.concatenate([feats[:, :m].mean(axis=1), feats[:, m:].mean(axis=1)],
                          axis=1)


def bce_gradient(X, y, weights, bias):
    """(loss, d_loss/d_weights, d_loss/d_bias) of the mean BCE."""
    z = X @ weights + bias
    p = _sigmoid(z)
    resid = p - y
    return (float(np.mean(np.logaddexp(0.0, z) - y * z)),
            X.T @ resid / len(y),
            float(resid.mean()))


def train_logistic(dataset, config: TrainConfig = TrainConfig()):
    """Fit a logistic model; returns (model, per-epoch mean loss list).

    ``dataset`` is an (X, y) tuple only: X holds one input vector per row
    and y its 0/1 label.  Inputs are z-scored against the training set
    (stored with the model); shuffling is seeded; the learning rate decays
    by ``decay_factor`` after every ``decay_every`` epochs.
    """
    config.validate()
    X, y = (np.asarray(a, dtype=np.float64) for a in dataset)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("dataset must be a non-empty set of vectors")
    # a set, not np.unique, which imports numpy.ma under numpy 2 (about 16 ms
    # and 1.5 MB); -0.0 joins class 0 and NaN or inf joins neither, as before
    labels = set(y.ravel().tolist())
    if labels - {0.0, 1.0}:
        raise ValueError("labels must be 0 or 1")
    if len(labels) < 2:
        raise ValueError("training requires both classes present")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)  # constant dims pass through
    Xs = (X - mean) / std

    n, d = Xs.shape
    w = np.zeros(d)
    b = 0.0
    mw = np.zeros(d)
    vw = np.zeros(d)
    mb = vb = 0.0
    step = 0
    rng = np.random.default_rng(config.seed)
    losses = []
    for epoch in range(config.epochs):
        lr = config.learning_rate * config.decay_factor ** (epoch // config.decay_every)
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            loss, gw, gb = bce_gradient(Xs[idx], y[idx], w, b)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch} step {step}: "
                    f"|w|={np.abs(w).max():.3g} b={b:.3g}")
            total += loss * len(idx)
            step += 1
            mw = ADAM_BETA1 * mw + (1 - ADAM_BETA1) * gw
            vw = ADAM_BETA2 * vw + (1 - ADAM_BETA2) * gw * gw
            mb = ADAM_BETA1 * mb + (1 - ADAM_BETA1) * gb
            vb = ADAM_BETA2 * vb + (1 - ADAM_BETA2) * gb * gb
            c1 = 1 - ADAM_BETA1 ** step
            c2 = 1 - ADAM_BETA2 ** step
            w = w - lr * (mw / c1) / (np.sqrt(vw / c2) + ADAM_EPS)
            b = b - lr * (mb / c1) / (np.sqrt(vb / c2) + ADAM_EPS)
        losses.append(total / n)
    model = LogisticModel(weights=w, bias=float(b), feature_mean=mean,
                          feature_std=std, train_config=config)
    return model, losses


def score_sequence(model: LogisticModel, inputs, timestamps,
                   video_id: str) -> ScoreSequence:
    """Boundary probability per candidate, in timestamp order."""
    if model.feature_mean is None or model.feature_std is None:
        raise ValueError("model lacks standardization vectors")
    ts = list(timestamps)
    X = np.asarray(inputs, dtype=np.float64)
    if len(X) != len(ts):
        raise ValueError("inputs and timestamps must align")
    scores = model.score(X) if len(ts) else np.zeros(0)
    return ScoreSequence(video_id=video_id, timestamps=ts,
                         scores=[float(s) for s in scores])


def save_model(path, model: LogisticModel) -> None:
    doc = {
        "schema_version": FEATURE_SCHEMA_VERSION,
        "weights": [float(v) for v in model.weights],
        "bias": model.bias,
        "feature_mean": [float(v) for v in model.feature_mean],
        "feature_std": [float(v) for v in model.feature_std],
        "train_config": asdict(model.train_config) if model.train_config else None,
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=1)


def load_model(path) -> LogisticModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != FEATURE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported model schema version {doc.get('schema_version')}")
    cfg = TrainConfig(**doc["train_config"]) if doc.get("train_config") else None
    return LogisticModel(
        weights=np.asarray(doc["weights"], dtype=np.float64),
        bias=float(doc["bias"]),
        feature_mean=np.asarray(doc["feature_mean"], dtype=np.float64),
        feature_std=np.asarray(doc["feature_std"], dtype=np.float64),
        train_config=cfg,
    )
