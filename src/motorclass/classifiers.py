"""Five from-scratch binary classifiers behind one fit/predict contract:
linear SVM (stochastic subgradient), KNN, Gaussian Naive Bayes, AdaBoost over
decision stumps, and shrinkage-regularized LDA.

Labels are 1 (Right, the positive class) and 2 (Left) throughout; internally
models work with y = +1/-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LEFT, RIGHT, DataError

MODEL_KINDS = ("SVM", "KNN", "NaiveBayes", "Boosting", "LDA")


@dataclass(frozen=True)
class TrainConfig:
    svm_c: float = 1.0
    svm_epochs: int = 200
    knn_k: int = 5
    boost_rounds: int = 50
    lda_gamma: float = 1e-3
    nb_floor_scale: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.svm_c <= 0 or self.svm_epochs < 1 or self.boost_rounds < 1:
            raise ValueError("svm_c, svm_epochs, boost_rounds must be positive")
        if self.knn_k < 1 or self.knn_k % 2 == 0:
            raise ValueError("knn_k must be a positive odd integer")
        if self.lda_gamma <= 0 or self.nb_floor_scale <= 0:
            raise ValueError("lda_gamma and nb_floor_scale must be positive")


@dataclass
class TrainedModel:
    kind: str
    params: dict


def _check_xy(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with matching y length")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite values")
    if not np.all((y == RIGHT) | (y == LEFT)):
        raise ValueError("labels must be 1 (Right) or 2 (Left)")
    return X, y


def _signed(y: np.ndarray) -> np.ndarray:
    return np.where(y == RIGHT, 1.0, -1.0)


def _canonical_order(X: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Content-defined training order: rows keyed by their sign-canonical form
    (row times the sign of its first nonzero entry), ties by sign*label.

    This makes SVM training invariant to input row permutation and exactly
    equivariant under label swap and under (X, y) -> (-X, -y).
    """
    n, d = X.shape
    first = np.sign(X[np.arange(n), np.argmax(X != 0.0, axis=1)])
    first[first == 0.0] = 1.0
    canon = X * first[:, None]
    keys = [first * ys] + [canon[:, j] for j in range(d - 1, -1, -1)]
    return np.lexsort(keys)


def train_svm(X, y, cfg: TrainConfig) -> TrainedModel:
    """Soft-margin linear SVM by deterministic-shuffle stochastic subgradient
    descent on (lambda/2)|w|^2 + mean hinge loss, lambda = 1/(C n).

    The unregularized bias follows the 1/t averaged-step schedule, which keeps
    its updates on the same decaying scale as the weight steps.

    The Pegasos updates are the per-step ones; only the search for the next
    margin violation is vectorized. v and b are fixed between violations, so a
    window of upcoming steps is tested with one matrix-vector product and the
    update is applied at its first violation. The window doubles (up to n
    rows) after a clean window and halves when its first step violates.
    """
    X, y = _check_xy(X, y)
    if len(set(y)) < 2:
        raise ValueError("SVM needs both classes in training data")
    ys = _signed(y)
    order = _canonical_order(X, ys)
    Xo, yo = X[order], ys[order]
    n, d = Xo.shape
    lam = 1.0 / (cfg.svm_c * n)
    rng = np.random.default_rng(cfg.seed)
    # the whole schedule, one permutation per epoch; step t = 1..T is at index t-1
    perms = np.concatenate([rng.permutation(n) for _ in range(cfg.svm_epochs)])
    T = len(perms)
    # Pegasos scaled form (Shalev-Shwartz et al. 2011, sec. 2.4): w_t = v_t / (lambda t)
    # with v the running sum of margin-violating y x, so the weights before
    # step t are v / (lambda (t-1)) = v / denom[t-1]; v = 0 at t = 1
    denom = lam * np.maximum(np.arange(T), 1)
    v = np.zeros(d)
    b = 0.0
    s = 0  # steps done
    width = 1
    while s < T:
        ii = perms[s:s + width]
        viol = yo[ii] * (Xo[ii] @ v / denom[s:s + width] + b) < 1.0
        k = int(viol.argmax())
        if not viol[k]:
            s += len(ii)
            width = min(2 * width, n)
            continue
        i = ii[k]
        s += k + 1
        v += yo[i] * Xo[i]
        b += yo[i] / s
        if k == 0:
            width = max(width // 2, 1)
    return TrainedModel("SVM", {"w": v / (lam * T), "b": b})


def train_knn(X, y, cfg: TrainConfig) -> TrainedModel:
    X, y = _check_xy(X, y)
    if len(X) < cfg.knn_k:
        raise DataError("TooFewRows", f"KNN needs at least k={cfg.knn_k} training rows, "
                        f"got {len(X)}")
    return TrainedModel("KNN", {"X": X.copy(), "y": y.copy(), "k": cfg.knn_k})


def train_naive_bayes(X, y, cfg: TrainConfig) -> TrainedModel:
    X, y = _check_xy(X, y)
    means, variances, priors = {}, {}, {}
    for label in (RIGHT, LEFT):
        rows = X[y == label]
        if len(rows) < 2:
            raise ValueError(f"Naive Bayes needs >= 2 rows of class {label}")
        means[label] = rows.mean(axis=0)
        variances[label] = rows.var(axis=0)
        priors[label] = len(rows) / len(X)
    floor = cfg.nb_floor_scale * float(X.var(axis=0).mean())
    if floor <= 0.0:
        floor = cfg.nb_floor_scale
    for label in (RIGHT, LEFT):
        variances[label] = np.maximum(variances[label], floor)
    return TrainedModel("NaiveBayes", {
        "mean_r": means[RIGHT], "var_r": variances[RIGHT], "logprior_r": math.log(priors[RIGHT]),
        "mean_l": means[LEFT], "var_l": variances[LEFT], "logprior_l": math.log(priors[LEFT]),
    })


def train_adaboost(X, y, cfg: TrainConfig) -> TrainedModel:
    """AdaBoost.M1 over decision stumps; stump thresholds sit at midpoints of
    consecutive distinct sorted values per feature."""
    X, y = _check_xy(X, y)
    if len(set(y)) < 2:
        raise ValueError("AdaBoost needs both classes in training data")
    ys = _signed(y)
    n, d = X.shape
    sort_idx = np.argsort(X, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(X, sort_idx, axis=0)
    # per feature: positions after which a threshold exists (value changes)
    cut_lists = [np.nonzero(np.diff(sorted_vals[:, j]) > 0)[0] for j in range(d)]
    if not any(len(c) for c in cut_lists):
        raise ArithmeticError("no usable stump: every feature is constant")

    weights = np.full(n, 1.0 / n)
    stumps = []  # (feature, threshold, polarity, alpha)
    for _ in range(cfg.boost_rounds):
        best = None  # (error, feature, threshold, polarity)
        for j in range(d):
            cuts = cut_lists[j]
            if len(cuts) == 0:
                continue
            ws = weights[sort_idx[:, j]]
            ysj = ys[sort_idx[:, j]]
            pos_mass = np.cumsum(np.where(ysj > 0, ws, 0.0))
            neg_mass = np.cumsum(np.where(ysj > 0, 0.0, ws))
            # polarity +1: predict +1 above threshold; error = P(<=thr,+) + P(>thr,-)
            err_plus = pos_mass[cuts] + (neg_mass[-1] - neg_mass[cuts])
            errs = np.concatenate([err_plus, 1.0 - err_plus])
            # ties resolved toward lower threshold, then polarity +1
            tied = np.nonzero(errs <= errs.min() + 1e-15)[0]
            pick = tied[np.lexsort((tied // len(cuts), tied % len(cuts)))[0]]
            if best is None or errs[pick] < best[0] - 1e-15:
                cut = cuts[pick % len(cuts)]
                thr = 0.5 * (sorted_vals[cut, j] + sorted_vals[cut + 1, j])
                best = (float(errs[pick]), j, thr, 1.0 if pick < len(cuts) else -1.0)
        err, feat, thr, pol = best
        err = min(max(err, 0.0), 1.0)
        if err >= 0.5:
            break
        if err == 0.0 or err < 1e-300:
            stumps.append((feat, thr, pol, 0.5 * math.log(1e10)))
            break
        alpha = 0.5 * math.log((1.0 - err) / err)
        stumps.append((feat, thr, pol, alpha))
        h = np.where(X[:, feat] > thr, pol, -pol)
        weights *= np.exp(-alpha * ys * h)
        weights /= weights.sum()
    if not stumps:
        raise ArithmeticError("AdaBoost found no stump better than chance")
    return TrainedModel("Boosting", {
        "features": np.array([s[0] for s in stumps], dtype=int),
        "thresholds": np.array([s[1] for s in stumps]),
        "polarities": np.array([s[2] for s in stumps]),
        "alphas": np.array([s[3] for s in stumps]),
    })


def train_lda(X, y, cfg: TrainConfig) -> TrainedModel:
    X, y = _check_xy(X, y)
    d = X.shape[1]
    rows = {}
    for label in (RIGHT, LEFT):
        rows[label] = X[y == label]
        if len(rows[label]) < 2:
            raise ValueError(f"LDA needs >= 2 rows of class {label}")
    mu_r = rows[RIGHT].mean(axis=0)
    mu_l = rows[LEFT].mean(axis=0)
    cr = rows[RIGHT] - mu_r
    cl = rows[LEFT] - mu_l
    S = (cr.T @ cr + cl.T @ cl) / (len(X) - 2)
    S_reg = S + cfg.lda_gamma * (np.trace(S) / d) * np.eye(d)
    try:
        np.linalg.cholesky(S_reg)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            "pooled covariance is not positive definite after shrinkage") from exc
    w = np.linalg.solve(S_reg, mu_r - mu_l)
    prior_r = len(rows[RIGHT]) / len(X)
    c = float(w @ (mu_r + mu_l) / 2.0 - math.log(prior_r / (1.0 - prior_r)))
    return TrainedModel("LDA", {"w": w, "c": c})


TRAINERS = {
    "SVM": train_svm,
    "KNN": train_knn,
    "NaiveBayes": train_naive_bayes,
    "Boosting": train_adaboost,
    "LDA": train_lda,
}


def train_all(X, y, cfg: TrainConfig, kinds=None) -> dict:
    """Train the requested models (default: all five) on one training set."""
    kinds = MODEL_KINDS if kinds is None else kinds
    return {kind: TRAINERS[kind](X, y, cfg) for kind in kinds}


def _predict_rows(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    p = model.params
    if model.kind == "SVM":
        return np.where(X @ p["w"] + p["b"] >= 0.0, RIGHT, LEFT)
    if model.kind == "KNN":
        out = np.empty(len(X), dtype=int)
        for i, row in enumerate(X):
            d2 = ((p["X"] - row) ** 2).sum(axis=1)
            nearest = np.argsort(d2, kind="stable")[:p["k"]]
            votes_right = int((p["y"][nearest] == RIGHT).sum())
            out[i] = RIGHT if votes_right * 2 >= p["k"] else LEFT
        return out
    if model.kind == "NaiveBayes":
        def loglik(mean, var, logprior):
            return (-0.5 * (np.log(2.0 * np.pi * var) + (X - mean) ** 2 / var).sum(axis=1)
                    + logprior)
        score = (loglik(p["mean_r"], p["var_r"], p["logprior_r"])
                 - loglik(p["mean_l"], p["var_l"], p["logprior_l"]))
        return np.where(score >= 0.0, RIGHT, LEFT)
    if model.kind == "Boosting":
        h = np.where(X[:, p["features"]] > p["thresholds"], p["polarities"], -p["polarities"])
        return np.where(h @ p["alphas"] >= 0.0, RIGHT, LEFT)
    if model.kind == "LDA":
        return np.where(X @ p["w"] >= p["c"], RIGHT, LEFT)
    raise ValueError(f"unknown model kind {model.kind!r}")


def predict(model: TrainedModel, rows):
    """Predict labels for one row (returns int) or a row matrix (returns array)."""
    rows = np.asarray(rows, dtype=float)
    single = rows.ndim == 1
    labels = _predict_rows(model, rows[None, :] if single else rows)
    return int(labels[0]) if single else labels
