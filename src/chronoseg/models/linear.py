"""Logistic regression and linear SVM on standardized features.

Logistic regression minimizes mean log-loss plus an L2 penalty on the weights
(intercept unpenalized) with Nesterov-accelerated gradient descent; the step
size comes from the spectral norm of the design matrix, so no line search is
needed. Each step evaluates the gradient alone, never the loss: once at the
look-ahead point for the update and once at the new iterate for the stopping
test. The fitted model records the iteration count and the final gradient
norm. The SVM is a linear hinge-loss machine trained by seeded subgradient
descent with averaged iterates; its probability output is a sigmoid of the
margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .gbdt import sigmoid


def logistic_gradient(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float):
    """Gradient d(obj)/d[w, b] of logistic_objective, without the loss."""
    n = X.shape[0]
    # sigmoid(margin) - y, computed in the margin's own buffer
    residual = X @ w + b
    np.minimum(np.maximum(residual, -500, out=residual), 500, out=residual)
    np.exp(np.negative(residual, out=residual), out=residual)
    residual += 1.0
    np.divide(1.0, residual, out=residual)
    residual -= y
    return X.T @ residual / n + (l2 / n) * w, float(residual.sum() / n)


def logistic_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float):
    """Mean log-loss + (l2 / 2n)||w||^2 and its gradient d(obj)/d[w, b]."""
    n = X.shape[0]
    margin = X @ w + b
    signed = np.where(y == 1, margin, -margin)
    # log(1 + exp(-signed)) computed stably
    loss = float(np.mean(np.logaddexp(0.0, -signed))) + 0.5 * l2 / n * float(w @ w)
    grad_w, grad_b = logistic_gradient(w, b, X, y, l2)
    return loss, grad_w, grad_b


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    n_iter: int  # gradient steps taken
    grad_norm: float  # gradient norm at the returned weights; > tol when max_iter ran out

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights + self.intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(X))


def train_logistic(
    X: np.ndarray,
    y: np.ndarray,
    l2: float = 1.0,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> LogisticModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape

    # Lipschitz constant of the gradient: sigma_max([X 1])^2 / (4n) + l2/n
    design = np.hstack([X, np.ones((n, 1))])
    sigma = float(np.linalg.norm(design, 2))
    L = sigma**2 / (4 * n) + l2 / n
    step = 1.0 / L

    w = np.zeros(p)
    b = 0.0
    w_prev, b_prev = w, b
    t_prev = 1.0
    n_iter, grad_norm = 0, float("inf")
    for n_iter in range(1, max_iter + 1):
        t = (1 + math.sqrt(1 + 4 * t_prev**2)) / 2
        beta = (t_prev - 1) / t
        w_look = w + beta * (w - w_prev)
        b_look = b + beta * (b - b_prev)
        gw, gb = logistic_gradient(w_look, b_look, X, y, l2)
        w_prev, b_prev = w, b
        w = w_look - step * gw
        b = b_look - step * gb
        t_prev = t
        gw, gb = logistic_gradient(w, b, X, y, l2)
        grad_norm = math.sqrt(float(gw @ gw) + gb**2)
        if grad_norm <= tol:
            break
    return LogisticModel(weights=w, intercept=b, n_iter=n_iter, grad_norm=grad_norm)


@dataclass
class LinearSvm:
    weights: np.ndarray
    intercept: float

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights + self.intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(X))


def train_linear_svm(
    X: np.ndarray,
    y: np.ndarray,
    C: float = 1.0,
    epochs: int = 20,
    seed: int = 0,
) -> LinearSvm:
    """Pegasos-style subgradient descent on (1/2n C)||w||^2 + mean hinge loss.

    Iterates from the second half of training are averaged for stability.
    """
    X = np.asarray(X, dtype=np.float64)
    y_signed = np.where(np.asarray(y) == 1, 1.0, -1.0)
    n, p = X.shape
    lam = 1.0 / (C * n)
    rng = np.random.default_rng(seed)

    w = np.zeros(p)
    b = 0.0
    w_avg = np.zeros(p)
    b_avg = 0.0
    n_avg = 0
    t = 0
    total_steps = epochs * n
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = y_signed[i] * (X[i] @ w + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * y_signed[i] * X[i]
                b += eta * y_signed[i]
            if t > total_steps // 2:
                w_avg += w
                b_avg += b
                n_avg += 1
    if n_avg == 0:
        raise DataError("svm training ran zero averaging steps")
    return LinearSvm(weights=w_avg / n_avg, intercept=b_avg / n_avg)


@dataclass
class KnnModel:
    k: int
    X_train: np.ndarray
    y_train: np.ndarray

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        # distance ties resolved by training-row index via stable argsort
        d2 = ((X[:, None, :] - self.X_train[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        return self.y_train[order].mean(axis=1)


def train_knn(X: np.ndarray, y: np.ndarray, k: int = 5) -> KnnModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    return KnnModel(k=min(k, X.shape[0]), X_train=X, y_train=y)
