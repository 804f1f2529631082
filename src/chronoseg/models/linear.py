"""Logistic regression and linear SVM on standardized features.

Logistic regression minimizes mean log-loss plus an L2 penalty on the weights
(intercept unpenalized) by damped Newton steps on the design [X 1]. Each step
solves the (p+1)-square Hessian system directly; when the Hessian is singular,
which with l2=0 happens once the fitted probabilities saturate or when the
columns of [X 1] are dependent, the direct solve may fail or return a step that
does not reproduce the gradient, and the step is the least-squares solution
instead. The step is halved until the objective does not
increase, and the fit stops when the gradient norm is at most tol, after
max_iter steps, or when no halving of the step keeps the objective from
rising. The fitted model records the Newton steps taken and the gradient norm
at the returned weights. The SVM is a linear hinge-loss machine
trained by seeded subgradient descent with averaged iterates; its probability
output is a sigmoid of the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gbdt import sigmoid

# a step halved this often is below the rounding of the weights
MAX_HALVINGS = 53
# a direct Newton step whose residual exceeds this share of the gradient norm
# came from a numerically singular Hessian
STEP_RESIDUAL = 1e-8


@dataclass
class LinearModel:
    """A linear margin X @ weights + intercept; its probability is the margin's sigmoid."""

    weights: np.ndarray
    intercept: float

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights + self.intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(X))


def logistic_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float):
    """Mean log-loss + (l2 / 2n)||w||^2 and its gradient d(obj)/d[w, b]."""
    n = X.shape[0]
    margin = X @ w + b
    signed = np.where(y == 1, margin, -margin)
    # log(1 + exp(-signed)) computed stably
    loss = float(np.mean(np.logaddexp(0.0, -signed))) + 0.5 * l2 / n * float(w @ w)
    residual = sigmoid(margin) - y
    return loss, X.T @ residual / n + (l2 / n) * w, float(residual.sum() / n)


@dataclass
class LogisticModel(LinearModel):
    n_iter: int  # Newton steps taken
    grad_norm: float  # gradient norm at the returned weights; > tol when the fit stopped early


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
    design = np.hstack([X, np.ones((n, 1))])
    penalty = np.diag(np.r_[np.full(p, l2 / n), 0.0])

    w, b = np.zeros(p), 0.0
    loss, gw, gb = logistic_objective(w, b, X, y, l2)
    grad_norm = math.sqrt(float(gw @ gw) + gb**2)
    n_iter = 0
    while grad_norm > tol and n_iter < max_iter:
        prob = sigmoid(X @ w + b)
        hessian = (design.T * (prob * (1.0 - prob))) @ design / n + penalty
        grad = np.append(gw, gb)
        try:
            step = np.linalg.solve(hessian, grad)
            solved = np.linalg.norm(hessian @ step - grad) <= STEP_RESIDUAL * np.linalg.norm(grad)
        except np.linalg.LinAlgError:
            solved = False
        if not solved:
            step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        for halving in range(MAX_HALVINGS):
            scale = 0.5**halving
            trial = (w - scale * step[:p], b - scale * float(step[p]))
            new_loss, new_gw, new_gb = logistic_objective(*trial, X, y, l2)
            if new_loss <= loss:
                break
        else:
            break  # no step lowers the objective: the weights are optimal to rounding
        (w, b), loss, gw, gb = trial, new_loss, new_gw, new_gb
        grad_norm = math.sqrt(float(gw @ gw) + gb**2)
        n_iter += 1
    return LogisticModel(weights=w, intercept=b, n_iter=n_iter, grad_norm=grad_norm)


def train_linear_svm(
    X: np.ndarray,
    y: np.ndarray,
    C: float = 1.0,
    epochs: int = 20,
    seed: int = 0,
) -> LinearModel:
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
    return LinearModel(weights=w_avg / n_avg, intercept=b_avg / n_avg)


@dataclass
class KnnModel:
    k: int
    X_train: np.ndarray
    y_train: np.ndarray

    def squared_distances(self, X: np.ndarray) -> np.ndarray:
        """(n_test, n_train) squared Euclidean distances, one test row at a
        time, so that no (n_test, n_train, p) temporary is built."""
        d2 = np.empty((X.shape[0], self.X_train.shape[0]))
        for x, row in zip(X, d2):
            ((x - self.X_train) ** 2).sum(axis=1, out=row)
        return d2

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        # distance ties resolved by training-row index via stable argsort
        order = np.argsort(self.squared_distances(X), axis=1, kind="stable")[:, : self.k]
        return self.y_train[order].mean(axis=1)


def train_knn(X: np.ndarray, y: np.ndarray, k: int = 5) -> KnnModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return KnnModel(k=min(k, X.shape[0]), X_train=X, y_train=y)
