"""Binary logistic regression fit by full-batch gradient descent.

The objective is mean cross-entropy plus 0.5*lambda*||w||^2 with the bias
excluded from the penalty; lambda = 1/(C*n) mirrors the usual C semantics.
loss_and_grad is a pure function of a flat parameter vector [w..., b] so the
analytic gradient can be checked against finite differences directly; the
fit steps on the same gradient without computing the loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from .tree import Classifier, as_labeled, as_rows


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _gradient(theta: np.ndarray, X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """The gradient of the regularized mean cross-entropy at theta = [w..., b]."""
    w, b = theta[:-1], theta[-1]
    residual = _sigmoid(X @ w + b) - y
    return np.concatenate([X.T @ residual / len(y) + lam * w, [residual.mean()]])


def loss_and_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, lam: float) -> tuple[float, np.ndarray]:
    """Regularized mean cross-entropy and its gradient at theta = [w..., b]."""
    w, b = theta[:-1], theta[-1]
    z = X @ w + b
    # log(1+e^z) - y*z computed without overflow
    softplus = np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))
    loss = float((softplus - y * z).mean() + 0.5 * lam * (w @ w))
    return loss, _gradient(theta, X, y, lam)


@dataclass
class LogisticRegressionGD(Classifier):
    C: float = 1.0
    penalty: str = "l2"  # "l2" or "none"
    solver: str = "gd"  # "gd" or "gd_momentum" (momentum 0.9)
    learning_rate: float = 0.1  # safe for standardized features (step < 2/L)
    max_iter: int = 3000
    tol: float = 1e-6

    theta: np.ndarray | None = field(default=None, repr=False)
    converged: bool = False
    n_iter_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = as_labeled(X, y)
        if self.penalty not in ("l2", "none"):
            raise ValidationError(f"unknown penalty {self.penalty!r}")
        if self.solver not in ("gd", "gd_momentum"):
            raise ValidationError(f"unknown solver {self.solver!r}")
        if self.C <= 0:
            raise ValidationError("C must be positive")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        n, d = X.shape
        lam = 0.0 if self.penalty == "none" else 1.0 / (self.C * n)

        theta = np.zeros(d + 1)
        velocity = np.zeros_like(theta)
        momentum = 0.9 if self.solver == "gd_momentum" else 0.0
        self.converged = False
        for it in range(1, self.max_iter + 1):
            grad = _gradient(theta, X, y, lam)
            if np.abs(grad).max() <= self.tol:
                self.converged = True
                break
            velocity = momentum * velocity - self.learning_rate * grad
            theta = theta + velocity
        self.n_iter_ = it
        self.theta = theta
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.theta is None:
            raise ValidationError("model not fitted")
        X = as_rows(X, len(self.theta) - 1)
        return _sigmoid(X @ self.theta[:-1] + self.theta[-1])

    def raw_importance(self) -> np.ndarray:
        """|coefficient| per feature; meaningful on standardized inputs."""
        if self.theta is None:
            raise ValidationError("model not fitted")
        return np.abs(self.theta[:-1])
