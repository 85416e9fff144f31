"""Small fully-connected network for binary classification, trained full-batch.

Hidden layers use one activation throughout; the output is a single sigmoid
unit trained on cross-entropy with L2 penalty alpha (scaled by 1/n like the
loss). Two optimizers: "sgd" (gradient descent with momentum 0.9, supports
the constant / invscaling / adaptive step schedules) and "adam". Weight init
is Glorot uniform from a seeded generator, so fits are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from .logistic import _sigmoid
from .tree import Classifier, as_labeled, as_rows

# each hidden activation and its derivative, written in the activation's output
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0), lambda a: (a > 0).astype(float)),
    "tanh": (np.tanh, lambda a: 1 - a**2),
    "logistic": (_sigmoid, lambda a: a * (1 - a)),
}


@dataclass
class MLPClassifier(Classifier):
    hidden_layer_sizes: tuple[int, ...] = (100,)
    activation: str = "relu"
    solver: str = "adam"  # "sgd" or "adam"
    alpha: float = 1e-4
    learning_rate: str = "constant"  # sgd only: constant | invscaling | adaptive
    learning_rate_init: float = 0.001
    tol: float = 1e-4
    max_iter: int = 200
    seed: int = 0

    weights: list[np.ndarray] = field(default_factory=list, repr=False)
    biases: list[np.ndarray] = field(default_factory=list, repr=False)
    converged: bool = False
    loss_curve_: list[float] = field(default_factory=list, repr=False)

    def _check(self):
        if self.activation not in _ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")
        if self.solver not in ("sgd", "adam"):
            raise ValidationError(f"unknown solver {self.solver!r}")
        if self.learning_rate not in ("constant", "invscaling", "adaptive"):
            raise ValidationError(f"unknown learning_rate schedule {self.learning_rate!r}")
        if any(h < 1 for h in self.hidden_layer_sizes):
            raise ValidationError("hidden layer sizes must be >= 1")
        if self.max_iter < 1 or self.learning_rate_init <= 0 or self.alpha < 0:
            raise ValidationError("bad optimizer settings")

    def fit(self, X: np.ndarray, y: np.ndarray):
        self._check()
        X, y = as_labeled(X, y)
        n, d = X.shape
        sizes = [d, *self.hidden_layer_sizes, 1]
        rng = np.random.default_rng(self.seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

        act_grad = _ACTIVATIONS[self.activation][1]
        n_layers = len(self.weights)
        # optimizer state, like the gradients and params below: each weight array, then each bias array
        vel = [np.zeros_like(a) for a in self.weights + self.biases]
        m = [np.zeros_like(a) for a in vel]
        v = [np.zeros_like(a) for a in vel]
        beta1, beta2, eps = 0.9, 0.999, 1e-8

        lr = self.learning_rate_init
        best_loss = np.inf
        no_improve = 0
        self.converged = False
        self.loss_curve_ = []

        for t in range(1, self.max_iter + 1):
            acts = self._forward(X)
            p = acts[-1].ravel()

            epsl = 1e-10
            loss = float(-(y * np.log(p + epsl) + (1 - y) * np.log(1 - p + epsl)).mean())
            loss += 0.5 * self.alpha * sum(float((W**2).sum()) for W in self.weights) / n
            self.loss_curve_.append(loss)

            if loss < best_loss - self.tol:
                best_loss = loss
                no_improve = 0
            else:
                no_improve += 1
                if no_improve >= 10:
                    if self.solver == "sgd" and self.learning_rate == "adaptive" and lr > 1e-6:
                        lr /= 5.0
                        no_improve = 0
                    else:
                        self.converged = True
                        break

            # backward
            delta = (p - y)[:, None] / n  # dL/dz at the output
            grads = [None] * (2 * n_layers)
            for li in range(n_layers - 1, -1, -1):
                grads[li] = acts[li].T @ delta + self.alpha * self.weights[li] / n
                grads[n_layers + li] = delta.sum(axis=0)
                if li > 0:
                    delta = (delta @ self.weights[li].T) * act_grad(acts[li])

            params = self.weights + self.biases
            if self.solver == "sgd":
                step = lr
                if self.learning_rate == "invscaling":
                    step = self.learning_rate_init / np.sqrt(t)
                for i, grad in enumerate(grads):
                    vel[i] = 0.9 * vel[i] - step * grad
                    params[i] = params[i] + vel[i]
            else:
                for i, grad in enumerate(grads):
                    m[i] = beta1 * m[i] + (1 - beta1) * grad
                    v[i] = beta2 * v[i] + (1 - beta2) * grad**2
                    mh = m[i] / (1 - beta1**t)
                    vh = v[i] / (1 - beta2**t)
                    params[i] = params[i] - lr * mh / (np.sqrt(vh) + eps)
            self.weights, self.biases = params[:n_layers], params[n_layers:]
        return self

    def _forward(self, X: np.ndarray) -> list[np.ndarray]:
        """The activations of every layer, X first and the output column last."""
        act = _ACTIVATIONS[self.activation][0]
        acts = [X]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            acts.append(act(acts[-1] @ W + b))
        acts.append(_sigmoid(acts[-1] @ self.weights[-1] + self.biases[-1]))
        return acts

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.weights:
            raise ValidationError("model not fitted")
        return self._forward(as_rows(X, self.weights[0].shape[0]))[-1].ravel()
