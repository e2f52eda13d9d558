"""Common estimator interface for Dopia's performance models.

All estimators implement the small scikit-learn-style contract used by the
runtime: ``fit(X, y) -> self`` and ``predict(X) -> np.ndarray``.  They also
expose :meth:`inference_cost_s`, an analytic estimate of what evaluating
the model would cost *deployed as generated C code* (the paper compiles
its decision tree to C and links it into the runtime, §5.2) — this cost
is what Dopia charges against kernel runtime in Figure 13's overhead bars.
"""

from __future__ import annotations

import abc

import numpy as np

#: Cost of one fused multiply-add-ish step of generated C code, seconds.
#: (A conservative ~1 ns matches a simple scalar loop on a 3–4 GHz core.)
C_OP_SECONDS = 1e-9


class Estimator(abc.ABC):
    """Base class for the four model families of §9.2 (LIN, SVR, DT, RF)."""

    #: short name used in result tables ("lin", "svr", "dt", "rf")
    name: str = "base"

    @abc.abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Estimator":
        """Train on feature matrix ``X`` (n, d) and targets ``y`` (n,)."""

    @abc.abstractmethod
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for ``X`` (n, d)."""

    @abc.abstractmethod
    def inference_cost_s(self, n_rows: int) -> float:
        """Seconds to evaluate ``n_rows`` inputs as compiled C code."""

    def _check_fit_inputs(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("X and y must be finite (no NaN or inf)")
        return X, y

    def _check_predict_inputs(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        return X
