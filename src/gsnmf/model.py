"""Domain types, the structured group hyperprior, and the generative sampler.

Data matrices are plain float64 numpy arrays of shape (V, T): rows are
observed dimensions, columns are samples. Group indices are 0-based
throughout the library. All container types are plain dataclasses and are
treated as immutable once constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupAssignment",
    "Hyperparameters",
    "GroundTruth",
    "PriorSettings",
    "as_data_matrix",
    "build_group_hyperprior",
    "sample_model",
]

DEFAULT_A_T = 0.6
DEFAULT_B_T = 20.0
DEFAULT_A_SMALL = 32.0
DEFAULT_A_LARGE = 256.0
DEFAULT_B_LAMBDA = 1e6


def as_data_matrix(values) -> np.ndarray:
    """Validate and return a (V, T) nonnegative float64 observation matrix."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix with positive shape, got {x.shape}")
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ValueError("data matrix entries must be finite and >= 0")
    return x


@dataclass(frozen=True)
class GroupAssignment:
    """Sample-to-group map: either observed indices or latent responsibilities.

    ``z`` is a length-T int array with entries in [0, n_groups) when groups
    are observed, and None when group membership is inferred.
    """

    n_groups: int
    z: np.ndarray | None = None

    def __post_init__(self):
        if self.n_groups < 1:
            raise ValueError("need at least one group")
        if self.z is not None:
            z = np.asarray(self.z, dtype=int)
            if z.ndim != 1:
                raise ValueError("group indices must form a 1-D vector")
            if z.size and (z.min() < 0 or z.max() >= self.n_groups):
                raise ValueError(f"group indices must lie in [0, {self.n_groups})")
            object.__setattr__(self, "z", z)

    @property
    def observed(self) -> bool:
        return self.z is not None

    @classmethod
    def latent(cls, n_groups: int) -> "GroupAssignment":
        return cls(n_groups=n_groups, z=None)

    def one_hot(self) -> np.ndarray:
        """T x C indicator matrix (observed mode only)."""
        if self.z is None:
            raise ValueError("one_hot requires observed group indices")
        delta = np.zeros((self.z.size, self.n_groups))
        delta[np.arange(self.z.size), self.z] = 1.0
        return delta


def _positive_matrix(m, shape, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} entries must be finite and > 0")
    return arr


@dataclass(frozen=True)
class Hyperparameters:
    """Fixed prior parameters of the factorization model.

    A_t, B_t are (V, I) gamma shape/scale priors on the dictionary;
    A_lambda, B_lambda are (I, C) gamma shape/scale priors on the per-group
    coefficient-rate indicators; U is the (T, C) Dirichlet parameter used
    only when group membership is latent.
    """

    A_t: np.ndarray
    B_t: np.ndarray
    A_lambda: np.ndarray
    B_lambda: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        V, I = np.asarray(self.A_t).shape
        I2, C = np.asarray(self.A_lambda).shape
        T, C2 = np.asarray(self.U).shape
        if I2 != I or C2 != C:
            raise ValueError("hyperparameter shapes are inconsistent")
        object.__setattr__(self, "A_t", _positive_matrix(self.A_t, (V, I), "A_t"))
        object.__setattr__(self, "B_t", _positive_matrix(self.B_t, (V, I), "B_t"))
        object.__setattr__(self, "A_lambda", _positive_matrix(self.A_lambda, (I, C), "A_lambda"))
        object.__setattr__(self, "B_lambda", _positive_matrix(self.B_lambda, (I, C), "B_lambda"))
        object.__setattr__(self, "U", _positive_matrix(self.U, (T, C), "U"))

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(V, I, C, T)."""
        V, I = self.A_t.shape
        _, C = self.A_lambda.shape
        T, _ = self.U.shape
        return V, I, C, T


@dataclass(frozen=True)
class GroundTruth:
    """Latent factors behind one synthetic draw."""

    T_true: np.ndarray
    V_true: np.ndarray
    Lambda_true: np.ndarray
    z_true: np.ndarray


def build_group_hyperprior(
    n_groups: int,
    per_group: int,
    a_small: float = DEFAULT_A_SMALL,
    a_large: float = DEFAULT_A_LARGE,
    b: float = DEFAULT_B_LAMBDA,
) -> tuple[np.ndarray, np.ndarray]:
    """Block-structured (I, C) shape/scale priors with I = n_groups * per_group.

    Feature rows are contiguous blocks of ``per_group`` per group; block g
    carries ``a_small`` in column g and ``a_large`` elsewhere, so block-g
    coefficients are biased to be large only for samples of group g. The
    scale matrix is uniformly ``b``. With a_small == a_large the prior
    carries no label information.
    """
    if n_groups < 1 or per_group < 1:
        raise ValueError("n_groups and per_group must be >= 1")
    if not (0.0 < a_small <= a_large) or b <= 0.0:
        raise ValueError("need 0 < a_small <= a_large and b > 0")
    n_features = n_groups * per_group
    A = np.full((n_features, n_groups), float(a_large))
    for g in range(n_groups):
        A[g * per_group : (g + 1) * per_group, g] = a_small
    B = np.full((n_features, n_groups), float(b))
    return A, B


@dataclass(frozen=True)
class PriorSettings:
    """Settings of the label-driven prior; one point of a sweep grid.

    ``hyperparameters`` is the one place that turns them into a model
    prior: uniform gamma priors on the dictionary, the block group
    hyperprior and a flat Dirichlet. With ``single_group`` the prior
    collapses to one group of ``per_group`` features (the label-blind
    baseline), where ``a_large`` plays no part.
    """

    per_group: int = 1
    a_small: float = DEFAULT_A_SMALL
    a_large: float = DEFAULT_A_LARGE
    b_lambda: float = DEFAULT_B_LAMBDA
    a_t: float = DEFAULT_A_T
    b_t: float = DEFAULT_B_T
    single_group: bool = False

    def hyperparameters(self, n_rows: int, n_groups: int, n_samples: int) -> Hyperparameters:
        """Prior for an (n_rows, n_samples) matrix whose samples fall in n_groups groups."""
        if self.single_group:
            n_groups, a_large = 1, self.a_small
        else:
            a_large = self.a_large
        A_l, B_l = build_group_hyperprior(
            n_groups, self.per_group, self.a_small, a_large, self.b_lambda
        )
        n_features = A_l.shape[0]
        return Hyperparameters(
            A_t=np.full((n_rows, n_features), self.a_t),
            B_t=np.full((n_rows, n_features), self.b_t),
            A_lambda=A_l,
            B_lambda=B_l,
            U=np.ones((n_samples, n_groups)),
        )


def sample_model(
    hyper: Hyperparameters, groups: GroupAssignment, seed: int
) -> tuple[np.ndarray, GroundTruth]:
    """Draw (X, GroundTruth) from the generative model, deterministically per seed.

    Dictionary entries are gamma draws, rate indicators are gamma draws, each
    coefficient is exponential with mean 1/lambda of its sample's group, and
    observations are Poisson counts of the mixed intensity. In latent mode
    the group of each sample is first drawn from its Dirichlet-categorical
    prior.
    """
    V, I, C, T = hyper.dims
    rng = np.random.default_rng(seed)
    T_true = rng.gamma(shape=hyper.A_t, scale=hyper.B_t)
    Lambda_true = rng.gamma(shape=hyper.A_lambda, scale=hyper.B_lambda)
    if groups.observed:
        if groups.z.size != T or groups.n_groups != C:
            raise ValueError("group assignment does not match hyperparameter dims")
        z = groups.z.copy()
    else:
        pi = np.vstack([rng.dirichlet(hyper.U[t]) for t in range(T)])
        z = np.array([rng.choice(C, p=pi[t]) for t in range(T)])
    V_true = rng.exponential(scale=1.0 / Lambda_true[:, z])
    X = rng.poisson(T_true @ V_true).astype(float)
    return X, GroundTruth(T_true=T_true, V_true=V_true, Lambda_true=Lambda_true, z_true=z)
