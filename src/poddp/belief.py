"""Discrete-latent belief representation and Bayesian updating.

Beliefs over the latent values are carried in two forms: a probability
vector (`Belief`) and an unconstrained logit vector (`logits`) related by a
softmax. The solver differentiates through the logit parameterization, so
perturbations never leave the probability simplex.

A step's evidence is Gaussian with independent coordinates: the model gives
its observation and transition noise as vectors of per-coordinate variances,
and `evidence` sums the two log densities for every latent value in one
pass over the latent values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probability floor applied before taking logs and after every Bayes update.
# Keeps logits finite and belief derivatives bounded near the simplex boundary.
BELIEF_FLOOR = 1e-9


class DegenerateEvidenceError(ValueError):
    """Raised when an observation has (numerically) zero likelihood under
    every latent hypothesis."""


@dataclass(frozen=True)
class Belief:
    """Probability vector over the latent values."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("belief must be a non-empty vector")
        total = p.sum()
        # NaN fails both comparisons, and +inf makes the sum fail.
        if not (p.min() >= 0 and abs(total - 1.0) <= 1e-12):
            if np.any(p < 0) or not np.isfinite(p).all():
                raise ValueError("belief entries must be finite and non-negative")
            raise ValueError(f"belief must sum to 1, got {total!r}")
        object.__setattr__(self, "probs", p)

    def argmax(self) -> int:
        # Ties break toward the lowest index (np.argmax convention).
        return int(np.argmax(self.probs))


def softmax(beta: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max-subtraction)."""
    b = np.asarray(beta, dtype=float)
    e = np.exp(b - b.max())
    return e / e.sum()


def floor_probs(probs: np.ndarray) -> np.ndarray:
    """Clamp probabilities below by `BELIEF_FLOOR` and renormalize."""
    p = np.maximum(np.asarray(probs, dtype=float), BELIEF_FLOOR)
    return p / p.sum()


def logits(probs: np.ndarray) -> np.ndarray:
    """Logits of a probability vector: the log of its floored, renormalized
    entries, so that a zero probability stays representable."""
    return np.log(floor_probs(probs))


def softmax_derivatives(beta: np.ndarray):
    """p = softmax(beta), its Jacobian dp/dbeta = diag(p) - p p^T and the
    Hessians d^2 p_w / dbeta^2 = p_w (d_w d_w^T - dp/dbeta), d_w = e_w - p,
    stacked over w."""
    p = softmax(beta)
    jac = np.diag(p) - np.outer(p, p)
    dev = np.eye(p.size) - p
    hess = p[:, None, None] * (dev[:, :, None] * dev[:, None, :] - jac)
    return p, jac, hess


def gaussian_log_density(value: np.ndarray, mean: np.ndarray, var):
    """Log density of a Gaussian with independent coordinates (the last
    axis); `var` holds the variance of each coordinate. A stack of vectors,
    each with its own variances, gives one density per vector."""
    r = np.atleast_1d(np.subtract(value, mean, dtype=float))
    var = np.asarray(var, dtype=float)
    if var.shape != r.shape:
        raise ValueError(f"expected variances of shape {r.shape}, got {var.shape}")
    if (var <= 0).any():
        raise ValueError("variances must be positive")
    return -0.5 * np.sum(r * r / var + np.log(2.0 * np.pi * var), axis=-1)


def log_posterior_update(log_prior: np.ndarray, log_likelihood: np.ndarray) -> np.ndarray:
    """Normalized posterior from log prior and per-hypothesis log likelihood."""
    joint = np.asarray(log_prior, dtype=float) + np.asarray(log_likelihood, dtype=float)
    finite = np.isfinite(joint)
    if finite.all():
        w = np.exp(joint - joint.max())
    else:
        if not finite.any():
            raise DegenerateEvidenceError(
                "evidence has zero likelihood under every latent hypothesis"
            )
        m = joint[finite].max()
        w = np.where(finite, np.exp(np.where(finite, joint, m) - m), 0.0)
    return floor_probs(w / w.sum())


def log_posterior_jacobian(joint: np.ndarray, d_joint: np.ndarray) -> np.ndarray:
    """Derivative of log floor_probs(softmax(joint)), the log of the posterior
    `log_posterior_update` returns for log prior + log likelihood `joint`,
    given d_joint, the derivative of `joint`. Entries that `floor_probs`
    clamps stop moving; the others move with the renormalization."""
    post = softmax(joint)
    active = post > BELIEF_FLOOR
    total = np.maximum(post, BELIEF_FLOOR).sum()
    d_log_post = d_joint - post @ d_joint
    return active[:, None] * d_log_post - ((active * post) @ d_log_post) / total


def evidence(o, x_next, means, model):
    """Log-likelihood L(z) = log p(o | x_next, z) + log p(x_next | means[z], z)
    of one step's evidence under every latent value z, both Gaussian with
    the model's per-coordinate variances, each density evaluated once over
    the stacked latents. `means` holds the transition means, row z
    f(x, u, z); the model's dynamics noise is their variances, and without
    it there is no transition evidence. Returns (L, observation means,
    observation variances)."""
    nz = model.num_latents
    latents = range(nz)
    obs_mean = np.array(
        [model.observation_mean(x_next, z) for z in latents], dtype=float
    ).reshape(nz, -1)
    obs_var = np.array([model.observation_noise(x_next, z) for z in latents], float)
    loglik = gaussian_log_density(o, obs_mean, obs_var)
    if model.dynamics_noise is not None:
        loglik += gaussian_log_density(x_next, means, model.dynamics_noise)
    return loglik, obs_mean, obs_var


def bayes_update(o, x_next, means, b: Belief, model) -> Belief:
    """One recursive Bayes step over the latent hypotheses: the posterior
    is proportional to b(z) exp(L(z)), L the log-likelihood of `evidence`
    with transition means `means`."""
    with np.errstate(divide="ignore"):
        log_prior = np.log(b.probs)
    loglik = evidence(o, x_next, means, model)[0]
    return Belief(log_posterior_update(log_prior, loglik))
