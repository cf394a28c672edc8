"""Belief representation and Bayesian updating."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from poddp.belief import (
    BELIEF_FLOOR,
    Belief,
    DegenerateEvidenceError,
    bayes_update,
    floor_probs,
    gaussian_log_density,
    log_posterior_jacobian,
    log_posterior_update,
    logits,
    softmax,
    softmax_derivatives,
)
from poddp.model import ProblemModel

# Hand evaluation of the two-hypothesis Gaussian posterior: unit-variance
# observation means -1 and +1, uniform prior, observation o = -1. The
# posterior of the matching hypothesis is 1 / (1 + e^{-2}).
POSTERIOR_MATCHING = 0.8807970779778823

logits_vectors = st.lists(
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False), min_size=2, max_size=4
).map(np.array)


def test_softmax_symmetric_pair():
    np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])


def test_softmax_analytic_pair():
    np.testing.assert_allclose(
        softmax(np.array([np.log(2.0), 0.0])), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15
    )


def test_softmax_constant_logits_uniform():
    for c in (-5.0, 0.0, 3.7):
        np.testing.assert_allclose(softmax(np.array([c, c])), [0.5, 0.5])


@given(logits_vectors, st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_belief_from_logits_shift_invariant(beta, c):
    p1 = Belief(softmax(beta)).probs
    p2 = Belief(softmax(beta + c)).probs
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_logits_from_belief_uniform():
    beta = logits(Belief(np.array([0.5, 0.5])).probs)
    np.testing.assert_allclose(beta, np.log(0.5))


def test_logits_from_belief_floors_zero_and_round_trips():
    b = Belief(np.array([1.0, 0.0]))
    beta = logits(b.probs)
    assert np.isfinite(beta).all()
    back = Belief(softmax(beta)).probs
    np.testing.assert_allclose(back, [1.0, 0.0], atol=1e-8)
    # The floored entry keeps roughly the floor's worth of mass.
    assert back[1] <= 2 * BELIEF_FLOOR


def test_logits_belief_inverse_property():
    b = Belief(np.array([2.0 / 3.0, 1.0 / 3.0]))
    beta = logits(b.probs)
    np.testing.assert_allclose(Belief(softmax(beta)).probs, b.probs, atol=1e-12)


def _stub_model(obs_means, obs_vars=None, nz=None):
    nz = len(obs_means) if nz is None else nz
    obs_vars = [np.ones(1)] * nz if obs_vars is None else obs_vars
    return ProblemModel(
        state_dim=1,
        control_dim=1,
        num_latents=nz,
        dynamics_mean=lambda x, u, z: x,
        observation_mean=lambda x, z: np.atleast_1d(obs_means[z]),
        observation_noise=lambda x, z: obs_vars[z],
        running_cost=lambda x, u, z: 0.0,
        final_cost=lambda x, z: 0.0,
        dynamics_jacobians=lambda x, u, z: (np.eye(1), np.zeros((1, 1))),
        observation_jacobian=lambda x, z: np.zeros((1, 1)),
        running_cost_derivatives=lambda x, u, z: (
            np.zeros(1), np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))
        ),
        final_cost_derivatives=lambda x, z: (np.zeros(1), np.zeros((1, 1))),
    )


def test_bayes_uniform_evidence_returns_prior():
    model = _stub_model([0.0, 0.0, 0.0])
    prior = Belief(np.array([0.2, 0.5, 0.3]))
    post = bayes_update(
        np.array([0.4]), np.zeros(1), np.zeros((model.num_latents, 1)), prior, model
    )
    np.testing.assert_allclose(post.probs, prior.probs, atol=1e-12)


def test_bayes_zero_likelihood_hypothesis_floored():
    # Hypothesis 1's mean is far enough that its likelihood underflows.
    model = _stub_model([0.0, 1e6], obs_vars=[np.ones(1), np.ones(1) * 1e-6])
    prior = Belief(np.array([0.5, 0.5]))
    post = bayes_update(
        np.zeros(1), np.zeros(1), np.zeros((model.num_latents, 1)), prior, model
    )
    assert post.probs[1] <= 2 * BELIEF_FLOOR
    assert post.probs[0] >= 1.0 - 2 * BELIEF_FLOOR


def test_bayes_two_hypothesis_gaussian_oracle():
    model = _stub_model([-1.0, 1.0])
    prior = Belief(np.array([0.5, 0.5]))
    post = bayes_update(
        np.array([-1.0]), np.zeros(1), np.zeros((model.num_latents, 1)), prior, model
    )
    np.testing.assert_allclose(
        post.probs, [POSTERIOR_MATCHING, 1.0 - POSTERIOR_MATCHING], atol=1e-10
    )


def test_degenerate_evidence_raises():
    with pytest.raises(DegenerateEvidenceError):
        log_posterior_update(np.array([0.0, 0.0]), np.array([-np.inf, -np.inf]))


def test_log_posterior_update_matches_masked_reference():
    # The reference masks non-finite joint terms; with every term finite the
    # update takes exp(joint - max) directly and must give the same bits.
    rng = np.random.default_rng(3)
    for _ in range(40):
        log_prior = np.log(rng.dirichlet(np.ones(3)))
        log_lik = rng.normal(size=3) * 20.0
        if rng.uniform() < 0.5:
            log_lik[rng.integers(3)] = -np.inf
        joint = log_prior + log_lik
        finite = np.isfinite(joint)
        m = joint[finite].max()
        w = np.where(finite, np.exp(np.where(finite, joint, m) - m), 0.0)
        expected = floor_probs(w / w.sum())
        got = log_posterior_update(log_prior, log_lik)
        assert got.tobytes() == expected.tobytes()


@given(logits_vectors)
@settings(max_examples=50, deadline=None)
def test_bayes_output_sums_to_one(beta):
    model = _stub_model(list(np.linspace(-1, 1, beta.size)), nz=beta.size)
    prior = Belief(softmax(beta))
    post = bayes_update(
        np.array([0.2]), np.zeros(1), np.zeros((model.num_latents, 1)), prior, model
    )
    assert abs(post.probs.sum() - 1.0) < 1e-12


def test_bayes_permutation_equivariant():
    means = [-1.0, 0.5, 2.0]
    prior = np.array([0.2, 0.5, 0.3])
    o = np.array([0.3])
    perm = [2, 0, 1]
    model = _stub_model(means)
    post = bayes_update(o, np.zeros(1), np.zeros((3, 1)), Belief(prior), model)
    model_p = _stub_model([means[i] for i in perm])
    post_p = bayes_update(
        o, np.zeros(1), np.zeros((3, 1)), Belief(prior[perm]), model_p
    )
    np.testing.assert_allclose(post_p.probs, post.probs[perm], atol=1e-12)


def test_sequential_updates_match_product_likelihood():
    rng = np.random.default_rng(0)
    log_prior = np.log(np.array([0.3, 0.45, 0.25]))
    ll1 = rng.standard_normal(3)
    ll2 = rng.standard_normal(3)
    step1 = log_posterior_update(log_prior, ll1)
    sequential = log_posterior_update(np.log(step1), ll2)
    batched = log_posterior_update(log_prior, ll1 + ll2)
    np.testing.assert_allclose(sequential, batched, atol=1e-10)


@given(logits_vectors)
@settings(max_examples=40, deadline=None)
def test_softmax_jacobian_matches_finite_differences(beta):
    p, jac, _ = softmax_derivatives(beta)
    np.testing.assert_array_equal(p, softmax(beta))
    eps = 1e-6
    fd = np.zeros_like(jac)
    for i in range(beta.size):
        dp = np.zeros_like(beta)
        dp[i] = eps
        fd[:, i] = (softmax(beta + dp) - softmax(beta - dp)) / (2 * eps)
    np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-7)


def test_softmax_hessian_matches_finite_differences():
    beta = np.array([0.3, -0.7, 1.1])
    eps = 1e-5
    for z in range(3):
        hess = softmax_derivatives(beta)[2][z]
        fd = np.zeros((3, 3))
        for i in range(3):
            dp = np.zeros(3)
            dp[i] = eps
            fd[:, i] = (
                softmax_derivatives(beta + dp)[1][z]
                - softmax_derivatives(beta - dp)[1][z]
            ) / (2 * eps)
        np.testing.assert_allclose(hess, fd, atol=1e-6)


@pytest.mark.parametrize(
    "joint, floored",
    [(np.array([0.3, -0.7, 1.1]), 0), (np.array([2.0, 0.5, -40.0]), 1)],
    ids=["interior", "one_entry_floored"],
)
def test_log_posterior_jacobian_matches_finite_differences(joint, floored):
    # softmax([2, 0.5, -40])[2] ~ 5e-19 lies below the floor: floor_probs
    # clamps it, so only the renormalization moves that entry.
    assert (softmax(joint) < BELIEF_FLOOR).sum() == floored
    jac = log_posterior_jacobian(joint, np.eye(joint.size))
    eps = 1e-6
    fd = np.zeros_like(jac)
    for i in range(joint.size):
        dj = np.zeros_like(joint)
        dj[i] = eps
        fd[:, i] = (
            np.log(log_posterior_update(joint + dj, 0.0))
            - np.log(log_posterior_update(joint - dj, 0.0))
        ) / (2 * eps)
    np.testing.assert_allclose(jac, fd, atol=1e-7)


def test_gaussian_log_density_scalar_oracle():
    # Standard normal at 0: log(1/sqrt(2 pi)).
    expected = -0.5 * np.log(2.0 * np.pi)
    assert abs(gaussian_log_density(np.zeros(1), np.zeros(1), np.ones(1)) - expected) < 1e-12


def test_gaussian_log_density_sums_independent_coordinates():
    v, m = np.array([0.3, -1.2, 0.8]), np.array([0.1, 0.4, -0.2])
    var = np.array([0.5, 2.0, 1.3])
    expected = sum(norm.logpdf(v[i], m[i], np.sqrt(var[i])) for i in range(3))
    assert abs(gaussian_log_density(v, m, var) - expected) < 1e-12


@pytest.mark.parametrize(
    "var",
    [np.ones(2), np.ones(4), np.float64(1.0), np.eye(3), np.array([1.0, 0.0, 2.0]),
     np.array([1.0, -0.5, 2.0])],
    ids=["short", "long", "scalar", "matrix", "zero", "negative"],
)
def test_gaussian_log_density_rejects_bad_variances(var):
    # One positive variance per coordinate: a vector of another length, a
    # scalar, a matrix or an entry <= 0 is an error, not broadcast or ignored.
    with pytest.raises(ValueError):
        gaussian_log_density(np.zeros(3), np.zeros(3), var)
    # The same variances as the second of a stack of two vectors.
    stacked = np.array([np.ones_like(var), var])
    with pytest.raises(ValueError):
        gaussian_log_density(np.zeros((2, 3)), np.zeros((2, 3)), stacked)


def test_gaussian_log_density_stacks_vectors():
    v = np.array([[0.3, -1.2, 0.8], [1.0, 0.5, -0.4]])
    m = np.array([[0.1, 0.4, -0.2], [0.2, 0.0, 0.3]])
    var = np.array([[0.5, 2.0, 1.3], [1.1, 0.2, 0.7]])
    stacked = gaussian_log_density(v, m, var)
    assert stacked.shape == (2,)
    for i in range(2):
        assert stacked[i] == gaussian_log_density(v[i], m[i], var[i])


def test_belief_validation():
    with pytest.raises(ValueError):
        Belief(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        Belief(np.array([-0.1, 1.1]))


@pytest.mark.parametrize(
    "probs, message",
    [
        ([np.nan, 1.0], "finite and non-negative"),
        ([np.inf, 0.0], "finite and non-negative"),
        ([-np.inf, 1.0], "finite and non-negative"),
        ([-0.1, 1.1], "finite and non-negative"),
        ([0.7, 0.7], r"sum to 1, got np.float64\(1.4\)"),
        ([0.5, 0.5 + 1e-11], "sum to 1"),
        ([[0.5, 0.5]], "non-empty vector"),
        ([], "non-empty vector"),
    ],
    ids=["nan", "inf", "minus_inf", "negative", "sum", "sum_1e-11", "matrix", "empty"],
)
def test_belief_rejects_each_bad_vector_with_its_message(probs, message):
    with pytest.raises(ValueError, match=message):
        Belief(np.array(probs, dtype=float))
