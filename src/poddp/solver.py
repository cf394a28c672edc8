"""Belief-space trajectory-tree optimizer.

The solver alternates a forward pass, which rolls a control tree through
maximum-likelihood outcomes (per latent value) and Bayesian belief updates,
with a backward pass that propagates a quadratic value model through the
tree and produces open-loop control updates plus linear feedback gains over
belief-state deviations. Branching happens at segment boundaries; within a
segment the standard per-step DDP recursion applies, over the augmented
state (x, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .belief import (
    Belief,
    BeliefLogits,
    BeliefState,
    bayes_update,
    floor_probs,
    softmax,
    softmax_hessian,
    softmax_jacobian,
)
from .model import (
    ProblemModel,
    final_cost_derivs,
    numerical_jacobian,
    symmetrize,
)
from .tree import (
    HistoryPath,
    QuadraticValueModel,
    TrajectoryTree,
)


class RolloutDivergenceError(ArithmeticError):
    """Non-finite state encountered during a forward rollout."""


class BackwardFailureError(ArithmeticError):
    """Q_uu not positive definite at the current regularization."""


DEFAULT_ALPHAS = tuple(0.5 ** i for i in range(11))


@dataclass(frozen=True)
class SolverConfig:
    horizon: int
    segments: int = 1
    boundaries: Optional[Tuple[int, ...]] = None  # tau_1..tau_{k-1}; default equal
    max_iterations: int = 100
    cost_tolerance: float = 1e-7  # relative improvement threshold
    gradient_tolerance: float = 1e-9  # max |k| declaring stationarity
    alpha_schedule: Tuple[float, ...] = DEFAULT_ALPHAS
    regularization_init: float = 1e-6
    regularization_factor: float = 10.0
    regularization_min: float = 1e-9
    regularization_max: float = 1e10

    def segment_lengths(self) -> Tuple[int, ...]:
        if self.boundaries is not None:
            taus = (0,) + tuple(self.boundaries) + (self.horizon,)
            if list(taus) != sorted(set(taus)):
                raise ValueError("segment boundaries must be strictly increasing")
            return tuple(taus[i + 1] - taus[i] for i in range(len(taus) - 1))
        if not (1 <= self.segments <= self.horizon):
            raise ValueError("segments must be in [1, horizon]")
        base, rem = divmod(self.horizon, self.segments)
        return tuple(base + (1 if i < rem else 0) for i in range(self.segments))


@dataclass
class GainSchedule:
    """Per-(history, step) open-loop updates and feedback matrices."""

    open: Dict[Tuple[HistoryPath, int], np.ndarray] = field(default_factory=dict)
    feedback: Dict[Tuple[HistoryPath, int], np.ndarray] = field(default_factory=dict)

    def max_open_norm(self) -> float:
        if not self.open:
            return 0.0
        return max(float(np.max(np.abs(k))) for k in self.open.values())


def node_dynamics_latent(h: HistoryPath, root_belief: np.ndarray) -> int:
    """Latent index conditioning a node's in-segment dynamics.

    Non-root nodes follow the branch that created them; the root segment is
    rolled under the most likely latent value of the initial belief.
    """
    if h:
        return h[-1]
    return int(np.argmax(root_belief))


def _check_finite(x: np.ndarray, what: str):
    if not np.isfinite(x).all():
        raise RolloutDivergenceError(f"non-finite {what} during rollout")


def forward_pass(
    model: ProblemModel,
    x0,
    b0: Belief,
    u_nom: Dict[HistoryPath, np.ndarray],
    s_nom: Optional[TrajectoryTree],
    gains: Optional[GainSchedule],
    alpha: float,
    segment_lengths: Sequence[int],
) -> TrajectoryTree:
    """Roll the control tree from (x0, b0) through maximum-likelihood outcomes.

    With `gains` present, each step applies
    u = u_nom + alpha * k + K (s - s_nom); otherwise u = u_nom. At every
    segment boundary the rollout branches once per latent value, taking the
    mean next state and mean observation and updating the belief.
    """
    nz = model.num_latents
    tree = TrajectoryTree(num_latents=nz, segment_lengths=tuple(segment_lengths))
    x0 = np.asarray(x0, dtype=float)

    def roll(h: HistoryPath, x: np.ndarray, beta: np.ndarray, b: Belief):
        depth = len(h)
        m = tree.segment_lengths[depth]
        leaf = depth == tree.num_segments - 1
        z_dyn = node_dynamics_latent(h, b0.probs)
        xs = np.empty((m + (1 if leaf else 0), model.state_dim))
        betas = np.empty((xs.shape[0], nz))
        us = np.empty((m, model.control_dim))
        for j in range(m):
            xs[j], betas[j] = x, beta
            u = np.asarray(u_nom[h][j], dtype=float)
            if gains is not None and (h, j) in gains.open:
                ds = np.concatenate(
                    [x - s_nom.xs[h][j], beta - s_nom.betas[h][j]]
                )
                u = u + alpha * gains.open[(h, j)] + gains.feedback[(h, j)] @ ds
            us[j] = u
            if leaf or j < m - 1:
                x = np.asarray(model.dynamics_mean(x, u, z_dyn), dtype=float)
                _check_finite(x, "state")
            else:
                # Branch step: one maximum-likelihood outcome per latent value.
                for z in range(nz):
                    x_next = np.asarray(model.dynamics_mean(x, u, z), dtype=float)
                    _check_finite(x_next, "state")
                    o_next = model.observation_mean(x_next, z)
                    b_next = bayes_update(o_next, x_next, u, x, b, model)
                    roll(h + (z,), x_next, np.log(b_next.probs), b_next)
        if leaf:
            xs[m], betas[m] = x, beta
        tree.controls[h] = us
        tree.xs[h] = xs
        tree.betas[h] = betas
        tree.beliefs[h] = b.probs.copy()

    beta0 = np.log(floor_probs(b0.probs))
    roll((), x0, beta0, b0)
    return tree


def evaluate_tree_cost(model: ProblemModel, tree: TrajectoryTree) -> float:
    """Expected cost of the tree: belief-weighted running costs per segment,
    branch children weighted by the parent belief, and the expected final
    cost at each leaf."""

    def node_cost(h: HistoryPath) -> float:
        b = tree.beliefs[h]
        us = tree.controls[h]
        c = sum(
            model.expected_running_cost(tree.xs[h][j], us[j], b)
            for j in range(us.shape[0])
        )
        if tree.is_leaf(h):
            c += model.expected_final_cost(tree.xs[h][-1], b)
        else:
            for z in range(tree.num_latents):
                c += b[z] * node_cost(h + (z,))
        return c

    return float(node_cost(()))


# ---------------------------------------------------------------------------
# Backward pass


def _running_cost_derivs(model: ProblemModel, x, u, z: int):
    if model.running_cost_derivatives is not None:
        l_x, l_u, l_xx, l_xu, l_uu = model.running_cost_derivatives(x, u, z)
        return (
            np.asarray(l_x, float),
            np.asarray(l_u, float),
            symmetrize(np.asarray(l_xx, float)),
            np.asarray(l_xu, float),
            symmetrize(np.asarray(l_uu, float)),
        )
    from .model import FD_HESS_REL_STEP, numerical_gradient

    grad_x = lambda xx, uu: numerical_gradient(lambda p: model.running_cost(p, uu, z), xx)
    grad_u = lambda xx, uu: numerical_gradient(lambda p: model.running_cost(xx, p, z), uu)
    l_x = grad_x(x, u)
    l_u = grad_u(x, u)
    l_xx = symmetrize(numerical_jacobian(lambda xx: grad_x(xx, u), x, FD_HESS_REL_STEP))
    l_xu = numerical_jacobian(lambda uu: grad_x(x, uu), u, FD_HESS_REL_STEP)
    l_uu = symmetrize(numerical_jacobian(lambda uu: grad_u(x, uu), u, FD_HESS_REL_STEP))
    return l_x, l_u, l_xx, l_xu, l_uu


def _dynamics_jacs(model: ProblemModel, x, u, z: int):
    if model.dynamics_jacobians is not None:
        f_x, f_u = model.dynamics_jacobians(x, u, z)
        return np.asarray(f_x, float), np.asarray(f_u, float)
    f_x = numerical_jacobian(lambda xx: model.dynamics_mean(xx, u, z), x)
    f_u = numerical_jacobian(lambda uu: model.dynamics_mean(x, uu, z), u)
    return f_x, f_u


def terminal_value_model(model: ProblemModel, x, beta) -> QuadraticValueModel:
    """Quadratic model of the expected final cost over (x, beta)."""
    nz = model.num_latents
    n = model.state_dim
    ns = n + nz
    p = softmax(beta)
    jac = softmax_jacobian(beta)
    lf = np.array([model.final_cost(x, z) for z in range(nz)])
    v_s = np.zeros(ns)
    v_ss = np.zeros((ns, ns))
    v_s[n:] = jac @ lf
    for z in range(nz):
        lf_x, lf_xx = final_cost_derivs(model, x, z)
        v_s[:n] += p[z] * lf_x
        v_ss[:n, :n] += p[z] * lf_xx
        v_ss[:n, n:] += np.outer(lf_x, jac[z])
        v_ss[n:, n:] += lf[z] * softmax_hessian(beta, z)
    v_ss[n:, :n] = v_ss[:n, n:].T
    return QuadraticValueModel(dv=0.0, v_s=v_s, v_ss=symmetrize(v_ss), cost_to_go=float(p @ lf))


def _branch_chain(model: ProblemModel, z: int):
    """Successor map s' = (x', log b') through dynamics, observation and
    belief update, for latent branch z."""
    n = model.state_dim

    def chain(s: np.ndarray, u: np.ndarray) -> np.ndarray:
        x, beta = s[:n], s[n:]
        b = Belief(softmax(beta))
        x_next = np.asarray(model.dynamics_mean(x, u, z), dtype=float)
        o_next = model.observation_mean(x_next, z)
        b_next = bayes_update(o_next, x_next, u, x, b, model)
        return np.concatenate([x_next, np.log(b_next.probs)])

    return chain


@dataclass(frozen=True)
class _ZTerm:
    """Per-latent ingredients of the Q-expansion at one step."""

    weight: float  # b_z
    db: np.ndarray  # d b_z / d(delta s)
    d2b: np.ndarray  # d^2 b_z / d(delta s)^2
    cost: float  # l_z
    l_s: np.ndarray
    l_u: np.ndarray
    l_ss: np.ndarray
    l_su: np.ndarray
    l_uu: np.ndarray
    a_mat: np.ndarray  # d s'_z / d(delta s)
    b_mat: np.ndarray  # d s'_z / d(delta u)
    value: QuadraticValueModel  # model at the successor s'_z


def _assemble_q(terms: Sequence[_ZTerm], ns: int, nu: int):
    q0 = 0.0
    q_s = np.zeros(ns)
    q_u = np.zeros(nu)
    q_ss = np.zeros((ns, ns))
    q_su = np.zeros((ns, nu))
    q_uu = np.zeros((nu, nu))
    dv_children = 0.0
    for t in terms:
        vs = t.value.v_s
        vss = t.value.v_ss
        level = t.cost + t.value.cost_to_go
        w_s = t.l_s + t.a_mat.T @ vs
        w_u = t.l_u + t.b_mat.T @ vs
        q0 += t.weight * level
        q_s += t.db * level + t.weight * w_s
        q_u += t.weight * w_u
        q_ss += (
            t.d2b * level
            + np.outer(t.db, w_s)
            + np.outer(w_s, t.db)
            + t.weight * (t.l_ss + t.a_mat.T @ vss @ t.a_mat)
        )
        q_su += np.outer(t.db, w_u) + t.weight * (t.l_su + t.a_mat.T @ vss @ t.b_mat)
        q_uu += t.weight * (t.l_uu + t.b_mat.T @ vss @ t.b_mat)
        dv_children += t.weight * t.value.dv
    return q0, q_s, q_u, symmetrize(q_ss), q_su, symmetrize(q_uu), dv_children


def _solve_gains(q0, q_s, q_u, q_ss, q_su, q_uu, dv_children, lam):
    nu = q_u.size
    q_uu_reg = q_uu + lam * np.eye(nu)
    try:
        chol = np.linalg.cholesky(q_uu_reg)
    except np.linalg.LinAlgError:
        raise BackwardFailureError("Q_uu not positive definite")
    rhs = np.column_stack([q_u, q_su.T])
    sol = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    k = -sol[:, 0]
    gain = -sol[:, 1:].reshape(nu, -1)
    dv = -0.5 * float(k @ q_uu_reg @ k)
    v_s = q_s + gain.T @ q_uu_reg @ k + gain.T @ q_u + q_su @ k
    v_ss = q_ss + gain.T @ q_uu_reg @ gain + gain.T @ q_su.T + q_su @ gain
    return k, gain, QuadraticValueModel(
        dv=dv + dv_children, v_s=v_s, v_ss=symmetrize(v_ss), cost_to_go=q0
    )


def _belief_terms(beta: np.ndarray, n: int):
    """(weights, d b_z/d delta s, d^2 b_z/d delta s^2) for each latent z."""
    nz = beta.size
    ns = n + nz
    p = softmax(beta)
    jac = softmax_jacobian(beta)
    dbs = []
    d2bs = []
    for z in range(nz):
        db = np.zeros(ns)
        db[n:] = jac[z]
        d2b = np.zeros((ns, ns))
        d2b[n:, n:] = softmax_hessian(beta, z)
        dbs.append(db)
        d2bs.append(d2b)
    return p, dbs, d2bs


def _cost_block(model: ProblemModel, x, u, z: int, ns: int):
    n = model.state_dim
    nu = model.control_dim
    l_x, l_u, l_xx, l_xu, l_uu = _running_cost_derivs(model, x, u, z)
    l_s = np.zeros(ns)
    l_s[:n] = l_x
    l_ss = np.zeros((ns, ns))
    l_ss[:n, :n] = l_xx
    l_su = np.zeros((ns, nu))
    l_su[:n, :] = l_xu
    cost = float(model.running_cost(x, u, z))
    return cost, l_s, l_u, l_ss, l_su, l_uu


def optimize_control(
    model: ProblemModel,
    u,
    s: BeliefState,
    child_value_models: Optional[Sequence[QuadraticValueModel]],
    b: Belief,
    lam: float = 0.0,
):
    """Branch-step control update: belief-weighted Q-expansion through the
    per-latent successor chains (dynamics -> observation -> belief update).

    With `child_value_models` absent (terminal segment), the successor value
    of each branch is the expected final cost quadraticized at the
    maximum-likelihood successor. Returns (k, K, value model at s).
    """
    n = model.state_dim
    nz = model.num_latents
    ns = n + nz
    x = np.asarray(s.x, dtype=float)
    beta = np.asarray(s.beta.beta, dtype=float)
    u = np.asarray(u, dtype=float)
    s_vec = np.concatenate([x, beta])
    weights, dbs, d2bs = _belief_terms(beta, n)

    terms = []
    for z in range(nz):
        chain = _branch_chain(model, z)
        a_mat = numerical_jacobian(lambda sv: chain(sv, u), s_vec)
        b_mat = numerical_jacobian(lambda uv: chain(s_vec, uv), u)
        if child_value_models is not None:
            vm = child_value_models[z]
        else:
            succ = chain(s_vec, u)
            vm = terminal_value_model(model, succ[:n], succ[n:])
        cost, l_s, l_u, l_ss, l_su, l_uu = _cost_block(model, x, u, z, ns)
        terms.append(
            _ZTerm(weights[z], dbs[z], d2bs[z], cost, l_s, l_u, l_ss, l_su, l_uu, a_mat, b_mat, vm)
        )
    return _solve_gains(*_assemble_q(terms, ns, model.control_dim), lam)


def _insegment_q(model: ProblemModel, u, x, beta, z_dyn: int, next_vm: QuadraticValueModel):
    """Q-expansion of one in-segment step, block-wise over (x, beta).

    The successor (f(x, u), beta) and its value model are shared by every
    latent, so only the belief-weighted running costs are summed per latent.
    Because the weights b_z sum to one, their derivatives sum to zero, and
    the value-level and value-gradient terms of the per-latent expansion
    cancel exactly; they are left out rather than summed to zero.
    """
    n = model.state_dim
    nz = model.num_latents
    nu = model.control_dim
    f_x, f_u = _dynamics_jacs(model, x, u, z_dyn)
    p = softmax(beta)
    jac = np.diag(p) - np.outer(p, p)  # softmax_jacobian(beta)
    costs = np.empty(nz)
    l_x = np.empty((nz, n))
    l_u = np.empty((nz, nu))
    l_xx = np.zeros((n, n))
    l_xu = np.zeros((n, nu))
    l_uu = np.zeros((nu, nu))
    for z in range(nz):
        l_x[z], l_u[z], lz_xx, lz_xu, lz_uu = _running_cost_derivs(model, x, u, z)
        costs[z] = model.running_cost(x, u, z)
        l_xx += p[z] * lz_xx
        l_xu += p[z] * lz_xu
        l_uu += p[z] * lz_uu
    # sum_z costs[z] * softmax_hessian(beta, z) in closed form: the Hessian
    # of p_z is p_z (d_z d_z^T - jac) with d_z = e_z - p.
    dev = np.eye(nz) - p
    l_bb = dev.T @ ((costs * p)[:, None] * dev) - float(costs @ p) * jac

    v_s, v_ss = next_vm.v_s, next_vm.v_ss
    v_x, v_b = v_s[:n], v_s[n:]
    v_xx, v_xb = v_ss[:n, :n], v_ss[:n, n:]
    fx_vxx = f_x.T @ v_xx
    q_s = np.concatenate([p @ l_x + f_x.T @ v_x, costs @ jac + v_b])
    q_u = p @ l_u + f_u.T @ v_x
    q_ss = np.empty((n + nz, n + nz))
    q_ss[:n, :n] = l_xx + fx_vxx @ f_x
    q_ss[:n, n:] = l_x.T @ jac + f_x.T @ v_xb
    q_ss[n:, :n] = q_ss[:n, n:].T
    q_ss[n:, n:] = l_bb + v_ss[n:, n:]
    q_su = np.concatenate([l_xu + fx_vxx @ f_u, jac.T @ l_u + v_xb.T @ f_u])
    q_uu = l_uu + f_u.T @ v_xx @ f_u
    q0 = float(p @ costs) + next_vm.cost_to_go
    return q0, q_s, q_u, symmetrize(q_ss), q_su, symmetrize(q_uu), next_vm.dv


def _insegment_step(
    model: ProblemModel,
    u,
    x,
    beta,
    z_dyn: int,
    next_vm: QuadraticValueModel,
    lam: float,
):
    """One standard DDP step over the augmented state within a segment: the
    belief logits are carried unchanged and the successor is shared by all
    latent hypotheses (dynamics conditioned on the node's branch)."""
    return _solve_gains(*_insegment_q(model, u, x, beta, z_dyn, next_vm), lam)


def backward_pass(
    model: ProblemModel,
    tree: TrajectoryTree,
    lam: float = 0.0,
) -> Tuple[GainSchedule, Dict[HistoryPath, QuadraticValueModel]]:
    """Depth-first, post-order dynamic programming over the tree.

    Children are processed first; their value models combine through the
    belief-weighted expansion at the parent's branch step, then the standard
    per-step recursion runs back through the segment. Raises
    `BackwardFailureError` when Q_uu cannot be made positive definite at the
    given regularization (the caller raises lambda and retries).
    """
    gains = GainSchedule()
    value_models: Dict[HistoryPath, QuadraticValueModel] = {}

    def visit(h: HistoryPath) -> QuadraticValueModel:
        m = tree.controls[h].shape[0]
        leaf = tree.is_leaf(h)
        z_dyn = node_dynamics_latent(h, tree.beliefs[()])
        if leaf:
            x_t, beta_t = tree.terminal_state(h)
            vm = terminal_value_model(model, x_t, beta_t)
            child_vms = None
        else:
            child_vms = [visit(h + (z,)) for z in range(tree.num_latents)]
            vm = None
        for j in reversed(range(m)):
            x = tree.xs[h][j]
            beta = tree.betas[h][j]
            u = tree.controls[h][j]
            if not leaf and j == m - 1:
                s = BeliefState(x, BeliefLogits(np.asarray(beta, dtype=float)))
                k, K, vm = optimize_control(
                    model, u, s, child_vms, Belief(softmax(beta)), lam
                )
            else:
                k, K, vm = _insegment_step(model, u, x, beta, z_dyn, vm, lam)
            gains.open[(h, j)] = k
            gains.feedback[(h, j)] = K
        value_models[h] = vm
        return vm

    visit(())
    return gains, value_models


@dataclass
class SolveResult:
    tree: TrajectoryTree
    gains: GainSchedule
    iterations: List[dict]
    converged: bool
    cost: float

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)


def _zero_controls(segment_lengths, num_latents, control_dim):
    u = {}

    def fill(h, depth):
        u[h] = np.zeros((segment_lengths[depth], control_dim))
        if depth < len(segment_lengths) - 1:
            for z in range(num_latents):
                fill(h + (z,), depth + 1)

    fill((), 0)
    return u


def solve(
    model: ProblemModel,
    x0,
    b0: Belief,
    config: SolverConfig,
    u_init: Optional[Dict[HistoryPath, np.ndarray]] = None,
) -> SolveResult:
    """Iterate forward and backward passes with backtracking line search.

    Terminates on relative cost improvement below `cost_tolerance`, a
    stationary control update (max |k| below `gradient_tolerance`),
    `max_iterations`, or an exhausted line search at the regularization cap;
    the last two return the best tree so far with `converged=False`. The
    returned tree carries the gains and value models of a backward pass on
    itself, with lambda escalated as far as `regularization_max`; when even
    that fails it carries none.
    """
    seg = config.segment_lengths()
    if u_init is None:
        u_init = _zero_controls(seg, model.num_latents, model.control_dim)
    tree = forward_pass(model, x0, b0, u_init, None, None, 1.0, seg)
    cost = evaluate_tree_cost(model, tree)
    lam = config.regularization_init
    log: List[dict] = []
    converged = False

    for it in range(1, config.max_iterations + 1):
        step = _regularized_backward_pass(model, tree, lam, config)
        if step is None:
            return _finish(tree, GainSchedule(), {}, log, False, cost)
        gains, vms, lam = step
        grad_norm = gains.max_open_norm()
        if grad_norm < config.gradient_tolerance:
            log.append(_log_row(it, cost, 0.0, lam, grad_norm))
            return _finish(tree, gains, vms, log, True, cost)

        accepted = None
        for alpha in config.alpha_schedule:
            # A trial that diverges, or whose cost overflows, is rejected.
            try:
                cand = forward_pass(
                    model, x0, b0, tree.controls, tree, gains, alpha, seg
                )
                cand_cost = evaluate_tree_cost(model, cand)
            except ArithmeticError:
                continue
            if math.isfinite(cand_cost) and cand_cost < cost:
                accepted = (alpha, cand, cand_cost)
                break

        if accepted is None:
            lam *= config.regularization_factor
            log.append(_log_row(it, cost, 0.0, lam, grad_norm))
            if lam > config.regularization_max:
                break
            continue

        alpha, tree, new_cost = accepted
        rel = (cost - new_cost) / max(1.0, abs(cost))
        cost = new_cost
        lam = max(lam / 2.0, config.regularization_min)
        log.append(_log_row(it, cost, alpha, lam, grad_norm))
        if rel < config.cost_tolerance:
            converged = True
            break

    # Gains and value models of the final nominal tree, not of its parent.
    step = _regularized_backward_pass(model, tree, lam, config)
    gains, vms = (GainSchedule(), {}) if step is None else step[:2]
    return _finish(tree, gains, vms, log, converged, cost)


def _regularized_backward_pass(model, tree, lam, config: SolverConfig):
    """`backward_pass` at `lam`, multiplying it by `regularization_factor`
    on failure. Returns (gains, value models, lam), or None once lam passes
    `regularization_max`."""
    while True:
        try:
            gains, vms = backward_pass(model, tree, lam)
            return gains, vms, lam
        except BackwardFailureError:
            lam *= config.regularization_factor
            if lam > config.regularization_max:
                return None


def _finish(tree, gains, vms, log, converged, cost) -> SolveResult:
    """Attach the gains and value models computed on `tree` to it."""
    tree.value_models = vms
    tree.gains_open = dict(gains.open)
    tree.gains_feedback = dict(gains.feedback)
    return SolveResult(tree, gains, log, converged, cost)


def _log_row(iteration, cost, alpha, lam, gradient_norm):
    return {
        "iteration": iteration,
        "cost": float(cost),
        "alpha": float(alpha),
        "lambda": float(lam),
        "gradient_norm": float(gradient_norm),
    }
