"""Belief-space trajectory-tree optimizer.

The solver alternates a forward pass, which rolls a control tree through
maximum-likelihood outcomes (per latent value) and Bayesian belief updates,
with a backward pass that propagates a quadratic value model through the
tree and produces open-loop control updates plus linear feedback gains over
belief-state deviations. Branching happens at segment ends; within a
segment the standard per-step DDP recursion applies, over the augmented
state (x, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .belief import (
    Belief,
    bayes_update,
    evidence,
    log_posterior_jacobian,
    logits,
    softmax_derivatives,
)
from .model import ProblemModel, numerical_jacobian
from .tree import (
    HistoryPath,
    NodeGains,
    QuadraticValueModel,
    TrajectoryTree,
    histories_by_level,
)


class RolloutDivergenceError(ArithmeticError):
    """Non-finite state encountered during a forward rollout."""


class BackwardFailureError(ArithmeticError):
    """Q_uu not positive definite at the current regularization."""


# Line-search step sizes, tried in order.
ALPHA_SCHEDULE = tuple(0.5 ** i for i in range(11))
# Levenberg regularization lambda of Q_uu: its start, the factor it grows by
# on a failed backward pass or line search, and its bounds (it halves after an
# accepted step).
REGULARIZATION_INIT = 1e-6
REGULARIZATION_FACTOR = 10.0
REGULARIZATION_MIN = 1e-9
REGULARIZATION_MAX = 1e10
# A control update whose max |k| is below this is stationary.
GRADIENT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    horizon: int
    segments: int = 1  # the horizon splits into this many near-equal segments
    max_iterations: int = 100
    cost_tolerance: float = 1e-7  # relative improvement threshold

    def segment_lengths(self) -> Tuple[int, ...]:
        if not (1 <= self.segments <= self.horizon):
            raise ValueError("segments must be in [1, horizon]")
        base, rem = divmod(self.horizon, self.segments)
        return tuple(base + (1 if i < rem else 0) for i in range(self.segments))


def node_dynamics_latent(h: HistoryPath, root_belief: np.ndarray) -> int:
    """Latent index conditioning a node's in-segment dynamics.

    Non-root nodes follow the branch that created them; the root segment is
    rolled under the most likely latent value of the initial belief.
    """
    if h:
        return h[-1]
    return int(np.argmax(root_belief))


def _check_finite(x: np.ndarray, what: str):
    if not all(map(math.isfinite, x.tolist())):
        raise RolloutDivergenceError(f"non-finite {what} during rollout")


def forward_pass(
    model: ProblemModel,
    x0,
    b0: Belief,
    u_nom: Dict[HistoryPath, np.ndarray],
    s_nom: Optional[TrajectoryTree],
    gains: Optional[Dict[HistoryPath, NodeGains]],
    alpha: float,
    segment_lengths: Sequence[int],
) -> TrajectoryTree:
    """Roll the control tree from (x0, b0) through maximum-likelihood outcomes.

    With `gains` present, step j of node h applies
    u = (u_nom + alpha * k_j) + K_j (s - s_nom), with (k, K) = gains[h];
    otherwise u = u_nom. At every segment boundary the rollout branches once
    per latent value, taking the mean next state and mean observation and
    updating the belief.
    """
    nz = model.num_latents
    n = model.state_dim
    tree = TrajectoryTree(num_latents=nz, segment_lengths=tuple(segment_lengths))
    x0 = np.asarray(x0, dtype=float)

    def roll(h: HistoryPath, x: np.ndarray, beta: np.ndarray, b: Belief):
        depth = len(h)
        m = tree.segment_lengths[depth]
        leaf = depth == tree.num_segments - 1
        z_dyn = node_dynamics_latent(h, b0.probs)
        u_rows = np.asarray(u_nom[h], dtype=float)
        if gains is not None:
            # What stays fixed over the node: u_nom + alpha k, the feedback
            # gains, the nominal states and the logit deviation.
            k, feedback = gains[h]
            u_rows = u_rows + alpha * k
            x_nom = s_nom.xs[h]
            ds = np.empty(n + nz)
            ds[n:] = beta - s_nom.betas[h]
            dx = ds[:n]
        xs, us = [], []
        for j in range(m):
            xs.append(x)
            if gains is None:
                u = u_rows[j]
            else:
                np.subtract(x, x_nom[j], out=dx)
                u = u_rows[j] + feedback[j] @ ds
            us.append(u)
            if leaf or j < m - 1:
                x = np.asarray(model.dynamics_mean(x, u, z_dyn), dtype=float)
                _check_finite(x, "state")
            else:
                # Branch step: one maximum-likelihood outcome per latent value.
                succ = np.array([model.dynamics_mean(x, u, z) for z in range(nz)], float)
                _check_finite(succ.ravel(), "state")
                for z, x_next in enumerate(succ):
                    o_next = model.observation_mean(x_next, z)
                    b_next = bayes_update(o_next, x_next, succ, b, model)
                    roll(h + (z,), x_next, np.log(b_next.probs), b_next)
        if leaf:
            xs.append(x)
        tree.controls[h] = np.array(us)
        tree.xs[h] = np.array(xs)
        tree.betas[h] = beta
        tree.beliefs[h] = b.probs.copy()

    roll((), x0, logits(b0.probs), b0)
    return tree


def evaluate_tree_cost(model: ProblemModel, tree: TrajectoryTree) -> float:
    """Expected cost of the tree: belief-weighted running costs per segment,
    branch children weighted by the parent belief, and the expected final
    cost at each leaf."""
    nz = tree.num_latents
    running_cost, final_cost = model.running_cost, model.final_cost

    def node_cost(h: HistoryPath) -> float:
        b = tree.beliefs[h].tolist()
        xs = tree.xs[h]
        c = 0.0
        for x, u in zip(xs, tree.controls[h]):
            step = 0.0
            for z in range(nz):
                step += b[z] * running_cost(x, u, z)
            c += float(step)
        if tree.is_leaf(h):
            final = 0.0
            for z in range(nz):
                final += b[z] * final_cost(xs[-1], z)
            c += float(final)
        else:
            for z in range(nz):
                c += b[z] * node_cost(h + (z,))
        return c

    return float(node_cost(()))


# ---------------------------------------------------------------------------
# Backward pass
#
# Every step is expanded over z = (x, beta, u), where s = (x, beta) is the
# belief state: a Q-function quadratic in (delta s, delta u), whose blocks
# feed `_solve_gains`.


def terminal_value_model(model: ProblemModel, x, beta) -> QuadraticValueModel:
    """Quadratic model over (x, beta) of the expected final cost
    sum_w p_w lf_w(x), with p = softmax(beta)."""
    n, nz = model.state_dim, model.num_latents
    p, jac, hess = softmax_derivatives(beta)
    lf = np.array([model.final_cost(x, z) for z in range(nz)])
    lf_x, lf_xx = (
        np.array(d)
        for d in zip(*(model.final_cost_derivatives(x, z) for z in range(nz)))
    )
    v_ss = np.empty((n + nz, n + nz))
    v_ss[:n, :n] = np.einsum("w,wab->ab", p, lf_xx)
    v_ss[:n, n:] = lf_x.T @ jac
    v_ss[n:, :n] = v_ss[:n, n:].T
    v_ss[n:, n:] = np.einsum("w,wab->ab", lf, hess)
    v_s = np.concatenate([p @ lf_x, jac @ lf])
    return QuadraticValueModel(dv=0.0, v_s=v_s, v_ss=v_ss, cost_to_go=float(p @ lf))


def _cost_expansion(model: ProblemModel, xs, us, beta):
    """Belief-weighted running cost sum_w p_w l_w(x, u) of every step of a
    segment, expanded over z = (x, beta, u) with p = softmax(beta).

    Returns the levels (m,), gradients (m, d) and Hessians (m, d, d), stacked
    over the segment's m = len(us) steps. The segment's steps share their
    logits, so p and its derivatives are formed once.
    """
    n, nz, nu = model.state_dim, model.num_latents, model.control_dim
    ns = n + nz
    m = us.shape[0]
    p, jac, hess = softmax_derivatives(beta)
    points = [(xs[j], us[j], z) for j in range(m) for z in range(nz)]
    level = np.array([model.running_cost(*pt) for pt in points]).reshape(m, nz)
    derivs = [model.running_cost_derivatives(*pt) for pt in points]
    l_x, l_u, l_xx, l_xu, l_uu = (
        np.array([d[i] for d in derivs]).reshape((m, nz) + derivs[0][i].shape)
        for i in range(5)
    )
    x_, b_, u_ = slice(0, n), slice(n, ns), slice(ns, ns + nu)
    g = np.empty((m, ns + nu))
    g[:, x_] = np.einsum("w,jwa->ja", p, l_x)
    g[:, b_] = level @ jac
    g[:, u_] = np.einsum("w,jwa->ja", p, l_u)
    h = np.empty((m, ns + nu, ns + nu))
    h[:, x_, x_] = np.einsum("w,jwab->jab", p, l_xx)
    h[:, x_, b_] = np.einsum("jwa,wb->jab", l_x, jac)
    h[:, x_, u_] = np.einsum("w,jwab->jab", p, l_xu)
    h[:, b_, b_] = np.einsum("jw,wab->jab", level, hess)
    h[:, b_, u_] = np.einsum("wa,jwb->jab", jac, l_u)
    h[:, u_, u_] = np.einsum("w,jwab->jab", p, l_uu)
    for rows, cols in ((b_, x_), (u_, x_), (u_, b_)):
        h[:, rows, cols] = h[:, cols, rows].transpose(0, 2, 1)
    return level @ p, g, h


def _insegment_jacobians(model: ProblemModel, xs, us, z: int) -> np.ndarray:
    """d(x', beta')/d(x, beta, u) = [[f_x, 0, f_u], [0, I, 0]] of every
    in-segment step: dynamics conditioned on latent z, logits carried over."""
    n, nz = model.state_dim, model.num_latents
    ns = n + nz
    jacs = np.zeros((us.shape[0], ns, ns + model.control_dim))
    jacs[:, n:, n:ns] = np.eye(nz)
    for j in range(us.shape[0]):
        jacs[j, :n, :n], jacs[j, :n, ns:] = model.dynamics_jacobians(xs[j], us[j], z)
    return jacs


def _branch_jacobians(model: ProblemModel, x, beta, u, succ) -> np.ndarray:
    """Jacobians d s'_z / d(x, beta, u), stacked over z, of every branch's
    successor s'_z = (x'_z, beta'_z), by the chain rule through dynamics,
    observation and Bayes update.

    Row z of `succ` is x'_z = f(x, u, z), observed as o_z = h(x'_z, z), and
    beta'_z = log floor(softmax(beta + L)), where L is the log-likelihood
    of (o_z, x'_z) with transition means `succ`, as in `bayes_update`. No
    callback gives the derivative of the observation variances, so it is
    differenced.
    """
    n, nz, nu = model.state_dim, model.num_latents, model.control_dim
    ns = n + nz
    d_succ = np.array([np.hstack(model.dynamics_jacobians(x, u, z)) for z in range(nz)])
    jacs = np.zeros((nz, ns, ns + nu))
    jacs[:, :n, :n], jacs[:, :n, ns:] = d_succ[..., :n], d_succ[..., n:]
    for z, x_next in enumerate(succ):
        o = np.atleast_1d(np.asarray(model.observation_mean(x_next, z), dtype=float))
        h_z = model.observation_jacobian(x_next, z)
        d_var = numerical_jacobian(
            lambda xn: np.concatenate([model.observation_noise(xn, w) for w in range(nz)]),
            x_next,
        ).reshape(nz, o.size, n)

        loglik, obs_mean, obs_var = evidence(o, x_next, succ, model)
        inv_var = 1.0 / obs_var
        d_loglik = np.empty((nz, n + nu))  # d L_w / d(x, u)
        for w, a in enumerate(inv_var * (o - obs_mean)):
            d_next = (
                -a @ (h_z - model.observation_jacobian(x_next, w))
                + 0.5 * np.einsum("i,ic,i->c", a, d_var[w], a)
                - 0.5 * (inv_var[w] @ d_var[w])
            )
            d_loglik[w] = d_next @ d_succ[z]
        if model.dynamics_noise is not None:
            for w, a in enumerate((x_next - succ) / model.dynamics_noise):
                d_loglik[w] -= a @ (d_succ[z] - d_succ[w])

        d_joint = np.empty((nz, ns + nu))  # d(beta + L) / d(x, beta, u)
        d_joint[:, :n] = d_loglik[:, :n]
        d_joint[:, n:ns] = np.eye(nz)
        d_joint[:, ns:] = d_loglik[:, n:]
        jacs[z, n:] = log_posterior_jacobian(beta + loglik, d_joint)
    return jacs


def _expected_q(cost, beta, jacs, value_models):
    """Q-expansion over z = (x, beta, u) of a step whose branch w, weighted
    by b_w = softmax(beta)_w, moves to a successor with Jacobian F_w = jacs[w]
    and value model V_w = value_models[w]:

        Q = C + sum_w [b_w F_w^T V_w F_w + V_w^0 d2b_w
                       + db_w (x) F_w^T v_w + F_w^T v_w (x) db_w],

    with (c0, c, C) = `cost` the step's `_cost_expansion` and V_w^0 the
    successor's cost-to-go. Returns (q0, q, Q, expected child dv).
    """
    c0, c, big_c = cost
    ns = jacs[0].shape[0]
    n = ns - beta.size
    p, jac, hess = softmax_derivatives(beta)
    ctg = np.array([vm.cost_to_go for vm in value_models])
    succ_grads = np.array([f.T @ vm.v_s for f, vm in zip(jacs, value_models)])
    q = c + p @ succ_grads
    q[n:ns] += jac @ ctg
    big_q = big_c + sum(
        p_w * (f.T @ vm.v_ss @ f) for p_w, f, vm in zip(p, jacs, value_models)
    )
    cross = jac @ succ_grads  # rows beta: sum_w db_w (x) F_w^T v_w
    big_q[n:ns] += cross
    big_q[:, n:ns] += cross.T
    big_q[n:ns, n:ns] += np.einsum("w,wab->ab", ctg, hess)
    dv = float(p @ np.array([vm.dv for vm in value_models]))
    return c0 + float(p @ ctg), q, big_q, dv


def _matvec(a, v):
    """a @ v over any leading axes: numpy's matrix-vector kernel per item
    (a vector of one node needs no reshape)."""
    return a @ v if v.ndim == 1 else (a @ v[..., None])[..., 0]


def _solve_gains(q0, q, big_q, dv_next, ns: int, reg):
    """Control update of one step from its Q-expansion over (s, u), s the
    first `ns` coordinates, of one node or of a stack of nodes (leading axes:
    numpy runs the same BLAS and LAPACK kernel per node, so each node's bits).

    Q is symmetrized, and Q_uu + reg, reg = lam I, factored by Cholesky
    (failure raises `BackwardFailureError`). With k = -Q_uu^-1 q_u and
    K = -Q_uu^-1 Q_us on that regularized Q_uu, the value model is
    v_s = q_s + Q_su k, v_ss = Q_ss + Q_su K and dv = k^T q_u / 2 plus the
    successors' dv.
    """
    big_q = 0.5 * (big_q + big_q.swapaxes(-1, -2))
    try:
        chol = np.linalg.cholesky(big_q[..., ns:, ns:] + reg)
    except np.linalg.LinAlgError:
        raise BackwardFailureError("Q_uu not positive definite")
    chol_inv = np.linalg.inv(chol)
    neg_inv_t = -chol_inv.swapaxes(-1, -2)
    q_u = q[..., ns:]
    half_k = _matvec(chol_inv, q_u)  # L^-1 q_u
    half_gain = chol_inv @ big_q[..., ns:, :ns]  # L^-1 Q_us
    k = _matvec(neg_inv_t, half_k)
    gain = neg_inv_t @ half_gain
    v_s = q[..., :ns] + _matvec(big_q[..., :ns, ns:], k)
    # Q_su K = -(L^-1 Q_us)^T (L^-1 Q_us), which keeps v_ss symmetric.
    v_ss = big_q[..., :ns, :ns] - half_gain.swapaxes(-1, -2) @ half_gain
    dv = 0.5 * _matvec(k[..., None, :], q_u)[..., 0] + dv_next
    return k, gain, QuadraticValueModel(dv=dv, v_s=v_s, v_ss=v_ss, cost_to_go=q0)


def optimize_control(cost, beta, jacs, child_value_models, reg):
    """Branch-step control update: the belief-weighted Q-expansion through
    the per-latent successors (dynamics -> observation -> belief update),
    with Jacobians `jacs` from `_branch_jacobians`, into the children's value
    models.

    `cost` is the step's `_cost_expansion`. Returns (k, K, value model at s).
    """
    q_terms = _expected_q(cost, beta, jacs, child_value_models)
    return _solve_gains(*q_terms, jacs[0].shape[0], reg)


def _insegment_step(cost, jac, next_vm: QuadraticValueModel, reg):
    """One DDP step within a segment, for one node or a level's stack of
    nodes: the successor (f(x, u), beta), with Jacobian `jac`, and its value
    model are shared by every latent, so q = c + F^T v' and
    Q = C + F^T V' F (`_expected_q` with one successor)."""
    c0, c, big_c = cost
    jac_t = jac.swapaxes(-1, -2)
    q = c + _matvec(jac_t, next_vm.v_s)
    big_q = big_c + jac_t @ next_vm.v_ss @ jac
    q0 = c0 + next_vm.cost_to_go
    return _solve_gains(q0, q, big_q, next_vm.dv, jac.shape[-2], reg)


_VALUE_FIELDS = ("dv", "v_s", "v_ss", "cost_to_go")


def _stack(parts, axis=0):
    """A level's per-node arrays, stacked along `axis`. A one-node level
    keeps its node's own, so a chain sweeps unstacked steps."""
    return parts[0] if len(parts) == 1 else np.array(parts).swapaxes(0, axis)


def _unstack(a, nodes: int, axis=0):
    """The per-node parts of `_stack` of `nodes` arrays."""
    return [a] if nodes == 1 else list(a.swapaxes(0, axis))


def _stack_value_models(vms: Sequence[QuadraticValueModel]) -> QuadraticValueModel:
    per_field = ([getattr(vm, f) for vm in vms] for f in _VALUE_FIELDS)
    return QuadraticValueModel(*map(_stack, per_field))


@dataclass(frozen=True)
class LevelLinearization:
    """What the backward pass reads of one tree level, none of which
    depends on lambda: the in-segment steps' `_cost_expansion` and
    Jacobians, stacked by `_stack` (steps, then nodes in `histories` order),
    and either each node's branch-step `_cost_expansion`, logits and
    `_branch_jacobians` (`branch_steps`) or the leaves' terminal value models."""

    histories: Tuple[HistoryPath, ...]
    cost: Tuple[np.ndarray, np.ndarray, np.ndarray]
    insegment_jacobians: np.ndarray
    branch_steps: Optional[List[Tuple[tuple, np.ndarray, np.ndarray]]] = None
    terminal: Optional[QuadraticValueModel] = None


def linearize(model: ProblemModel, tree: TrajectoryTree) -> Tuple[LevelLinearization, ...]:
    """Expand every node of `tree` for `backward_pass` to sweep at any lambda:
    running costs, in-segment dynamics, and the branch step's successors or
    the leaf's final cost. Every node of a level has the same segment length,
    so each level is stacked here once; one entry per level, root first."""
    nz = tree.num_latents
    levels = []
    node_levels = histories_by_level(nz, tree.num_segments)
    for depth, (m, hs) in enumerate(zip(tree.segment_lengths, node_levels)):
        leaf = depth == tree.num_segments - 1
        m_in = m if leaf else m - 1
        costs, jacs, ends = [], [], []
        for h in hs:
            xs, us, beta = tree.xs[h], tree.controls[h], tree.betas[h]
            cost = _cost_expansion(model, xs, us, beta)
            costs.append(tuple(c[:m_in] for c in cost))
            z_dyn = node_dynamics_latent(h, tree.beliefs[()])
            jacs.append(_insegment_jacobians(model, xs[:m_in], us[:m_in], z_dyn))
            if leaf:
                ends.append(terminal_value_model(model, xs[-1], beta))
            else:
                succ = np.array([tree.xs[h + (z,)][0] for z in range(nz)])
                branch = _branch_jacobians(model, xs[-1], beta, us[-1], succ)
                ends.append((tuple(c[-1] for c in cost), beta, branch))
        levels.append(
            LevelLinearization(
                hs,
                tuple(_stack(parts, 1) for parts in zip(*costs)),
                _stack(jacs, 1),
                branch_steps=None if leaf else ends,
                terminal=_stack_value_models(ends) if leaf else None,
            )
        )
    return tuple(levels)


def backward_pass(
    levels: Sequence[LevelLinearization],
    lam: float,
) -> Tuple[Dict[HistoryPath, NodeGains], Dict[HistoryPath, QuadraticValueModel]]:
    """Dynamic programming over a tree's `linearize` levels, deepest first.

    At a level above the leaves, each node's branch step combines its
    children's value models through the belief-weighted expansion; then the
    level's nodes take each in-segment step back through their segments
    together, as one stacked step. Raises `BackwardFailureError` when Q_uu
    cannot be made positive definite at the given regularization (the
    caller raises lambda and sweeps again over the same linearization).
    """
    ns, width = levels[0].insegment_jacobians.shape[-2:]
    reg = lam * np.eye(width - ns)
    gains: Dict[HistoryPath, NodeGains] = {}
    value_models: Dict[HistoryPath, QuadraticValueModel] = {}
    for level in reversed(levels):
        hs, (c0, c, big_c) = level.histories, level.cost
        jacs = level.insegment_jacobians
        vm = level.terminal
        # Gains (m, [nodes,] nu) and (m, [nodes,] nu, n + nz), laid out as `_stack`:
        # a branch step follows the in-segment steps.
        m = jacs.shape[0] + (vm is None)
        k = np.empty((m,) + jacs.shape[1:-2] + reg.shape[:1])
        K = np.empty(k.shape + (ns,))
        if vm is None:
            steps = (
                (cost, beta, b_jacs, [value_models[h + (z,)] for z in range(len(b_jacs))])
                for h, (cost, beta, b_jacs) in zip(hs, level.branch_steps)
            )
            k_b, K_b, vms = zip(*(optimize_control(*step, reg) for step in steps))
            k[-1], K[-1], vm = _stack(k_b), _stack(K_b), _stack_value_models(vms)
        for j in reversed(range(jacs.shape[0])):
            cost = (c0[j], c[j], big_c[j])
            k[j], K[j], vm = _insegment_step(cost, jacs[j], vm, reg)
        node_vms = zip(*(_unstack(getattr(vm, f), len(hs)) for f in _VALUE_FIELDS))
        node_gains = zip(_unstack(k, len(hs), 1), _unstack(K, len(hs), 1))
        for h, k_K, (dv, v_s, v_ss, ctg) in zip(hs, node_gains, node_vms):
            gains[h] = k_K
            value_models[h] = QuadraticValueModel(float(dv), v_s, v_ss, float(ctg))
    return gains, value_models


@dataclass
class SolveResult:
    tree: TrajectoryTree
    iterations: List[dict]
    converged: bool
    cost: float


def _zero_controls(segment_lengths, num_latents, control_dim):
    levels = zip(segment_lengths, histories_by_level(num_latents, len(segment_lengths)))
    return {h: np.zeros((m, control_dim)) for m, hs in levels for h in hs}


def solve(
    model: ProblemModel,
    x0,
    b0: Belief,
    config: SolverConfig,
    u_init: Optional[Dict[HistoryPath, np.ndarray]] = None,
) -> SolveResult:
    """Iterate forward and backward passes with backtracking line search.

    Terminates on relative cost improvement below `cost_tolerance`, a
    stationary control update (max |k| below `GRADIENT_TOLERANCE`),
    `max_iterations`, or an exhausted line search at the regularization cap;
    the last two return the best tree so far with `converged=False`. The
    returned tree carries the gains and value models of a backward pass on
    itself, with lambda escalated as far as `REGULARIZATION_MAX`; when even
    that fails it carries none.
    """
    seg = config.segment_lengths()
    if u_init is None:
        u_init = _zero_controls(seg, model.num_latents, model.control_dim)
    tree = forward_pass(model, x0, b0, u_init, None, None, 1.0, seg)
    cost = evaluate_tree_cost(model, tree)
    linearization = linearize(model, tree)
    lam = REGULARIZATION_INIT
    log: List[dict] = []
    converged = False
    stop = config.max_iterations < 1
    it = 0

    while True:
        # After the last iteration this is the backward pass of the returned
        # tree, so its gains and value models are not those of its parent.
        # A rejected step sweeps the same linearization again at a larger
        # lambda.
        step = _regularized_backward_pass(linearization, lam)
        if step is None:
            gains, vms = {}, {}
            break
        gains, vms, lam = step
        if stop:
            break
        it += 1
        grad_norm = max(float(np.max(np.abs(k))) for k, _ in gains.values())
        if grad_norm < GRADIENT_TOLERANCE:
            log.append(_log_row(it, cost, 0.0, lam, grad_norm))
            converged = True
            break

        accepted = None
        for alpha in ALPHA_SCHEDULE:
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
            lam *= REGULARIZATION_FACTOR
            log.append(_log_row(it, cost, 0.0, lam, grad_norm))
            stop = lam > REGULARIZATION_MAX or it == config.max_iterations
            continue

        alpha, tree, new_cost = accepted
        linearization = linearize(model, tree)
        rel = (cost - new_cost) / max(1.0, abs(cost))
        cost = new_cost
        lam = max(lam / 2.0, REGULARIZATION_MIN)
        log.append(_log_row(it, cost, alpha, lam, grad_norm))
        converged = rel < config.cost_tolerance
        stop = converged or it == config.max_iterations

    tree.gains, tree.value_models = gains, vms
    return SolveResult(tree, log, converged, cost)


def _regularized_backward_pass(linearization, lam):
    """`backward_pass` at `lam`, multiplying it by `REGULARIZATION_FACTOR`
    on failure. Returns (gains, value models, lam), or None once lam passes
    `REGULARIZATION_MAX`."""
    while True:
        try:
            gains, vms = backward_pass(linearization, lam)
            return gains, vms, lam
        except BackwardFailureError:
            lam *= REGULARIZATION_FACTOR
            if lam > REGULARIZATION_MAX:
                return None


def _log_row(iteration, cost, alpha, lam, gradient_norm):
    return {
        "iteration": iteration,
        "cost": float(cost),
        "alpha": float(alpha),
        "lambda": float(lam),
        "gradient_norm": float(gradient_norm),
    }
