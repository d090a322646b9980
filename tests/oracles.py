"""Reference values for checking the solver and the simulator: the exact
long-run revenue of a fixed policy, and Eyal-Sirer SM1 selfish mining
("Majority is not Enough", arXiv:1311.0243) as a fixed MDP policy with its
closed-form relative revenue."""
import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import spsolve

from ng_incentives.mdp import ACTION_ORDER, Fork, MdpAction, MdpState


def policy_value(table, weights, actions: list[MdpAction]) -> float:
    """Exact long-run revenue ratio of a fixed policy, one action per state
    in table.states order, from the stationary distribution of the states
    it reaches from the start state table.states[0]."""
    n = len(table.states)
    rows = [ACTION_ORDER.index(a) * n + i for i, a in enumerate(actions)]
    reached = breadth_first_order(table.transition[rows], 0, return_predecessors=False)
    chain = table.transition[rows][reached][:, reached]
    # pi (P - I) = 0 with the first balance equation replaced by sum(pi) = 1.
    system = (chain.T - sparse.identity(len(reached))).tolil()
    system[0, :] = 1.0
    rhs = np.zeros(len(reached))
    rhs[0] = 1.0
    pi = spsolve(system.tocsc(), rhs)
    r_self, r_total = (r[rows][reached] for r in table.expected_rewards(weights))
    return float(pi @ r_self) / float(pi @ r_total)


def sm1_action(table, state: MdpState) -> MdpAction:
    """Eyal-Sirer SM1 as an MDP action; where the truncation boundary
    removes that action, override if possible, else adopt."""
    l_a, l_h, fork, _ = state
    if l_h > l_a:
        action = MdpAction.ADOPT
    elif l_a == l_h + 1 >= 2:
        action = MdpAction.OVERRIDE
    elif l_a == l_h >= 1 and fork == Fork.NO_TIE:
        action = MdpAction.MATCH
    else:
        action = MdpAction.WAIT
    available = table.actions(state)
    if action in available:
        return action
    return MdpAction.OVERRIDE if MdpAction.OVERRIDE in available else MdpAction.ADOPT


def sm1_revenue(alpha: float, gamma: float) -> float:
    """SM1's long-run share of key-block rewards."""
    return (
        alpha * (1 - alpha) ** 2 * (4 * alpha + gamma * (1 - 2 * alpha)) - alpha**3
    ) / (1 - alpha * (1 + (2 - alpha) * alpha))
