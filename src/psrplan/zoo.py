"""Random-model generator for tests and benchmarks."""

import numpy as np

from .model import PomdpModel


def random_pomdp(
    n: int,
    n_actions: int,
    n_observations: int,
    n_rewards: int,
    seed: int,
    discount: float = 0.9,
    dirichlet: float = 1.0,
) -> PomdpModel:
    """Dense random model; all kernels drawn from a symmetric Dirichlet."""
    rng = np.random.default_rng(seed)
    transition = rng.dirichlet([dirichlet] * n, size=(n, n_actions))
    n_sig = n_observations * n_rewards
    signal_kernel = rng.dirichlet([dirichlet] * n_sig, size=(n, n_actions))
    if n_rewards == 1:
        reward_values = np.array([float(rng.uniform(0, 1))])
    else:
        reward_values = np.sort(rng.uniform(0, 1, size=n_rewards))
    initial_belief = rng.dirichlet([dirichlet] * n)
    model = PomdpModel(
        states=[f"s{i}" for i in range(n)],
        actions=[f"a{i}" for i in range(n_actions)],
        observations=[f"o{i}" for i in range(n_observations)],
        reward_values=reward_values,
        transition=transition,
        signal_kernel=signal_kernel,
        discount=discount,
        initial_belief=initial_belief,
    )
    model.validate()
    return model
