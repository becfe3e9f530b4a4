"""Seeded model generators and the ``.POMDP`` writer for the pipeline benchmark.

``lifted_clones`` builds the rank-``k`` models the coefficient grid is
meant for: ``n`` hidden states that are behavioural clones of a ``k``-state
random base, so the observable process (and the planner's result) is the
base's while the file, and the parse, grow with ``n``.
"""

import dataclasses

import numpy as np

from psrplan.model import PomdpModel
from psrplan.zoo import random_pomdp


def case_seed(seed, workload_tag, index):
    """Model seed for one case, derived from the workload seed.

    It is a hashed 32-bit value, so in practice never one of the test
    suite's small fixed seeds (below 1000).
    """
    ss = np.random.SeedSequence([int(seed), int(workload_tag), int(index)])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def clone_base(k, seed, discount, dirichlet):
    """The k-state random base model behind ``lifted_clones``."""
    return random_pomdp(k, 2, 2, 2, seed=seed, discount=discount, dirichlet=dirichlet)


def lifted_clones(n, k, seed, discount=0.9, dirichlet=1.0):
    """n hidden states, each a behavioural clone of one of k base states.

    State s has base type s mod k and emits signals like its type.  Its
    transition row splits the base row's mass for each successor type
    across that type's clones, with weights drawn per departing state and
    action; the initial belief splits the base belief the same way.  The
    observable process, its rank and every planner quantity computed from
    it are therefore those of ``clone_base(k, seed, discount, dirichlet)``.
    """
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    base = clone_base(k, seed, discount, dirichlet)
    rng = np.random.default_rng([seed, n])
    types = np.arange(n) % k
    split = rng.uniform(0.5, 1.5, size=(n, base.n_actions, n))
    start_split = rng.uniform(0.5, 1.5, size=n)
    for t in range(k):
        members = types == t
        split[:, :, members] /= split[:, :, members].sum(axis=2, keepdims=True)
        start_split[members] /= start_split[members].sum()
    model = PomdpModel(
        states=[f"s{i}" for i in range(n)],
        actions=list(base.actions),
        observations=list(base.observations),
        reward_values=base.reward_values.copy(),
        transition=base.transition[types][:, :, types] * split,
        signal_kernel=base.signal_kernel[types],
        discount=discount,
        initial_belief=base.initial_belief[types] * start_split,
    )
    model.validate()
    return model


def restarted(model, seed):
    """``model`` with its reward values and initial belief redrawn from ``seed``.

    The dynamics, and so the basis the planner discovers, stay the same.
    """
    rng = np.random.default_rng(seed)
    return dataclasses.replace(
        model,
        reward_values=np.sort(rng.uniform(0.0, 1.0, size=model.n_rewards)),
        initial_belief=rng.dirichlet(np.ones(model.n)),
    )


def _row(values):
    return " ".join(repr(float(v)) for v in values)


def pomdp_text(model):
    """Cassandra text for a model, one observation per (observation, reward).

    Signal (o, r) becomes observation ``z<o>_<r>`` carrying the fixed
    reward ``reward_values[r]``, so the parser recovers the same signal
    process.  Floats are written with ``repr`` and read back exactly.
    """
    nr = model.n_rewards
    obs = [f"z{o}_{r}" for o in range(model.n_observations) for r in range(nr)]
    lines = [
        f"discount: {float(model.discount)!r}",
        "values: reward",
        "states: " + " ".join(model.states),
        "actions: " + " ".join(model.actions),
        "observations: " + " ".join(obs),
        "start: " + _row(model.initial_belief),
        "",
    ]
    for kernel, key in ((model.transition, "T"), (model.signal_kernel, "O")):
        for a, act in enumerate(model.actions):
            for s, name in enumerate(model.states):
                lines.append(f"{key}: {act} : {name}")
                lines.append(_row(kernel[s, a]))
    for z, name in enumerate(obs):
        lines.append(f"R: * : * : * : {name} {float(model.reward_values[z % nr])!r}")
    return "\n".join(lines) + "\n"


def write_pomdp(model, path):
    """Write ``model`` to ``path`` as a ``.POMDP`` file; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pomdp_text(model))
    return path
