"""Seeded benchmark inputs: group-buying populations and open-loop request streams.

The benchmark owns its inputs.  Everything here is plain numpy driven by
the ``--seed`` argument, so a change to the program under test cannot
change what it is fed; :func:`digest` hashes the generated arrays so two
runs (on two commits) can show that they shared inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

BASELINE = 0
BURST = 1
PHASE_NAMES = ("baseline", "burst")

#: Latent factors behind the population's users and items.
LATENT_DIM = 8
#: Zipf exponent of item popularity: a long tail, as in the paper's Beibei data.
ITEM_EXPONENT = 1.0
#: Items drawn by popularity per behavior; the initiator's best match by
#: affinity is bought, so the data carries structure a model can learn.
CANDIDATES = 32
#: Random users each user is compared with; the most similar become friends.
FRIEND_CANDIDATES = 16
FRIENDS_PER_USER = 3


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Normalised Zipf weights ``1 / rank**exponent`` over ``n`` ranks."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


@dataclass(frozen=True)
class Population:
    """Behaviors and friendships as parallel arrays (what the program is fed)."""

    num_users: int
    num_items: int
    initiators: np.ndarray
    items: np.ndarray
    thresholds: np.ndarray
    participant_counts: np.ndarray
    participants: np.ndarray
    social_pairs: np.ndarray

    def participant_lists(self) -> List[np.ndarray]:
        ends = np.cumsum(self.participant_counts)
        return np.split(self.participants, ends[:-1])

    def arrays(self) -> Sequence[np.ndarray]:
        return (
            self.initiators,
            self.items,
            self.thresholds,
            self.participant_counts,
            self.participants,
            self.social_pairs,
        )


def make_population(seed: int, num_users: int, num_items: int, num_behaviors: int) -> Population:
    """A population with learnable structure.

    Users and items get latent vectors.  Initiators are drawn by a Zipf
    activity law; each behavior's item is the best of ``CANDIDATES``
    popularity-drawn items by affinity plus Gumbel noise, so a model can
    learn who buys what.  Friendships prefer similar users, and
    participants are friends of the initiator; a behavior succeeds when
    its participants reach the item's threshold.
    """
    rng = np.random.default_rng([seed, 1])
    users = rng.normal(size=(num_users, LATENT_DIM))
    item_vectors = rng.normal(size=(num_items, LATENT_DIM))
    activity = zipf_weights(num_users, 0.8)[rng.permutation(num_users)]
    popularity = zipf_weights(num_items, ITEM_EXPONENT)[rng.permutation(num_items)]

    initiators = rng.choice(num_users, size=num_behaviors, p=activity)
    drawn = rng.choice(num_items, size=(num_behaviors, CANDIDATES), p=popularity)
    affinity = np.einsum("bd,bcd->bc", users[initiators], item_vectors[drawn])
    affinity += rng.gumbel(size=affinity.shape)
    items = drawn[np.arange(num_behaviors), affinity.argmax(axis=1)]

    # Homophilous friendships: each user links to its most similar users
    # among a random candidate set.
    pool = rng.integers(0, num_users - 1, size=(num_users, FRIEND_CANDIDATES))
    pool += pool >= np.arange(num_users)[:, None]  # never the user itself
    similarity = np.einsum("ud,ucd->uc", users, users[pool])
    best = np.argsort(-similarity, axis=1, kind="stable")[:, :FRIENDS_PER_USER]
    friends = np.take_along_axis(pool, best, axis=1)
    pairs = np.column_stack([np.repeat(np.arange(num_users), FRIENDS_PER_USER), friends.ravel()])
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)

    adjacency: List[List[int]] = [[] for _ in range(num_users)]
    for a, b in pairs.tolist():
        adjacency[a].append(b)
        adjacency[b].append(a)
    wanted = rng.integers(0, 4, size=num_behaviors)
    thresholds = rng.integers(1, 4, size=num_behaviors)
    chosen: List[np.ndarray] = []
    for initiator, count in zip(initiators.tolist(), wanted.tolist()):
        circle = adjacency[initiator]
        take = min(count, len(circle))
        chosen.append(rng.choice(circle, size=take, replace=False) if take else np.empty(0, np.int64))
    counts = np.asarray([block.size for block in chosen], dtype=np.int64)
    flat = np.concatenate(chosen).astype(np.int64) if counts.sum() else np.empty(0, np.int64)
    return Population(
        num_users=num_users,
        num_items=num_items,
        initiators=initiators.astype(np.int64),
        items=items.astype(np.int64),
        thresholds=thresholds.astype(np.int64),
        participant_counts=counts,
        participants=flat,
        social_pairs=pairs.astype(np.int64),
    )


@dataclass(frozen=True)
class Stream:
    """An open-loop schedule: request ``i`` is due ``arrivals[i]`` seconds in."""

    arrivals: np.ndarray
    users: np.ndarray
    models: np.ndarray
    phases: np.ndarray
    model_names: Sequence[str]

    def __len__(self) -> int:
        return int(self.arrivals.size)

    def model_of(self, index: int) -> str:
        return self.model_names[int(self.models[index])]

    def sent(self) -> Dict[str, int]:
        return {name: int(np.sum(self.phases == code)) for code, name in enumerate(PHASE_NAMES)}

    def repeat_frac(self) -> float:
        """Share of requests whose (model, user) pair was asked before."""
        keys = self.models.astype(np.int64) * (int(self.users.max()) + 1) + self.users
        _, first = np.unique(keys, return_index=True)
        return 1.0 - first.size / max(keys.size, 1)

    def arrays(self) -> Sequence[np.ndarray]:
        return (self.arrivals, self.users, self.models, self.phases)


def make_stream(
    seed: int,
    num_users: int,
    model_shares: Dict[str, float],
    rate: float,
    burst_multiplier: float,
    baseline_seconds: float,
    burst_seconds: float,
    user_exponent: float,
    diurnal_amplitude: float = 0.3,
) -> Stream:
    """A diurnal baseline followed by one flash-sale burst plateau.

    Arrivals are a seeded inhomogeneous Poisson process (thinning): the
    baseline rate swings ``rate * (1 ± diurnal_amplitude)`` over one
    compressed day, and the burst holds ``rate * burst_multiplier``.
    Users follow a Zipf law with ``user_exponent`` (0 gives uniform
    users); models are routed by ``model_shares``.
    """
    rng = np.random.default_rng([seed, 2])
    total = baseline_seconds + burst_seconds
    peak = rate * max(1.0 + diurnal_amplitude, burst_multiplier)
    candidates = np.cumsum(rng.exponential(1.0 / peak, size=int(peak * total * 1.2) + 64))
    while candidates[-1] < total:  # astronomically unlikely, but never short
        more = candidates[-1] + np.cumsum(rng.exponential(1.0 / peak, size=1024))
        candidates = np.concatenate([candidates, more])
    candidates = candidates[candidates < total]
    in_burst = candidates >= baseline_seconds
    diurnal = rate * (1.0 + diurnal_amplitude * np.sin(2.0 * np.pi * candidates / baseline_seconds))
    local_rate = np.where(in_burst, rate * burst_multiplier, diurnal)
    keep = rng.random(candidates.size) < local_rate / peak
    arrivals = candidates[keep]
    phases = np.where(arrivals >= baseline_seconds, BURST, BASELINE).astype(np.int8)
    weights = zipf_weights(num_users, user_exponent)[rng.permutation(num_users)]
    users = rng.choice(num_users, size=arrivals.size, p=weights).astype(np.int64)
    names = list(model_shares)
    shares = np.asarray([model_shares[name] for name in names], dtype=np.float64)
    models = rng.choice(len(names), size=arrivals.size, p=shares / shares.sum()).astype(np.int8)
    return Stream(arrivals=arrivals, users=users, models=models, phases=phases, model_names=names)


def digest(*groups: Sequence[np.ndarray]) -> str:
    """A short SHA-256 over the generated arrays, in order."""
    hasher = hashlib.sha256()
    for group in groups:
        for array in group:
            contiguous = np.ascontiguousarray(array)
            hasher.update(str((contiguous.dtype.str, contiguous.shape)).encode())
            hasher.update(contiguous.tobytes())
    return hasher.hexdigest()[:16]
