"""Peer churn: incremental joins (section 5.3) and failure recovery.

Demonstrates that query answers stay exact as peers come and go, and
that joins are incremental (the super-peer merges only the newcomer's
list against its existing store).

Run with:  python examples/churn_and_failures.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    PointSet,
    Query,
    SuperPeerNetwork,
    Variant,
    execute_query,
    fail_peer,
    join_peer,
    subspace_skyline_points,
)


def verify_exact(network: SuperPeerNetwork, subspace) -> int:
    query = Query(subspace=subspace, initiator=network.topology.superpeer_ids[0])
    answer = execute_query(network, query, Variant.RTPM)
    truth = subspace_skyline_points(network.all_points(), subspace)
    assert answer.result_ids == truth.id_set(), "distributed answer diverged!"
    return len(answer.result)


def main() -> None:
    rng = np.random.default_rng(99)
    network = SuperPeerNetwork.build(
        n_peers=60, points_per_peer=40, dimensionality=5, seed=11
    )
    subspace = (0, 2, 4)
    print(f"initial network: {network.n_peers} peers; |SKY_U| = {verify_exact(network, subspace)}")

    # --- joins -------------------------------------------------------
    next_id = 100_000
    for step in range(3):
        superpeer = network.topology.superpeer_ids[step % network.n_superpeers]
        data = PointSet(rng.random((40, 5)), np.arange(next_id, next_id + 40))
        next_id += 40
        event = join_peer(network, superpeer, data)
        print(
            f"join: peer {event.peer_id} -> super-peer {superpeer}; uploaded "
            f"{event.peer_skyline_delta}/40 points (its ext-skyline); incremental merge "
            f"touched {event.examined} points; "
            f"store now {network.superpeers[superpeer].store_size}"
        )
        print(f"  queries still exact; |SKY_U| = {verify_exact(network, subspace)}")

    # --- failures ----------------------------------------------------
    victims = list(network.peers)[:3]
    for victim in victims:
        event = fail_peer(network, victim)
        print(
            f"failure: peer {victim} left super-peer {event.superpeer_id}; "
            f"withdrawn on the {event.path} path ({event.examined} points re-tested, store now "
            f"{network.superpeers[event.superpeer_id].store_size})"
        )
        print(f"  queries still exact; |SKY_U| = {verify_exact(network, subspace)}")

    print(f"\nfinal network: {network.n_peers} peers — all answers stayed exact throughout.")


if __name__ == "__main__":
    main()
