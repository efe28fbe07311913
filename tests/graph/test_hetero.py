"""HeteroGroupBuyingGraph construction from a dataset."""

import pickle

import numpy as np
import pytest

from repro.autograd import cache_transpose
from repro.data import GroupBuyingDataset
from repro.graph import BipartiteGraph, FriendshipGraph, HeteroGroupBuyingGraph, SharingGraph, build_hetero_graph


def propagation_matrices(graph):
    """Every matrix a GBGCN-family model reads from ``graph``, by name."""
    matrices = {"friendship": graph.friendship.normalized()}
    for view_name in ("initiator_view", "participant_view"):
        view = getattr(graph, view_name)
        matrices[f"{view_name}.user_to_item"] = view.user_to_item_propagation()
        matrices[f"{view_name}.item_to_user"] = view.item_to_user_propagation()
    matrices["sharing.outgoing"] = graph.sharing.outgoing_propagation()
    matrices["sharing.incoming"] = graph.sharing.incoming_propagation()
    for name in list(matrices):
        matrices[f"{name}.T"] = cache_transpose(matrices[name])
    return matrices


def rebuilt(dataset):
    """A new dataset instance with ``dataset``'s universe, behaviors and edges."""
    return GroupBuyingDataset(
        dataset.num_users, dataset.num_items, dataset.behaviors, dataset.social_edges, name=dataset.name
    )


class TestBuildHeteroGraph:
    def test_edge_counts_match_dataset(self, tiny_dataset, tiny_graph):
        # Initiator view: unique (initiator, item) pairs.
        expected_initiator_pairs = {(b.initiator, b.item) for b in tiny_dataset.behaviors}
        assert tiny_graph.initiator_view.num_edges == len(expected_initiator_pairs)
        # Participant view: unique (participant, item) pairs.
        expected_participant_pairs = {
            (p, b.item) for b in tiny_dataset.behaviors for p in b.participants
        }
        assert tiny_graph.participant_view.num_edges == len(expected_participant_pairs)

    def test_sharing_edges_are_initiator_to_participant(self, tiny_dataset, tiny_graph):
        dense = tiny_graph.sharing.matrix().toarray()
        for behavior in tiny_dataset.behaviors:
            for participant in behavior.participants:
                assert dense[behavior.initiator, participant] == 1.0

    def test_friendship_matches_social_edges(self, tiny_dataset, tiny_graph):
        assert tiny_graph.friendship.num_edges == tiny_dataset.num_social_edges

    def test_summary_keys(self, tiny_graph):
        summary = tiny_graph.summary()
        assert set(summary) == {
            "initiator_view_edges",
            "participant_view_edges",
            "sharing_edges",
            "friendship_edges",
        }

    def test_dimensions(self, tiny_dataset, tiny_graph):
        assert tiny_graph.num_users == tiny_dataset.num_users
        assert tiny_graph.num_items == tiny_dataset.num_items

    def test_repr(self, tiny_graph):
        assert "HeteroGroupBuyingGraph" in repr(tiny_graph)


class TestValidation:
    def test_mismatched_user_universe_raises(self):
        initiator = BipartiteGraph(np.array([[0, 0]]), num_users=3, num_items=2)
        participant = BipartiteGraph(np.array([[0, 0]]), num_users=4, num_items=2)
        sharing = SharingGraph([], num_users=3)
        friendship = FriendshipGraph([], num_users=3)
        with pytest.raises(ValueError):
            HeteroGroupBuyingGraph(initiator, participant, sharing, friendship)

    def test_mismatched_item_universe_raises(self):
        initiator = BipartiteGraph(np.array([[0, 0]]), num_users=3, num_items=2)
        participant = BipartiteGraph(np.array([[0, 0]]), num_users=3, num_items=5)
        with pytest.raises(ValueError):
            HeteroGroupBuyingGraph(
                initiator, participant, SharingGraph([], 3), FriendshipGraph([], 3)
            )

    def test_mismatched_sharing_users_raises(self):
        view = BipartiteGraph(np.array([[0, 0]]), num_users=3, num_items=2)
        with pytest.raises(ValueError):
            HeteroGroupBuyingGraph(view, view, SharingGraph([], 5), FriendshipGraph([], 3))


class TestGraphMemo:
    def test_one_graph_per_dataset_instance(self, tiny_dataset):
        assert build_hetero_graph(tiny_dataset) is build_hetero_graph(tiny_dataset)

    def test_new_instances_get_their_own_graph(self, tiny_dataset):
        graph = build_hetero_graph(tiny_dataset)
        assert build_hetero_graph(rebuilt(tiny_dataset)) is not graph
        subset = tiny_dataset.with_behaviors(tiny_dataset.behaviors[:3])
        assert build_hetero_graph(subset) is not graph
        assert build_hetero_graph(subset).initiator_view.num_edges == 3

    def test_memoized_matrices_equal_a_fresh_build(self, small_split):
        memoized = propagation_matrices(build_hetero_graph(small_split.train))
        fresh = propagation_matrices(build_hetero_graph(rebuilt(small_split.train)))
        assert len(memoized) == 14
        for name, matrix in memoized.items():
            other = fresh[name]
            assert matrix.shape == other.shape, name
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(matrix, part), getattr(other, part)), (name, part)

    def test_pickles_carry_no_graph(self, tiny_dataset):
        dataset = rebuilt(tiny_dataset)
        size = len(pickle.dumps(dataset))
        build_hetero_graph(dataset)
        payload = pickle.dumps(dataset)
        assert len(payload) == size
        copy = pickle.loads(payload)
        assert copy._hetero_graph_cache is None
        assert build_hetero_graph(copy) is not build_hetero_graph(dataset)
        assert build_hetero_graph(copy).summary() == build_hetero_graph(dataset).summary()
