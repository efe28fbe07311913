"""GroupBuyingDataset container."""

import numpy as np
import pytest

from repro.data import (
    GroupBuyingBehavior,
    GroupBuyingDataset,
    SocialEdge,
    observed_item_matrix,
    observed_positions,
)


class TestValidation:
    def test_out_of_range_initiator(self):
        with pytest.raises(ValueError):
            GroupBuyingDataset(2, 2, [GroupBuyingBehavior(5, 0, ())], [])

    def test_out_of_range_item(self):
        with pytest.raises(ValueError):
            GroupBuyingDataset(2, 2, [GroupBuyingBehavior(0, 5, ())], [])

    def test_out_of_range_participant(self):
        with pytest.raises(ValueError):
            GroupBuyingDataset(2, 2, [GroupBuyingBehavior(0, 0, (9,))], [])

    def test_out_of_range_social_edge(self):
        with pytest.raises(ValueError):
            GroupBuyingDataset(2, 2, [], [SocialEdge(0, 7)])

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            GroupBuyingDataset(0, 1, [], [])


class TestDerivedViews:
    def test_success_failure_split(self, tiny_dataset):
        assert len(tiny_dataset.successful_behaviors) == 4
        assert len(tiny_dataset.failed_behaviors) == 2
        assert tiny_dataset.num_behaviors == 6

    def test_social_matrix_symmetric_binary(self, tiny_dataset):
        matrix = tiny_dataset.social_matrix().toarray()
        assert np.allclose(matrix, matrix.T)
        assert set(np.unique(matrix)) <= {0.0, 1.0}
        assert matrix[0, 1] == 1.0 and matrix[0, 5] == 0.0

    def test_friend_lists(self, tiny_dataset):
        friends = tiny_dataset.friend_lists()
        assert set(friends[0]) == {1, 2}
        assert set(friends[4]) == {3, 5}
        assert tiny_dataset.friends_of(5).tolist() == [4]

    def test_initiator_item_pairs(self, tiny_dataset):
        pairs = tiny_dataset.initiator_item_pairs()
        assert pairs.shape == (6, 2)
        assert [0, 0] in pairs.tolist()

    def test_participant_item_pairs(self, tiny_dataset):
        pairs = tiny_dataset.participant_item_pairs()
        total_participants = sum(len(b.participants) for b in tiny_dataset.behaviors)
        assert pairs.shape == (total_participants, 2)

    def test_user_item_set_includes_participants(self, tiny_dataset):
        with_participants = tiny_dataset.user_item_set(include_participants=True)
        only_initiators = tiny_dataset.user_item_set(include_participants=False)
        assert 0 in with_participants[2]  # user 2 joined item 0
        assert 5 not in only_initiators  # user 5 never initiated

    def test_items_of_initiator(self, tiny_dataset):
        assert tiny_dataset.items_of_initiator(0) == {0, 2}

    def test_behaviors_of_initiator(self, tiny_dataset):
        grouped = tiny_dataset.behaviors_of_initiator()
        assert len(grouped[0]) == 2
        assert len(grouped[2]) == 1


class TestSubsetting:
    def test_with_behaviors_keeps_universe(self, tiny_dataset):
        subset = tiny_dataset.with_behaviors(tiny_dataset.behaviors[:2], name="subset")
        assert subset.num_users == tiny_dataset.num_users
        assert subset.num_behaviors == 2
        assert subset.num_social_edges == tiny_dataset.num_social_edges
        assert subset.name == "subset"

    def test_len_and_repr(self, tiny_dataset):
        assert len(tiny_dataset) == 6
        assert "GroupBuyingDataset" in repr(tiny_dataset)

    def test_from_arrays_round_trip(self, tiny_dataset):
        rebuilt = GroupBuyingDataset.from_arrays(
            num_users=tiny_dataset.num_users,
            num_items=tiny_dataset.num_items,
            initiators=[b.initiator for b in tiny_dataset.behaviors],
            items=[b.item for b in tiny_dataset.behaviors],
            participant_lists=[b.participants for b in tiny_dataset.behaviors],
            thresholds=[b.threshold for b in tiny_dataset.behaviors],
            social_pairs=[e.as_tuple() for e in tiny_dataset.social_edges],
        )
        assert rebuilt.num_behaviors == tiny_dataset.num_behaviors
        assert rebuilt.behaviors == tiny_dataset.behaviors


class TestObservedPositions:
    @pytest.fixture()
    def observed(self):
        interactions = {0: {1, 3}, 2: {0}, 3: {4, 2, 1}, 5: set()}
        return observed_item_matrix(interactions, num_users=6, num_items=5)

    @pytest.mark.parametrize(
        "users", [[3], [1], [0, 2, 3], [3, 0, 3], [1, 5, 4], []], ids=str
    )
    def test_positions_are_the_dense_rows_true_cells(self, observed, users):
        users = np.asarray(users, dtype=np.int64)
        rows, items = observed_positions(observed, users)
        assert (np.diff(rows) >= 0).all()
        mask = np.zeros((users.size, observed.shape[1]), dtype=bool)
        mask[rows, items] = True
        assert np.array_equal(mask, observed[users].toarray())
        assert rows.size == observed[users].nnz
