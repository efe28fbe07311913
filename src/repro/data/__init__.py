"""Group-buying data model, synthetic Beibei-like generator and utilities."""

from .schema import GroupBuyingBehavior, SocialEdge
from .dataset import GroupBuyingDataset, observed_item_matrix, observed_positions
from .synthetic import (
    BeibeiLikeConfig,
    BeibeiLikeGenerator,
    calibrate_join_bias,
    generate_dataset,
    success_probability,
)
from .scenario import (
    PopulationGenerator,
    ScenarioConfig,
    SyntheticPopulation,
    fit_zipf_exponent,
    generate_population,
)
from .splits import DatasetSplit, leave_one_out_split
from .negative_sampling import EvaluationCandidateSampler, TrainingNegativeSampler
from .samplers import PopularityNegativeSampler, item_popularity
from .converters import (
    FixedGroupDataset,
    InteractionConversion,
    interaction_matrix,
    to_fixed_groups,
    to_user_item_interactions,
)
from .stats import DatasetStatistics, compute_statistics
from .io import load_dataset, save_dataset
from .beibei_format import load_beibei_format, save_beibei_format
from .validation import ValidationIssue, ValidationReport, assert_valid, validate_dataset
from .transforms import (
    IdMapping,
    filter_min_interactions,
    remap_ids,
    restrict_to_users,
    subsample_behaviors,
)

__all__ = [
    "GroupBuyingBehavior",
    "SocialEdge",
    "GroupBuyingDataset",
    "BeibeiLikeConfig",
    "BeibeiLikeGenerator",
    "calibrate_join_bias",
    "success_probability",
    "generate_dataset",
    "ScenarioConfig",
    "SyntheticPopulation",
    "PopulationGenerator",
    "generate_population",
    "fit_zipf_exponent",
    "observed_item_matrix",
    "observed_positions",
    "DatasetSplit",
    "leave_one_out_split",
    "EvaluationCandidateSampler",
    "TrainingNegativeSampler",
    "PopularityNegativeSampler",
    "item_popularity",
    "FixedGroupDataset",
    "InteractionConversion",
    "interaction_matrix",
    "to_fixed_groups",
    "to_user_item_interactions",
    "DatasetStatistics",
    "compute_statistics",
    "load_dataset",
    "save_dataset",
    "load_beibei_format",
    "save_beibei_format",
    "ValidationIssue",
    "ValidationReport",
    "assert_valid",
    "validate_dataset",
    "IdMapping",
    "filter_min_interactions",
    "remap_ids",
    "restrict_to_users",
    "subsample_behaviors",
]
