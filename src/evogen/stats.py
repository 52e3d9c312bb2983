"""Metric series over a generated history: feature counts and LoC per variant.

A variant's LoC is the line breaks of its repository's kept render
(``history._repo_files``), so a replayed revision renders only the
repositories its operation owned.

Two features in different repositories count as one distinct feature when
they share a clone lineage, i.e. both descend (by cloning) from the same
introducing operation; the lineage tag travels with every feature copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import EvogenError
from .history import _repo_files, replay_history
from .model import AssetTree


def _nonroot_features(tree: AssetTree):
    for repo in tree.repositories:
        if repo.feature_model is None:
            continue
        for feature in repo.feature_model.root.iter_features():
            if feature is not repo.feature_model.root:
                yield repo, feature


def distinct_feature_count(tree: AssetTree) -> int:
    return len({f.origin or id(f) for _, f in _nonroot_features(tree)})


def total_feature_count(tree: AssetTree) -> int:
    return sum(1 for _ in _nonroot_features(tree))


def loc_per_variant(tree: AssetTree) -> dict[str, int]:
    """Lines per repository: the line breaks of its kept render."""
    return {repo.name: sum(data.count(b"\n") for data in _repo_files(repo).values()
                           if data)
            for repo in tree.repositories}


def total_loc(tree: AssetTree) -> int:
    return sum(loc_per_variant(tree).values())


def tree_metric(tree: AssetTree, name: str) -> int:
    if name == "distinctFeatureCount":
        return distinct_feature_count(tree)
    if name == "totalFeatureCount":
        return total_feature_count(tree)
    if name == "totalLoc":
        return total_loc(tree)
    if name == "repositoryCount":
        return len(tree.repositories)
    raise EvogenError(f"unknown metric {name!r}")


@dataclass
class MetricRow:
    revision: int
    distinct_features: int
    total_features: int
    repository_count: int
    loc_per_variant: dict[str, int]

    @property
    def total_loc(self) -> int:
        return sum(self.loc_per_variant.values())


def metric_row(tree: AssetTree) -> MetricRow:
    return MetricRow(
        revision=tree.revision,
        distinct_features=distinct_feature_count(tree),
        total_features=total_feature_count(tree),
        repository_count=len(tree.repositories),
        loc_per_variant=loc_per_variant(tree),
    )


def compute_metrics(out_dir: Path, adapter) -> list[MetricRow]:
    """One row per committed revision, recovered by replaying the ledger."""
    return [metric_row(tree) for _, tree in replay_history(Path(out_dir), adapter)]


def rows_to_csv(rows: list[MetricRow]) -> str:
    lines = ["revision,distinct_features,total_features,repository_count,"
             "total_loc,loc_per_variant"]
    for row in rows:
        per_variant = "|".join(f"{k}:{v}" for k, v in sorted(row.loc_per_variant.items()))
        lines.append(f"{row.revision},{row.distinct_features},{row.total_features},"
                     f"{row.repository_count},{row.total_loc},{per_variant}")
    return "\n".join(lines) + "\n"


def rows_to_long(rows: list[MetricRow]) -> str:
    """Plot-ready long format: revision,metric,key,value."""
    lines = ["revision,metric,key,value"]
    for row in rows:
        lines.append(f"{row.revision},distinct_features,,{row.distinct_features}")
        lines.append(f"{row.revision},total_features,,{row.total_features}")
        lines.append(f"{row.revision},repository_count,,{row.repository_count}")
        for repo, loc in sorted(row.loc_per_variant.items()):
            lines.append(f"{row.revision},loc,{repo},{loc}")
    return "\n".join(lines) + "\n"
