"""Fuzzy hierarchical agglomerative clustering of corridor sensors.

The distance table links only consecutive mainline sensors (it is built over
`panel.neighbor_pairs`), so the sensors form a path, every cluster is a run
of it, and any other edge (a skip edge, a ramp, a self pair) raises
ValueError.  One float array holds the distance across each boundary between
neighbouring runs, `inf` where the table has no edge.  That edge alone joins
two runs, so single linkage (point to cluster) and complete linkage (cluster
to cluster) both read it, and a merge just deletes its boundary.

Each step merges across the smallest boundary.  `np.argmin` takes the
leftmost on ties, which is the order of a search over all pairs that breaks
ties on the elements' lowest sensor indices, because run starts rise along
the path.  Merging stops when the mean milepost span of the clusters (oldest
first, so that `np.mean` sums in a fixed order) would exceed the limit, or
when no finite boundary remains.

Memberships are read once from the final clusters.  A sensor ending a
cluster that faces another across a finite boundary joins that one with

    mu(u, c) = d_min / (d(u, c) + d_min)

d_min being the smaller of its distances to its inner neighbour and across
the boundary.  Sensors never merged become singleton clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dtw import DistanceTable
from .errors import DataError, FormatError, UnknownSensorError
from .files import read_table, write_table
from .panel import SensorKind, SensorMeta


@dataclass
class MembershipMatrix:
    """Graded sensor-to-cluster memberships plus the crisp lists they induce.

    `clusters[c]` lists the sensors whose membership in cluster `c` reached
    the clustering threshold when the matrix was built; a sensor's home
    cluster always has membership 1.  `merge_log` holds the agglomeration's
    merges as (step, a, b, distance), empty for a matrix read from a file.
    """

    memberships: dict[tuple[int, int], float]
    clusters: list[list[int]]
    merge_log: list[tuple[int, str, str, float]] = field(default_factory=list)

    def membership(self, sensor: int, cluster: int) -> float:
        return self.memberships.get((sensor, cluster), 0.0)


def fuzzy_update(d_current: float, all_cluster_distances) -> float:
    """Membership of an assigned point in a cluster at distance `d_current`.

    The membership is d_min / (d_current + d_min), d_min being the smallest
    of `all_cluster_distances` (None entries are skipped).  A point at
    distance 0 from its nearest cluster but not from this one gets 0; the
    degenerate all-zero case gets 1.
    """
    dists = [d for d in all_cluster_distances if d is not None]
    if not dists:
        raise ValueError("no cluster distances available")
    if min(dists) < 0 or d_current < 0:
        raise ValueError("distances must be nonnegative")
    d_min = min(dists)
    if d_current + d_min == 0.0:
        return 1.0
    return d_min / (d_current + d_min)


def _span(members, positions) -> float:
    pos = [positions[i] for i in members]
    return max(pos) - min(pos)


class ClusterState:
    """The path's runs, left to right, and the distances between them.

    `gaps[r]` is the distance between runs r and r+1, `bounds` keeps the
    distances across the path's original boundaries, and `spans` each
    cluster's milepost span by its first sensor, oldest cluster first.
    """

    def __init__(self, base: DistanceTable, positions: dict[int, float]):
        self.positions = positions
        self.runs = [[p] for p in sorted(positions)]
        rank = {run[0]: r for r, run in enumerate(self.runs)}
        self.gaps = np.full(max(len(self.runs) - 1, 0), np.inf)
        for i, j in base.pairs():
            if i not in rank or rank.get(j) != rank[i] + 1:
                raise ValueError(f"distance table edge ({i}, {j}) does not join two "
                                 f"consecutive mainline sensors")
            self.gaps[rank[i]] = base.get(i, j)
        self.bounds: list[float] = self.gaps.tolist()
        self.spans: dict[int, float] = {}
        self.merge_log: list[tuple[int, str, str, float]] = []

    def mean_span_after(self, r: int) -> float:
        left, right = self.runs[r], self.runs[r + 1]
        spans = [s for start, s in self.spans.items() if start not in (left[0], right[0])]
        spans.append(_span(left + right, self.positions))
        return float(np.mean(spans))

    def merge(self, r: int) -> None:
        left, right = self.runs[r], self.runs.pop(r + 1)
        self.merge_log.append((len(self.merge_log) + 1, "+".join(map(str, left)),
                               "+".join(map(str, right)), float(self.gaps[r])))
        self.spans.pop(left[0], None)
        self.spans.pop(right[0], None)
        self.runs[r] = left + right
        self.spans[left[0]] = _span(self.runs[r], self.positions)
        self.gaps = np.delete(self.gaps, r)


def fhc(distances: DistanceTable, meta, max_avg_span_miles: float = 10.0,
        threshold: float = 0.1) -> MembershipMatrix:
    """Cluster mainline sensors over a table of consecutive-sensor distances.

    Merges the closest neighbouring runs (the leftmost on ties) until the mean
    cluster span would exceed `max_avg_span_miles` or no edge is left; sensors
    never merged follow as singleton clusters.  A sensor ending a cluster
    joins the neighbouring cluster's crisp list when its membership there
    (`fuzzy_update`) reaches `threshold`.
    """
    positions = {i: s.position for i, s in enumerate(meta)
                 if s.kind == SensorKind.MAINLINE}
    state = ClusterState(distances, positions)
    while len(state.gaps) and state.gaps.min() < np.inf:
        r = int(np.argmin(state.gaps))
        if state.mean_span_after(r) > max_avg_span_miles:
            break
        state.merge(r)

    runs, bounds = state.runs, state.bounds
    order = sorted(range(len(runs)), key=lambda k: len(runs[k]) == 1)  # clusters first
    number = {k: c for c, k in enumerate(order)}
    memberships = {(u, number[k]): 1.0 for k in order for u in runs[k]}
    crisp = [list(runs[k]) for k in order]
    end = 0  # path rank of the right run's first sensor
    for k, (left, right) in enumerate(zip(runs, runs[1:])):
        end += len(left)
        d = bounds[end - 1]
        if len(left) > 1 and len(right) > 1 and d < math.inf:
            for u, c, inner in ((left[-1], k + 1, bounds[end - 2]), (right[0], k, bounds[end])):
                mu = memberships[(u, number[c])] = fuzzy_update(d, [inner, d])
                if mu >= threshold:
                    crisp[number[c]].append(u)
    return MembershipMatrix(memberships, [sorted(c) for c in crisp], state.merge_log)


def attach_ramps(mm: MembershipMatrix, meta) -> MembershipMatrix:
    """Attach ramp sensors to the home cluster of the closest mainline sensor."""
    mainline = [(i, s) for i, s in enumerate(meta) if s.kind == SensorKind.MAINLINE]
    ramps = [(i, s) for i, s in enumerate(meta) if s.kind != SensorKind.MAINLINE]
    if not ramps:
        return mm
    if not mainline:
        raise DataError("cannot attach ramps: no mainline sensors")
    home: dict[int, int] = {}
    for c, members in enumerate(mm.clusters):
        for u in members:
            if mm.membership(u, c) == 1.0 and u not in home:
                home[u] = c
    memberships = dict(mm.memberships)
    clusters = [list(members) for members in mm.clusters]
    for ri, rs in ramps:
        nearest = min(mainline, key=lambda it: (abs(it[1].position - rs.position), it[0]))[0]
        target = home[nearest]
        memberships[(ri, target)] = 1.0
        if ri not in clusters[target]:
            clusters[target] = sorted(clusters[target] + [ri])
    return MembershipMatrix(memberships, clusters, list(mm.merge_log))


CLUSTER_HEADER = ["cluster_id", "sensor_id", "membership"]


def clusters_to_csv(mm: MembershipMatrix, sensors: list[SensorMeta], path: str) -> None:
    write_table(path, CLUSTER_HEADER, (((c,) * len(members), [sensors[u].id for u in members],
                                        [mm.membership(u, c) for u in members])
                                       for c, members in enumerate(mm.clusters)))


def merge_log_to_csv(mm: MembershipMatrix, path: str) -> None:
    write_table(path, ["step", "a", "b", "distance"], [tuple(zip(*mm.merge_log))])


def clusters_from_csv(path: str, sensors: list[SensorMeta]) -> MembershipMatrix:
    """Rebuild a membership matrix from the exported cluster CSV.

    A file that `files.read_table` rejects under `CLUSTER_HEADER`, a cluster
    id that is not a nonnegative integer, a membership that is not a number
    or a second row for one (cluster, sensor) pair raises `FormatError` (the
    rows name their line), and so does a file that leaves a cluster id below
    its largest one without rows or leaves out a sensor.
    """
    by_id = {s.id: i for i, s in enumerate(sensors)}
    clusters: list[list[int]] = []
    memberships: dict[tuple[int, int], float] = {}
    for line, row in read_table(path, "cluster file", CLUSTER_HEADER):
        try:
            c, mu = int(row[0]), float(row[2])
        except ValueError:
            raise FormatError(f"cluster file line {line} needs an integer cluster id "
                              f"and a numeric membership: {row!r}") from None
        if c < 0:
            raise FormatError(f"cluster file line {line} has a negative cluster id: "
                              f"{row!r}")
        if row[1] not in by_id:
            raise UnknownSensorError(f"cluster file references unknown sensor {row[1]!r}")
        u = by_id[row[1]]
        if (u, c) in memberships:
            raise FormatError(f"cluster file line {line} repeats sensor {row[1]!r} "
                              f"in cluster {c}")
        clusters.extend([] for _ in range(c + 1 - len(clusters)))
        clusters[c].append(u)
        memberships[(u, c)] = mu
    empty = [c for c, members in enumerate(clusters) if not members]
    if empty:
        raise FormatError(f"cluster file {path} has no rows for cluster id {empty[0]}")
    covered = {u for u, _ in memberships}
    left_out = [s.id for i, s in enumerate(sensors) if i not in covered]
    if left_out:
        raise FormatError(f"cluster file {path} leaves out sensor {left_out[0]!r}")
    return MembershipMatrix(memberships, [sorted(c) for c in clusters])
