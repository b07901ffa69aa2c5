"""Fuzzy hierarchical agglomerative clustering of corridor sensors.

Mainline sensors are merged bottom-up on a sparse distance table defined
over geographically neighboring pairs.  Distances follow single-linkage
between points (and between a point and a cluster) and complete-linkage
between clusters; since the table only links milepost-consecutive sensors,
every cluster stays a contiguous corridor segment.

Candidate pairs are searched over the neighbour graph, not over all pairs:
two elements (free points or clusters) can only merge when an edge of the
table joins them.  A heap holds one entry per adjacent pair, ordered by
(distance, sort keys), and entries for merged elements are discarded when
they surface.  After a merge only the new cluster's edges to the rest of the
graph are read, so clustering costs O(E log E) heap work on a table with E
edges, plus one O(clusters) mean-span check per merge.

Alongside the crisp merge tree, assigned points accumulate graded
memberships to nearby clusters: with d_min the point's smallest
single-linkage distance to any live cluster (its own included),

    mu(u, c) = d_min / (d(u, c) + d_min)

A merge refreshes only the memberships that touch the new cluster.  Merging
stops when the mean milepost span of the clusters would exceed the
configured limit, or when no mergeable pair remains.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .dtw import DistanceTable
from .errors import ConfigError, FormatError, UnknownSensorError
from .panel import SensorKind, SensorMeta, _short_row


@dataclass
class MembershipMatrix:
    """Graded sensor-to-cluster memberships plus the crisp lists they induce.

    `clusters[c]` holds exactly the sensors whose membership in cluster `c`
    reaches the threshold; a sensor's home cluster always has membership 1.
    """

    memberships: dict[tuple[int, int], float]
    clusters: list[list[int]]
    threshold: float
    merge_log: list[tuple[int, str, str, float]] = field(default_factory=list)

    def membership(self, sensor: int, cluster: int) -> float:
        return self.memberships.get((sensor, cluster), 0.0)

    def clusters_of(self, sensor: int) -> list[int]:
        return [c for c, members in enumerate(self.clusters) if sensor in members]


def fuzzy_update(d_current: float, all_cluster_distances, m: float) -> tuple[float, float]:
    """Membership and re-clamped distance for an assigned point and one cluster.

    Returns (mu, updated_distance).  The degenerate all-zero case pins the
    membership to 1 and the distance to 0; a point at distance 0 from its
    nearest cluster but not from this one gets mu = 0 and keeps its distance,
    the clamp's limit as mu -> 0.
    """
    if m <= 1.0:
        raise ConfigError(f"fuzziness parameter must exceed 1, got {m}")
    dists = [d for d in all_cluster_distances if d is not None]
    if not dists:
        raise ValueError("no cluster distances available")
    if min(dists) < 0 or d_current < 0:
        raise ValueError("distances must be nonnegative")
    d_min = min(dists)
    if d_current + d_min == 0.0:
        return 1.0, 0.0
    mu = d_min / (d_current + d_min)
    if mu == 0.0:
        return 0.0, d_current
    updated = min((1.0 - math.log(mu, m)) * d_current, d_current)
    return mu, updated


def _span(members, positions) -> float:
    pos = [positions[i] for i in members]
    return max(pos) - min(pos)


@dataclass(eq=False)
class _Cluster:
    cid: int
    members: list[int]  # sorted
    span: float
    crossing: list[tuple[int, int]]  # edges (member, outside point) leaving the cluster


class ClusterState:
    """Working state of the agglomeration: neighbour graph, heap, clusters.

    The live elements are the free points and the live clusters.  Each has a
    sort key, (point, 0, point) or (min member, 1, cid); the heap holds
    (distance, (lower key, higher key)) for every pair of elements that an
    edge joins, and a pair is stale once either element has been merged.
    """

    def __init__(self, base: DistanceTable, positions: dict[int, float], m: float):
        if m <= 1.0:
            raise ConfigError(f"fuzziness parameter must exceed 1, got {m}")
        self.base = base
        self.positions = positions
        self.m = m
        self.points = sorted(positions)
        self.adjacent: dict[int, list[int]] = {p: [] for p in self.points}
        self._heap: list[tuple[float, tuple[tuple, tuple]]] = []
        for i, j in base.pairs():
            if i != j and i in positions and j in positions:
                self.adjacent[i].append(j)
                self.adjacent[j].append(i)
                self._heap.append(self._entry(base.get(i, j), i, j))
        heapq.heapify(self._heap)
        self.home: dict[int, _Cluster] = {}  # assigned point -> its live cluster
        self.clusters: dict[int, _Cluster] = {}  # live clusters by cid, oldest first
        self.fuzzy_mu: dict[int, dict[int, float]] = {}  # cid -> {outside point: mu}
        self.merge_log: list[tuple[int, str, str, float]] = []
        self._next_cid = 0

    # -- merge candidates ------------------------------------------------------

    @staticmethod
    def _label(element) -> str:
        if isinstance(element, _Cluster):
            return "+".join(str(i) for i in element.members)
        return str(element)

    @staticmethod
    def _sort_key(element):
        if isinstance(element, _Cluster):
            return (element.members[0], 1, element.cid)
        return (element, 0, element)

    def _entry(self, d, a, b):
        ka, kb = self._sort_key(a), self._sort_key(b)
        return (d, (ka, kb) if ka < kb else (kb, ka))

    def _live(self, key):
        """The element behind a sort key, or None once it has been merged."""
        if key[1] == 1:
            return self.clusters.get(key[2])
        return None if key[0] in self.home else key[0]

    def closest_pair(self):
        """Pop the closest live pair as (distance, a, b), lowest keys first on ties.

        Returns None when no two live elements share an edge.
        """
        while self._heap:
            d, (ka, kb) = heapq.heappop(self._heap)
            a, b = self._live(ka), self._live(kb)
            if a is not None and b is not None:
                return d, a, b
        return None

    # -- merging ----------------------------------------------------------------

    def _members_of(self, element) -> list[int]:
        return element.members if isinstance(element, _Cluster) else [element]

    def _crossing_of(self, element) -> list[tuple[int, int]]:
        if isinstance(element, _Cluster):
            return element.crossing
        return [(element, v) for v in self.adjacent[element]]

    def merge(self, a, b, distance: float) -> _Cluster:
        members = sorted(self._members_of(a) + self._members_of(b))
        inside = set(members)
        crossing = [(u, v) for u, v in self._crossing_of(a) + self._crossing_of(b)
                    if v not in inside]
        new = _Cluster(self._next_cid, members, _span(members, self.positions), crossing)
        self._next_cid += 1
        for el in (a, b):
            if isinstance(el, _Cluster):
                del self.clusters[el.cid]
                self.fuzzy_mu.pop(el.cid, None)
        self.clusters[new.cid] = new
        for u in members:
            self.home[u] = new
        self.merge_log.append((len(self.merge_log) + 1, self._label(a), self._label(b),
                               float(distance)))
        self._queue_pairs(new)
        self._fuzzy_round(new)
        return new

    def _queue_pairs(self, new: _Cluster) -> None:
        """Push the new cluster's distance to every element an edge joins it to."""
        linked: dict[object, list[float]] = {}  # free point or cluster -> edge distances
        for u, v in new.crossing:
            linked.setdefault(self.home.get(v, v), []).append(self.base.get(u, v))
        for other, ds in linked.items():
            # complete linkage between clusters, single linkage to a point
            d = max(ds) if isinstance(other, _Cluster) else min(ds)
            heapq.heappush(self._heap, self._entry(d, new, other))

    def _fuzzy_round(self, new: _Cluster) -> None:
        """Refresh memberships touching the freshly formed cluster.

        Only points at either end of an edge leaving `new` can gain or change
        such a membership: members of `new` in each other cluster they touch,
        and assigned outside points in `new`.
        """
        inner = sorted({u for u, v in new.crossing if v in self.home})
        outer = sorted({v for u, v in new.crossing if v in self.home})
        for u in inner:
            dists = self._cluster_distances_from(u)
            for cid in dists:
                if cid != new.cid:
                    self._set_membership(u, cid, dists)
        for u in outer:
            self._set_membership(u, new.cid, self._cluster_distances_from(u))

    def _cluster_distances_from(self, u: int) -> dict[int, float]:
        """Single linkage from point `u` to each live cluster an edge joins it to."""
        out: dict[int, float] = {}
        for v in self.adjacent[u]:
            c = self.home.get(v)
            if c is not None:
                d = self.base.get(u, v)
                if c.cid not in out or d < out[c.cid]:
                    out[c.cid] = d
        return out

    def _set_membership(self, u: int, cid: int, dists: dict[int, float]) -> None:
        mu, _ = fuzzy_update(dists[cid], list(dists.values()), self.m)
        self.fuzzy_mu.setdefault(cid, {})[u] = mu

    # -- stopping ----------------------------------------------------------------

    def mean_span_after(self, a, b) -> float:
        spans = [c.span for c in self.clusters.values() if c is not a and c is not b]
        spans.append(_span(sorted(self._members_of(a) + self._members_of(b)), self.positions))
        return float(np.mean(spans))


def fhc(distances: DistanceTable, meta, max_avg_span_miles: float = 10.0,
        threshold: float = 0.1, m: float = 2.0) -> MembershipMatrix:
    """Cluster mainline sensors over a neighbor-pair distance table.

    Repeatedly merges the closest mergeable pair (lowest index pair on ties)
    until the mean cluster span would exceed `max_avg_span_miles` or no pair
    is left; sensors never structurally merged become singleton clusters.

    `m` changes no output: memberships are d_min / (d + d_min), and
    `ClusterState._set_membership` drops the re-clamped distance of
    `fuzzy_update`, the only value `m` enters.
    """
    positions = {i: s.position for i, s in enumerate(meta)
                 if s.kind == SensorKind.MAINLINE}
    state = ClusterState(distances, positions, m)
    while True:
        best = state.closest_pair()
        if best is None:
            break
        d, a, b = best
        if state.mean_span_after(a, b) > max_avg_span_miles:
            break
        state.merge(a, b, d)

    ordered = sorted(state.clusters.values(), key=lambda c: c.members[0])
    singles = [p for p in state.points if p not in state.home]
    memberships: dict[tuple[int, int], float] = {}
    crisp: list[list[int]] = []
    for idx, c in enumerate(ordered):
        members = set(c.members)
        for u in c.members:
            memberships[(u, idx)] = 1.0
        for u, mu in state.fuzzy_mu.get(c.cid, {}).items():
            memberships[(u, idx)] = mu
            if mu >= threshold:
                members.add(u)
        crisp.append(sorted(members))
    for p in singles:
        memberships[(p, len(crisp))] = 1.0
        crisp.append([p])
    return MembershipMatrix(memberships, crisp, threshold, state.merge_log)


def attach_ramps(mm: MembershipMatrix, meta) -> MembershipMatrix:
    """Attach ramp sensors to the home cluster of the closest mainline sensor."""
    mainline = [(i, s) for i, s in enumerate(meta) if s.kind == SensorKind.MAINLINE]
    ramps = [(i, s) for i, s in enumerate(meta) if s.kind != SensorKind.MAINLINE]
    if not ramps:
        return mm
    if not mainline:
        raise ConfigError("cannot attach ramps: no mainline sensors")
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
    return MembershipMatrix(memberships, clusters, mm.threshold, list(mm.merge_log))


CLUSTER_HEADER = ["cluster_id", "sensor_id", "membership"]


def clusters_to_csv(mm: MembershipMatrix, sensors: list[SensorMeta], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CLUSTER_HEADER)
        for c, members in enumerate(mm.clusters):
            for u in members:
                writer.writerow([c, sensors[u].id, repr(mm.membership(u, c))])


def merge_log_to_csv(mm: MembershipMatrix, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "a", "b", "distance"])
        for step, a, b, d in mm.merge_log:
            writer.writerow([step, a, b, repr(d)])


def clusters_from_csv(path: str, sensors: list[SensorMeta]) -> MembershipMatrix:
    """Rebuild a membership matrix from the exported cluster CSV.

    A header other than `CLUSTER_HEADER`, a short row, a cluster id that is
    not a nonnegative integer or a membership that is not a number raises
    `FormatError` (the rows name their line).
    """
    by_id = {s.id: i for i, s in enumerate(sensors)}
    rows: list[tuple[int, int, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CLUSTER_HEADER:
            raise FormatError(f"cluster file header must be {','.join(CLUSTER_HEADER)}, "
                              f"got {','.join(header or [])!r}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) < len(CLUSTER_HEADER):
                raise _short_row(row, CLUSTER_HEADER, "cluster file", line)
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
            rows.append((c, by_id[row[1]], mu))
    n_clusters = max((c for c, _, _ in rows), default=-1) + 1
    clusters: list[list[int]] = [[] for _ in range(n_clusters)]
    memberships: dict[tuple[int, int], float] = {}
    for c, u, mu in rows:
        clusters[c].append(u)
        memberships[(u, c)] = mu
    return MembershipMatrix(memberships, [sorted(c) for c in clusters], threshold=0.1)
