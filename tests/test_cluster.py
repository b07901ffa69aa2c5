from dataclasses import replace

import numpy as np
import pytest

from corridorcast import cluster as cl
from corridorcast import evaluation as ev
from corridorcast import pipeline
from corridorcast.dtw import DistanceTable
from corridorcast.errors import DataError, FormatError
from corridorcast.panel import SensorKind, SensorMeta


def metas(positions, kinds=None):
    kinds = kinds or [SensorKind.MAINLINE] * len(positions)
    return [SensorMeta(f"S{i}", p, k) for i, (p, k) in enumerate(zip(positions, kinds))]


def table(entries):
    t = DistanceTable()
    for (i, j), d in entries.items():
        t.set(i, j, d)
    return t


# -- fuzzy_update -------------------------------------------------------------


def test_fuzzy_update_nearest_cluster_half():
    assert cl.fuzzy_update(2.0, [2.0, 5.0]) == 0.5


def test_fuzzy_update_far_cluster():
    assert cl.fuzzy_update(6.0, [2.0, 6.0]) == 0.25


def test_fuzzy_update_degenerate_zero():
    assert cl.fuzzy_update(0.0, [0.0]) == 1.0


def test_fuzzy_update_zero_nearest_distance():
    # nearest cluster at distance 0, this one farther: mu = 0
    assert cl.fuzzy_update(5.0, [0.0, 5.0]) == 0.0


def test_fuzzy_update_clamp_property(rng):
    # memberships stay in the unit interval
    for _ in range(10_000):
        d_min = float(rng.uniform(0, 10))
        d = d_min + float(rng.uniform(0, 10))
        extra = [d_min + float(rng.uniform(0, 10)) for _ in range(int(rng.integers(0, 3)))]
        assert 0.0 <= cl.fuzzy_update(d, [d_min, d] + extra) <= 1.0


# -- the four-sensor fixture --------------------------------------------------------

FOUR = table({(0, 1): 1.0, (1, 2): 10.0, (2, 3): 1.0})


def test_four_sensor_trace_span_limited():
    mm = cl.fhc(FOUR, metas([0.0, 1.0, 2.0, 3.0]), max_avg_span_miles=2.0)
    assert mm.merge_log == [(1, "0", "1", 1.0), (2, "2", "3", 1.0)]
    assert mm.clusters == [[0, 1], [2, 3]]
    assert mm.membership(0, 0) == 1.0 and mm.membership(3, 1) == 1.0
    # cross memberships exist but sit below the 0.1 threshold: 1/(10+1)
    assert 0.0 < mm.memberships.get((1, 1), 0.0) == pytest.approx(1.0 / 11.0)


def test_four_sensor_trace_unconstrained():
    mm = cl.fhc(FOUR, metas([0.0, 1.0, 2.0, 3.0]), max_avg_span_miles=10.0)
    assert mm.merge_log == [(1, "0", "1", 1.0), (2, "2", "3", 1.0),
                            (3, "0+1", "2+3", 10.0)]
    assert mm.clusters == [[0, 1, 2, 3]]
    assert all(mm.membership(i, 0) == 1.0 for i in range(4))


def test_zero_distance_pair_merges_first():
    mm = cl.fhc(table({(0, 1): 0.0}), metas([0.0, 0.5]), max_avg_span_miles=10.0)
    assert mm.clusters == [[0, 1]]
    assert mm.membership(0, 0) == 1.0 and mm.membership(1, 0) == 1.0


def test_zero_distance_pair_beside_a_farther_cluster():
    t = table({(0, 1): 0.0, (1, 2): 5.0, (2, 3): 1.0})
    meta = metas([0.0, 1.0, 2.0, 3.0])
    mm = cl.fhc(t, meta, max_avg_span_miles=2.0)
    assert mm.merge_log == [(1, "0", "1", 0.0), (2, "2", "3", 1.0)]
    assert mm.membership(1, 1) == 0.0  # sensor 1 sits on its own cluster
    assert mm.membership(2, 0) == pytest.approx(1.0 / 6.0)
    assert mm.clusters == [[0, 1, 2], [2, 3]]
    assert_matches_reference(t, meta, 2.0)


def test_empty_table_gives_singletons():
    mm = cl.fhc(DistanceTable(), metas([0.0, 1.0, 2.0]), max_avg_span_miles=10.0)
    assert mm.clusters == [[0], [1], [2]]
    assert all(mm.membership(i, i) == 1.0 for i in range(3))
    assert mm.merge_log == []


# -- six-sensor fixture with cross memberships ------------------------------------

SIX = table({(0, 1): 1.0, (1, 2): 1.5, (2, 3): 4.0, (3, 4): 1.0, (4, 5): 1.2})


def test_six_sensor_cross_memberships():
    mm = cl.fhc(SIX, metas([float(i) for i in range(6)]), max_avg_span_miles=2.5)
    assert mm.merge_log == [(1, "0", "1", 1.0), (2, "3", "4", 1.0),
                            (3, "3+4", "5", 1.2), (4, "0+1", "2", 1.5)]
    # cluster 0 = {0,1,2} plus sensor 3 at mu = 1/(4+1); cluster 1 = {3,4,5}
    # plus sensor 2 at mu = 1.5/(4+1.5)
    assert mm.clusters == [[0, 1, 2, 3], [2, 3, 4, 5]]
    assert mm.membership(3, 0) == pytest.approx(0.2)
    assert mm.membership(2, 1) == pytest.approx(1.5 / 5.5)
    assert [c for c, members in enumerate(mm.clusters) if 2 in members] == [0, 1]


def test_memberships_in_unit_interval_and_home_one():
    mm = cl.fhc(SIX, metas([float(i) for i in range(6)]), max_avg_span_miles=2.5)
    assert all(0.0 <= mu <= 1.0 for mu in mm.memberships.values())
    for sensor in range(6):
        assert max(mm.membership(sensor, c) for c in range(len(mm.clusters))) == 1.0


def test_determinism():
    runs = [cl.fhc(SIX, metas([float(i) for i in range(6)]), max_avg_span_miles=2.5)
            for _ in range(2)]
    assert runs[0].clusters == runs[1].clusters
    assert runs[0].merge_log == runs[1].merge_log
    assert runs[0].memberships == runs[1].memberships


def random_corridor(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 21))
    gaps = rng.uniform(0.2, 1.5, size=n - 1)
    positions = np.concatenate([[0.0], np.cumsum(gaps)])
    entries = {(i, i + 1): float(rng.uniform(0.1, 8.0)) for i in range(n - 1)}
    span = float(rng.uniform(1.0, positions[-1] + 1.0))
    return table(entries), metas(positions.tolist()), span


@pytest.mark.parametrize("seed", range(50))
def test_contiguity_on_random_corridors(seed):
    t, meta, span = random_corridor(seed)
    mm = cl.fhc(t, meta, max_avg_span_miles=span)
    for members in mm.clusters:
        assert members == list(range(members[0], members[-1] + 1))
    for mu in mm.memberships.values():
        assert 0.0 <= mu <= 1.0


def test_mean_span_bounded_on_random_corridors():
    for seed in range(20):
        t, meta, span = random_corridor(seed + 1000)
        mm = cl.fhc(t, meta, max_avg_span_miles=span)
        positions = [m.position for m in meta]
        multi = [c for c in mm.clusters
                 if len([u for u in c if mm.membership(u, mm.clusters.index(c)) == 1.0]) > 1]
        home_clusters = []
        for idx, c in enumerate(mm.clusters):
            home = [u for u in c if mm.membership(u, idx) == 1.0]
            if len(home) > 1:
                home_clusters.append(home)
        if home_clusters:
            spans = [max(positions[u] for u in h) - min(positions[u] for u in h)
                     for h in home_clusters]
            assert np.mean(spans) <= span + 1e-12


# -- ramps --------------------------------------------------------------------------


def test_attach_ramp_to_nearest_mainline():
    meta = metas([0.0, 5.0, 5.1, 10.0],
                 kinds=[SensorKind.MAINLINE, SensorKind.MAINLINE,
                        SensorKind.ON_RAMP, SensorKind.MAINLINE])
    base = cl.fhc(table({(0, 1): 1.0, (1, 3): 2.0}), meta, max_avg_span_miles=30.0)
    assert base.clusters == [[0, 1, 3]]
    mm = cl.attach_ramps(base, meta)
    assert mm.clusters == [[0, 1, 2, 3]]
    assert mm.membership(2, 0) == 1.0


def test_attach_ramps_identity_without_ramps():
    meta = metas([0.0, 1.0])
    base = cl.fhc(table({(0, 1): 1.0}), meta)
    mm = cl.attach_ramps(base, meta)
    assert mm.clusters == base.clusters and mm.memberships == base.memberships


def test_attach_ramp_tie_breaks_to_lower_index():
    meta = metas([0.0, 2.0, 1.0],
                 kinds=[SensorKind.MAINLINE, SensorKind.MAINLINE, SensorKind.OFF_RAMP])
    base = cl.fhc(table({}), meta, max_avg_span_miles=5.0)
    assert base.clusters == [[0], [1]]
    mm = cl.attach_ramps(base, meta)
    assert mm.clusters == [[0, 2], [1]]


def test_attach_ramps_requires_mainline():
    meta = metas([0.0], kinds=[SensorKind.ON_RAMP])
    mm = cl.MembershipMatrix({}, [])
    with pytest.raises(DataError):
        cl.attach_ramps(mm, meta)


# -- exports --------------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    meta = metas([float(i) for i in range(6)])
    mm = cl.fhc(SIX, meta, max_avg_span_miles=2.5)
    cpath = str(tmp_path / "clusters.csv")
    mpath = str(tmp_path / "merges.csv")
    cl.clusters_to_csv(mm, meta, cpath)
    cl.merge_log_to_csv(mm, mpath)
    again = cl.clusters_from_csv(cpath, meta)
    assert again.clusters == mm.clusters
    for c, members in enumerate(mm.clusters):  # exported rows cover crisp members
        for u in members:
            assert again.memberships[(u, c)] == pytest.approx(mm.membership(u, c))
    lines = open(mpath).read().strip().splitlines()
    assert lines[0] == "step,a,b,distance"
    assert len(lines) == 5


@pytest.mark.parametrize("row, fault", [
    ("0,S0", "has 2 fields"),
    ("x,S0,1.0", "integer cluster id"),
    ("1.0,S0,1.0", "integer cluster id"),
    ("0,S0,high", "numeric membership"),
    ("-1,S0,1.0", "negative cluster id"),
    ("0,S1,0.5", "repeats sensor 'S1' in cluster 0"),
])
def test_clusters_from_csv_rejects_bad_rows(tmp_path, row, fault):
    path = tmp_path / "clusters.csv"
    path.write_text(f"cluster_id,sensor_id,membership\n0,S1,1.0\n{row}\n")
    with pytest.raises(FormatError, match=f"line 3 .*{fault}"):
        cl.clusters_from_csv(str(path), metas([0.0, 1.0]))


# -- the path agglomeration against a brute-force reference ----------------------------


def reference_fhc(distances, meta, max_avg_span_miles=10.0, threshold=0.1):
    """Reference FHC: every merge rescans all pairs of free points and clusters.

    Slow (cubic in the sensor count) and kept only as the oracle for `cl.fhc`.
    """
    points = sorted(i for i, s in enumerate(meta) if s.kind == SensorKind.MAINLINE)
    positions = {i: meta[i].position for i in points}
    clusters: list[tuple[int, list[int]]] = []  # (cid, sorted members), oldest first
    assigned: set[int] = set()
    fuzzy_mu: dict[tuple[int, int], float] = {}
    merge_log = []

    def point_cluster(u, members):
        ds = [distances.get(u, v) for v in members if v != u]
        ds = [d for d in ds if d is not None]
        return min(ds) if ds else None

    def cluster_cluster(a, b):
        ds = [distances.get(u, v) for u in a for v in b]
        ds = [d for d in ds if d is not None]
        return max(ds) if ds else None

    def key(el):
        return (el[1][0], 1, el[0]) if isinstance(el, tuple) else (el, 0, el)

    def members_of(el):
        return el[1] if isinstance(el, tuple) else [el]

    def label(el):
        return "+".join(str(i) for i in members_of(el))

    def span(members):
        pos = [positions[i] for i in members]
        return max(pos) - min(pos)

    def update_pair(u, c):
        d = point_cluster(u, c[1])
        if d is not None:
            all_dists = [x for x in (point_cluster(u, o[1]) for o in clusters) if x is not None]
            fuzzy_mu[(u, c[0])] = cl.fuzzy_update(d, all_dists)

    while True:
        free = [p for p in points if p not in assigned]
        items = []
        for i, a in enumerate(free):
            for b in free[i + 1:]:
                items.append((distances.get(a, b), a, b))
        items += [(point_cluster(p, c[1]), p, c) for p in free for c in clusters]
        items += [(cluster_cluster(a[1], b[1]), a, b)
                  for i, a in enumerate(clusters) for b in clusters[i + 1:]]
        items = [(d, tuple(sorted((key(a), key(b)))), a, b) for d, a, b in items if d is not None]
        if not items:
            break
        d, _, a, b = min(items, key=lambda e: (e[0], e[1]))
        if key(b) < key(a):
            a, b = b, a
        merged = sorted(members_of(a) + members_of(b))
        spans = [span(c[1]) for c in clusters if c is not a and c is not b] + [span(merged)]
        if float(np.mean(spans)) > max_avg_span_miles:
            break
        new = (len(merge_log), merged)
        for el in (a, b):
            if isinstance(el, tuple):
                clusters.remove(el)
                for k in [k for k in fuzzy_mu if k[1] == el[0]]:
                    del fuzzy_mu[k]
            else:
                assigned.add(el)
        clusters.append(new)
        merge_log.append((len(merge_log) + 1, label(a), label(b), float(d)))
        for u in sorted(assigned):
            for c in ([c for c in clusters if c is not new] if u in merged else [new]):
                update_pair(u, c)

    memberships, crisp = {}, []
    for idx, (cid, members) in enumerate(sorted(clusters, key=lambda c: c[1][0])):
        crisp_members = set(members)
        memberships.update({(u, idx): 1.0 for u in members})
        for (u, c), mu in fuzzy_mu.items():
            if c == cid:
                memberships[(u, idx)] = mu
                if mu >= threshold:
                    crisp_members.add(u)
        crisp.append(sorted(crisp_members))
    for p in points:
        if p not in assigned:
            memberships[(p, len(crisp))] = 1.0
            crisp.append([p])
    return cl.MembershipMatrix(memberships, crisp, merge_log)


def random_sparse_case(seed):
    """A corridor with ramps, gaps in the path and, at odd seeds, tied distances.

    Edges join consecutive mainline sensors only, as `panel.neighbor_pairs`
    makes them, so an edge steps over the ramps between its ends.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 26))
    positions = np.cumsum(rng.uniform(0.2, 1.5, size=n)).tolist()
    kinds = [SensorKind.ON_RAMP if rng.random() < 0.15 else SensorKind.MAINLINE
             for _ in range(n)]
    levels = [0.5, 1.0, 1.5, 2.0] if seed % 2 else None  # odd seeds draw tied distances
    mainline = [i for i, k in enumerate(kinds) if k == SensorKind.MAINLINE]
    entries = {}
    for i, j in zip(mainline, mainline[1:]):
        if rng.random() < 0.85:
            entries[(i, j)] = float(rng.choice(levels) if levels else rng.uniform(0.1, 5.0))
    span = float(rng.uniform(0.5, positions[-1] - positions[0] + 1.0))
    return table(entries), metas(positions, kinds), span


SPARSE_SEEDS = range(60)


def assert_matches_reference(t, meta, *args):
    got, want = cl.fhc(t, meta, *args), reference_fhc(t, meta, *args)
    assert got.merge_log == want.merge_log
    assert got.clusters == want.clusters
    assert got.memberships == want.memberships


@pytest.mark.parametrize("seed", SPARSE_SEEDS)
def test_fhc_matches_brute_force_reference(seed):
    t, meta, span = random_sparse_case(seed)
    threshold = (0.05, 0.1, 0.3)[seed % 3]
    assert_matches_reference(t, meta, span, threshold)


def test_reference_covers_skip_edges_ties_and_span_stops():
    cases = [random_sparse_case(seed) for seed in SPARSE_SEEDS]
    assert any(i + 1 < j for t, _, _ in cases for i, j in t.entries)  # across a ramp
    assert any(len(set(t.entries.values())) < len(t.entries) for t, _, _ in cases)
    stopped = 0
    for t, meta, span in cases:
        unbounded = reference_fhc(t, meta, float("inf"))
        stopped += len(reference_fhc(t, meta, span).merge_log) < len(unbounded.merge_log)
    assert stopped > 10


@pytest.mark.parametrize("edge", [(1, 4), (0, 3), (0, 2), (1, 2), (2, 3), (1, 1), (3, 9)])
def test_fhc_rejects_edges_off_the_mainline_path(edge):
    # the path is (0, 1), (1, 3), (3, 4); (1, 4) and (0, 3) skip a mainline
    # sensor, (0, 2), (1, 2) and (2, 3) touch the ramp 2, (1, 1) is a self
    # pair and (3, 9) reaches past the corridor
    meta = metas([0.0, 1.0, 1.5, 2.0, 3.0],
                 kinds=[SensorKind.MAINLINE, SensorKind.MAINLINE, SensorKind.OFF_RAMP,
                        SensorKind.MAINLINE, SensorKind.MAINLINE])
    path = {(0, 1): 1.0, (1, 3): 2.0, (3, 4): 1.0}
    assert cl.fhc(table(path), meta).merge_log
    with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) does not join"):
        cl.fhc(table({**path, edge: 1.0}), meta)


@pytest.fixture(scope="module")
def ramp_corridor():
    """A pipeline-built table on a 32-sensor synth corridor, every 8th sensor a ramp."""
    p = ev.synth_generate(ev.SynthConfig(), sensors=32, days=7, seed=3)
    kinds = [SensorKind.ON_RAMP if k % 8 == 7 else SensorKind.MAINLINE for k in range(32)]
    p = replace(p, sensors=tuple(replace(s, kind=k) for s, k in zip(p.sensors, kinds)))
    t, _ = pipeline.cluster(p, pipeline.RunConfig())
    return t, list(p.sensors)


@pytest.mark.parametrize("span", [1.0, 2.5, 10.0])
def test_fhc_matches_reference_on_a_pipeline_table(ramp_corridor, span):
    t, meta = ramp_corridor
    assert any(i + 1 < j for i, j in t.entries)  # edges across the ramps
    assert_matches_reference(t, meta, span, 0.1)


class CountingTable(DistanceTable):
    lookups = 0

    def get(self, i, j):
        self.lookups += 1
        return super().get(i, j)


def chain_lookups(n):
    rng = np.random.default_rng(n)
    t = CountingTable()
    for i in range(n - 1):
        t.set(i, i + 1, float(rng.uniform(0.1, 5.0)))
    mm = cl.fhc(t, metas([0.5 * i for i in range(n)]))
    assert len(mm.merge_log) > n // 2
    return t.lookups


def test_fhc_distance_lookups_grow_near_linearly():
    # a rescan of every pair on every merge grows ~64x from 100 to 400 sensors
    assert chain_lookups(400) <= 6 * chain_lookups(100)
