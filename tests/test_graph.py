"""Unit tests for the graph substrate: formats, generators, transforms."""

import hashlib

import numpy as np
import pytest

from repro.graph import (
    EdgeList,
    add_reverse_edges,
    bytes_per_edge,
    data_commons_like,
    degree_histogram,
    in_degrees,
    out_degrees,
    permute_vertices,
    read_edges,
    rmat_blocks,
    rmat_edge_count,
    rmat_graph,
    to_undirected,
    write_edges,
)
from repro.graph.rmat import RmatParameters
from repro.graph.stats import gini_coefficient


class TestEdgeList:
    def test_basic_construction(self):
        edges = EdgeList(num_vertices=4, src=[0, 1], dst=[2, 3])
        assert edges.num_edges == 2
        assert not edges.weighted

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EdgeList(num_vertices=4, src=[0, 1], dst=[2])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            EdgeList(num_vertices=2, src=[0], dst=[5])

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError):
            EdgeList(num_vertices=2, src=[-1], dst=[0])

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            EdgeList(num_vertices=4, src=[0], dst=[1], weight=[0.5, 0.6])

    def test_storage_bytes_compact_format(self):
        edges = EdgeList(num_vertices=100, src=[0, 1], dst=[2, 3])
        assert edges.storage_bytes() == 2 * 8  # 4+4 bytes per edge

    def test_storage_bytes_weighted(self):
        edges = EdgeList(
            num_vertices=100, src=[0], dst=[2], weight=[0.5]
        )
        assert edges.storage_bytes() == 12

    def test_bytes_per_edge_non_compact(self):
        assert bytes_per_edge(2**33, weighted=False) == 16
        assert bytes_per_edge(2**33, weighted=True) == 24

    def test_subset_preserves_weights(self):
        edges = EdgeList(
            num_vertices=10, src=[0, 1, 2], dst=[3, 4, 5], weight=[1.0, 2.0, 3.0]
        )
        sub = edges.subset(np.array([0, 2]))
        assert list(sub.src) == [0, 2]
        assert list(sub.weight) == [1.0, 3.0]

    def test_shuffled_is_permutation(self):
        edges = EdgeList(num_vertices=10, src=np.arange(9), dst=np.arange(1, 10))
        shuffled = edges.shuffled(np.random.default_rng(0))
        assert sorted(zip(shuffled.src, shuffled.dst)) == sorted(
            zip(edges.src, edges.dst)
        )


class TestBinaryFormat:
    def test_roundtrip_unweighted(self, tmp_path):
        edges = rmat_graph(6, seed=1)
        path = str(tmp_path / "edges.bin")
        size = write_edges(edges, path)
        assert size == edges.storage_bytes()
        loaded = read_edges(path, edges.num_vertices, weighted=False)
        assert np.array_equal(loaded.src, edges.src)
        assert np.array_equal(loaded.dst, edges.dst)

    def test_roundtrip_weighted(self, tmp_path):
        edges = rmat_graph(6, seed=1, weighted=True)
        path = str(tmp_path / "edges.bin")
        write_edges(edges, path)
        loaded = read_edges(path, edges.num_vertices, weighted=True)
        # Compact format stores float32 weights.
        assert np.allclose(loaded.weight, edges.weight, atol=1e-6)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 13)
        with pytest.raises(ValueError, match="not a multiple"):
            read_edges(str(path), 100, weighted=False)


class TestRmat:
    def test_sizes_follow_scale(self):
        graph = rmat_graph(10, seed=0)
        assert graph.num_vertices == 1024
        assert graph.num_edges == rmat_edge_count(10) == 16384

    def test_deterministic_for_seed(self):
        a = rmat_graph(8, seed=3)
        b = rmat_graph(8, seed=3)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_different_seeds_differ(self):
        a = rmat_graph(8, seed=3)
        b = rmat_graph(8, seed=4)
        assert not np.array_equal(a.src, b.src)

    def test_degree_skew_present(self):
        graph = rmat_graph(12, seed=0)
        gini = gini_coefficient(out_degrees(graph))
        assert gini > 0.4, "RMAT should be heavily skewed"

    def test_unpermuted_low_ids_dominate(self):
        """Raw RMAT concentrates edges at low vertex ids (quadrant a)."""
        graph = rmat_graph(12, seed=0, permute=False)
        half = graph.num_vertices // 2
        low = int((graph.src < half).sum())
        assert low > 0.6 * graph.num_edges

    def test_permutation_removes_id_correlation(self):
        graph = rmat_graph(12, seed=0, permute=True)
        half = graph.num_vertices // 2
        low = int((graph.src < half).sum())
        assert 0.4 * graph.num_edges < low < 0.6 * graph.num_edges

    def test_weights_in_unit_interval(self):
        graph = rmat_graph(8, seed=0, weighted=True)
        assert (graph.weight > 0).all() and (graph.weight <= 1).all()

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            RmatParameters(a=0.9, b=0.3, c=0.1, d=0.1)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            rmat_edge_count(-1)


# -- byte-identity pins -------------------------------------------------
#
# SHA-256 over the src / dst / weight bytes (each prefixed by its dtype)
# of generated graphs and of their ``to_undirected``, computed on the
# commit before the generator was blocked and the conversion sorted once.
# Every job, pin and figure table downstream reads these bytes: a digest
# that moves means the inputs moved.

PIN_SEEDS = (0, 1, 5, 6)


def _digest(graphs):
    digest = hashlib.sha256()
    for graph in graphs:
        for column in (graph.src, graph.dst, graph.weight):
            if column is not None:
                digest.update(column.dtype.str.encode())
                digest.update(column.tobytes())
    return digest.hexdigest()


def _pinned(graphs):
    """(digest of the graphs, digest of their undirected forms)."""
    graphs = list(graphs)
    return _digest(graphs), _digest(map(to_undirected, graphs))


#: scale -> digests over seeds {0, 1, 5, 6} x weighted x permute.
SCALE_PINS = {
    0: ("58cf55bbe4216179f0fb467443179c36ecdabc6427bbd35c74451a61f33cbaa2",
        "115198130977b43b5ebf8be3a0f3c3c1575912afc27321834062ea2658270da0"),
    1: ("9932f72cf669a05c7c1598fc322b1e22aee97f8274447d01e8d69730f3a5e0a9",
        "5203c12e3562152a6d565259800714265626b743f871df9a2c9092c01cf06072"),
    2: ("cf5ceafa929e666a7f9abd62ee8c5f454fc0c3f9493b733797eb1af0e6d99246",
        "f38d788bde919c55571babd88357280537858fcfaf931dad514c36e103064053"),
    3: ("f48e7ce150e5f5f93621e7c27d7e4efb59cbbb83a84f6ca89d337610145d4c1b",
        "63532463c442d55a4dfceee5447c903a870f28509f7668c4a778b580a530ab96"),
    4: ("f9742cd1691973a4df4ee8dc5c42d26147a9233c6a89ef8864104ae131706ae7",
        "efe7301e15302cc74167bb8ae27ac292faef0a5b9b9bc90eb6f250a3055c3bd3"),
    5: ("18dce4d90cf69b42a67c9a498678cda4bd8c548a39338f4cbd78395f915d5f11",
        "8dd7ae9810a27a21b4ef899f8a588ea8773d12c02105e393f9f355739bfd65f1"),
    6: ("38be8050b0fc6af6bf465f8a06610ad43503a57d12a619064c520321ee8233a8",
        "73b5dd3a5ef130a71e4f3a652961fc92b7c70276e20964828bc2e44aeef0301e"),
    7: ("35c004bc4aa7fc993a818e014d4b72a01dbe3e44a821c748c7829008c01a4d02",
        "31f08e2e3277b8198488d33e01718e221ee143f846b47ad180db3229ccbf82df"),
    8: ("6152f7f07842a14ad1b95bec5edd96fa44af291ba64452a06f39ec4f4d56ee28",
        "07ce642e7838dc3e6790c69704a45859d546df5ade6b5ca51b93cb33e127ebc6"),
    9: ("9badf0ae0ef2950afb0c6cda95cc3f567aff38c11f3bc080bd0c8342f4cc7608",
        "b03df2fae2acb012082ee847d4cb5e95197063064a39343f3567383ccead9ab3"),
    10: ("670e176a65a4f5a71dcc4a2d9a1e1a9c959439b02a54f2b50585e7df30e7fc0c",
        "2d8bcf393904318098197145d67760e17547fade11aa56acc38256550a53798f"),
    11: ("98f792d1ecac5b30fb70f5b69c2d732d3d73425bc42ae8aea6ecfd3e28f40e93",
        "415accc88737d54f466d209fec3b071ee9b141c44b09d3902daf124d6b86b6db"),
    12: ("df9b82e9a5e1378827701fe3e92f11fe123aa05df362e7872066f105fb5b50cc",
        "0a0110ea3e694775448195e92b92064ef0cd7ed69ad2c24021e2eb65f2b3ffa2"),
    13: ("58de47c8eb60d600df695a80e6c26d2fbdc348dd95058567215c4b2e8d7d8f66",
        "55d0bf3c6dc673d3d8fd9efa72460091be32ecdb0e49b66a8f4eb54938f8ad1c"),
    14: ("51e96495d832abfb48018d6c714d2a86befc508dcc15bc854a638ba4949b7b47",
        "1ac8e729e4e4049804c2edeb1c68bbd0ca2167ac34aa6427b33f0406c528ef54"),
    15: ("86c7cfa7b754902985b6c359bc9626869b5ba4f3abba58f9a333c470a0be733a",
        "c7e1c473df012cffe1df2120db6853bd3657bbe1ecd1f80df1eba70af9c78fcf"),
    16: ("7b24d6dcc241fe5ce3385cbf477bbcf44bb7184dfbb454833e60b5c1f0dbc5db",
        "ddc102bc0c4e0f9a39ef61482a2079a5a15f5b350e05abbeba4687ea7b3bb616"),
}

PARAMS = {
    "mixed": RmatParameters(0.45, 0.15, 0.15, 0.25),
    "a=1": RmatParameters(1.0, 0.0, 0.0, 0.0),
    "d=1": RmatParameters(0.0, 0.0, 0.0, 1.0),
    "c+d=1": RmatParameters(0.0, 0.0, 0.5, 0.5),
}

#: RMAT-10, seed 3, weighted x permute.
PARAMS_PINS = {
    "mixed": ("1ad50af8c916ae2ebb7febcb743c60c610c4eac883a2458f834c8a540917a9bf",
        "a35dda759fa0239480d2ed14db804e7308032a2d9c4bd3e875aa223534db70d6"),
    "a=1": ("6c26c7f8f6472da49d0b959174f0ee84a61c617c665395c80f9ad18b37dc61d0",
        "f5bc4ede659e7c99fb9ae9aa0d15aff83b624e3b5f89356e60a1ccbc7f11dc05"),
    "d=1": ("72b064450245e883d843e8a838941d1be41ad9905b00b979185c69fa83cd76fc",
        "f5bc4ede659e7c99fb9ae9aa0d15aff83b624e3b5f89356e60a1ccbc7f11dc05"),
    "c+d=1": ("cc3af787dfee4d3bf2df70e3fd8b978681c2af477043711d32b828f1195c7cb5",
        "ad57eb5d6861457e613b876e5932412c69e19732113791791302fc9fe36acee7"),
}

#: scales {0, 1, 5, 11}, seed 2, weighted x permute.
EDGE_FACTOR_PINS = {
    0: ("115198130977b43b5ebf8be3a0f3c3c1575912afc27321834062ea2658270da0",
        "115198130977b43b5ebf8be3a0f3c3c1575912afc27321834062ea2658270da0"),
    3: ("4a18666a0fbf6c8c5111aea12f4df28e13c531f5bff31bed0d7220b9828a6344",
        "86486d9fda0da1bccf4db3d8ee5d560d754d28d7da8f033b9f3ee51817db8f86"),
}

#: (scale, edge_factor) -> digest of the seed-7 weighted permuted graph.
BLOCK_PINS = {
    (5, 16): "b0ac59cda9606ac88f2a3454add4e6f2c64755d698067ec5821cc1f9b69212da",
    (12, 17): "e5f6a64797d3fcdcc5fdef50acbc1eea67aabfad09f55e2cefdcaa7f6ea679b1",
}


class TestRmatBytes:
    @pytest.mark.parametrize("scale", sorted(SCALE_PINS))
    def test_seeds_weights_and_permutations(self, scale):
        graphs = (
            rmat_graph(scale, seed=seed, weighted=weighted, permute=permute)
            for seed in PIN_SEEDS
            for weighted in (False, True)
            for permute in (False, True)
        )
        assert _pinned(graphs) == SCALE_PINS[scale]

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_quadrant_probabilities(self, name):
        graphs = (
            rmat_graph(10, seed=3, params=PARAMS[name], weighted=weighted,
                       permute=permute)
            for weighted in (False, True)
            for permute in (False, True)
        )
        assert _pinned(graphs) == PARAMS_PINS[name]

    @pytest.mark.parametrize("edge_factor", sorted(EDGE_FACTOR_PINS))
    def test_edge_factors(self, edge_factor):
        graphs = (
            rmat_graph(scale, seed=2, edge_factor=edge_factor,
                       weighted=weighted, permute=permute)
            for scale in (0, 1, 5, 11)
            for weighted in (False, True)
            for permute in (False, True)
        )
        assert _pinned(graphs) == EDGE_FACTOR_PINS[edge_factor]

    @pytest.mark.parametrize("scale, edge_factor, block_edges", [
        (5, 16, 1), (5, 16, 7), (12, 17, 1 << 15), (5, 16, 513),
    ])
    def test_blocks_are_the_graph_whatever_their_size(
        self, scale, edge_factor, block_edges
    ):
        blocks = list(rmat_blocks(scale, seed=7, edge_factor=edge_factor,
                                  weighted=True, permute=True,
                                  block_edges=block_edges))
        sizes = [len(src) for src, _dst, _weight in blocks]
        assert sum(sizes) == rmat_edge_count(scale, edge_factor)
        assert set(sizes[:-1]) <= {block_edges}
        graph = EdgeList(
            2**scale, *(np.concatenate(column) for column in zip(*blocks))
        )
        assert _digest([graph]) == BLOCK_PINS[scale, edge_factor]

    def test_block_size_must_be_positive(self):
        with pytest.raises(ValueError):
            next(rmat_blocks(4, block_edges=0))


class TestDataCommonsLike:
    def test_average_degree_close_to_target(self):
        graph = data_commons_like(5000, avg_degree=10.0, seed=1)
        assert graph.num_edges / graph.num_vertices == pytest.approx(10.0, rel=0.2)

    def test_no_self_links(self):
        graph = data_commons_like(2000, avg_degree=8.0, seed=2)
        assert (graph.src != graph.dst).all()

    def test_in_degree_skew(self):
        graph = data_commons_like(5000, avg_degree=10.0, seed=3)
        gini = gini_coefficient(in_degrees(graph))
        assert gini > 0.3

    def test_deterministic(self):
        a = data_commons_like(1000, seed=7)
        b = data_commons_like(1000, seed=7)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_too_few_pages_rejected(self):
        with pytest.raises(ValueError):
            data_commons_like(1)


class TestConvert:
    def test_add_reverse_doubles_edges(self):
        graph = rmat_graph(6, seed=0, weighted=True)
        doubled = add_reverse_edges(graph)
        assert doubled.num_edges == 2 * graph.num_edges

    def test_to_undirected_symmetric(self):
        graph = rmat_graph(8, seed=1, weighted=True)
        undirected = to_undirected(graph)
        forward = set(zip(undirected.src, undirected.dst))
        assert all((d, s) in forward for s, d in forward)

    def test_to_undirected_weights_symmetric(self):
        graph = rmat_graph(8, seed=1, weighted=True)
        undirected = to_undirected(graph)
        weight_of = {}
        for s, d, w in zip(undirected.src, undirected.dst, undirected.weight):
            weight_of[(s, d)] = w
        for (s, d), w in weight_of.items():
            assert weight_of[(d, s)] == w

    def test_to_undirected_drops_self_loops(self):
        graph = EdgeList(num_vertices=4, src=[0, 1, 2], dst=[0, 2, 1])
        undirected = to_undirected(graph)
        assert (undirected.src != undirected.dst).all()
        assert undirected.num_edges == 2  # single undirected edge {1,2}

    def test_to_undirected_keeps_min_weight_of_parallels(self):
        graph = EdgeList(
            num_vertices=3,
            src=[0, 1, 0],
            dst=[1, 0, 1],
            weight=[5.0, 2.0, 7.0],
        )
        undirected = to_undirected(graph)
        assert undirected.num_edges == 2
        assert set(undirected.weight) == {2.0}

    def test_permute_preserves_structure(self):
        graph = rmat_graph(7, seed=2)
        permuted = permute_vertices(graph, seed=1)
        assert permuted.num_edges == graph.num_edges
        assert sorted(np.bincount(permuted.src, minlength=128)) == sorted(
            np.bincount(graph.src, minlength=128)
        )


NAN = float("nan")


class TestUndirectedDegenerate:
    """``to_undirected`` on degenerate inputs, bit for bit as the
    (key, weight) lexsort the conversion used to run gave them."""

    @staticmethod
    def _same(edges, src, dst, weight=None):
        result = to_undirected(edges)
        assert result.src.tobytes() == np.array(src, dtype=np.int64).tobytes()
        assert result.dst.tobytes() == np.array(dst, dtype=np.int64).tobytes()
        if weight is None:
            assert result.weight is None
        else:  # signbit and NaN payload included
            assert result.weight.tobytes() == np.array(weight).tobytes()

    @pytest.mark.parametrize("weight", [None, []])
    def test_empty(self, weight):
        self._same(EdgeList(5, [], [], weight=weight), [], [],
                   None if weight is None else [])

    @pytest.mark.parametrize("weight", [None, [0.5, NAN, -0.0, 1.0]])
    def test_all_self_loops(self, weight):
        self._same(EdgeList(3, [0, 1, 1, 2], [0, 1, 1, 2], weight=weight), [], [],
                   None if weight is None else [])

    def test_nan_weights_lose_to_any_number(self):
        edges = EdgeList(4, [1, 2, 1, 3, 0, 2], [2, 1, 2, 0, 3, 3],
                         weight=[NAN, NAN, 0.25, NAN, NAN, 2.0])
        self._same(edges, [0, 1, 2, 3, 2, 3], [3, 2, 3, 0, 1, 2],
                   [NAN, 0.25, 2.0, NAN, 0.25, 2.0])

    def test_all_nan_pair_keeps_its_first_nan(self):
        negative_nan = np.copysign(NAN, -1.0)
        edges = EdgeList(4, [0, 1, 2, 3], [1, 0, 3, 2],
                         weight=[negative_nan, NAN, NAN, negative_nan])
        self._same(edges, [0, 2, 1, 3], [1, 3, 0, 2],
                   [negative_nan, NAN, negative_nan, NAN])

    def test_signed_zeros_tie_to_the_lowest_index(self):
        edges = EdgeList(4, [1, 2, 2, 1, 3], [2, 1, 1, 2, 0],
                         weight=[NAN, -0.0, 0.0, 0.3, NAN])
        self._same(edges, [0, 1, 3, 2], [3, 2, 0, 1], [NAN, -0.0, NAN, -0.0])
        edges = EdgeList(3, [0, 1, 0, 1], [1, 0, 1, 0], weight=[0.0, -0.0, 1.0, -0.0])
        self._same(edges, [0, 1], [1, 0], [0.0, 0.0])


class TestStats:
    def test_degrees(self):
        edges = EdgeList(num_vertices=4, src=[0, 0, 1], dst=[1, 2, 2])
        assert list(out_degrees(edges)) == [2, 1, 0, 0]
        assert list(in_degrees(edges)) == [0, 1, 2, 0]

    def test_degree_histogram(self):
        hist = degree_histogram(np.array([0, 1, 1, 3]))
        assert hist == {0: 1, 1: 2, 3: 1}

    def test_gini_uniform_is_zero(self):
        assert gini_coefficient(np.full(100, 5)) == pytest.approx(0.0, abs=1e-9)

    def test_gini_concentrated_near_one(self):
        degrees = np.zeros(1000)
        degrees[0] = 10_000
        assert gini_coefficient(degrees) > 0.99
