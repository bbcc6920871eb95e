import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reswire import (
    EdgeListParseError,
    adjacency,
    boundary_matrix,
    build_graph,
    degrees,
    from_edge_list,
    is_bipartite,
    laplacian,
    normalized_adjacency,
    normalized_laplacian,
    to_edge_list,
)
from reswire.verify import complete_graph, cycle_graph, path_graph


def random_graph_strategy(n_max=12):
    return st.integers(2, n_max).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=n * 3,
            ),
        )
    ).map(lambda t: build_graph(t[0], list(t[1])))


class TestParsing:
    def test_path_p3(self):
        g = from_edge_list("0 1\n1 2")
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))
        assert g.num_components == 1

    def test_duplicate_edges_collapse_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate"):
            g = from_edge_list("0 1\n0 1")
        assert g.edges == ((0, 1),)

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            from_edge_list("0 1\n0 0")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListParseError, match="non-integer"):
            from_edge_list("0 x")

    def test_negative_index(self):
        with pytest.raises(EdgeListParseError, match="negative"):
            from_edge_list("0 -1")

    def test_comments_and_blank_lines(self):
        g = from_edge_list("# a comment\n\n0 1\n")
        assert g.edges == ((0, 1),)

    def test_header_forces_vertex_count(self):
        g = from_edge_list("n=5\n0 1\n")
        assert g.n == 5
        assert g.num_components == 4

    def test_header_too_small(self):
        with pytest.raises(EdgeListParseError):
            from_edge_list("n=2\n0 3\n")

    def test_roundtrip_with_type_column(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        text = to_edge_list(g, added=[(0, 2)])
        lines = text.strip().splitlines()
        assert lines[0] == "n=3"
        assert lines[1:] == ["0 1 0", "1 2 0", "0 2 1"]


class TestMatrices:
    def test_laplacian_k2(self, k2):
        assert np.array_equal(laplacian(k2), [[1, -1], [-1, 1]])

    def test_laplacian_p3_row_sums(self):
        lap = laplacian(path_graph(3))
        assert np.array_equal(np.diag(lap), [1, 2, 1])
        assert np.array_equal(lap.sum(axis=1), np.zeros(3))

    def test_empty_graph_zero_laplacian(self):
        g = build_graph(3, [])
        assert np.array_equal(laplacian(g), np.zeros((3, 3)))

    def test_normalized_adjacency_k2(self, k2):
        assert np.array_equal(normalized_adjacency(k2), [[0, 1], [1, 0]])

    def test_normalized_adjacency_c4_entries(self, c4):
        ahat = normalized_adjacency(c4)
        for u, v in c4.edges:
            assert ahat[u, v] == pytest.approx(0.5)

    def test_normalized_adjacency_star(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        ahat = normalized_adjacency(star)
        for leaf in (1, 2, 3):
            assert ahat[0, leaf] == pytest.approx(1 / np.sqrt(3))

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy())
    def test_normalized_adjacency_matches_dense_formula(self, g):
        # built from the edges, it equals the dense adjacency formula bit for
        # bit; the isolated vertices are dropped, with no 1/0
        g = build_graph(g.n + 2, g.edges)
        keep = np.flatnonzero(degrees(g) > 0)
        inv_sqrt = 1.0 / np.sqrt(degrees(g)[keep].astype(float))
        ahat = inv_sqrt[:, None] * adjacency(g)[np.ix_(keep, keep)] * inv_sqrt[None, :]
        expected = (ahat + ahat.T) / 2.0
        got = normalized_adjacency(g)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_boundary_matrix_k2(self, k2):
        assert np.array_equal(boundary_matrix(k2), [[1], [-1]])

    def test_boundary_triangle_column_sums(self, triangle):
        b = boundary_matrix(triangle)
        assert b.shape == (3, 3)
        assert np.array_equal(b.sum(axis=0), np.zeros(3))

    def test_normalized_laplacian_eigenvalue_range(self, c4):
        lam = np.linalg.eigvalsh(normalized_laplacian(c4))
        assert lam.min() >= -1e-9
        assert lam.max() <= 2 + 1e-9


class TestBipartite:
    def test_c4_bipartite(self, c4):
        assert is_bipartite(c4) == [True]

    def test_triangle_not(self, triangle):
        assert is_bipartite(triangle) == [False]

    def test_odd_cycle_not(self):
        assert is_bipartite(cycle_graph(5)) == [False]

    def test_per_component(self):
        g = build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
        assert is_bipartite(g) == [False, True]


@settings(max_examples=40, deadline=None)
@given(random_graph_strategy())
def test_laplacian_row_sums_zero(g):
    assert np.array_equal(laplacian(g).sum(axis=1), np.zeros(g.n))


@settings(max_examples=40, deadline=None)
@given(random_graph_strategy())
def test_boundary_factorization(g):
    b = boundary_matrix(g)
    assert np.array_equal(b @ b.T, laplacian(g))


@settings(max_examples=30, deadline=None)
@given(random_graph_strategy(8))
def test_bipartite_iff_minus_one_eigenvalue(g):
    from reswire.graph import components, nonisolated

    bip = is_bipartite(g)
    for verts in components(g):
        if len(verts) < 2:
            continue
        from reswire.spectral import _subgraph

        sub = _subgraph(g, verts)
        if len(nonisolated(sub)) < 2:
            continue
        mu_min = float(np.linalg.eigvalsh(normalized_adjacency(sub)).min())
        comp_bip = bip[g.component_id[int(verts[0])]]
        assert comp_bip == (abs(mu_min + 1.0) < 1e-8)


@settings(max_examples=30, deadline=None)
@given(random_graph_strategy(10))
def test_normalized_eigenvalue_duality(g):
    from reswire.graph import nonisolated

    if len(nonisolated(g)) == 0:
        return
    lam = np.sort(np.linalg.eigvalsh(normalized_laplacian(g)))
    mu = np.sort(np.linalg.eigvalsh(normalized_adjacency(g)))[::-1]
    assert np.allclose(mu, 1.0 - lam, atol=1e-9)
