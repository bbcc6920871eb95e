"""`graph.from_edge_list` against a per-line reference reader.

`reference_from_edge_list` is the reader as it was before the edge list was
read a block of lines at a time: one Python loop that checks each line in
turn, then a set for the duplicates and a depth-first walk for the labels.
It is kept here as the oracle of the block reader's output, warnings and
errors."""

import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reswire import EdgeListParseError, from_edge_list, is_bipartite
from reswire import graph as gr
from reswire.cli import main


def reference_from_edge_list(text: str):
    """(n, edges, component_id) of an edge list, line by line."""
    edges = []
    forced_n = None
    saw_edge = False
    seen = set()
    dup_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("n=") and not saw_edge and forced_n is None:
            try:
                forced_n = int(line[2:])
            except ValueError:
                raise EdgeListParseError("bad vertex-count header", line=lineno)
            if forced_n < 0:
                raise EdgeListParseError("negative vertex count", line=lineno)
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise EdgeListParseError("expected two integer tokens", line=lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer token in {tokens[:2]}", line=lineno)
        if u < 0 or v < 0:
            raise EdgeListParseError("negative vertex index", line=lineno)
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", line=lineno)
        saw_edge = True
        key = (min(u, v), max(u, v))
        if key in seen:
            dup_lines.append(lineno)
            continue
        seen.add(key)
        edges.append(key)
    if dup_lines:
        warnings.warn(f"duplicate edges collapsed (lines {dup_lines})", stacklevel=2)
    max_idx = max((v for _, v in edges), default=-1)
    n = max_idx + 1
    if forced_n is not None:
        if forced_n < n:
            raise EdgeListParseError(
                f"header n={forced_n} smaller than max vertex index {max_idx}"
            )
        n = forced_n
    return n, tuple(sorted(seen)), _labels(n, seen)


def _labels(n, edges):
    """Component label of each vertex, counting up in order of each
    component's smallest vertex."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comp = [-1] * n
    label = 0
    for start in range(n):
        if comp[start] == -1:
            stack, comp[start] = [start], label
            while stack:
                for y in adj[stack.pop()]:
                    if comp[y] == -1:
                        comp[y] = label
                        stack.append(y)
            label += 1
    return tuple(comp)


def _outcome(read, text):
    """What `read` does with `text`: its result or error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = read(text)
        except EdgeListParseError as exc:
            out = (type(exc), str(exc), exc.line)
    if not isinstance(out, tuple):
        out = (out.n, out.edges, out.component_id)
    return out, [(w.category, str(w.message)) for w in caught]


SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
SPACES = [" ", "\t", "  ", " \t", "\u3000", "\xa0"]
TOKENS = ["+5", "1_0", "x", "٣", "\xb2", "-1", "-0", "0x1", "00", "007", "5.0", "1__0",
          "+", "-", "99999999999999999999", "9223372036854775807"]
number = st.integers(0, 12).map(str)
token = st.one_of(number, number, number, st.sampled_from(TOKENS))
space = st.sampled_from(SPACES)
edge_line = st.builds(
    lambda u, s, v, rest, lead, trail: f"{lead}{u}{s}{v}{rest}{trail}",
    token, space, token, st.sampled_from(["", " 0", " 1", "\t1 2", " # c"]),
    st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " ", "\t"]))
line = st.one_of(
    edge_line, edge_line, edge_line,
    st.sampled_from(["", "   ", "#", "# n=3", "  # 1 2", "\t#"]),
    st.builds(lambda k: f"n={k}", st.sampled_from(["4", "20", "0", "-2", "x", " 5", "+3",
                                                   "5 6", "", "1_5"])),
    st.builds(lambda u, v: f"{u} {v}", number, number),
    st.builds(lambda u: f"{u}", token))
plain_line = st.builds(lambda u, v: f"{u} {v}", number, number)


@st.composite
def edge_texts(draw):
    lines = draw(st.lists(st.one_of(line, plain_line) if draw(st.booleans()) else plain_line,
                          max_size=12))
    if draw(st.booleans()):
        lines.insert(0, f"n={draw(st.integers(0, 16))}")
    sep = draw(st.sampled_from(SEPARATORS)) if draw(st.booleans()) else "\n"
    return sep.join(lines) + draw(st.sampled_from(["", sep]))


class TestAgainstReference:
    @settings(max_examples=600, deadline=None)
    @given(edge_texts(), st.sampled_from([1, 2, 3, 1024]))
    @example("0 1\n0 1\n1 2\n1 0\n", 1)
    @example("0 1\n2 +\n", 1)
    @example("n=x\n0 1\n", 1024)
    @example("# c\n\nn=-1\n", 1024)
    @example("n=5\n0 1\nn=6\n", 1024)
    @example("0 1\n2 ٣\n4 4\n", 2)
    @example("0 1 0\n1 -2 1\n", 1)
    @example("3 4\n3\n5 5\n", 1024)
    @example("n=2\n0 3\n0 3\n", 1024)
    @example("", 1024)
    @example("n=3", 1024)
    def test_same_graph_warnings_and_errors(self, text, block):
        """Same n, edges and labels, the same duplicate warning, and the
        same exception class, message and line, for any size of block."""
        if any(t in text for t in ("99999999999999999999", "9223372036854775807")):
            return  # the reference would size n from the index; see TestInt64
        kept, gr._BLOCK_LINES = gr._BLOCK_LINES, block
        try:
            assert _outcome(from_edge_list, text) == _outcome(reference_from_edge_list, text)
        finally:
            gr._BLOCK_LINES = kept


class TestInt64:
    """An index or a vertex count that leaves n outside int64 is a parse
    error naming its line, found before any O(n) allocation."""

    @pytest.mark.parametrize("text, line, message", [
        ("0 1\n0 99999999999999999999\n", 2, "vertex index too large"),
        ("0 9223372036854775807\n", 1, "vertex index too large"),
        ("0 1\n+9223372036854775807 1\n", 2, "vertex index too large"),
        ("# big\n0 1\n-99999999999999999999 1\n", 3, "negative vertex index"),
        ("99999999999999999999 -1\n", 1, "negative vertex index"),
        ("0 99999999999999999999\n2 2\n", 1, "vertex index too large"),
        ("9223372036854775807 9223372036854775807\n", 1, "vertex index too large"),
        ("0 1\n-3 -3\n", 2, "negative vertex index"),
        ("n=99999999999999999999\n0 1\n", 1, "vertex count does not fit in int64"),
    ])
    def test_rejected_with_line(self, text, line, message):
        with pytest.raises(EdgeListParseError, match=message) as info:
            from_edge_list(text)
        assert info.value.line == line

    def test_cli_exit_code(self, tmp_path, capsys):
        path = tmp_path / "big.el"
        path.write_text("0 1\n1 99999999999999999999\n")
        assert main(["stats", "--input", str(path)]) == 2
        assert "line 2: vertex index too large" in capsys.readouterr().err


class TestBlocks:
    def test_faults_and_duplicates_across_blocks(self, monkeypatch):
        """Lines split over many blocks keep their numbers: the duplicate
        warning lists lines from several blocks, and the first fault wins."""
        monkeypatch.setattr(gr, "_BLOCK_LINES", 4)
        lines = ["n=30", "# c"] + [f"{i} {i + 1}" for i in range(20)] + ["3 4", "", "5 4"]
        with pytest.warns(UserWarning, match=r"lines \[23, 25\]"):
            g = from_edge_list("\n".join(lines))
        assert g.n == 30 and g.m == 20
        with pytest.raises(EdgeListParseError, match="line 11: self-loop at vertex 7"):
            from_edge_list("\n".join(lines[:10] + ["7 7", "x y"]))

    def test_plain_and_general_blocks_agree(self, monkeypatch):
        """A text of plain `u v` lines is read without splitting its lines;
        a trailing comment sends the same lines through the token route."""
        monkeypatch.setattr(gr, "_BLOCK_LINES", 3)
        rng = random.Random(3)
        plain = "".join(f"{u} {v}\n" for u, v in (rng.sample(range(40), 2) for _ in range(60)))
        a, b = _outcome(from_edge_list, plain), _outcome(from_edge_list, plain + "# c\n")
        assert a == b and a[1]  # the same graph and duplicate warning


class TestEdgeArray:
    def test_built_once(self):
        g = from_edge_list("n=4\n2 1\n0 1\n")
        e = g._edge_array
        assert e.tolist() == [[0, 1], [1, 2]] and e.dtype == np.int64
        assert g._edge_array is e

    def test_edge_ints_shared_per_vertex(self):
        g = from_edge_list("0 300\n1 300\n300 400\n")
        assert g.edges[0][1] is g.edges[1][1] is g.edges[2][0]


class TestBipartiteOnce:
    def test_one_walk_per_graph(self, monkeypatch):
        """The reader's walk decides bipartiteness: later calls walk nothing."""
        walks, walk = [], gr._traverse

        def counted(n, edges):
            walks.append(n)
            return walk(n, edges)

        monkeypatch.setattr(gr, "_traverse", counted)
        g = from_edge_list("0 1\n1 2\n2 0\n3 4\n")
        assert walks == [5]
        assert [is_bipartite(g) for _ in range(3)] == [[False, True]] * 3
        assert walks == [5]

    def test_component_graph_walks_on_demand(self):
        """A component's own graph is made without a walk; asked, it walks."""
        g = from_edge_list("0 1\n1 2\n2 0\n3 4\n5 6\n6 7\n7 8\n8 5\n")
        assert [is_bipartite(sub) for _, sub in gr.components(g)] == [[False], [True], [True]]
