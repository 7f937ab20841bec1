"""Regular base graphs and their Cartesian products.

A product graph is assembled from a list of small connected regular base
graphs.  Vertices of the product are encoded in mixed radix: digit i of a
vertex id is its coordinate in base graph i, with digit 0 least
significant.  Two product vertices are adjacent when they differ in
exactly one coordinate and that pair of digits is an edge of the
corresponding base graph.  Edges carry canonical ids: sort all pairs
(u, v) with u < v lexicographically and number them from 0.  A product
is built from its bases alone, m included.  Its adjacency arrays are
filled in one walk over the sorted rows with u rising on their first
read, while the per-shift edge layout of ``shift_plan`` and the
per-shift rows of ``host_rows`` come from the digits (see ProductGraph),
so a run that reads only those never builds the arrays.  ``shift_rows``
reads edge masks through the plan, so the plan's format is known here
alone.

The module also hosts the edge-list file parser, the size cap that
protects against accidentally huge products, the one breadth-first
layer step over shift rows (``layers``, which ``process._fill`` grows
components by and ``bipartition_signature`` 2-colours the product
with), and the neighbour bitmasks the exact oracles use.
"""

import math
import os
from collections.abc import Iterator
from functools import cache, cached_property
from itertools import accumulate, islice
from operator import add, itemgetter
from typing import NamedTuple

DEFAULT_MAX_VERTICES = 1 << 26
MAX_VERTICES_ENV = "PPL_MAX_VERTICES"


class GraphBuildError(ValueError):
    """Base class for graph construction and validation failures."""


class MalformedEdgeListError(GraphBuildError):
    """Edge-list input violates the file format."""


class NonRegularError(GraphBuildError):
    """Base graph is not regular."""


class DisconnectedError(GraphBuildError):
    """Graph is not connected."""


class TooSmallError(GraphBuildError):
    """Base graph order must exceed 1."""


class TooLargeError(GraphBuildError):
    """Requested structure exceeds the configured size cap."""


def max_vertices_cap() -> int:
    """Vertex cap for products: PPL_MAX_VERTICES overrides the default."""
    raw = os.environ.get(MAX_VERTICES_ENV)
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        cap = int(raw)
    except ValueError as exc:
        raise TooLargeError(f"{MAX_VERTICES_ENV} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise TooLargeError(f"{MAX_VERTICES_ENV} must be at least 2, got {cap}")
    return cap


def is_integer(value) -> bool:
    """True for an int that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


class BaseGraphSpec(NamedTuple):
    """Declarative description of one base graph.

    Kinds: complete(m), cycle(m), complete_bipartite_balanced(r),
    petersen, circulant(m, offsets), edge_list(path).  Circulant offsets
    must be distinct, nonzero modulo m, and closed under negation modulo
    m, so the connection set is symmetric and the graph is
    |offsets|-regular.
    """

    kind: str
    m: int | None = None
    r: int | None = None
    offsets: tuple[int, ...] | None = None
    path: str | None = None

    KINDS = ("complete", "cycle", "complete_bipartite_balanced", "petersen", "circulant", "edge_list")

    @classmethod
    def complete(cls, m: int) -> "BaseGraphSpec":
        return cls(kind="complete", m=m)

    @classmethod
    def cycle(cls, m: int) -> "BaseGraphSpec":
        return cls(kind="cycle", m=m)

    @classmethod
    def complete_bipartite_balanced(cls, r: int) -> "BaseGraphSpec":
        return cls(kind="complete_bipartite_balanced", r=r)

    @classmethod
    def petersen(cls) -> "BaseGraphSpec":
        return cls(kind="petersen")

    @classmethod
    def circulant(cls, m: int, offsets) -> "BaseGraphSpec":
        return cls(kind="circulant", m=m, offsets=tuple(offsets))

    @classmethod
    def edge_list(cls, path: str) -> "BaseGraphSpec":
        return cls(kind="edge_list", path=str(path))

    @classmethod
    def from_dict(cls, data: dict) -> "BaseGraphSpec":
        if not isinstance(data, dict):
            raise GraphBuildError(f"base spec must be an object, got {type(data).__name__}")
        kind = data.get("kind")
        if kind not in cls.KINDS:
            raise GraphBuildError(f"unknown base graph kind: {kind!r}")
        allowed = {"complete": {"m"}, "cycle": {"m"}, "complete_bipartite_balanced": {"r"},
                   "petersen": set(), "circulant": {"m", "offsets"}, "edge_list": {"path"}}[kind]
        extra = set(data) - allowed - {"kind"}
        if extra:
            raise GraphBuildError(f"unknown keys for {kind} spec: {sorted(extra)}")
        missing = allowed - set(data)
        if missing:
            raise GraphBuildError(f"missing keys for {kind} spec: {sorted(missing)}")
        for key in ("m", "r"):
            if key in data and not is_integer(data[key]):
                raise GraphBuildError(f"{kind} spec: {key} must be an integer, got {data[key]!r}")
        offsets = data.get("offsets", [])
        if not isinstance(offsets, list) or not all(map(is_integer, offsets)):
            raise GraphBuildError(f"{kind} spec: offsets must be integers, got {offsets!r}")
        if not isinstance(data.get("path", ""), str):
            raise GraphBuildError(f"{kind} spec: path must be a string, got {data['path']!r}")
        out = dict(data)
        if "offsets" in out:
            out["offsets"] = tuple(out["offsets"])
        return cls(**out)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.m is not None:
            out["m"] = self.m
        if self.r is not None:
            out["r"] = self.r
        if self.offsets is not None:
            out["offsets"] = list(self.offsets)
        if self.path is not None:
            out["path"] = self.path
        return out

    def label(self) -> str:
        if self.kind == "complete":
            return f"K{self.m}"
        if self.kind == "cycle":
            return f"C{self.m}"
        if self.kind == "complete_bipartite_balanced":
            return f"K{self.r},{self.r}"
        if self.kind == "petersen":
            return "Petersen"
        if self.kind == "circulant":
            return f"Circ({self.m};{','.join(map(str, self.offsets))})"
        return f"EdgeList({self.path})"


class BaseGraph(NamedTuple):
    """Validated base graph: connected, order above 1, usually regular.

    ``degree`` is the common degree, or None for the deliberately
    irregular graphs (stars) admitted outside the product pipeline.
    """

    order: int
    degree: int | None
    adjacency: tuple[tuple[int, ...], ...]


def base_from_edges(order: int, edges, label: str = "") -> BaseGraph:
    """Build and validate a base graph from an edge collection."""
    if order <= 1:
        raise TooSmallError(f"{label or 'base graph'}: order must exceed 1, got {order}")
    nbrs: list[set[int]] = [set() for _ in range(order)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < order and 0 <= v < order):
            raise MalformedEdgeListError(f"{label}: endpoint out of range in edge ({u}, {v})")
        if u == v:
            raise MalformedEdgeListError(f"{label}: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise MalformedEdgeListError(f"{label}: duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        nbrs[u].add(v)
        nbrs[v].add(u)
    degrees = {len(s) for s in nbrs}
    if len(degrees) != 1:
        raise NonRegularError(f"{label}: non-regular, degrees {sorted(degrees)}")
    # the first component holds vertex 0
    comps = components_from_bitmasks([sum(1 << w for w in s) for s in nbrs], (1 << order) - 1)
    if len(comps) != 1:
        reached = comps[0].bit_count()
        raise DisconnectedError(f"{label}: disconnected ({reached} of {order} vertices reachable)")
    return BaseGraph(order=order, degree=degrees.pop(),
                     adjacency=tuple(tuple(sorted(s)) for s in nbrs))


def read_edge_list(path: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse an edge-list file.

    Format: first significant line ``n m``, then m lines ``u v`` with
    0-indexed endpoints.  Blank lines and lines starting with ``#`` are
    ignored.  Anything else is a format error.
    """
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                rows.append((lineno, text))
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedEdgeListError(f"{path}: cannot read edge list: {exc}") from None
    if not rows:
        raise MalformedEdgeListError(f"{path}: empty edge list file")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise MalformedEdgeListError(f"{path}:{lineno}: header must be 'n m', got {header!r}")
    try:
        order, count = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise MalformedEdgeListError(f"{path}:{lineno}: header must be two integers") from exc
    edges = []
    for lineno, text in rows[1:]:
        parts = text.split()
        if len(parts) != 2:
            raise MalformedEdgeListError(f"{path}:{lineno}: edge line must be 'u v', got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MalformedEdgeListError(f"{path}:{lineno}: edge line must be two integers") from exc
        edges.append((u, v))
    if len(edges) != count:
        raise MalformedEdgeListError(f"{path}: header promises {count} edges, file has {len(edges)}")
    return order, edges


def build_base(spec: BaseGraphSpec) -> BaseGraph:
    """Construct a validated base graph from its spec."""
    kind = spec.kind
    if kind == "complete":
        m = spec.m
        edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
        return base_from_edges(m, edges, label=spec.label())
    if kind == "cycle":
        m = spec.m
        if m is not None and m <= 2:
            raise TooSmallError(f"{spec.label()}: cycle needs at least 3 vertices")
        edges = [(i, (i + 1) % m) for i in range(m)]
        return base_from_edges(m, edges, label=spec.label())
    if kind == "complete_bipartite_balanced":
        r = spec.r
        if r is None or r < 1:
            raise TooSmallError(f"{spec.label()}: side size must be at least 1")
        edges = [(i, r + j) for i in range(r) for j in range(r)]
        return base_from_edges(2 * r, edges, label=spec.label())
    if kind == "petersen":
        edges = []
        for i in range(5):
            edges.append((i, (i + 1) % 5))          # outer cycle
            edges.append((i, i + 5))                # spokes
            edges.append((i + 5, ((i + 2) % 5) + 5))  # inner pentagram
        return base_from_edges(10, edges, label=spec.label())
    if kind == "circulant":
        m = spec.m
        if m is None or m <= 1:
            raise TooSmallError(f"{spec.label()}: order must exceed 1, got {m}")
        offsets = spec.offsets or ()
        if not offsets:
            raise GraphBuildError(f"{spec.label()}: at least one offset required")
        norm = [o % m for o in offsets]
        if len(set(norm)) != len(norm):
            raise GraphBuildError(f"{spec.label()}: offsets must be distinct modulo {m}")
        if any(o == 0 for o in norm):
            raise GraphBuildError(f"{spec.label()}: offsets must be nonzero modulo {m}")
        if any((m - o) % m not in norm for o in norm):
            raise NonRegularError(f"{spec.label()}: offsets must be closed under negation modulo {m}")
        edges = set()
        for i in range(m):
            for o in norm:
                j = (i + o) % m
                edges.add((min(i, j), max(i, j)))
        return base_from_edges(m, sorted(edges), label=spec.label())
    if kind == "edge_list":
        order, edges = read_edge_list(spec.path)
        return base_from_edges(order, edges, label=spec.label())
    raise GraphBuildError(f"unknown base graph kind: {kind!r}")


def star(leaves: int) -> BaseGraph:
    """Star with a centre (vertex 0) and ``leaves`` leaves.

    Stars are not regular: ``build_base`` never makes one, so
    ``build_product`` never sees one.  They exist for the star-power
    identity check, which passes them to ``cartesian_product`` and
    2-colours the product over its ``host_rows``; those rows read only
    the adjacency of the factors, so an irregular one is no exception.
    """
    if leaves < 1:
        raise TooSmallError("star needs at least one leaf")
    adjacency = (tuple(range(1, leaves + 1)),) + ((0,),) * leaves
    return BaseGraph(leaves + 1, None, adjacency)


class _Csr:
    """One of the four adjacency fields of a ``ProductGraph``.  The first
    read of any of them builds all four (``ProductGraph._build_csr``)
    into the instance dict, where later reads find them first."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, pg, owner=None):
        if pg is None:
            return self
        vars(pg).update(pg._build_csr())
        return vars(pg)[self.name]


@cache
def _identity(n: int) -> list[int]:
    """``list(range(n))``, kept for copying: a copy shares its ints,
    which is cheaper than building n new ones on every search."""
    return list(range(n))


class _ProductFields(NamedTuple):
    bases: tuple[BaseGraph, ...]
    n: int
    d: int | None
    C: int
    strides: tuple[int, ...]
    m: int


class ProductGraph(_ProductFields):
    """Cartesian product of base graphs.

    The fields hold only what the bases give: ``m`` is the sum over
    factors of (n / order_i) * |E_i|.  ``adj_off``, ``adj_flat``,
    ``adj_eid`` and ``edges`` are built together on the first read of
    any of them, and ``shift_plan`` and ``host_rows`` each on its own
    first read; a percolation run reads only those two, so it never
    builds the adjacency arrays.

    ``adj_off``, ``adj_flat`` and ``adj_eid`` form a compressed
    adjacency: the neighbours of v are ``adj_flat[adj_off[v]:adj_off[v+1]]``
    in increasing order, and the incident edge ids sit at the same
    positions in ``adj_eid``.  With u rising, each forward slot (v > u)
    of row u takes the next id, which also fills the next free slot of
    row v.  Instances are immutable apart from these fields built on
    first read, which go straight into the instance dict: no attribute
    can be assigned.  They are safe to share across worker processes.
    """

    adj_off = _Csr()
    adj_flat = _Csr()
    adj_eid = _Csr()
    edges = _Csr()

    def __setattr__(self, name, value):
        raise AttributeError(f"ProductGraph is immutable: cannot set {name!r}")

    def neighbors(self, v: int) -> list[int]:
        return self.adj_flat[self.adj_off[v]:self.adj_off[v + 1]]

    def _build_csr(self) -> dict:
        """The four adjacency fields by name, for ``_Csr``."""
        n = self.n
        adj_off = [0] * (n + 1)
        adj_flat: list[int] = []
        for v in range(n):
            rest = v
            row = []
            for base, stride in zip(self.bases, self.strides):
                digit = rest % base.order
                rest //= base.order
                anchor = v - digit * stride
                for w in base.adjacency[digit]:
                    row.append(anchor + w * stride)
            row.sort()
            adj_flat.extend(row)
            adj_off[v + 1] = len(adj_flat)

        # u rises and rows are sorted, so forward slots (v > u) come in (u, v)
        # order; fill[v] is the next slot of row v still waiting for its id
        edges: list[tuple[int, int]] = []
        adj_eid = [0] * len(adj_flat)
        fill = adj_off[:n]
        for u in range(n):
            for k in range(adj_off[u], adj_off[u + 1]):
                v = adj_flat[k]
                if v > u:
                    adj_eid[k] = adj_eid[fill[v]] = len(edges)
                    fill[v] += 1
                    edges.append((u, v))
        return {"adj_off": adj_off, "adj_flat": adj_flat, "adj_eid": adj_eid, "edges": edges}

    @cached_property
    def shift_plan(self) -> tuple[itemgetter, tuple[tuple[int, tuple], ...]]:
        """Where ``shift_rows`` puts each edge-mask byte.

        ``shift_rows``, below, is the one reader:
        ``process.component_profiles`` and the tau2 fill of the
        hitting-time trials read their masks through it.  It gathers
        masks eight to a byte plane (mask j in bit j), so the plan runs
        once per eight masks; the bytes it moves are planes, not single
        masks.

        Returns ``(gather, groups)``.  ``gather(mask)`` picks the mask
        bytes grouped by edge shift s = v - u, u rising within a group.
        Each group is ``(s, moves)``: ``row[dst] = picked[src]`` for every
        ``(dst, src)`` in ``moves`` puts the byte of edge (u, u + s) at
        row[u] of an n-byte row.  Shift (b - a) * stride_i belongs to the
        base edges a < b of factor i with that b - a; its u are the
        vertices whose digit i is one of their a, in blocks of stride_i
        consecutive vertices.  A group takes one move per block or one
        strided move per offset inside a block, whichever is fewer.
        Factors never share a shift, as (b - a) * stride_i < stride_i+1.

        The gather order comes from the digits, not from the adjacency
        arrays.  Ids rise with (u, v), and u's forward neighbours in
        factor i lie above those in lower factors and below those in
        higher ones, so edge (u, u + s) has id F(u) + low_i(u mod
        stride_i) + rank_i(a, b).  F(u) sums the forward degrees of the
        vertices below u, low_i is u's forward degree in the factors
        below i, and rank_i(a, b) counts a's forward neighbours below b.
        Each move's ids are filled in with one slice assignment.
        """
        n = self.n
        # low[x]: the forward degree of x over the factors so far, for x
        # below the next stride; lows keeps the one each factor starts from
        low = [0]
        lows = []
        for base in self.bases:
            lows.append(low)
            fwd = [sum(b > a for b in row) for a, row in enumerate(base.adjacency)]
            low = [x + f for f in fwd for x in low]
        first = list(accumulate(low, initial=0))  # F(u)
        # arrays built, as in a hitting-time run, whose shuffles copy
        # _identity(m): take its ints a group at a time rather than hold m
        # more; a product without the arrays keeps the new ints
        shared = _identity(self.m) if "adj_eid" in vars(self) else None
        order = [0] * self.m
        groups = []
        start = 0
        for base, stride, below in zip(self.bases, self.strides, lows):
            period = stride * base.order
            for gap, pairs in _forward_gaps(base):
                size = n // base.order * len(pairs)
                moves = []
                if n // period <= stride:  # fewer blocks than offsets in a block
                    lifted = [(a, [x + rank for x in below]) for a, rank in pairs]
                    src = start
                    for top in range(0, n, period):
                        for a, within in lifted:
                            dst = top + a * stride
                            moves.append((slice(dst, dst + stride), slice(src, src + stride)))
                            order[src:src + stride] = map(add, first[dst:dst + stride], within)
                            src += stride
                else:
                    step = len(pairs) * stride
                    for j, (a, rank) in enumerate(pairs):
                        for x in range(stride):
                            dst = slice(a * stride + x, n, period)
                            src = slice(start + j * stride + x, start + size, step)
                            moves.append((dst, src))
                            lift = below[x] + rank
                            order[src] = [f + lift for f in first[dst]]
                groups.append((gap * stride, tuple(moves)))
                if shared is not None:
                    order[start:start + size] = map(shared.__getitem__, order[start:start + size])
                start += size
        # one index past the groups keeps gather returning a tuple when m == 1
        return itemgetter(*order, order[0]), tuple(groups)

    @cached_property
    def host_rows(self) -> tuple[tuple[int, int], ...]:
        """The product's own edges as ``(s, H_s)`` in ``shift_plan``
        order: bit u of H_s is set iff (u, u + s) is an edge, as
        ``shift_rows`` gives for the all-ones mask.  H_s repeats one
        period of factor i every stride_i * order_i bits, and that period
        holds a block of stride_i ones at a * stride_i for each of the
        shift's a, so each row is two int products, with no gather.
        Built on first use."""
        n = self.n
        rows = []
        for base, stride in zip(self.bases, self.strides):
            # bit k * period for each of the n / period periods
            tops = ((1 << n) - 1) // ((1 << stride * base.order) - 1)
            for gap, pairs in _forward_gaps(base):
                pattern = sum(1 << a * stride for a, _ in pairs) * ((1 << stride) - 1)
                rows.append((gap * stride, pattern * tops))
        return tuple(rows)


# shift_rows packs eight masks to a byte plane: lane j's mask bytes (0
# or 1) to 0 or bit j, and plane bytes to lane j's binary digits for
# int(..., 2).  Bit j of the bytes 0..255 runs in blocks of 2**j zeros
# and 2**j ones, so each digit table is one repeat, cheap at import for
# the commands that never read a mask.
_LANE_BITS = [bytes.maketrans(b"\x00\x01", bytes((0, 1 << j))) for j in range(8)]
_LANE_DIGITS = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]


def shift_rows(pg: ProductGraph, masks) -> Iterator[list[tuple[int, int]]]:
    """The edges of each 0/1 edge mask in ``masks`` as one n-bit int per
    edge shift of the product: yields, mask by mask, the list of
    ``(s, E_s)`` in ``pg.shift_plan`` order.

    Every product edge is (u, u + s) for a shift s = (b - a) * stride_i
    of a base edge a < b of factor i, and bit u of E_s is set iff edge
    (u, u + s) is in the mask.  Base edges of one factor with the same
    b - a share E_s, as their u are disjoint.  ``pg.shift_plan`` says
    where each mask byte goes; it is built on the first call for a
    product and reused after, and this is its one reader.

    The masks go through the plan eight at a time.  Mask j of a block
    becomes bit j of one byte plane, which is gathered once and moved
    into an n-byte row per shift once; lane j's E_s is then read from
    bit j of that row.  A block's rows are made when the caller reaches
    it, not for every mask up front.
    """
    gather, groups = pg.shift_plan
    n, m = pg.n, pg.m
    for first in range(0, len(masks), 8):
        block = masks[first:first + 8]
        plane = block[0]  # its 0/1 bytes already are bit 0
        if len(block) > 1:
            bits = int.from_bytes(plane, "little")
            for mask, lane_bit in zip(block[1:], _LANE_BITS[1:]):
                bits |= int.from_bytes(mask.translate(lane_bit), "little")
            plane = bits.to_bytes(m, "little")
        picked = bytes(gather(plane))
        lanes = [[] for _ in block]
        for shift, moves in groups:
            row = bytearray(n)
            for dst, src in moves:
                row[dst] = picked[src]
            row.reverse()  # int(..., 2) reads the most significant bit first
            for rows, digits in zip(lanes, _LANE_DIGITS):
                rows.append((shift, int(row.translate(digits), 2)))
        yield from lanes


def _forward_gaps(base: BaseGraph) -> list[tuple[int, list[tuple[int, int]]]]:
    """The base edges a < b grouped by b - a, gaps rising, as ``(gap,
    [(a, rank), ...])`` with a rising; rank counts a's neighbours above
    a and below b."""
    by_gap: dict[int, list[tuple[int, int]]] = {}
    for a, row in enumerate(base.adjacency):
        for rank, b in enumerate(b for b in row if b > a):
            by_gap.setdefault(b - a, []).append((a, rank))
    return sorted(by_gap.items())


def layers(rows, layer: int, rest: int) -> Iterator[int]:
    """The breadth-first layers from ``layer`` over the shift rows
    ``(s, E_s)``, ``layer`` first: bit u of E_s is set iff (u, u + s) is
    an edge, as in ``host_rows``.  Each later layer is taken from
    ``rest``, which must not hold ``layer``: it is the OR of
    ``((F & E_s) << s) | ((F >> s) & E_s)`` over the rows, F the layer
    before, less the vertices already reached.  The layers stop when
    one is empty."""
    while layer:
        yield layer
        grown = 0
        for shift, bits in rows:
            grown |= ((layer & bits) << shift) | ((layer >> shift) & bits)
        layer = grown & rest
        rest ^= layer


def cartesian_product(bases) -> ProductGraph:
    """Assemble the Cartesian product of validated base graphs; ``d`` is
    None when a base is irregular.  Only the bases are read: the
    adjacency arrays wait for their first read."""
    bases = tuple(bases)
    if not bases:
        raise GraphBuildError("product needs at least one base graph")
    cap = max_vertices_cap()
    n = math.prod(b.order for b in bases)
    if n > cap:
        raise TooLargeError(f"product would have {n} vertices, cap is {cap}")
    radices = tuple(b.order for b in bases)
    strides = tuple(math.prod(radices[:i]) for i in range(len(radices)))
    d = None
    if all(b.degree is not None for b in bases):
        d = sum(b.degree for b in bases)
    # each of the n / order_i copies of factor i has its |E_i| edges
    m = sum(n // b.order * sum(map(len, b.adjacency)) // 2 for b in bases)
    return ProductGraph(bases=bases, n=n, d=d, C=max(radices), strides=strides, m=m)


def declared_order(spec: BaseGraphSpec) -> int | None:
    """Vertex count a spec declares; None for an edge list, whose file
    tells, or for a missing field."""
    if spec.kind == "complete_bipartite_balanced":
        return None if spec.r is None else 2 * spec.r
    if spec.kind == "petersen":
        return 10
    return None if spec.kind == "edge_list" else spec.m


def build_product(specs) -> ProductGraph:
    """Build bases from specs, then the product.  ``build_base`` rejects
    irregular specs, so the product is regular.  The vertex cap is
    checked on the declared orders before any base is built, and on the
    product again once edge-list orders are known."""
    specs = tuple(specs)
    cap = max_vertices_cap()
    # a missing or non-positive order is build_base's to reject
    n = math.prod(order for order in map(declared_order, specs)
                  if order is not None and order > 0)
    if n > cap:
        raise TooLargeError(f"product would have at least {n} vertices, cap is {cap}")
    return cartesian_product([build_base(s) for s in specs])


def bipartition_signature(pg: ProductGraph) -> tuple[int, int] | None:
    """(|O|, |E|) when the product is bipartite, else None.

    O is the side of vertex 0: the union of the even layers from vertex
    0 over ``pg.host_rows`` (``layers``), and E the rest.  The layers
    reach every vertex, since a product of connected bases is
    connected.  The product is bipartite iff no edge (u, u + s) has both
    ends in O or both in E, that is iff no row H_s meets ``O & O >> s``
    or ``E & E >> s``.  Only the rows are read: the adjacency arrays
    are not built.
    """
    rows = pg.host_rows
    full = (1 << pg.n) - 1
    side = 0
    for layer in islice(layers(rows, 1, full ^ 1), 0, None, 2):
        side |= layer
    other = full ^ side
    if any(bits & (side & side >> s | other & other >> s) for s, bits in rows):
        return None
    size = side.bit_count()
    return size, pg.n - size


def neighbor_bitmasks(pg: ProductGraph, mask=None) -> list[int]:
    """Bit w of entry v is set when edge {v, w} is present in the view."""
    nbr = [0] * pg.n
    for eid, (u, v) in enumerate(pg.edges):
        if mask is None or mask[eid]:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
    return nbr


def components_from_bitmasks(nbr: list[int], avail: int) -> list[int]:
    """Connected components (as bitmasks) of the vertices in ``avail``."""
    comps = []
    rem = avail
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= nbr[low.bit_length() - 1]
            nxt &= rem & ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        rem &= ~comp
    return comps


def full_mask(pg: ProductGraph) -> bytes:
    """Edge mask with every edge present."""
    return b"\x01" * pg.m
