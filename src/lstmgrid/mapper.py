"""Placement planning: network layers onto square grids of fixed-size dies.

A layer with N_H hidden units needs an n x n grid with n = ceil(N_H /
die_capacity).  Die (i, j) owns hidden-row block i of every weight matrix
and column slice j of both the input and the recurrent dimension; the
rightmost column dies are masters and additionally hold the peephole and
bias vectors (applied after the row reduction) plus the output-projection
slice on the last layer.  Ragged sizes are zero-padded to uniform tiles,
which cannot change any result (zero products are absorbed by the
saturating accumulator).

Stacked mode instantiates one grid per layer and chains them; reload mode
keeps a single grid and re-loads parameters layer by layer (and step by
step), spilling states to the host in between.
"""

import dataclasses
import functools

from .lstm_ref import tile_width

HOST = ("host",)


class CapacityError(Exception):
    """A die's parameter footprint exceeds its SRAM budget."""


@dataclasses.dataclass(frozen=True)
class TileSpec:
    """Per-die resources."""
    nh_capacity: int = 96
    sram_bytes: int = 84 * 1024

    def __post_init__(self):
        for name in ("nh_capacity", "sram_bytes"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:  # no bool, float, str
                raise ValueError("%s must be a positive integer, not %r"
                                 % (name, value))


@dataclasses.dataclass(frozen=True)
class DiePlacement:
    layer: int
    row: int
    col: int
    role: str  # 'master' | 'slave'
    hidden_rows: tuple  # padded global hidden index range owned (start, stop)
    x_cols: tuple  # padded input-column slice owned
    h_cols: tuple  # padded recurrent-column slice owned
    fc_cols: tuple = None  # projection slice (masters of the last layer)
    fc_root: bool = False  # die finishing the projection reduction
    footprint_bytes: int = 0

    @property
    def die_id(self):
        return (self.layer, self.row, self.col)


@dataclasses.dataclass(frozen=True, eq=False)
class LinkPlan:
    """One planned point-to-point or broadcast connection.

    kinds: 'p' parameters/features in, 'r' partial-sum reduction, 'h'
    hidden-state distribution, 'out' write-back/state spill.  `key`
    (layer, name, index...) is what schedules look the link up by, and
    its label spells the key out.  Links compare by identity.
    """
    kind: str
    src: tuple  # die id or HOST
    receivers: tuple  # die ids or (HOST,)
    key: tuple

    def __post_init__(self):
        if self.kind not in ("p", "r", "h", "out"):
            raise ValueError("unknown link kind %r" % (self.kind,))

    @functools.cached_property
    def label(self):
        layer, name, *index = self.key
        if name == "feat":
            index = ["col%d" % j for j in index]
        return ".".join(["L%d" % layer, name] + [str(k) for k in index])

    # partial sums travel as 16-bit words, everything else as 8-bit ones
    word_bits = property(lambda self: 16 if self.kind == "r" else 8)


@dataclasses.dataclass(frozen=True)
class LayerGrid:
    layer: int
    n: int
    n_hidden: int  # real hidden width
    n_inputs: int  # real input width
    nh_tile: int  # padded per-die hidden rows
    ni_tile: int  # padded per-die input columns
    n_out: int = None  # projection width when this layer carries the FCL

    @property
    def nh_padded(self):
        return self.n * self.nh_tile

    @property
    def ni_padded(self):
        return self.n * self.ni_tile


@dataclasses.dataclass
class GridPlan:
    spec: object
    tile: TileSpec
    reload: bool
    chip_select: bool
    layer_grids: list
    dies: list
    links: list
    total_dies: int

    def die(self, die_id):
        return self._by_id[die_id]

    def link(self, key):
        """The planned link of `key`; KeyError when the plan has none."""
        return self._links[key]

    def __post_init__(self):
        self._by_id = {d.die_id: d for d in self.dies}
        self._links = {link.key: link for link in self.links}


@dataclasses.dataclass(frozen=True)
class PinBudget:
    pins_clk_rst: int
    pins_config: int
    pins_per_stream: int
    n_inp_layer: int
    n_out_layer: int
    total_min: int


def memory_footprint(n_i_tile, n_h_tile, fc_out=None, fc_bias=False,
                     master=True):
    """Parameter bytes a die must hold, one byte per parameter.

    Four gate matrices over both the input and recurrent slices; masters
    additionally keep the post-reduction vectors — three peephole
    diagonals (stored even when all zero), four biases, and on the last
    layer the projection slice (fc_out rows by n_h_tile columns; the
    reduction-root die also keeps the projection bias).
    """
    if n_i_tile < 0 or n_h_tile < 0:
        raise ValueError("tile dimensions must be non-negative")
    total = 4 * n_h_tile * (n_i_tile + n_h_tile)
    if not master:
        return total
    total += (3 + 4) * n_h_tile
    if fc_out:
        total += fc_out * n_h_tile
        if fc_bias:
            total += fc_out
    return total


def plan_layer_grid(layer, n_inputs, n_hidden, tile, n_out=None):
    n = tile_width(n_hidden, tile.nh_capacity)  # dies per grid side
    return LayerGrid(layer, n, n_hidden, n_inputs, tile_width(n_hidden, n),
                     tile_width(n_inputs, n), n_out)


def layer_io(reload, n_layers, grid):
    """(spills, reads out) of `grid` in a run of this load mode: the one
    rule for which state-spill and write-back links carry words.  Only a
    multi-layer reload run spills, between its per-layer passes; only the
    last grid reads out, unless it spills and has no projection: then its
    last spill already is the output."""
    spills = reload and n_layers > 1
    return spills, (grid.layer == n_layers - 1
                    and (grid.n_out is not None or not spills))


def _layer_links(grid, upstream, spills, reads_out):
    """Every connection one layer grid moves words on (see `layer_io`)."""
    n, ell, mc = grid.n, grid.layer, grid.n - 1  # mc: the master column
    links = []

    def add(kind, src, receivers, *key):
        links.append(LinkPlan(kind, src, tuple(receivers), (ell,) + key))

    # feature streams: one per column, host-fed on the first grid and
    # master-fed from the upstream grid afterwards
    for j in range(n):
        src = HOST if upstream is None else (
            upstream.layer, min(j, upstream.n - 1), upstream.n - 1)
        add("p", src, ((ell, i, j) for i in range(n)), "feat", j)
    # parameter load streams, one per die
    for i in range(n):
        for j in range(n):
            add("p", HOST, [(ell, i, j)], "load", i, j)
    # reduction chain, left to right within each row
    for i in range(n):
        for j in range(n - 1):
            add("r", (ell, i, j), [(ell, i, j + 1)], "reduce", i, j)
    # hidden distribution: chain up the master column, then each master
    # broadcasts its own tile to its namesake column
    for i in range(n - 1, 0, -1):
        add("h", (ell, i, mc), [(ell, i - 1, mc)], "hchain", i)
    for i in range(n - 1):
        add("h", (ell, i, mc), ((ell, r, i) for r in range(n)), "hcast", i)
    # read-out: the projection reduction steps down the master column and
    # the root writes y back, or every master writes its hidden tile back
    if reads_out and grid.n_out is not None:
        for i in range(n - 1):
            add("r", (ell, i, mc), [(ell, i + 1, mc)], "fcreduce", i)
        add("out", (ell, mc, mc), [HOST], "writeback")
    elif reads_out:
        for i in range(n):
            add("out", (ell, i, mc), [HOST], "writeback", i)
    if spills:
        for i in range(n):
            add("out", (ell, i, mc), [HOST], "spill", i)
    return links


def plan_grid(spec, tile=TileSpec(), reload=False, chip_select=False):
    """Place every layer of `spec` onto square die grids.

    Raises CapacityError when any die's parameters do not fit its SRAM.
    """
    grids = []
    for ell, (n_in, n_hid) in enumerate(spec.layers):
        n_out = spec.n_out if ell == len(spec.layers) - 1 else None
        grids.append(plan_layer_grid(ell, n_in, n_hid, tile, n_out))
        if n_out is not None and n_out > tile.nh_capacity:
            raise CapacityError(
                "projection width %d exceeds the %d parallel units of a die"
                % (n_out, tile.nh_capacity))

    dies, links = [], []
    for grid in grids:
        n = grid.n
        for i in range(n):
            for j in range(n):
                role = "master" if j == n - 1 else "slave"
                fc_cols = None
                fc_root = False
                if grid.n_out is not None and role == "master":
                    fc_cols = (i * grid.nh_tile, (i + 1) * grid.nh_tile)
                    fc_root = i == n - 1
                footprint = memory_footprint(
                    grid.ni_tile, grid.nh_tile,
                    fc_out=grid.n_out if fc_cols else None,
                    fc_bias=fc_root, master=role == "master")
                if footprint > tile.sram_bytes:
                    raise CapacityError(
                        "die (layer %d, %d, %d) needs %d parameter bytes "
                        "but the SRAM holds %d"
                        % (grid.layer, i, j, footprint, tile.sram_bytes))
                dies.append(DiePlacement(
                    grid.layer, i, j, role,
                    hidden_rows=(i * grid.nh_tile, (i + 1) * grid.nh_tile),
                    x_cols=(j * grid.ni_tile, (j + 1) * grid.ni_tile),
                    h_cols=(j * grid.nh_tile, (j + 1) * grid.nh_tile),
                    fc_cols=fc_cols, fc_root=fc_root,
                    footprint_bytes=footprint))
        links.extend(_layer_links(
            grid, grids[grid.layer - 1] if grid.layer and not reload else None,
            *layer_io(reload, len(grids), grid)))

    sizes = [g.n * g.n for g in grids]
    total = max(sizes) if reload else sum(sizes)
    return GridPlan(
        spec=spec, tile=tile, reload=reload, chip_select=chip_select,
        layer_grids=grids, dies=dies, links=links, total_dies=total)


def links_labelled(plan, labels):
    """The plan's links of `labels`; ValueError naming any it lacks."""
    if not labels:  # no label table to build
        return set()
    by_label = {link.label: link for link in plan.links}
    unknown = sorted(map(str, set(labels) - set(by_label)))
    if unknown:
        raise ValueError("the plan has no link labelled %s"
                         % ", ".join(unknown))
    return {by_label[label] for label in labels}


def pin_budget(plan, time_multiplexed=False):
    """Package pin count: clock/reset + config + 6 pins per data stream
    (4 data + valid + ready), one input stream per die column of the
    first grid and one output stream per die row of the last.
    Time-multiplexing shares one stream each way, which is always
    2 + 3 + 6 + 6 = 17 pins."""
    if time_multiplexed:
        n_inp = n_out = 1
    else:
        n_inp, n_out = plan.layer_grids[0].n, plan.layer_grids[-1].n
    total = 2 + 3 + 6 * n_inp + 6 * n_out
    return PinBudget(2, 3, 6, n_inp, n_out, total_min=total)


def plan_to_dict(plan):
    """JSON-ready serialization (the CLI `plan` output)."""
    return {
        "reload": plan.reload,
        "chip_select": plan.chip_select,
        "total_dies": plan.total_dies,
        "tile": dataclasses.asdict(plan.tile),
        "layers": [dataclasses.asdict(g) for g in plan.layer_grids],
        "dies": [dataclasses.asdict(d) for d in plan.dies],
        "links": [{"kind": l.kind, "src": list(l.src),
                   "receivers": [list(r) for r in l.receivers],
                   "label": l.label} for l in plan.links],
    }
