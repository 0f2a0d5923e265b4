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
import math

HOST = ("host",)


class CapacityError(Exception):
    """A die's parameter footprint exceeds its SRAM budget."""


@dataclasses.dataclass(frozen=True)
class TileSpec:
    """Per-die resources."""
    nh_capacity: int = 96
    sram_bytes: int = 84 * 1024
    sram_banks: int = 12
    link_data_bits: int = 4
    word_bits: int = 8

    def __post_init__(self):
        if self.nh_capacity <= 0:
            raise ValueError("nh_capacity must be positive")
        if self.word_bits % self.link_data_bits:
            raise ValueError("link width must divide the word width")


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


@dataclasses.dataclass(frozen=True)
class LinkPlan:
    """One planned point-to-point or broadcast connection.

    kinds: 'p' parameters/features in, 'r' partial-sum reduction,
    'h' hidden-state distribution, 'out' write-back/state spill.
    """
    kind: str
    src: tuple  # die id or HOST
    receivers: tuple  # die ids or (HOST,)
    label: str

    def __post_init__(self):
        if self.kind not in ("p", "r", "h", "out"):
            raise ValueError("unknown link kind %r" % (self.kind,))


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

    def col_blocks(self):
        """Per die column j, its (input slice, recurrent slice) of the
        padded operands: the column blocking of every MAC chain."""
        return [(slice(j * self.ni_tile, (j + 1) * self.ni_tile),
                 slice(j * self.nh_tile, (j + 1) * self.nh_tile))
                for j in range(self.n)]


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
    pin_interpretations: dict  # both readings of the stream-count question

    def grid(self, layer):
        return self.layer_grids[layer]

    def die(self, die_id):
        return self._by_id[die_id]

    def __post_init__(self):
        self._by_id = {d.die_id: d for d in self.dies}
        self._link_keys = {(l.kind, l.src, l.receivers) for l in self.links}

    def has_link(self, kind, src, receivers):
        return (kind, src, receivers) in self._link_keys


@dataclasses.dataclass(frozen=True)
class PinBudget:
    pins_clk_rst: int
    pins_config: int
    pins_per_stream: int
    n_inp_layer: int
    n_out_layer: int
    total_min: int
    total_time_multiplexed: int


def memory_footprint(n_i_tile, n_h_tile, peephole=True, fc_out=None,
                     fc_bias=False, master=True):
    """Parameter bytes a die must hold, one byte per parameter.

    Four gate matrices over both the input and recurrent slices; masters
    additionally keep the post-reduction vectors — three peephole
    diagonals (when the cell uses them), four biases, and on the last
    layer the projection slice (fc_out rows by n_h_tile columns; the
    reduction-root die also keeps the projection bias).
    """
    if n_i_tile < 0 or n_h_tile < 0:
        raise ValueError("tile dimensions must be non-negative")
    total = 4 * n_h_tile * (n_i_tile + n_h_tile)
    if not master:
        return total
    if peephole:
        total += 3 * n_h_tile
    total += 4 * n_h_tile
    if fc_out:
        total += fc_out * n_h_tile
        if fc_bias:
            total += fc_out
    return total


def _split(width, n):
    return int(math.ceil(width / n)) if width else 0


def plan_layer_grid(layer, n_inputs, n_hidden, tile, n_out=None):
    n = int(math.ceil(n_hidden / tile.nh_capacity))
    return LayerGrid(layer, n, n_hidden, n_inputs,
                     nh_tile=_split(n_hidden, n), ni_tile=_split(n_inputs, n),
                     n_out=n_out)


def _layer_links(grid, upstream):
    """All planned connections touching one layer grid."""
    n, ell = grid.n, grid.layer
    links = []
    master_col = n - 1

    def die(i, j):
        return (ell, i, j)

    # feature streams: one per column, host-fed on the first grid and
    # master-fed from the upstream grid afterwards
    for j in range(n):
        src = HOST if upstream is None else (
            upstream.layer, min(j, upstream.n - 1), upstream.n - 1)
        links.append(LinkPlan("p", src, tuple(die(i, j) for i in range(n)),
                              "L%d.feat.col%d" % (ell, j)))
    # parameter load streams, one per die
    for i in range(n):
        for j in range(n):
            links.append(LinkPlan("p", HOST, (die(i, j),),
                                  "L%d.load.%d.%d" % (ell, i, j)))
    # reduction chain, left to right within each row
    for i in range(n):
        for j in range(n - 1):
            links.append(LinkPlan("r", die(i, j), (die(i, j + 1),),
                                  "L%d.reduce.%d.%d" % (ell, i, j)))
    # hidden distribution: chain up the master column, then each master
    # broadcasts its own tile to its namesake column
    for i in range(n - 1, 0, -1):
        links.append(LinkPlan("h", die(i, master_col),
                              (die(i - 1, master_col),),
                              "L%d.hchain.%d" % (ell, i)))
    for i in range(n - 1):
        links.append(LinkPlan("h", die(i, master_col),
                              tuple(die(r, i) for r in range(n)),
                              "L%d.hcast.%d" % (ell, i)))
    # projection reduction steps down the master column, then write-back
    if grid.n_out is not None:
        for i in range(n - 1):
            links.append(LinkPlan("r", die(i, master_col),
                                  (die(i + 1, master_col),),
                                  "L%d.fcreduce.%d" % (ell, i)))
        links.append(LinkPlan("out", die(n - 1, master_col), (HOST,),
                              "L%d.writeback" % ell))
    else:
        for i in range(n):
            links.append(LinkPlan("out", die(i, master_col), (HOST,),
                                  "L%d.writeback.%d" % (ell, i)))
    # state spill/reload paths (used in reload mode)
    for i in range(n):
        links.append(LinkPlan("out", die(i, master_col), (HOST,),
                              "L%d.spill.%d" % (ell, i)))
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
        links.extend(_layer_links(grid,
                                  grids[grid.layer - 1]
                                  if grid.layer and not reload else None))

    sizes = [g.n * g.n for g in grids]
    total = max(sizes) if reload else sum(sizes)
    first_n, last_n = grids[0].n, grids[-1].n
    return GridPlan(
        spec=spec, tile=tile, reload=reload, chip_select=chip_select,
        layer_grids=grids, dies=dies, links=links, total_dies=total,
        pin_interpretations={
            "grid_side": {"n_inp": first_n, "n_out": last_n},
            "all_dies": {"n_inp": first_n * first_n,
                         "n_out": last_n * last_n},
        })


def pin_budget(plan, time_multiplexed=False, interpretation="grid_side"):
    """Package pin count: clock/reset + config + 6 pins per data stream
    (4 data + valid + ready).  Time-multiplexing shares one stream each
    way, which is always 2 + 3 + 6 + 6 = 17 pins."""
    streams = plan.pin_interpretations[interpretation]
    n_inp, n_out = streams["n_inp"], streams["n_out"]
    if time_multiplexed:
        n_inp = n_out = 1
    total = 2 + 3 + 6 * n_inp + 6 * n_out
    return PinBudget(2, 3, 6, n_inp, n_out,
                     total_min=total, total_time_multiplexed=17)


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
        "pin_interpretations": plan.pin_interpretations,
    }
