"""Seeded workloads of the grid-simulator benchmark.

A workload is a fixed set of network instances (parameters plus feature
codes) that the benchmark's ops cycle through evenly.  Shapes, scales and
modes are fixed per workload; the benchmark seed only draws the values,
so every seed measures the same mix of work.  README.md says why each
workload exists and which layer it is meant to stress.
"""

import dataclasses

import numpy as np

from lstmgrid import lstm_ref, mapper

MODES = ("stacked", "reload", "chip_select")


@dataclasses.dataclass(frozen=True)
class Instance:
    """One network and its feature codes, ready for the library pipeline."""
    index: int
    mode: str
    tile: mapper.TileSpec
    spec: lstm_ref.NetworkSpec
    params: lstm_ref.NetworkParams
    features: np.ndarray

    @property
    def n_steps(self):
        return self.features.shape[0]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    # shapes(toy) -> [(layers, n_out, w_scale, f_scale, steps, mode, tile)]
    shapes: object
    all_fast: bool = False  # every MAC chain stays on mac_run's cumsum path
    min_saturated_share: float = None  # floor on saturated / all MAC chains


def build_instances(workload, seed, toy=False):
    """Draw the workload's instances from `seed`; same seed, same inputs."""
    shapes = workload.shapes(toy)
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2 ** 31 - 2, size=len(shapes))
    instances = []
    for k, ((layers, n_out, w_scale, f_scale, steps, mode, tile), s) in \
            enumerate(zip(shapes, seeds)):
        params = lstm_ref.random_network_params(int(s), layers, n_out=n_out,
                                                scale=w_scale)
        spec = lstm_ref.derive_spec(params)
        features = lstm_ref.random_features(int(s) + 1, steps,
                                            spec.n_features, scale=f_scale)
        instances.append(Instance(k, mode, tile, spec, params, features))
    # a seeded order keeps a partial pass over a mixed set representative
    order = rng.permutation(len(instances))
    return [instances[k] for k in order]


FULL_TILE = mapper.TileSpec()
TINY_TILE = mapper.TileSpec(nh_capacity=4)
TOY_TILE = mapper.TileSpec(nh_capacity=8)


def _stacked_3x480(toy):
    if toy:
        return [([(24, 24)] * 3, None, 0.5, 1.0, 2, "stacked", TOY_TILE)] * 2
    return [([(480, 480)] * 3, None, 0.5, 1.0, 10, "stacked", FULL_TILE)] * 2


def _saturating_1x480(toy):
    if toy:
        return [([(96, 96)], None, 2.0, 4.0, 3, "stacked", FULL_TILE)] * 2
    return [([(480, 480)], None, 2.0, 4.0, 3, "stacked", FULL_TILE)] * 2


def _reload_3x384(toy):
    if toy:
        return [([(24, 24)] * 3, 3, 0.5, 1.0, 2, "reload", TOY_TILE)] * 2
    return [([(384, 384)] * 3, 62, 0.5, 1.0, 10, "reload", FULL_TILE)] * 2


def _sweep_tiny(toy):
    """The bit-exact acceptance regime: 1-3 dies wide, 1-2 layers, ragged
    inputs, optional narrow projection, every load mode."""
    per_combo, steps = (1, 2) if toy else (12, 8)
    shapes = []
    for n in (1, 2, 3):
        nh = TINY_TILE.nh_capacity * n
        for n_layers in (1, 2):
            for mode in MODES:
                for k in range(per_combo):
                    ni = 3 + k % 7
                    layers = [(ni, nh)] + [(nh, nh)] * (n_layers - 1)
                    shapes.append((layers, (None, 2, 3, 4)[k % 4],
                                   0.6 + (k % 5) * 0.35, 1.0, steps, mode,
                                   TINY_TILE))
    return shapes


WORKLOADS = {w.name: w for w in (
    Workload("stacked_3x480", _stacked_3x480, all_fast=True),
    Workload("saturating_1x480", _saturating_1x480,
             min_saturated_share=0.30),
    Workload("reload_3x384", _reload_3x384),
    Workload("sweep_tiny", _sweep_tiny),
)}
