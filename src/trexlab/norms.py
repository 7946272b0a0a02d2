"""Penalty norms, their duals, and proximity operators.

Three penalty families are supported: the l1 norm, a coordinate-weighted l1
norm, and a group norm sum_G w_G ||beta_G||_2 over a partition of the
coordinates. The dual norm is the l-infinity norm for l1, max_j |v_j| / w_j
for the weighted case, and max_G ||v_G||_2 / w_G for groups. ``omega``,
``omega_dual`` and ``prox_omega`` take one vector or a (k, p) batch of rows;
a batch gives each row exactly what the row alone gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionError, config_block

L1 = "l1"
WEIGHTED_L1 = "weighted_l1"
GROUP = "group"


@dataclass(frozen=True)
class NormSpec:
    """Immutable description of a penalty norm.

    kind: "l1", "weighted_l1" or "group".
    weights: per-coordinate (weighted_l1) or per-group (group) positive weights;
        None for plain l1.
    partition: tuple of index tuples covering 0..p-1 (group kind only,
        0-based internally; file formats use 1-based indices).
    """

    kind: str
    weights: tuple = None
    partition: tuple = None

    def __post_init__(self):
        if self.kind not in (L1, WEIGHTED_L1, GROUP):
            raise ConfigError(f"unknown norm kind {self.kind!r}")
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            if any(v <= 0 or not np.isfinite(v) for v in w):
                raise ConfigError("weights must be strictly positive and finite")
            object.__setattr__(self, "weights", w)
        if self.kind == WEIGHTED_L1 and self.weights is None:
            raise ConfigError("weighted_l1 requires weights")
        if self.kind == GROUP:
            if self.partition is None:
                raise ConfigError("group norm requires a partition")
            part = tuple(tuple(int(i) for i in g) for g in self.partition)
            flat = [i for g in part for i in g]
            if not part or any(len(g) == 0 for g in part):
                raise ConfigError("partition groups must be nonempty")
            if sorted(flat) != list(range(len(flat))):
                raise ConfigError("partition must be disjoint and cover 0..p-1")
            object.__setattr__(self, "partition", part)
            if self.weights is None:
                object.__setattr__(self, "weights", tuple(1.0 for _ in part))
            elif len(self.weights) != len(part):
                raise ConfigError("need one weight per group")
        elif self.partition is not None:
            raise ConfigError("partition is only valid for the group kind")

    @cached_property
    def p(self):
        """Coordinate count pinned by the spec, or None when length-agnostic."""
        if self.kind == WEIGHTED_L1:
            return len(self.weights)
        if self.kind == GROUP:
            return sum(len(g) for g in self.partition)
        return None

    @cached_property
    def _layout(self):
        """Group kind: the coordinates of each group padded with p (a zero
        column appended to the input), the group of every coordinate and the
        group weights."""
        p = self.p
        idx = np.full((len(self.partition), max(len(g) for g in self.partition)), p)
        gid = np.empty(p, dtype=int)
        for gi, g in enumerate(self.partition):
            idx[gi, :len(g)] = g
            gid[list(g)] = gi
        return idx, gid, np.asarray(self.weights)

    def _group_norms(self, v: np.ndarray) -> np.ndarray:
        """||v_G||_2 of every group, per row of a (k, p) batch."""
        idx = self._layout[0]
        blocks = np.concatenate([v, np.zeros(v.shape[:-1] + (1,))], axis=-1)[..., idx]
        return np.sqrt(np.sum(blocks * blocks, axis=-1))

    def _check_len(self, v: np.ndarray):
        if self.p is not None and v.shape[-1] != self.p:
            raise DimensionError(f"vector length {v.shape[-1]} != spec length {self.p}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.weights is not None:
            out["weights"] = list(self.weights)
        if self.partition is not None:
            # 1-based indices in serialized form
            out["partition"] = [[i + 1 for i in g] for g in self.partition]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "NormSpec":
        config_block(d, cls, "norm", required=("kind",),
                     items={"weights": (int, float), "partition": list})
        part = d.get("partition")
        if part is not None:
            if not all(isinstance(i, int) and not isinstance(i, bool)
                       for g in part for i in g):
                raise ConfigError(f"norm partition must hold arrays of 1-based "
                                  f"indices, got {part!r}")
            part = tuple(tuple(i - 1 for i in g) for g in part)
        w = d.get("weights")
        return cls(d["kind"], tuple(w) if w is not None else None, part)


def l1_spec() -> NormSpec:
    return NormSpec(L1)


def weighted_l1_spec(weights) -> NormSpec:
    return NormSpec(WEIGHTED_L1, tuple(float(w) for w in weights))


def group_spec(partition, weights=None) -> NormSpec:
    part = tuple(tuple(int(i) for i in g) for g in partition)
    w = tuple(float(v) for v in weights) if weights is not None else None
    return NormSpec(GROUP, w, part)


def singleton_groups(p: int, weights=None) -> NormSpec:
    return group_spec([(j,) for j in range(p)], weights)


def _per_row(v, out):
    """A float for a 1-D input, the per-row array for a (k, p) batch."""
    return float(out) if v.ndim == 1 else out


def omega(spec: NormSpec, beta):
    """Evaluate the penalty norm; a (k, p) batch yields one value per row."""
    beta = np.asarray(beta, dtype=float)
    spec._check_len(beta)
    if spec.kind == L1:
        return _per_row(beta, np.sum(np.abs(beta), axis=-1))
    if spec.kind == WEIGHTED_L1:
        return _per_row(beta, np.sum(np.asarray(spec.weights) * np.abs(beta), axis=-1))
    return _per_row(beta, np.sum(spec._layout[2] * spec._group_norms(beta), axis=-1))


def omega_dual(spec: NormSpec, v):
    """Evaluate the dual norm sup { v @ beta : omega(beta) <= 1 }, per row of a
    (k, p) batch."""
    v = np.asarray(v, dtype=float)
    spec._check_len(v)
    if v.shape[-1] == 0:
        return _per_row(v, np.zeros(v.shape[:-1]))
    if spec.kind == L1:
        return _per_row(v, np.max(np.abs(v), axis=-1))
    if spec.kind == WEIGHTED_L1:
        return _per_row(v, np.max(np.abs(v) / np.asarray(spec.weights), axis=-1))
    return _per_row(v, np.max(spec._group_norms(v) / spec._layout[2], axis=-1))


def soft_threshold(v, th) -> np.ndarray:
    """The prox of the th-weighted l1 norm, sign(v) max(|v| - th, 0), as
    v - clip(v, -th, th), with thresholds th >= 0 that broadcast against v.
    The two forms agree in value; an entry thresholded to zero is +0.0."""
    return v - np.minimum(np.maximum(v, -th), th)


def prox_omega(spec: NormSpec, v, t) -> np.ndarray:
    """Proximity operator argmin_z { 0.5 ||z - v||^2 + t * omega(z) }.

    Coordinate soft-thresholding (``soft_threshold``) for (weighted) l1; block shrinkage by
    max(0, 1 - t * w_G / ||v_G||) for groups, with the zero block returned at
    ||v_G|| = 0 (the continuous limit). A (k, p) batch takes a scalar t or one
    step per row, shaped (k, 1).
    """
    v = np.asarray(v, dtype=float)
    spec._check_len(v)
    if np.any(np.asarray(t) < 0):
        raise ConfigError("t must be nonnegative")
    if spec.kind == L1:
        return soft_threshold(v, t)
    if spec.kind == WEIGHTED_L1:
        return soft_threshold(v, t * np.asarray(spec.weights))
    _, gid, w = spec._layout
    nrm = spec._group_norms(v)
    # a zero block stays zero whatever the (finite) factor
    return v * np.maximum(0.0, 1.0 - t * w / np.where(nrm > 0, nrm, 1.0))[..., gid]


def penalty_weight_vector(spec: NormSpec, p: int) -> np.ndarray:
    """Per-coordinate l1 weights for specs that reduce to a weighted l1 norm.

    Valid for l1, weighted_l1, and group specs whose groups are all singletons.
    """
    if spec.kind == L1:
        return np.ones(p)
    if spec.kind == WEIGHTED_L1:
        return np.asarray(spec.weights, dtype=float)
    if all(len(g) == 1 for g in spec.partition):
        w = np.empty(p)
        for wg, g in zip(spec.weights, spec.partition):
            w[g[0]] = wg
        return w
    raise ConfigError("spec does not reduce to a weighted l1 norm")
