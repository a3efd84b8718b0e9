"""The ``Sketch`` protocol — the library's user-extension surface.

Mirrors the reference's pluggable abstract base (TDigest.java:44 plus the
``ScaleFunction`` enum hook, ScaleFunction.java:30): any object implementing
this protocol becomes a distributed mergeable aggregate via the adapters in
``t_digest_ray.stages.aggregate`` (partial ``map_batches`` stage + canonical
``groupby().map_groups`` merge, or a Ray Data ``AggregateFn``).

Contract (all sketches in ``t_digest_ray.state`` implement it):

* ``update_batch(values, weights=None)`` — vectorized bulk update; must be
  deterministic given (values order-canonicalized, weights).
* ``merge(*others)``                      — associative, commutative within
  the sketch's published error bound; in-place, returns self.
* ``to_bytes() / from_bytes(b)``          — stable byte encoding used for the
  shuffle (Arrow ``binary`` column) and for checkpoints. A class may also
  offer ``merge_bytes_many(groups, spec)``, which serves
  ``merge_bytes_many`` (many ``spec.merge_bytes(...).to_bytes()`` at
  once), and a summary callable's class's ``many(spec, blobs)`` serves
  ``summarize_many``.

A ``SketchSpec`` names a concrete configuration (factory + how to read its
summary) so pipelines can be written generically over sketch kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable

import pyarrow as pa


@runtime_checkable
class Sketch(Protocol):
    def update_batch(self, values, weights=None) -> None: ...

    def merge(self, *others) -> "Sketch": ...

    def to_bytes(self) -> bytes: ...


@dataclass
class SketchSpec:
    """A named, fully-parameterized sketch configuration.

    ``factory``    builds an empty sketch;
    ``from_bytes`` rebuilds one from its byte encoding;
    ``summarize``  maps a finished sketch to a flat dict of result columns
                   (used by the finalize stage of pipelines).

    The batched helpers below assume ``from_bytes`` is the factory class's
    own decoder, configured like the factory's sketch (for a t-digest,
    ``TDigest.from_bytes(b, factory().scale)``): they decode blobs
    themselves. The t-digest helpers check that the decoder returns a
    plain ``TDigest`` at the factory's scale, and otherwise fall back to
    the per-key calls.
    """

    name: str
    factory: Callable[[], Sketch]
    from_bytes: Callable[[bytes], Sketch]
    summarize: Callable[[Sketch], dict[str, Any]] = field(
        default=lambda s: {})

    def merge_bytes(self, blobs) -> Sketch:
        """Canonical N-way merge of serialized sketches (one-shot, order-
        independent where the sketch's merge is order-independent)."""
        sketches = [self.from_bytes(b) for b in blobs if b is not None]
        if not sketches:
            return self.factory()
        base = self.factory()
        return base.merge(*sketches)


def merge_bytes_many(spec: SketchSpec, groups) -> list[bytes]:
    """``[spec.merge_bytes(g).to_bytes() for g in groups]``.

    ``groups`` is an Arrow ``list<binary>`` array (chunked or not) or a
    list of blob lists. When the spec's sketch class has a batched
    ``merge_bytes_many(groups, spec)`` (``TDigest``'s merges and encodes
    every plain t-digest group in one pass), it goes first; each group it
    leaves (None) takes the per-group merge."""
    if isinstance(groups, pa.ChunkedArray):
        groups = groups.combine_chunks()
    elif not isinstance(groups, pa.Array):
        groups = pa.array(list(groups), type=pa.list_(pa.binary()))
    many = getattr(type(spec.factory()), "merge_bytes_many", None)
    out = many(groups, spec) if many and len(groups) else [None] * len(groups)
    if None in out:
        out = [spec.merge_bytes(g).to_bytes() if b is None else b
               for b, g in zip(out, groups.to_pylist())]
    return out


def summarize_many(spec: SketchSpec, blobs) -> list[dict[str, Any]]:
    """``[spec.summarize(spec.from_bytes(b)) for b in blobs]``, through
    the summary callable's class's ``many(spec, blobs)`` when it has one
    (``tdigest.QuantileSummary`` reads every column of every digest in
    one segmented pass, ``tdigest.CompressedSummary`` compresses every
    digest in one pass)."""
    blobs = list(blobs)
    many = getattr(type(spec.summarize), "many", None)
    if many:
        return many(spec.summarize, spec, blobs)
    return [spec.summarize(spec.from_bytes(b)) for b in blobs]
