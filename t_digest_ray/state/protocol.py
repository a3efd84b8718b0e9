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
  offer ``to_bytes_many(sketches)``, the same bytes for many sketches in one
  call; ``to_bytes_many`` below uses it when present.

A ``SketchSpec`` names a concrete configuration (factory + how to read its
summary) so pipelines can be written generically over sketch kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, runtime_checkable


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


def to_bytes_many(sketches) -> list[bytes]:
    """``[s.to_bytes() for s in sketches]``, through the first sketch's
    class's batched ``to_bytes_many`` when it has one (``TDigest``'s builds
    every fresh per-key digest of a batch in one pass)."""
    sketches = list(sketches)
    many = getattr(type(sketches[0]), "to_bytes_many", None) \
        if sketches else None
    return many(sketches) if many else [s.to_bytes() for s in sketches]
