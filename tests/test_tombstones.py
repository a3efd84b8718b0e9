"""Positional delete vectors (stages/tombstones.py): broadcast and
anti-join paths agree, idempotent writes, empty vector no-op."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd


def _ds(n=500):
    import ray.data as rd
    return rd.from_pandas(pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "v": np.arange(n, dtype=np.int64) * 3}))


def test_broadcast_path_filters_exactly(ray_session, tmp_path):
    from t_digest_ray.stages.tombstones import (scan_with_deletes,
                                                write_delete_vector)

    dest = str(tmp_path / "dv")
    write_delete_vector(dest, np.arange(0, 500, 7))
    out = scan_with_deletes(_ds(), "event_id", dest).to_pandas()
    assert len(out) == 500 - len(range(0, 500, 7))
    assert not (out["event_id"] % 7 == 0).any()
    # surviving payloads intact
    assert (out["v"] == out["event_id"] * 3).all()


def test_anti_join_path_matches_broadcast(ray_session, tmp_path):
    from t_digest_ray.stages.tombstones import (scan_with_deletes,
                                                write_delete_vector)

    dest = str(tmp_path / "dv2")
    write_delete_vector(dest, np.arange(0, 500, 3))
    a = (scan_with_deletes(_ds(), "event_id", dest)
         .to_pandas().sort_values("event_id").reset_index(drop=True))
    b = (scan_with_deletes(_ds(), "event_id", dest, broadcast_budget=1)
         .to_pandas().sort_values("event_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_write_is_idempotent_and_sorted(ray_session, tmp_path):
    from t_digest_ray.stages.tombstones import (read_delete_vector,
                                                write_delete_vector)

    dest = str(tmp_path / "dv3")
    write_delete_vector(dest, np.array([9, 1, 5, 1]))
    assert read_delete_vector(dest).tolist() == [1, 5, 9]
    write_delete_vector(dest, np.array([777]))  # skipped: marker exists
    assert read_delete_vector(dest).tolist() == [1, 5, 9]
    assert os.path.exists(os.path.join(dest, "_SUCCESS"))


def test_empty_vector_keeps_everything(ray_session, tmp_path):
    from t_digest_ray.stages.tombstones import (scan_with_deletes,
                                                write_delete_vector)

    dest = str(tmp_path / "dv4")
    write_delete_vector(dest, np.array([], dtype=np.int64))
    out = scan_with_deletes(_ds(50), "event_id", dest).to_pandas()
    assert len(out) == 50


def test_write_dying_before_marker_leaves_nothing(tmp_path, monkeypatch):
    """A write that raises between ``deletes.parquet`` and ``_SUCCESS``
    leaves ``dest`` without a vector, and the rerun writes all of it."""
    import pytest

    from t_digest_ray.stages import tombstones

    def die(*a, **k):
        raise OSError("killed before the marker")

    dest = str(tmp_path / "dv5")
    monkeypatch.setattr(tombstones, "open", die, raising=False)
    with pytest.raises(OSError):
        tombstones.write_delete_vector(dest, np.arange(10))
    assert not os.path.exists(os.path.join(dest, "deletes.parquet"))
    monkeypatch.undo()
    tombstones.write_delete_vector(dest, np.arange(10))
    assert tombstones.read_delete_vector(dest).tolist() == list(range(10))
    assert os.path.exists(os.path.join(dest, "_SUCCESS"))
