"""Per-key distribution-drift detection between two datasets.

The distributed work is two sketch_by_key pipelines (each: map-side partial
digests -> one-task fold of serialized sketches). The comparison
itself (Comparison.java semantics: KS + G-test over quantile buckets) runs
driver-side on the merged sketch rows — one KB-sized digest pair per key —
which is the intended post-aggregation analytics pattern (SURVEY.md §2.2
#27: "post-aggregation driver-side analytics on two sketch rows; e.g.
per-lang drift detection").
"""

from __future__ import annotations

import pandas as pd

from ..stages.aggregate import sketch_by_key
from ..state.compare import compare_chi2, ks
from .quantiles import tdigest_spec


def drift_by_key(ds_a, ds_b, value_col: str, key: str | None,
                 compression: float = 200.0, key_name: str = "key"):
    """KS and G-test drift scores per key between two datasets.

    Returns a Ray Dataset with one row per key present in either side:
    (key, n_a, n_b, ks, chi2). Keys missing on one side get n=0 and the
    maximal scores are reported as NaN (no comparison possible).
    """
    import ray.data as rd

    spec = tdigest_spec(compression)
    rows_a = sketch_by_key(ds_a, spec, value_col, key).to_pandas()
    rows_b = sketch_by_key(ds_b, spec, value_col, key).to_pandas()
    a = {r["key"]: r for _, r in rows_a.iterrows()}
    b = {r["key"]: r for _, r in rows_b.iterrows()}
    out = []
    for k in sorted(set(a) | set(b)):
        ra, rb = a.get(k), b.get(k)
        row = {key_name: k,
               "n_a": float(ra["n"]) if ra is not None else 0.0,
               "n_b": float(rb["n"]) if rb is not None else 0.0}
        if ra is not None and rb is not None:
            da = spec.from_bytes(ra["sketch"])
            db = spec.from_bytes(rb["sketch"])
            row["ks"] = ks(da, db)
            row["chi2"] = compare_chi2(da, db)
        else:
            row["ks"] = float("nan")
            row["chi2"] = float("nan")
        out.append(row)
    return rd.from_pandas(pd.DataFrame(out))
