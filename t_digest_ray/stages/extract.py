"""Webtext payload stages: html -> text extraction and numeric derivations.

``ExtractText`` is the per-row-deterministic extractor required by the
north_star invariant: re-running at any parallelism yields byte-identical
``text`` per ``url``. It is a callable class: an instance is built once
on the driver and called per batch inside a task map; the per-batch body
is a C-speed ``bytes.find`` scan (no Python regex per row in the common
path).

``derive_metrics`` adds the numeric columns the sketches consume —
``text_length`` (utf8 chars), ``html_size`` (bytes), ``host`` (url authority)
— with pyarrow.compute kernels only (zero-copy Arrow in/out).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_OPEN = b"<p>"
_CLOSE = b"</p>"


class ExtractText:
    """html(binary) -> extracted_text(string), deterministic per row.

    Extraction rule: the payload between the first ``<p>`` and the last
    ``</p>`` (our html template wraps the entire text in a single <p> block;
    on malformed input the rule degrades to empty string, never raises).

    Fully vectorized: first/last delimiter positions come from the
    ``find_substring`` / ``binary_reverse`` C kernels, the payload bytes are
    gathered with one fancy-indexed numpy copy straight off the Arrow binary
    buffers, and UTF-8 validity is checked once per batch by the
    binary->string cast. Only a batch containing invalid UTF-8 (impossible
    for our template corpus) falls back to the per-row decode loop.
    """

    def __init__(self, html_col: str = "html",
                 out_col: str = "extracted_text"):
        self.html_col = html_col
        self.out_col = out_col

    def _extract_slow(self, htmls) -> pa.Array:
        out = []
        for h in htmls:
            if h is None:
                out.append("")
                continue
            s = h.find(_OPEN)
            e = h.rfind(_CLOSE)
            if s < 0 or e < 0 or e <= s:
                out.append("")
            else:
                out.append(h[s + len(_OPEN):e].decode("utf-8", "replace"))
        return pa.array(out, type=pa.string())

    def _extract_fast(self, arr: pa.Array) -> pa.Array | None:
        """Vectorized path; returns None when the layout/content needs the
        row-loop fallback (non-binary type or invalid UTF-8 payload)."""
        if not pa.types.is_binary(arr.type):
            return None
        n = len(arr)
        if n == 0:
            return pa.array([], type=pa.string())
        first = pc.fill_null(pc.find_substring(arr, _OPEN), -1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        rev_idx = pc.fill_null(
            pc.find_substring(pc.binary_reverse(arr), _CLOSE[::-1]),
            -1).to_numpy(zero_copy_only=False).astype(np.int64)
        lens = pc.fill_null(pc.binary_length(arr), 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        start = first + len(_OPEN)               # payload start within row
        end = lens - rev_idx - len(_CLOSE)       # payload end within row
        valid = (first >= 0) & (rev_idx >= 0) & (end > first)
        start = np.where(valid, np.minimum(start, end), 0)

        # Per-row payload spans [row_off + start, row_off + end) are ordered
        # and non-overlapping within the values buffer, so a 2n-slot binary
        # array over the SAME buffer (zero-copy) alternates payload/garbage
        # slots with monotonic offsets; take() of the even slots is then one
        # C-level gather — no per-byte numpy indexing.
        offsets = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
            arr.offset:arr.offset + n + 1].astype(np.int64)
        row_off = offsets[:-1]
        src_starts = np.where(valid, row_off + start, row_off)
        src_ends = np.where(valid, row_off + end, row_off)
        off2 = np.empty(2 * n + 1, dtype=np.int32)
        off2[0:2 * n:2] = src_starts
        off2[1:2 * n:2] = src_ends
        off2[2 * n] = src_ends[-1]
        slots = pa.BinaryArray.from_buffers(
            pa.binary(), 2 * n,
            [None, pa.py_buffer(off2.tobytes()), arr.buffers()[2]])
        payload = slots.take(np.arange(0, 2 * n, 2, dtype=np.int64))
        try:
            return payload.cast(pa.string())  # validates UTF-8 in C
        except pa.ArrowInvalid:
            return None

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.html_col]
        arr = (col.combine_chunks()
               if isinstance(col, pa.ChunkedArray) else col)
        out = self._extract_fast(arr)
        if out is None:
            out = self._extract_slow(arr.to_pylist())
        return batch.append_column(self.out_col, out)


def derive_metrics(batch: pa.Table, text_col: str = "text",
                   html_col: str = "html",
                   url_col: str = "url") -> pa.Table:
    """Vectorized derivations (SURVEY.md §2.4): text_length, html_size, host."""
    cols = {}
    if text_col in batch.column_names:
        cols["text_length"] = pc.cast(
            pc.utf8_length(batch[text_col]), pa.float64())
    if html_col in batch.column_names:
        cols["html_size"] = pc.cast(
            pc.binary_length(batch[html_col]), pa.float64())
    if url_col in batch.column_names:
        # host = substring between "://" and the next "/"
        stripped = pc.replace_substring_regex(
            batch[url_col], r"^[a-z]+://", "")
        cols["host"] = pc.replace_substring_regex(
            stripped, r"/.*$", "")
    for name, arr in cols.items():
        batch = batch.append_column(name, arr)
    return batch
