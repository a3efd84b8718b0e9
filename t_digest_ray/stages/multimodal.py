"""Multimodal (image/audio/video) stages: Ray-side plumbing, stubbed codecs.

Large-scale training-data pipelines treat media as opaque ``binary`` columns
with typed metadata and run decode / resize / feature-extract / frame-sample
as ``map_batches`` stages: callable instances, configured in
``__init__`` on the driver and shipped to every task with the map
function. The decode libraries (PIL/ffmpeg/...) are NOT in this
container, so the codec kernel itself is pluggable:

* ``ImageDecode(codec=None)``     — with no codec installed it uses
  ``FakeCodec`` (deterministic, pure function of the payload bytes)
  or raises ``NotImplementedError`` if ``strict=True``. The Ray-side
  contract — schema in/out, batch sizing, ``__init__`` setup,
  zero-copy binary handling — is real and tested.
* ``ImageResize``                 — metadata-level resize planning (target
  dims, scale factors); the pixel kernel is the pluggable part.
* ``FrameSample``                 — deterministic frame-index sampling for
  video payloads (uniform stride from a content-derived seed).
* ``EmbedStub``                   — fixed-dim feature vector derived from
  payload bytes (stands in for a model forward pass; exercises the
  batched-inference shape: build the "model" once in __init__, batch
  matmul in __call__).

Batch-size guidance (SURVEY.md §4 / memory-aware): media batches should be
sized by BYTES not rows — callers pass ``batch_size`` small enough that
``batch_size x avg_payload`` per task fits the worker heap.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


class FakeCodec:
    """Deterministic stand-in decoder: dims/channels are pure functions of
    the payload length and first bytes. Lets the full pipeline (schema,
    tasks, aggregation over decoded metadata) run and be oracle-checked
    (width/height are SQL-expressible over the payload) without PIL."""

    name = "fake"

    def decode_meta(self, payloads: list[bytes | None]):
        n = len(payloads)
        width = np.zeros(n, dtype=np.int64)
        height = np.zeros(n, dtype=np.int64)
        channels = np.zeros(n, dtype=np.int64)
        ok = np.zeros(n, dtype=bool)
        for i, p in enumerate(payloads):
            if not p:
                continue
            ok[i] = True
            width[i] = 16 + (len(p) % 624)          # 16..639
            height[i] = 16 + (p[0] % 464)           # 16..479
            channels[i] = 1 + (p[-1] % 3)           # 1..3
        return width, height, channels, ok

    def decode_pixels(self, payload: bytes) -> np.ndarray:
        """Deterministic fake pixel block (for feature stubs)."""
        w = 16 + (len(payload) % 624)
        h = 16 + (payload[0] % 464)
        seed = np.frombuffer(payload[:8].ljust(8, b"\0"), dtype=np.uint64)[0]
        rng = np.random.default_rng(int(seed))
        return rng.integers(0, 256, size=(min(h, 32), min(w, 32)),
                            dtype=np.uint8)


class BmpCodec:
    """A REAL zero-dependency codec through the pluggable seam: parses
    actual BMP headers (BITMAPFILEHEADER + BITMAPINFOHEADER) with
    struct, and decodes 24-bit pixel rows (4-byte row padding, bottom-up
    or top-down order). This is the seam's reference implementation —
    proof the ``decode_meta``/``decode_pixels`` contract carries a real
    format, not only FakeCodec; PIL/ffmpeg codecs plug in the same way.
    """

    name = "bmp"

    def decode_meta(self, payloads: list[bytes | None]):
        import struct
        n = len(payloads)
        width = np.zeros(n, dtype=np.int64)
        height = np.zeros(n, dtype=np.int64)
        channels = np.zeros(n, dtype=np.int64)
        ok = np.zeros(n, dtype=bool)
        for i, p in enumerate(payloads):
            if not p or len(p) < 30 or p[:2] != b"BM":
                continue
            w, h = struct.unpack_from("<ii", p, 18)
            bpp = struct.unpack_from("<H", p, 28)[0]
            if w <= 0 or bpp % 8:
                continue
            width[i] = w
            height[i] = abs(h)       # negative height = top-down rows
            channels[i] = bpp // 8
            ok[i] = True
        return width, height, channels, ok

    def decode_pixels(self, payload: bytes) -> np.ndarray:
        import struct
        off = struct.unpack_from("<I", payload, 10)[0]
        w, h = struct.unpack_from("<ii", payload, 18)
        bpp = struct.unpack_from("<H", payload, 28)[0]
        bytes_pp = bpp // 8
        row_bytes = (w * bytes_pp + 3) & ~3   # rows pad to 4 bytes
        rows = []
        for r in range(abs(h)):
            start = off + r * row_bytes
            rows.append(np.frombuffer(
                payload, np.uint8, count=w * bytes_pp, offset=start))
        px = np.stack(rows[::-1] if h > 0 else rows)  # bottom-up default
        return px.reshape(abs(h), w, bytes_pp)


class ImageDecode:
    """Map stage: media binary -> image metadata columns.

    Use as ``ds.map_batches(ImageDecode(), batch_format="pyarrow",
    batch_size=B)`` with B sized by payload bytes. Setup (codec load)
    happens once, on the driver, in __init__.
    """

    def __init__(self, payload_col: str = "payload", codec=None,
                 strict: bool = False):
        self.payload_col = payload_col
        if codec is None:
            if strict:
                raise NotImplementedError(
                    "no image codec available in this environment; pass a "
                    "codec implementing decode_meta() or use FakeCodec")
            codec = FakeCodec()
        self.codec = codec

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        width, height, channels, ok = self.codec.decode_meta(payloads)
        return (batch
                .append_column("width", pa.array(width))
                .append_column("height", pa.array(height))
                .append_column("channels", pa.array(channels))
                .append_column("decode_ok", pa.array(ok)))


class ImageResize:
    """Metadata-level resize planning: clamp longest side to ``max_side``
    preserving aspect; emits target dims + scale (the pixel kernel is
    pluggable; planning is what the distributed pipeline needs for
    scheduling and output sizing)."""

    def __init__(self, max_side: int = 256):
        self.max_side = max_side

    def __call__(self, batch: pa.Table) -> pa.Table:
        w = batch["width"].to_numpy().astype(np.float64)
        h = batch["height"].to_numpy().astype(np.float64)
        longest = np.maximum(w, h)
        scale = np.minimum(1.0, self.max_side / np.maximum(longest, 1.0))
        # floor(x + 0.5): half-up rounding, matches SQL ROUND semantics so
        # the plan is oracle-checkable (numpy round is half-to-even)
        tw = np.maximum(1, np.floor(w * scale + 0.5)).astype(np.int64)
        th = np.maximum(1, np.floor(h * scale + 0.5)).astype(np.int64)
        return (batch
                .append_column("target_width", pa.array(tw))
                .append_column("target_height", pa.array(th))
                .append_column("resize_scale", pa.array(scale)))


class FrameSample:
    """Deterministic frame sampling plan for video payloads: n_frames
    derived from payload length (stub for container parsing), sample
    ``k`` uniformly-strided frame indices."""

    def __init__(self, payload_col: str = "payload", k: int = 8):
        self.payload_col = payload_col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        frames, counts = [], []
        for p in payloads:
            if not p:
                counts.append(0)
                frames.append([])
                continue
            n_frames = 1 + (len(p) % 3000)  # stub container parse
            k = min(self.k, n_frames)
            idx = np.linspace(0, n_frames - 1, k).astype(np.int64)
            counts.append(n_frames)
            frames.append(idx.tolist())
        return (batch
                .append_column("n_frames", pa.array(counts, type=pa.int64()))
                .append_column("sampled_frames",
                               pa.array(frames, type=pa.list_(pa.int64()))))


class EmbedStub:
    """Batched "model inference" stub: payload -> fixed-dim float32 vector.

    The "model" (a fixed random projection) is built ONCE in __init__ and
    ships to every task with the instance. The per-batch path is one
    matmul over byte histograms (vectorized)."""

    def __init__(self, payload_col: str = "payload", dim: int = 64,
                 seed: int = 7):
        self.payload_col = payload_col
        self.dim = dim
        rng = np.random.default_rng(seed)
        self.proj = rng.standard_normal((256, dim)).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        feats = np.zeros((len(payloads), 256), dtype=np.float32)
        for i, p in enumerate(payloads):
            if p:
                counts = np.bincount(np.frombuffer(p, dtype=np.uint8),
                                     minlength=256)
                feats[i] = counts / max(len(p), 1)
        emb = feats @ self.proj
        norms = np.linalg.norm(emb, axis=1, keepdims=True)
        emb = emb / np.maximum(norms, 1e-12)
        return batch.append_column(
            "embedding", pa.array(list(emb), type=pa.list_(pa.float32())))


def synth_wav_pcm16(doc_id: int, n_samples: int,
                    sample_rate: int = 16000) -> bytes:
    """Deterministic REAL WAV container bytes: 16-bit mono PCM whose
    samples follow the closed form
    ``s_i = ((doc_id * 31 + i * 17) % 65536) - 32768`` — so a SQL
    oracle can replay the signal without parsing the container, while
    the Ray decode stage must parse actual RIFF/WAVE bytes."""
    import io
    import wave

    i = np.arange(n_samples, dtype=np.int64)
    s = ((doc_id * 31 + i * 17) % 65536 - 32768).astype(np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(s.tobytes())
    return buf.getvalue()


class WavPcmCodec:
    """A second REAL zero-dependency codec (stdlib ``wave``): parses
    actual RIFF/WAVE containers and returns int16 PCM samples — the
    audio twin of BmpCodec, proving the seam spans modalities."""

    name = "wav"

    def decode_samples(self, payload: bytes) -> np.ndarray:
        import io
        import wave

        with wave.open(io.BytesIO(payload), "rb") as w:
            if w.getsampwidth() != 2 or w.getnchannels() != 1:
                raise ValueError("expected 16-bit mono PCM")
            frames = w.readframes(w.getnframes())
        return np.frombuffer(frames, dtype=np.int16)


class AudioEnergy:
    """Map stage: decode WAV payloads (codec built once in
    __init__) and emit exact integer energy features per clip —
    n_samples and the int64 sum of squared samples (the RMS numerator;
    exact, so the whole audio path is value-hash checkable)."""

    def __init__(self, payload_col: str = "payload", codec=None):
        self.payload_col = payload_col
        self.codec = codec or WavPcmCodec()

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        n = np.zeros(len(payloads), dtype=np.int64)
        e = np.zeros(len(payloads), dtype=np.int64)
        for i, p in enumerate(payloads):        # bytes-sized batches
            s = self.codec.decode_samples(p).astype(np.int64)
            n[i] = len(s)
            e[i] = int((s * s).sum())
        out = batch.drop_columns([self.payload_col])
        out = out.append_column("n_samples", pa.array(n))
        return out.append_column("energy", pa.array(e))


def synth_wav_tone(doc_id: int, n_samples: int = 256,
                   sample_rate: int = 16000, amp: int = 12000) -> bytes:
    """Deterministic pure-tone WAV: 16-bit mono PCM of a sine at
    EXACTLY ``k = 3 + doc_id % 20`` cycles per ``n_samples`` window, so
    the clip's dominant rfft bin is k in closed form — a SQL oracle can
    state the expected spectrum without an FFT, while the Ray stage
    must parse the container AND run real DSP to recover it."""
    import io
    import wave

    k = 3 + doc_id % 20
    i = np.arange(n_samples, dtype=np.float64)
    s = np.rint(amp * np.sin(2.0 * np.pi * k * i / n_samples)) \
        .astype(np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(s.tobytes())
    return buf.getvalue()


class AudioDominantFreq:
    """DSP map stage: decode WAV payloads (codec built once in
    __init__), run a real rfft, and emit each clip's dominant frequency
    BIN (argmax of spectral magnitude). On the planted pure tones the
    argmax is exact — rounding the sine to int16 leaves harmonic noise
    orders of magnitude below the tone's N·amp/2 line — so the summed
    bins are value-hash checkable against the closed-form oracle."""

    def __init__(self, payload_col: str = "payload", codec=None):
        self.payload_col = payload_col
        self.codec = codec or WavPcmCodec()

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        dom = np.zeros(len(payloads), dtype=np.int64)
        for i, p in enumerate(payloads):        # bytes-sized batches
            x = self.codec.decode_samples(p).astype(np.float64)
            mag = np.abs(np.fft.rfft(x))
            dom[i] = int(np.argmax(mag))
        out = batch.drop_columns([self.payload_col])
        return out.append_column("dom_bin", pa.array(dom))
