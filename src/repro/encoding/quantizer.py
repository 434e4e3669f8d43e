"""SZ-style error-bounded linear quantizer.

Prediction residuals are mapped to integer codes ``q = round(diff/2eb)``
so that reconstructing ``pred + 2*eb*q`` is within ``eb`` of the input.
Code 0 is reserved for *outliers*: points whose residual exceeds the code
radius, or whose reconstruction — recomputed here in exactly the
arithmetic the decompressor will use — violates the bound (possible for
float32 payloads near the bound edge).  Outliers are stored exactly, so
the error bound is a hard guarantee, not a probabilistic one.

The code radius defaults to 16384 which keeps the worst-case distinct
alphabet (2*radius+1 symbols) within the Huffman codec's 16-bit code
length limit.

Float32 payloads can run the bin search and reconstruction in float32
when the caller opts in (``f32=True``) and the bound analysis allows
(:func:`_f32_mode`), with borderline bound checks re-verified in exact
float64 arithmetic.  The opt-in changes the reconstruction arithmetic,
so an encoder that enables it must record the fact in its container
(the STZ header's f32-quant flag bit) and the decoder must feed the
recorded flag back to :func:`dequantize` — the formula is never
guessed from the payload alone, which is what keeps archives written
by older encoders decoding bit-exactly.  :func:`quantize_many` and
:func:`dequantize_many` apply the per-batch functions to every
sub-block of an STZ level — see DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import jit

DEFAULT_RADIUS = 16384


@dataclass
class QuantizedBatch:
    """Quantization result for one batch of predicted values.

    Attributes
    ----------
    codes:
        uint32 array, same length as the batch; 0 marks an outlier,
        otherwise ``codes - radius`` is the signed quantization bin.
    outlier_pos:
        int64 flat indices (into the batch) of outliers.
    outlier_val:
        exact values of the outliers, in the payload dtype.
    recon:
        the reconstruction the decompressor will produce (same dtype as
        the input batch) — callers feed this back as the basis for
        predicting finer levels so that compression and decompression
        see bit-identical predictor inputs.
    """

    codes: np.ndarray
    outlier_pos: np.ndarray
    outlier_val: np.ndarray
    recon: np.ndarray
    radius: int


def _reconstruct(
    pred: np.ndarray, q: np.ndarray, eb: float, dtype: np.dtype
) -> np.ndarray:
    """The float64 reconstruction formula, shared by both directions."""
    return (pred.astype(np.float64) + q * (2.0 * eb)).astype(dtype)


def _f32_mode(dtype: np.dtype, pred_dtype: np.dtype, eb: float, radius: int) -> bool:
    """Bound analysis for the float32 fast path (DESIGN.md §2).

    Float32 payloads may run the whole quantize/dequantize arithmetic
    in float32 when the scale ``2*eb`` is a normal float32 (no
    underflow/overflow in the quotient's representable range) and every
    *code* — up to ``2*radius`` — is exactly representable
    (``radius <= 2**23``).  This analysis alone does not select the
    formula: the fast path additionally requires the caller's explicit
    ``f32`` opt-in, recorded in the container by the encoder and read
    back by the decoder, so both sides provably use the same
    arithmetic (containers from pre-f32 encoders decode with the
    float64 formula they were written with).  Given agreement on the
    flag, the rest of the decision is a pure function of
    ``(dtype, eb, radius)`` — all container-stored — and borderline
    bound checks are re-verified in float64 (see
    :func:`_quantize_flat`), so float32 rounding can only ever *add*
    outliers, never accept a bound violation.
    """
    f32 = np.finfo(np.float32)
    return (
        dtype == np.float32
        and pred_dtype == np.float32
        and float(f32.tiny) < 2.0 * eb < float(f32.max)
        and radius <= (1 << 23)
    )


def _quantize_flat(
    flat: np.ndarray, pflat: np.ndarray, eb: float, radius: int, f32: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized core of :func:`quantize`.

    Returns ``(codes, outlier_pos, outlier_val, recon)`` over flat
    inputs.  Non-finite inputs legitimately produce NaN/inf
    intermediates (they are routed to exact outlier storage), so
    invalid-op warnings are suppressed for the whole core.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return _quantize_flat_impl(flat, pflat, eb, radius, f32)


def _quantize_flat_impl(
    flat: np.ndarray, pflat: np.ndarray, eb: float, radius: int, f32: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    f32_mode = f32 and _f32_mode(flat.dtype, pflat.dtype, eb, radius)
    # compiled single-pass kernel (repro.util.jit, DESIGN.md §10):
    # byte-identical to the vectorized reference below, engaged only
    # when available and the inputs are eligible
    compiled = jit.quantize(flat, pflat, eb, radius, f32_mode)
    if compiled is not None:
        return compiled
    if f32_mode:
        # float32 residuals, bin search and reconstruction: a third of
        # the temporary traffic of the float64 up-convert path.  NaN/inf
        # residuals propagate into the comparisons, which come out False
        # and route those points to exact outlier storage.
        two_eb = np.float32(2.0 * eb)
        qf = flat - pflat
        np.divide(qf, two_eb, out=qf)
        np.rint(qf, out=qf)
        # zero the out-of-radius / non-finite bins so codes stay bounded
        # (the bound check below rejects those points on its own: with
        # q = 0 their error is the full residual, far above eb)
        q = np.where(np.abs(qf) < np.float32(radius), qf, np.float32(0))
        # normalize -0.0 bins to +0.0: rint(-0.5) is -0.0, but the
        # decoder derives its bin from the *integer* code (code -
        # radius = +0.0), and recon must mirror that arithmetic down to
        # the sign of zero for the closed-loop bit-exactness contract
        np.add(q, np.float32(0.0), out=q)
        recon = q * two_eb  # the decoder's exact f32 formula
        np.add(pflat, recon, out=recon)
        err = recon - flat
        np.abs(err, out=err)
        # two-tier bound check: a conservative float32 compare accepts
        # the bulk; everything above the guard line — true outliers
        # plus the borderline sliver float32 cannot classify — is
        # re-verified with the exact float64 subtraction
        ok = err <= np.float32(eb * (1.0 - 1e-5))
        cand = np.flatnonzero(~ok)
        if cand.size:
            exact = (
                np.abs(
                    recon[cand].astype(np.float64)
                    - flat[cand].astype(np.float64)
                )
                <= eb
            )
            ok[cand[exact]] = True
            bad = cand[~exact]
        else:
            bad = cand
        codes = q + np.float32(radius)
        np.multiply(codes, ok, out=codes)
        codes = codes.astype(np.uint32)
    else:
        diff = flat.astype(np.float64) - pflat.astype(np.float64)
        finite_diff = np.where(np.isfinite(diff), diff, 0.0)
        q = np.rint(finite_diff / (2.0 * eb)).astype(np.int64)
        qsafe = np.abs(q) < radius
        # the bound check recomputes the reconstruction in exactly the
        # arithmetic the decompressor will use — the hard guarantee
        recon = _reconstruct(pflat, q, eb, flat.dtype)
        ok = qsafe & (
            np.abs(recon.astype(np.float64) - flat.astype(np.float64)) <= eb
        )
        # non-finite inputs are always stored exactly
        ok &= np.isfinite(flat)
        codes = np.where(ok, q + radius, 0).astype(np.uint32)
        bad = np.flatnonzero(~ok)

    outlier_val = flat[bad].copy()
    recon[bad] = flat[bad]
    return codes, bad.astype(np.int64), outlier_val, recon


def quantize(
    values: np.ndarray,
    pred: np.ndarray,
    eb: float,
    radius: int = DEFAULT_RADIUS,
    f32: bool = False,
) -> QuantizedBatch:
    """Quantize ``values - pred`` with absolute error bound ``eb``.

    ``f32=True`` enables the float32 fast path where :func:`_f32_mode`
    allows.  Enabling it changes the reconstruction arithmetic, so the
    caller must record the flag in its container and decode with the
    same flag (see :func:`dequantize`); callers with no place to record
    it keep the default and stay on the float64 formula.
    """
    if eb <= 0:
        raise ValueError(f"error bound must be > 0, got {eb}")
    values = np.asarray(values)
    pred = np.asarray(pred)
    if values.shape != pred.shape:
        raise ValueError("values and pred shapes differ")
    if values.dtype != pred.dtype:
        # the decompressor reconstructs from ``pred``'s dtype alone, so
        # a values/pred dtype mismatch would let the encoder verify the
        # bound against a different arithmetic than decode uses
        raise ValueError(
            f"values dtype {values.dtype} != pred dtype {pred.dtype}"
        )
    codes, pos, val, recon = _quantize_flat(
        values.reshape(-1), pred.reshape(-1), eb, radius, f32
    )
    return QuantizedBatch(
        codes=codes,
        outlier_pos=pos,
        outlier_val=val,
        recon=recon,
        radius=radius,
    )


def quantize_many(
    values: list[np.ndarray],
    preds: list[np.ndarray],
    eb: float,
    radius: int = DEFAULT_RADIUS,
    f32: bool = False,
    threads: int | None = None,
) -> list[QuantizedBatch]:
    """:func:`quantize` each batch; all share one error bound and dtype.

    The batches are the sub-blocks of one STZ level, the bands of one
    wavelet transform, ...  ``threads`` (optional) maps them across a
    thread pool — the compiled kernel releases the GIL.  ``f32``
    follows the same record-it-in-the-container contract as
    :func:`quantize`.
    """
    if eb <= 0:
        raise ValueError(f"error bound must be > 0, got {eb}")
    if len(values) != len(preds):
        raise ValueError("values and preds list lengths differ")
    if len({np.asarray(v).dtype for v in values}) > 1:
        raise ValueError("quantize_many requires one common dtype")
    # lazy import: encoding stays import-independent of the executor layer
    from repro.core.parallel import pmap

    return pmap(
        lambda vp: quantize(vp[0], vp[1], eb, radius, f32),
        list(zip(values, preds)),
        threads,
    )


def dequantize_many(
    codes: list[np.ndarray],
    preds: list[np.ndarray],
    eb: float,
    outlier_pos: list[np.ndarray],
    outlier_val: list[np.ndarray],
    radius: int = DEFAULT_RADIUS,
    f32: bool = False,
) -> list[np.ndarray]:
    """:func:`dequantize` each batch; the mirror of :func:`quantize_many`."""
    if not (
        len(codes) == len(preds) == len(outlier_pos) == len(outlier_val)
    ):
        raise ValueError("dequantize_many list lengths differ")
    return [
        dequantize(c, p, eb, pos, val, radius, f32)
        for c, p, pos, val in zip(codes, preds, outlier_pos, outlier_val)
    ]


def dequantize(
    codes: np.ndarray,
    pred: np.ndarray,
    eb: float,
    outlier_pos: np.ndarray,
    outlier_val: np.ndarray,
    radius: int = DEFAULT_RADIUS,
    f32: bool = False,
) -> np.ndarray:
    """Invert :func:`quantize`; returns the reconstruction, flat.

    ``f32`` must be the flag the *encoder* ran with, as recorded in the
    container (the STZ header's f32-quant bit); given the same flag the
    arithmetic selection mirrors the quantizer's bit-for-bit — float32
    reconstruction when the flag is set and :func:`_f32_mode` allows,
    the float64 formula otherwise.  The default decodes containers
    from encoders that never enabled the fast path (everything written
    before the flag existed, and every codec that has no header bit to
    record it).
    """
    pred = np.asarray(pred)
    codes = np.asarray(codes)
    if codes.size != pred.size:  # a damaged archive's code stream, say
        raise ValueError(f"{codes.size} codes for {pred.size} predictions")
    pflat = pred.reshape(-1)
    f32_mode = f32 and _f32_mode(pred.dtype, pred.dtype, eb, radius)
    recon = jit.dequantize(codes, pflat, eb, radius, f32_mode)
    if recon is None:
        if f32_mode:
            qf = codes.astype(np.float32) - np.float32(radius)
            recon = pflat + qf * np.float32(2.0 * eb)
        else:
            q = codes.astype(np.int64) - radius
            recon = _reconstruct(pflat, q, eb, pred.dtype)
    if outlier_pos.size:
        recon[outlier_pos] = outlier_val
    return recon
