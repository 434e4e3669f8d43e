"""Native-tier hot kernels behind a feature-gated facade (DESIGN.md §10).

The pure-NumPy implementations in :mod:`repro.encoding`,
:mod:`repro.szx` and :mod:`repro.core.predict` are the *reference*:
always importable, always tested.  This module compiles a small C
translation of the profiled hot spots — quantize/predict arithmetic,
Huffman bit-packing *and* table-driven decoding, the fused
dequantize+predict-combine reconstruction, SZx plane-major packing —
once per host into a cached shared library and exposes them through
wrappers that return ``None`` whenever the compiled path cannot (or
must not) run, so every call site degrades to the reference with one
``if``.

Every kernel is called through :mod:`ctypes` ``CDLL``, which releases
the GIL for the duration of the call.  That is a load-bearing part of
the decode story: the thread executors in :mod:`repro.core.parallel` /
:mod:`repro.core.chunked` only beat the serial walk when the per-chunk
work actually runs concurrently, and the compiled Huffman decoder +
fused reconstruction kernels turn the decompress path from a
GIL-bound Python loop into native code that threads can overlap
(DESIGN.md §10).

Contract (the reason this is safe to engage silently):

* **Byte determinism.**  Each C kernel replicates the NumPy op
  sequence exactly — same op order, same precision, same rounding
  (``rint``/``rintf`` are round-half-even, matching ``np.rint``), and
  the library is compiled with ``-ffp-contract=off`` so the compiler
  cannot fuse a multiply-add the NumPy path performs as two rounded
  ops.  Archives written with the jit engaged are byte-identical to
  archives written by the reference path; tests assert this over every
  golden fixture and the conformance value-edge cases.
* **Kill switch.**  ``STZ_JIT=0`` (or ``off``/``false``) disables the
  compiled path entirely — no compile, no load, wrappers return
  ``None``.  The reference path is therefore always reachable.
* **Graceful absence.**  No compiler, an unwritable cache directory, a
  failed compile or load: the failure is recorded once (see
  :func:`status`) and the process runs on the reference path.  Nothing
  is ever raised from the facade.
* **Cache.**  ``$STZ_JIT_CACHE`` (default ``~/.cache/stz/jit``) keyed
  by a digest of the C source, so editing the kernels invalidates
  naturally and concurrent processes race benignly (atomic rename).

Backend: generated C compiled with the host ``cc`` and loaded via
``ctypes`` — chosen over cffi/Numba because it adds zero import-time
dependencies; the facade boundary is the same either way.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

__all__ = [
    "enabled",
    "available",
    "status",
    "override",
    "has",
    "quantize",
    "dequantize",
    "huffman_pack",
    "huffman_decode",
    "szx_pack",
    "szx_unpack",
    "combine",
    "combine_dequant",
    "scatter",
]

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <math.h>
#include <string.h>

#define API __attribute__((visibility("default")))

/* SZ-style quantizer, float32 fast path: replicates the op order of
   repro.encoding.quantizer._quantize_flat_impl (f32 branch) exactly.
   Returns the outlier count; outlier flat indices land in `bad`
   (ascending), recon/codes are fully written. */
API int64_t stz_quantize_f32(
    const float *x, const float *p, int64_t n,
    float two_eb, float fradius, float guard, double eb,
    uint32_t *codes, float *recon, int64_t *bad)
{
    int64_t nbad = 0;
    for (int64_t i = 0; i < n; i++) {
        float qf = (x[i] - p[i]) / two_eb;
        qf = rintf(qf);
        float q = (fabsf(qf) < fradius) ? qf : 0.0f;
        q = q + 0.0f;              /* normalize -0.0 bins, like the ref */
        float r = p[i] + q * two_eb;
        float err = fabsf(r - x[i]);
        int ok = (err <= guard);
        if (!ok)                   /* borderline: exact float64 recheck */
            ok = (fabs((double)r - (double)x[i]) <= eb);
        if (ok) {
            codes[i] = (uint32_t)(q + fradius);
            recon[i] = r;
        } else {
            codes[i] = 0u;
            recon[i] = x[i];
            bad[nbad++] = i;
        }
    }
    return nbad;
}

/* float64 reference formula (payload dtype T), same op order as the
   NumPy f64 branch.  Out-of-radius / non-finite points route to exact
   outlier storage before any reconstruction is attempted, which is
   outcome-identical to the vectorized reference (see quantizer.py). */
#define DEFINE_QUANT64(NAME, T)                                         \
API int64_t NAME(const T *x, const T *p, int64_t n,                     \
                 double eb, int64_t radius,                             \
                 uint32_t *codes, T *recon, int64_t *bad)               \
{                                                                       \
    const double two_eb = 2.0 * eb;                                     \
    const double dradius = (double)radius;                              \
    int64_t nbad = 0;                                                   \
    for (int64_t i = 0; i < n; i++) {                                   \
        double xd = (double)x[i], pd = (double)p[i];                    \
        double diff = xd - pd;                                          \
        if (!isfinite(diff)) diff = 0.0;                                \
        /* + 0.0 normalizes -0.0 bins: the decoder (and the NumPy   \
           reference) rebuild the bin from the integer code, so the \
           tracked recon must match it down to the sign of zero */  \
        double qd = rint(diff / two_eb) + 0.0;                          \
        int ok = 0;                                                     \
        T rt = (T)0;                                                    \
        if (fabs(qd) < dradius) {                                       \
            rt = (T)(pd + qd * two_eb);                                 \
            ok = (fabs((double)rt - xd) <= eb) && isfinite(xd);         \
        }                                                               \
        if (ok) {                                                       \
            codes[i] = (uint32_t)((int64_t)qd + radius);                \
            recon[i] = rt;                                              \
        } else {                                                        \
            codes[i] = 0u;                                              \
            recon[i] = x[i];                                            \
            bad[nbad++] = i;                                            \
        }                                                               \
    }                                                                   \
    return nbad;                                                        \
}
DEFINE_QUANT64(stz_quantize_f64, double)
DEFINE_QUANT64(stz_quantize_f64_f32, float)

API void stz_dequant_f32(
    const uint32_t *codes, const float *p, int64_t n,
    float two_eb, float fradius, float *recon)
{
    for (int64_t i = 0; i < n; i++) {
        float qf = (float)codes[i] - fradius;
        recon[i] = p[i] + qf * two_eb;
    }
}

#define DEFINE_DEQUANT64(NAME, T)                                       \
API void NAME(const uint32_t *codes, const T *p, int64_t n,             \
              double eb, int64_t radius, T *recon)                      \
{                                                                       \
    const double two_eb = 2.0 * eb;                                     \
    for (int64_t i = 0; i < n; i++) {                                   \
        int64_t q = (int64_t)codes[i] - radius;                         \
        recon[i] = (T)((double)p[i] + (double)q * two_eb);              \
    }                                                                   \
}
DEFINE_DEQUANT64(stz_dequant_f64, double)
DEFINE_DEQUANT64(stz_dequant_f64_f32, float)

/* Huffman payload packer: codewords back to back, MSB-first (the
   np.packbits convention of encoding/bitstream.py), recording the bit
   offset of every chunk-th symbol (the segment's sync index).  combo
   is the fused (code << 5 | length) table of huffman.py; lengths are
   <= 16 so the accumulator never holds more than 23 live bits.
   Returns the total payload bit count. */
API int64_t stz_huff_pack(
    const uint32_t *syms, int64_t n, const uint32_t *combo,
    int64_t chunk, uint8_t *out, int64_t *sync)
{
    uint64_t acc = 0;
    unsigned accbits = 0;
    int64_t total = 0, ob = 0, si = 0, until = 0;
    for (int64_t i = 0; i < n; i++) {
        if (until == 0) { sync[si++] = total; until = chunk; }
        until--;
        uint32_t c = combo[syms[i]];
        unsigned len = c & 31u;
        acc = (acc << len) | (c >> 5);
        accbits += len;
        total += len;
        while (accbits >= 8) {
            accbits -= 8;
            out[ob++] = (uint8_t)(acc >> accbits);
        }
    }
    if (accbits)
        out[ob++] = (uint8_t)(acc << (8 - accbits));
    return total;
}

/* Guarded 16-bit window read for the decoder's tail: bytes past the
   payload end read as zero, exactly like the zero padding the NumPy
   reference appends before its vectorized window gather. */
static uint32_t stz_win16(const uint8_t *p, int64_t plen, int64_t pos)
{
    int64_t byte = pos >> 3;
    uint32_t w = 0;
    for (int k = 0; k < 3; k++) {
        uint32_t b = (byte + k < plen) ? p[byte + k] : 0u;
        w = (w << 8) | b;
    }
    return (w >> (8 - (pos & 7))) & 0xFFFFu;
}

/* Unguarded window read for the hot loop: one 4-byte load swapped to
   big-endian order, valid while pos >> 3 <= plen - 4.  Identical to
   stz_win16 for in-bounds positions. */
static inline uint32_t stz_win16_fast(const uint8_t *p, int64_t pos)
{
    uint32_t w;
    memcpy(&w, p + (pos >> 3), 4);
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_BIG_ENDIAN__
    w = __builtin_bswap32(w);
#endif
    return (w >> (16 - (pos & 7))) & 0xFFFFu;
}

/* Table-driven canonical Huffman decoder: the compiled twin of the
   interleaved lockstep loop in huffman.huffman_decode_many (and the
   chunk-bounded huffman_decode_range).  `table` is the fused 2^16
   window table ((symbol << 5) | length); `sync` holds the absolute
   bit offset of each selected chunk's first codeword.  Chunks decode
   sequentially — the output is a pure function of the table walk, so
   the symbols are identical to the reference's lockstep/transpose by
   construction, already in symbol order (no transpose needed).
   Returns 0, or -1 when a sync position lies outside the payload
   (corrupt segment: the caller falls back to the reference so damaged
   archives keep their established failure behavior). */
API int32_t stz_huff_decode(
    const uint8_t *p, int64_t plen, const uint32_t *table,
    const int64_t *sync, int64_t nchunks, int64_t chunk, int64_t total,
    uint32_t *out)
{
    const int64_t safe4 = 8 * (plen - 4) + 7;  /* 4-byte fast-load bound */
    int64_t c = 0;
    /* Hot path: eight full chunks in lockstep.  Each chunk's bit
       cursor only depends on its own codeword lengths, so the lanes
       give the CPU eight independent dependency chains — the compiled
       analogue of the reference's vectorized segment interleave.
       (lp[0]|..|lp[7]) > safe4 over-approximates "any lane near the
       payload end"; those rare tails finish on the guarded path, which
       reads identical windows. */
    for (; c + 8 <= nchunks && (c + 8) * chunk <= total; c += 8) {
        int64_t lp[8];
        uint32_t *lo[8];
        for (int l = 0; l < 8; l++) {
            lp[l] = sync[c + l];
            if (lp[l] < 0 || lp[l] >= 8 * plen)
                return -1;
            lo[l] = out + (c + l) * chunk;
        }
        int64_t k = 0;
        for (; k < chunk; k++) {
            int64_t m = lp[0] | lp[1] | lp[2] | lp[3]
                      | lp[4] | lp[5] | lp[6] | lp[7];
            if (m > safe4)
                break;
            for (int l = 0; l < 8; l++) {
                uint32_t e = table[stz_win16_fast(p, lp[l])];
                lo[l][k] = e >> 5;
                lp[l] += e & 31u;
            }
        }
        for (int l = 0; k < chunk && l < 8; l++) {
            /* payload-end tail (or corrupt overrun) */
            int64_t pos = lp[l];
            for (int64_t kk = k; kk < chunk; kk++) {
                uint32_t e = table[stz_win16(p, plen, pos)];
                lo[l][kk] = e >> 5;
                pos += e & 31u;
            }
        }
    }
    for (; c < nchunks; c++) {
        int64_t i = c * chunk;
        int64_t i1 = (i + chunk < total) ? i + chunk : total;
        int64_t pos = sync[c];
        if (pos < 0 || pos >= 8 * plen)
            return -1;
        while (i < i1 && pos <= safe4) {
            uint32_t e = table[stz_win16_fast(p, pos)];
            out[i++] = e >> 5;
            pos += e & 31u;
        }
        while (i < i1) {  /* corrupt overrun: decode zero-filled bits */
            uint32_t e = table[stz_win16(p, plen, pos)];
            out[i++] = e >> 5;
            pos += e & 31u;
        }
    }
    return 0;
}

/* Two-queue Huffman over ascending leaf frequencies: the compiled
   twin of huffman._code_lengths' merge loop (same leaf-wins tie
   break, same parent/depth walk — including the uint8 narrowing of
   the final depths).  Returns 0, or -1 on allocation failure. */
API int32_t stz_huff_tree(
    const int64_t *leaf_freq, int64_t n, uint8_t *out)
{
    int64_t total = 2 * n - 1;
    int64_t *parent = (int64_t *)malloc((size_t)total * sizeof(int64_t));
    int64_t *node_freq = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t *depth = (int64_t *)malloc((size_t)total * sizeof(int64_t));
    if (!parent || !node_freq || !depth) {
        free(parent); free(node_freq); free(depth);
        return -1;
    }
    int64_t li = 0, ni = 0, created = 0;
    for (int64_t new_id = n; new_id < total; new_id++) {
        for (int r = 0; r < 2; r++) {
            int take_leaf = (li < n) &&
                (ni >= created || leaf_freq[li] <= node_freq[ni]);
            int64_t f, idx;
            if (take_leaf) { f = leaf_freq[li]; idx = li; li++; }
            else           { f = node_freq[ni]; idx = n + ni; ni++; }
            parent[idx] = new_id;
            if (r == 0) node_freq[created] = f;
            else        node_freq[created] += f;
        }
        created++;
    }
    depth[total - 1] = 0;
    for (int64_t node = total - 2; node >= 0; node--)
        depth[node] = depth[parent[node]] + 1;
    for (int64_t i = 0; i < n; i++)
        out[i] = (uint8_t)depth[i];
    free(parent); free(node_freq); free(depth);
    return 0;
}

/* Kraft restore + tighten of huffman._limit_lengths, same symbol
   orders (by_rarity ascending-frequency, by_freq descending), same
   iteration scheme, operating on the int64 length array in place. */
API void stz_huff_limit(
    int64_t *L, const int64_t *by_rarity, const int64_t *by_freq,
    int64_t npresent, int32_t maxlen)
{
    const int64_t budget = (int64_t)1 << maxlen;
    int64_t kraft = 0;
    for (int64_t i = 0; i < npresent; i++)
        kraft += (int64_t)1 << (maxlen - L[by_freq[i]]);
    if (kraft > budget) {
        int64_t idx = 0;
        while (kraft > budget) {
            int64_t s = by_rarity[idx % npresent];
            idx++;
            if (L[s] < maxlen) {
                kraft -= (int64_t)1 << (maxlen - L[s] - 1);
                L[s] += 1;
            }
        }
    }
    for (int64_t i = 0; i < npresent; i++) {
        int64_t s = by_freq[i];
        while (L[s] > 1 &&
               kraft + ((int64_t)1 << (maxlen - L[s])) <= budget) {
            kraft += (int64_t)1 << (maxlen - L[s]);
            L[s] -= 1;
        }
    }
}

/* SZx width-group packing: all blocks of one bit width, plane-major
   from the top plane down, MSB-first — the bit-for-bit layout of
   np.packbits over ((codes >> plane) & 1) in szx/codec.py. */
API void stz_szx_pack(
    const uint32_t *codes, int64_t nvals, int32_t w, uint8_t *out)
{
    uint32_t acc = 0;
    unsigned accbits = 0;
    int64_t ob = 0;
    for (int32_t pl = w - 1; pl >= 0; pl--) {
        for (int64_t k = 0; k < nvals; k++) {
            acc = (acc << 1) | ((codes[k] >> pl) & 1u);
            if (++accbits == 8) { out[ob++] = (uint8_t)acc; accbits = 0; }
        }
    }
    if (accbits)
        out[ob++] = (uint8_t)(acc << (8 - accbits));
}

API void stz_szx_unpack(
    const uint8_t *in, int64_t nvals, int32_t w, uint32_t *out)
{
    memset(out, 0, (size_t)nvals * sizeof(uint32_t));
    int64_t bit = 0;
    for (int32_t pl = w - 1; pl >= 0; pl--) {
        for (int64_t k = 0; k < nvals; k++, bit++) {
            uint32_t b = (in[bit >> 3] >> (7 - (bit & 7))) & 1u;
            out[k] |= b << pl;
        }
    }
}

/* Fused predictor combine: out = sum(near)*wn - sum(outer)*wo with the
   left-to-right op order of predict._sum_seq, over up to 16 strided
   views of <= 4 dims.  strides is [narr][4] in bytes (leading dims
   padded), out is C-contiguous. */
#define DEFINE_COMBINE(NAME, T)                                         \
API void NAME(const char **ptrs, int32_t nnear, int32_t nouter,         \
              const int64_t *strides, const int64_t *shape,             \
              T wn, T wo, T *out)                                       \
{                                                                       \
    const int32_t narr = nnear + nouter;                                \
    int64_t oi = 0;                                                     \
    for (int64_t i0 = 0; i0 < shape[0]; i0++)                           \
    for (int64_t i1 = 0; i1 < shape[1]; i1++)                           \
    for (int64_t i2 = 0; i2 < shape[2]; i2++) {                         \
        const char *row[16];                                            \
        for (int32_t t = 0; t < narr; t++)                              \
            row[t] = ptrs[t] + i0 * strides[4 * t]                      \
                             + i1 * strides[4 * t + 1]                  \
                             + i2 * strides[4 * t + 2];                 \
        for (int64_t i3 = 0; i3 < shape[3]; i3++) {                     \
            T sn = *(const T *)(row[0] + i3 * strides[3]);              \
            for (int32_t t = 1; t < nnear; t++)                         \
                sn += *(const T *)(row[t] + i3 * strides[4 * t + 3]);   \
            T v;                                                        \
            if (nouter > 0) {                                           \
                T so = *(const T *)(row[nnear]                          \
                                    + i3 * strides[4 * nnear + 3]);     \
                for (int32_t t = nnear + 1; t < narr; t++)              \
                    so += *(const T *)(row[t]                           \
                                       + i3 * strides[4 * t + 3]);      \
                v = sn * wn - so * wo;                                  \
            } else {                                                    \
                v = sn * wn;                                            \
            }                                                           \
            out[oi++] = v;                                              \
        }                                                               \
    }                                                                   \
}
DEFINE_COMBINE(stz_combine_f32, float)
DEFINE_COMBINE(stz_combine_f64, double)

/* Fused predict-combine + dequantize: the decode-side reconstruction
   out = dequant(sum(near)*wn - sum(outer)*wo, code) in one pass, so
   stz_decompress never materializes the prediction array.  Same
   strided-view walk as DEFINE_COMBINE, with the quantization codes
   read through their own strides and the result written through
   strided `out` (a region view of the sub-block) — region writes land
   in place.  BODY is the per-element dequantize formula, replicating
   quantizer.dequantize's op order exactly (pv is the combine result
   in the payload dtype T, `code` the uint32 quantizer code). */
/* Fixed-count unit-stride inner loop: NN/NO are literal constants, so
   the t-loops fully unroll and the i3 loop vectorizes.  The add order
   (ap[0] + ap[1] + ...) matches predict._sum_seq exactly; elementwise
   SIMD keeps results bit-identical to the scalar walk. */
#define STZ_DQ_UNIT(T, NN, NO, BODY)                                    \
    for (int64_t i3 = 0; i3 < shape[3]; i3++) {                         \
        T sn = ap[0][i3];                                               \
        for (int32_t t = 1; t < (NN); t++)                              \
            sn += ap[t][i3];                                            \
        T pv;                                                           \
        if ((NO) > 0) {                                                 \
            T so = ap[NN][i3];                                          \
            for (int32_t t = (NN) + 1; t < (NN) + (NO); t++)            \
                so += ap[t][i3];                                        \
            pv = sn * wn - so * wo;                                     \
        } else {                                                        \
            pv = sn * wn;                                               \
        }                                                               \
        uint32_t code = q[i3];                                          \
        o[i3] = (BODY);                                                 \
    }

/* Fixed-count strided inner loop (rotated boundary shells land here:
   long inner extent, non-unit strides).  Same add order as the
   runtime-count walk; the literal NN/NO just let the t-loops unroll. */
#define STZ_DQ_STRIDED(T, NN, NO, BODY)                                 \
    for (int64_t i3 = 0; i3 < shape[3]; i3++) {                         \
        T sn = *(const T *)(row[0] + i3 * strides[3]);                  \
        for (int32_t t = 1; t < (NN); t++)                              \
            sn += *(const T *)(row[t] + i3 * strides[4 * t + 3]);       \
        T pv;                                                           \
        if ((NO) > 0) {                                                 \
            T so = *(const T *)(row[NN] + i3 * strides[4 * (NN) + 3]);  \
            for (int32_t t = (NN) + 1; t < (NN) + (NO); t++)            \
                so += *(const T *)(row[t] + i3 * strides[4 * t + 3]);   \
            pv = sn * wn - so * wo;                                     \
        } else {                                                        \
            pv = sn * wn;                                               \
        }                                                               \
        uint32_t code = *(const uint32_t *)(qrow + i3 * qs[3]);         \
        *(T *)(orow + i3 * os[3]) = (BODY);                             \
    }

#define DEFINE_DQ_COMBINE(NAME, T, BODY)                                \
API void NAME(const char **ptrs, int32_t nnear, int32_t nouter,         \
              const int64_t *strides, const int64_t *shape,             \
              T wn, T wo,                                               \
              const char *codes, const int64_t *qs,                     \
              char *out, const int64_t *os,                             \
              double two_eb, int64_t radius)                            \
{                                                                       \
    const int32_t narr = nnear + nouter;                                \
    const float twf = (float)two_eb;                                    \
    const float frad = (float)radius;                                   \
    (void)twf; (void)frad;                                              \
    /* unit-stride last dim on every operand -> vectorizable loops */   \
    int unit = qs[3] == (int64_t)sizeof(uint32_t)                       \
               && os[3] == (int64_t)sizeof(T);                          \
    for (int32_t t = 0; t < narr; t++)                                  \
        unit = unit && strides[4 * t + 3] == (int64_t)sizeof(T);        \
    for (int64_t i0 = 0; i0 < shape[0]; i0++)                           \
    for (int64_t i1 = 0; i1 < shape[1]; i1++)                           \
    for (int64_t i2 = 0; i2 < shape[2]; i2++) {                         \
        const char *row[16];                                            \
        for (int32_t t = 0; t < narr; t++)                              \
            row[t] = ptrs[t] + i0 * strides[4 * t]                      \
                             + i1 * strides[4 * t + 1]                  \
                             + i2 * strides[4 * t + 2];                 \
        const char *qrow = codes + i0 * qs[0] + i1 * qs[1] + i2 * qs[2];\
        char *orow = out + i0 * os[0] + i1 * os[1] + i2 * os[2];        \
        int done = 0;                                                   \
        if (unit) {                                                     \
            /* every cubic/linear corner count the predictor emits */   \
            const T *ap[16];                                            \
            const uint32_t *q = (const uint32_t *)qrow;                 \
            T *o = (T *)orow;                                           \
            for (int32_t t = 0; t < narr; t++)                          \
                ap[t] = (const T *)row[t];                              \
            done = 1;                                                   \
            if      (nnear == 2 && nouter == 2) { STZ_DQ_UNIT(T, 2, 2, BODY) } \
            else if (nnear == 4 && nouter == 4) { STZ_DQ_UNIT(T, 4, 4, BODY) } \
            else if (nnear == 8 && nouter == 8) { STZ_DQ_UNIT(T, 8, 8, BODY) } \
            else if (nnear == 2 && nouter == 0) { STZ_DQ_UNIT(T, 2, 0, BODY) } \
            else if (nnear == 4 && nouter == 0) { STZ_DQ_UNIT(T, 4, 0, BODY) } \
            else if (nnear == 8 && nouter == 0) { STZ_DQ_UNIT(T, 8, 0, BODY) } \
            else if (nnear == 1 && nouter == 0) { STZ_DQ_UNIT(T, 1, 0, BODY) } \
            else done = 0;                                              \
        }                                                               \
        if (done)                                                       \
            continue;                                                   \
        /* strided fallback: fixed corner counts unroll the t-loop */   \
        if      (nnear == 2 && nouter == 0) { STZ_DQ_STRIDED(T, 2, 0, BODY) } \
        else if (nnear == 4 && nouter == 0) { STZ_DQ_STRIDED(T, 4, 0, BODY) } \
        else if (nnear == 8 && nouter == 0) { STZ_DQ_STRIDED(T, 8, 0, BODY) } \
        else if (nnear == 2 && nouter == 2) { STZ_DQ_STRIDED(T, 2, 2, BODY) } \
        else if (nnear == 4 && nouter == 4) { STZ_DQ_STRIDED(T, 4, 4, BODY) } \
        else if (nnear == 8 && nouter == 8) { STZ_DQ_STRIDED(T, 8, 8, BODY) } \
        else {                                                          \
        for (int64_t i3 = 0; i3 < shape[3]; i3++) {                     \
            T sn = *(const T *)(row[0] + i3 * strides[3]);              \
            for (int32_t t = 1; t < nnear; t++)                         \
                sn += *(const T *)(row[t] + i3 * strides[4 * t + 3]);   \
            T pv;                                                       \
            if (nouter > 0) {                                           \
                T so = *(const T *)(row[nnear]                          \
                                    + i3 * strides[4 * nnear + 3]);     \
                for (int32_t t = nnear + 1; t < narr; t++)              \
                    so += *(const T *)(row[t]                           \
                                       + i3 * strides[4 * t + 3]);      \
                pv = sn * wn - so * wo;                                 \
            } else {                                                    \
                pv = sn * wn;                                           \
            }                                                           \
            uint32_t code = *(const uint32_t *)(qrow + i3 * qs[3]);     \
            *(T *)(orow + i3 * os[3]) = (BODY);                        \
        }                                                               \
        }                                                               \
    }                                                                   \
}
/* f32 fast path: qf = (float)code - radius; pv + qf * two_eb, all in
   float32 — quantizer.dequantize's f32_mode formula. */
DEFINE_DQ_COMBINE(stz_dqc_f32, float,
    pv + ((float)code - frad) * twf)
/* f64 reference formula: (double)pv + (double)(code - radius) * 2eb,
   cast back to the payload dtype. */
DEFINE_DQ_COMBINE(stz_dqc_f64, double,
    pv + (double)((int64_t)code - radius) * two_eb)
DEFINE_DQ_COMBINE(stz_dqc_f64_f32, float,
    (float)((double)pv + (double)((int64_t)code - radius) * two_eb))

/* Strided scatter: copy a C-contiguous source into a strided view of
   <= 4 dims (leading dims padded, strides in bytes) — the reassembly
   step that places parity sub-blocks back into the fine lattice.  A
   pure bit copy, so one kernel per element width covers all dtypes. */
#define DEFINE_SCATTER(NAME, T)                                         \
API void NAME(const T *src, char *dst, const int64_t *ds,               \
              const int64_t *shape)                                     \
{                                                                       \
    int64_t si = 0;                                                     \
    for (int64_t i0 = 0; i0 < shape[0]; i0++)                           \
    for (int64_t i1 = 0; i1 < shape[1]; i1++)                           \
    for (int64_t i2 = 0; i2 < shape[2]; i2++) {                         \
        char *drow = dst + i0 * ds[0] + i1 * ds[1] + i2 * ds[2];        \
        for (int64_t i3 = 0; i3 < shape[3]; i3++)                       \
            *(T *)(drow + i3 * ds[3]) = src[si++];                      \
    }                                                                   \
}
DEFINE_SCATTER(stz_scatter32, uint32_t)
DEFINE_SCATTER(stz_scatter64, uint64_t)
"""

_VERSION = 1  # bump to invalidate caches when the ABI (not source) changes

# ctypes prototypes: (argtypes, restype).  Pointers are passed as raw
# addresses (ndarray.ctypes.data) under c_void_p.
_i64 = ctypes.c_int64
_i32 = ctypes.c_int32
_f32 = ctypes.c_float
_f64 = ctypes.c_double
_ptr = ctypes.c_void_p
_SIGNATURES: dict[str, tuple[list, object]] = {
    "stz_quantize_f32": (
        [_ptr, _ptr, _i64, _f32, _f32, _f32, _f64, _ptr, _ptr, _ptr], _i64
    ),
    "stz_quantize_f64": ([_ptr, _ptr, _i64, _f64, _i64, _ptr, _ptr, _ptr], _i64),
    "stz_quantize_f64_f32": (
        [_ptr, _ptr, _i64, _f64, _i64, _ptr, _ptr, _ptr], _i64
    ),
    "stz_dequant_f32": ([_ptr, _ptr, _i64, _f32, _f32, _ptr], None),
    "stz_dequant_f64": ([_ptr, _ptr, _i64, _f64, _i64, _ptr], None),
    "stz_dequant_f64_f32": ([_ptr, _ptr, _i64, _f64, _i64, _ptr], None),
    "stz_huff_pack": ([_ptr, _i64, _ptr, _i64, _ptr, _ptr], _i64),
    "stz_huff_decode": (
        [_ptr, _i64, _ptr, _ptr, _i64, _i64, _i64, _ptr], _i32
    ),
    "stz_huff_tree": ([_ptr, _i64, _ptr], _i32),
    "stz_huff_limit": ([_ptr, _ptr, _ptr, _i64, _i32], None),
    "stz_szx_pack": ([_ptr, _i64, _i32, _ptr], None),
    "stz_szx_unpack": ([_ptr, _i64, _i32, _ptr], None),
    "stz_combine_f32": (
        [_ptr, _i32, _i32, _ptr, _ptr, _f32, _f32, _ptr], None
    ),
    "stz_combine_f64": (
        [_ptr, _i32, _i32, _ptr, _ptr, _f64, _f64, _ptr], None
    ),
    "stz_dqc_f32": (
        [_ptr, _i32, _i32, _ptr, _ptr, _f32, _f32, _ptr, _ptr, _ptr,
         _ptr, _f64, _i64], None
    ),
    "stz_dqc_f64": (
        [_ptr, _i32, _i32, _ptr, _ptr, _f64, _f64, _ptr, _ptr, _ptr,
         _ptr, _f64, _i64], None
    ),
    "stz_dqc_f64_f32": (
        [_ptr, _i32, _i32, _ptr, _ptr, _f32, _f32, _ptr, _ptr, _ptr,
         _ptr, _f64, _i64], None
    ),
    "stz_scatter32": ([_ptr, _ptr, _ptr, _ptr], None),
    "stz_scatter64": ([_ptr, _ptr, _ptr, _ptr], None),
}

_LOCK = threading.Lock()
_LIB: ctypes.CDLL | None = None
_LOAD_TRIED = False
_ERROR: str | None = None
_LIB_PATH: str | None = None
_OVERRIDE: bool | None = None  # test/bench hook; None = follow the env


def enabled() -> bool:
    """Whether the compiled path *may* engage (the ``STZ_JIT`` gate)."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get("STZ_JIT", "1").lower() not in ("0", "off", "false")


class override:
    """Force the facade on/off regardless of ``STZ_JIT`` (tests, the
    kernels bench).  ``override(False)`` guarantees the reference path;
    ``override(True)`` forces engagement even under ``STZ_JIT=0``;
    ``override(None)`` restores env-driven behavior."""

    def __init__(self, mode: bool | None):
        self.mode = mode
        self._prev: bool | None = None

    def __enter__(self):
        global _OVERRIDE
        self._prev = _OVERRIDE
        _OVERRIDE = self.mode
        return self

    def __exit__(self, *exc):
        global _OVERRIDE
        _OVERRIDE = self._prev
        return False


def _cache_dir() -> str:
    env = os.environ.get("STZ_JIT_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "stz", "jit")


def _compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc.split()[0]):
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def _compile(cc: str, src_path: str, out_path: str) -> None:
    base = [cc, "-O3", "-fPIC", "-shared", "-ffp-contract=off"]
    # -march=native vectorizes the packing loops where supported; the
    # flags stay IEEE-exact (contraction is what changes results, and
    # it is off).  Retried without for toolchains that reject it.
    for extra in (["-march=native"], []):
        try:
            subprocess.run(
                base + extra + ["-o", out_path, src_path, "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            return
        except subprocess.CalledProcessError as exc:
            err = exc.stderr.decode(errors="replace")[-500:]
    raise RuntimeError(f"cc failed: {err}")


def _load_locked() -> None:
    global _LIB, _LOAD_TRIED, _ERROR, _LIB_PATH
    _LOAD_TRIED = True
    cc = _compiler()
    if cc is None:
        _ERROR = "no C compiler on PATH (cc/gcc/clang)"
        return
    digest = hashlib.blake2b(
        f"{_VERSION}|{_C_SOURCE}".encode(), digest_size=8
    ).hexdigest()
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"stzjit-{digest}.so")
    try:
        if not os.path.exists(lib_path):
            os.makedirs(cache, exist_ok=True)
            fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=cache)
            with os.fdopen(fd, "w") as f:
                f.write(_C_SOURCE)
            tmp_so = tmp_c[:-2] + ".so"
            try:
                _compile(cc, tmp_c, tmp_so)
                os.replace(tmp_so, lib_path)  # atomic: racers converge
            finally:
                for p in (tmp_c, tmp_so):
                    try:
                        os.unlink(p)
                    except OSError:
                        pass
        lib = ctypes.CDLL(lib_path)
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = restype
        _LIB = lib
        _LIB_PATH = lib_path
    except Exception as exc:  # noqa: BLE001 — facade never raises
        _ERROR = f"{type(exc).__name__}: {exc}"


def _lib() -> ctypes.CDLL | None:
    """The loaded kernel library, or None (disabled or unavailable)."""
    if not enabled():
        return None
    if _LOAD_TRIED:
        return _LIB
    with _LOCK:
        if not _LOAD_TRIED:
            _load_locked()
    return _LIB


def available() -> bool:
    """Whether the compiled kernels are loaded (compiling on first ask)."""
    return _lib() is not None


def has(kernel: str) -> bool:
    """Whether a named kernel is callable right now."""
    lib = _lib()
    return lib is not None and hasattr(lib, f"stz_{kernel}")


def status() -> dict:
    """Introspection for ``stz info`` and the test suite."""
    return {
        "backend": "generated-c/ctypes",
        "enabled": enabled(),
        "loaded": _LIB is not None,
        "attempted": _LOAD_TRIED,
        "library": _LIB_PATH,
        "cache_dir": _cache_dir(),
        "error": _ERROR,
    }


# ---------------------------------------------------------------------------
# kernel wrappers — every one returns None when the compiled path cannot
# run (disabled, unavailable, or ineligible inputs)
# ---------------------------------------------------------------------------

def _eligible(arr: np.ndarray, dtype) -> bool:
    return arr.dtype == dtype and arr.flags.c_contiguous


def quantize(
    flat: np.ndarray,
    pflat: np.ndarray,
    eb: float,
    radius: int,
    f32_mode: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Compiled `_quantize_flat_impl`: ``(codes, bad, outlier_val,
    recon)`` or None.  ``f32_mode`` selects the float32 fast formula
    (caller has already validated ``_f32_mode``)."""
    lib = _lib()
    if lib is None:
        return None
    n = flat.size
    if f32_mode:
        if not (_eligible(flat, np.float32) and _eligible(pflat, np.float32)):
            return None
        fn = lib.stz_quantize_f32
        recon = np.empty(n, dtype=np.float32)
        bad = np.empty(n, dtype=np.int64)
        codes = np.empty(n, dtype=np.uint32)
        nbad = fn(
            flat.ctypes.data, pflat.ctypes.data, n,
            _f32(np.float32(2.0 * eb)), _f32(np.float32(radius)),
            _f32(np.float32(eb * (1.0 - 1e-5))), _f64(eb),
            codes.ctypes.data, recon.ctypes.data, bad.ctypes.data,
        )
    else:
        if flat.dtype == np.float64:
            fn = lib.stz_quantize_f64
        elif flat.dtype == np.float32:
            fn = lib.stz_quantize_f64_f32
        else:
            return None
        if not (_eligible(flat, flat.dtype) and _eligible(pflat, flat.dtype)):
            return None
        recon = np.empty(n, dtype=flat.dtype)
        bad = np.empty(n, dtype=np.int64)
        codes = np.empty(n, dtype=np.uint32)
        nbad = fn(
            flat.ctypes.data, pflat.ctypes.data, n, _f64(eb), radius,
            codes.ctypes.data, recon.ctypes.data, bad.ctypes.data,
        )
    pos = bad[:nbad].copy()
    return codes, pos, flat[pos], recon


def dequantize(
    codes: np.ndarray,
    pflat: np.ndarray,
    eb: float,
    radius: int,
    f32_mode: bool,
) -> np.ndarray | None:
    """Compiled reconstruction (no outlier scatter), or None."""
    lib = _lib()
    if lib is None or not _eligible(codes, np.uint32):
        return None
    if pflat.size != codes.size:  # the kernel reads codes.size predictions
        return None
    n = codes.size
    if f32_mode:
        if not _eligible(pflat, np.float32):
            return None
        recon = np.empty(n, dtype=np.float32)
        lib.stz_dequant_f32(
            codes.ctypes.data, pflat.ctypes.data, n,
            _f32(np.float32(2.0 * eb)), _f32(np.float32(radius)),
            recon.ctypes.data,
        )
        return recon
    if pflat.dtype == np.float64:
        fn = lib.stz_dequant_f64
    elif pflat.dtype == np.float32:
        fn = lib.stz_dequant_f64_f32
    else:
        return None
    if not pflat.flags.c_contiguous:
        return None
    recon = np.empty(n, dtype=pflat.dtype)
    fn(codes.ctypes.data, pflat.ctypes.data, n, _f64(eb), radius,
       recon.ctypes.data)
    return recon


def huffman_pack(
    symbols: np.ndarray, combo: np.ndarray, chunk: int
) -> tuple[np.ndarray, int, np.ndarray] | None:
    """Compiled codeword packer: ``(packed, nbits, sync_starts)`` or
    None.  ``combo`` is huffman.py's fused ``(code << 5) | length``
    table; the sync index records the bit start of every ``chunk``-th
    symbol, exactly like ``starts[::chunk]`` on the reference path."""
    lib = _lib()
    if lib is None:
        return None
    if not (_eligible(symbols, np.uint32) and _eligible(combo, np.uint32)):
        return None
    m = symbols.size
    out = np.empty(2 * m + 8, dtype=np.uint8)  # <=16 bits per codeword
    sync = np.empty(-(-m // chunk), dtype=np.int64)
    nbits = lib.stz_huff_pack(
        symbols.ctypes.data, m, combo.ctypes.data, chunk,
        out.ctypes.data, sync.ctypes.data,
    )
    return out[: (nbits + 7) >> 3], int(nbits), sync


def huffman_decode(
    payload: np.ndarray,
    table: np.ndarray,
    sync: np.ndarray,
    chunk: int,
    total: int,
) -> np.ndarray | None:
    """Compiled table-driven Huffman decode of one segment (or a
    chunk-bounded slice of one): uint32 symbols in order, or None.

    ``payload`` is the segment's byte buffer (its 4-byte zero tail pad
    included), ``table`` the fused 2^16 window table of
    ``huffman._decode_table``, ``sync`` the absolute bit offsets of the
    selected chunks' first codewords, ``total`` the number of symbols
    those chunks hold.  Declines (None) when a sync offset lies outside
    the payload or the sync/total geometry is inconsistent — corrupt
    segments fall back to the reference loop so damaged archives keep
    byte-for-byte the failure behavior they had before the compiled
    decoder existed."""
    lib = _lib()
    if lib is None:
        return None
    if not (_eligible(payload, np.uint8) and _eligible(table, np.uint32)):
        return None
    if chunk <= 0 or total <= 0:
        return None
    sync = np.ascontiguousarray(sync, dtype=np.int64)
    if sync.size != -(-total // chunk):
        return None
    out = np.empty(total, dtype=np.uint32)
    rc = lib.stz_huff_decode(
        payload.ctypes.data, payload.size, table.ctypes.data,
        sync.ctypes.data, sync.size, chunk, total, out.ctypes.data,
    )
    return out if rc == 0 else None


def huffman_tree(leaf_freq: np.ndarray) -> np.ndarray | None:
    """Compiled two-queue Huffman: uint8 leaf depths for ascending
    ``leaf_freq`` (>= 2 leaves), or None."""
    lib = _lib()
    if lib is None or leaf_freq.size < 2:
        return None
    if not _eligible(leaf_freq, np.int64):
        return None
    out = np.empty(leaf_freq.size, dtype=np.uint8)
    rc = lib.stz_huff_tree(
        leaf_freq.ctypes.data, leaf_freq.size, out.ctypes.data
    )
    return out if rc == 0 else None


def huffman_limit(
    L: np.ndarray, present: np.ndarray, freqs: np.ndarray, maxlen: int
) -> np.ndarray | None:
    """Compiled Kraft restore + tighten over the int64 length array
    ``L`` (mutated in place); returns the uint8 lengths or None."""
    lib = _lib()
    if lib is None or not _eligible(L, np.int64):
        return None
    fp = freqs[present]
    by_rarity = np.ascontiguousarray(
        present[np.argsort(fp, kind="stable")].astype(np.int64)
    )
    by_freq = np.ascontiguousarray(
        present[np.argsort(-fp, kind="stable")].astype(np.int64)
    )
    lib.stz_huff_limit(
        L.ctypes.data, by_rarity.ctypes.data, by_freq.ctypes.data,
        present.size, maxlen,
    )
    return L.astype(np.uint8)


def szx_pack(codes: np.ndarray, width: int) -> np.ndarray | None:
    """Compiled plane-major packbits over one SZx width group."""
    lib = _lib()
    if lib is None:
        return None
    flat = codes.reshape(-1)
    if not _eligible(flat, np.uint32):
        return None
    nbits = width * flat.size
    out = np.empty((nbits + 7) >> 3, dtype=np.uint8)
    lib.stz_szx_pack(flat.ctypes.data, flat.size, width, out.ctypes.data)
    return out


def szx_unpack(
    buf: np.ndarray, nvals: int, width: int
) -> np.ndarray | None:
    """Inverse of :func:`szx_pack`: uint32 codes of one width group."""
    lib = _lib()
    if lib is None or not _eligible(buf, np.uint8):
        return None
    out = np.empty(nvals, dtype=np.uint32)
    lib.stz_szx_unpack(buf.ctypes.data, nvals, width, out.ctypes.data)
    return out


def _views(arrs: list[np.ndarray], io: tuple = ()):
    """Marshal equally-shaped views for the strided ``<= 4``-D kernels:
    ``(ptrs, strides, shape)`` ctypes arrays over ``arrs`` then ``io``,
    byte strides padded to 4 leading dims (extent 1, stride 0).  ``io``
    (the fused kernel's codes and output) is exempt from the dtype check
    and the 16-view limit.  None when the kernels cannot take the views:
    rank 0 or above 4, empty, over 16 views, or a shape (in ``arrs``,
    also a dtype) unlike the first view's."""
    a0 = arrs[0]
    shape, dt, ndim = a0.shape, a0.dtype, a0.ndim
    if not 0 < ndim <= 4 or len(arrs) > 16 or a0.size == 0:
        return None
    pad = (0,) * (4 - ndim)
    strides: list[int] = []
    for a in arrs:
        if a.shape != shape or a.dtype != dt:
            return None
        strides += pad + a.strides
    for a in io:
        if a.shape != shape:
            return None
        strides += pad + a.strides
    views = [*arrs, *io]
    return (
        (_ptr * len(views))(*[a.ctypes.data for a in views]),
        (_i64 * len(strides))(*strides),
        (_i64 * 4)(*(1,) * (4 - ndim), *shape),
    )


def combine(
    near, outer, wn: float, wo: float
) -> np.ndarray | None:
    """Compiled ``sum(near)*wn - sum(outer)*wo`` over strided views
    (the predictor's combine step), or None.  Accepts what the
    predictor produces: up to 16 equally-shaped views of <= 4 dims."""
    lib = _lib()
    if lib is None:
        return None
    arrs = list(near) + list(outer)
    dt = arrs[0].dtype
    if dt == np.float32:
        fn, scalar = lib.stz_combine_f32, _f32
    elif dt == np.float64:
        fn, scalar = lib.stz_combine_f64, _f64
    else:
        return None
    views = _views(arrs)
    if views is None:
        return None
    ptrs, strides, shape = views
    out = np.empty(arrs[0].shape, dtype=dt)
    fn(
        ptrs, len(near), len(outer), strides, shape,
        scalar(dt.type(wn)), scalar(dt.type(wo)), out.ctypes.data,
    )
    return out


def combine_dequant(
    near,
    outer,
    wn: float,
    wo: float,
    codes: np.ndarray,
    out: np.ndarray,
    eb: float,
    radius: int,
    f32_mode: bool,
) -> bool:
    """Fused combine + dequantize into a region view: computes
    ``dequant(sum(near)*wn - sum(outer)*wo, codes)`` and writes it
    through the (possibly strided) ``out`` view in one pass — the
    decode-side reconstruction without a materialized prediction
    array.  ``codes`` is the matching uint32 region view; ``f32_mode``
    selects the float32 fast formula (caller has already validated
    ``_f32_mode`` against the container flag).  Returns False when the
    compiled path cannot run (caller falls back to predict + dequantize,
    which is bit-identical)."""
    lib = _lib()
    if lib is None:
        return False
    arrs = list(near) + list(outer)
    dt = arrs[0].dtype
    if out.dtype != dt or codes.dtype != np.uint32:
        return False
    if dt == np.float32:
        fn = lib.stz_dqc_f32 if f32_mode else lib.stz_dqc_f64_f32
        scalar = _f32
    elif dt == np.float64:
        if f32_mode:
            return False
        fn, scalar = lib.stz_dqc_f64, _f64
    else:
        return False
    shape = out.shape
    ndim = len(shape)
    thin = 2 <= ndim <= 4 and shape[-1] < 8
    if thin and all(a.shape == shape for a in (*arrs, codes)):
        # Boundary-shell regions fix one axis to a 1-2 element run; with
        # that axis innermost the kernel pays full per-row setup for
        # every element.  Rotate the longest axis innermost — a pure
        # view permutation applied to every operand (hence the shape
        # guard), so the elementwise walk and the result are unchanged.
        best = max(range(ndim), key=lambda a: shape[a])
        if shape[best] > shape[-1]:
            perm = tuple(a for a in range(ndim) if a != best) + (best,)
            arrs = [a.transpose(perm) for a in arrs]
            codes = codes.transpose(perm)
            out = out.transpose(perm)
    views = _views(arrs, (codes, out))
    if views is None:
        return False
    ptrs, strides, c_shape = views
    n = len(arrs)  # codes, then out, follow the corner views
    fn(
        ptrs, len(near), len(outer), strides, c_shape,
        scalar(dt.type(wn)), scalar(dt.type(wo)),
        ptrs[n], ctypes.byref(strides, 32 * n),
        ptrs[n + 1], ctypes.byref(strides, 32 * (n + 1)),
        _f64(2.0 * eb), radius,
    )
    return True


def scatter(dst: np.ndarray, src: np.ndarray) -> bool:
    """Compiled strided scatter: ``dst[...] = src`` where ``dst`` is a
    strided view and ``src`` a C-contiguous array of the same shape —
    the lattice-reassembly step of decode.  A pure bit copy (4- or
    8-byte elements), so the result is exactly NumPy's assignment.
    Returns False when the compiled path cannot run."""
    lib = _lib()
    if lib is None:
        return False
    if dst.shape != src.shape or dst.dtype != src.dtype:
        return False
    if not src.flags.c_contiguous:
        return False
    itemsize = dst.dtype.itemsize
    if itemsize == 4:
        fn = lib.stz_scatter32
    elif itemsize == 8:
        fn = lib.stz_scatter64
    else:
        return False
    views = _views([dst])
    if views is None:
        return False
    ptrs, strides, shape = views
    fn(src.ctypes.data, ptrs[0], strides, shape)
    return True
