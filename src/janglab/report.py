"""Deterministic artifact emission: CSV/JSON files plus a hashed manifest.

All outputs are functions of the numeric results only (no timestamps, no
absolute paths), so reruns with the same configuration and seed produce
byte-identical files; the manifest records a sha256 per file to make that
checkable.
"""

from __future__ import annotations

import hashlib
import json
import os
import types
import weakref

import numpy as np

from .errors import IOFailure


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, default=_coerce)
            + "\n").encode()


def _coerce(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_artifact(out_dir: str, name: str, payload) -> dict:
    """Write one file and return its manifest entry.  ``payload`` is bytes,
    a str, a generator of byte blocks (``_csv_blocks``), written and hashed
    as they come, or else a JSON-able object."""
    if isinstance(payload, bytes):
        blocks = (payload,)
    elif isinstance(payload, str):
        blocks = (payload.encode(),)
    elif isinstance(payload, types.GeneratorType):
        blocks = payload
    else:
        blocks = (_json_bytes(payload),)
    digest, size = hashlib.sha256(), 0
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "wb") as fh:
            for block in blocks:
                fh.write(block)
                digest.update(block)
                size += len(block)
    except OSError as exc:
        raise IOFailure(f"cannot write {name} in {out_dir}: {exc}") from exc
    return {"file": name, "bytes": size, "sha256": digest.hexdigest()}


# Shortest round-trip text of float64 arrays, byte for byte as
# ``repr(float(x))`` writes it.
#
# Step 1 finds the digits with Schubfach (R. Giulietti, "The Schubfach way to
# render doubles", 2020), following JDK 19 ``DoubleToDecimal.toDecimal`` on
# numpy uint64 arrays.  Two of its steps are left out, because Python's repr
# differs from Java's: the "at least two digits" rescaling of tiny
# subnormals (Java writes 4.9E-324 for 5e-324), and the one-digit shortening
# that cannot reach the shortest form of the smallest subnormals (8e-323).
# Subnormal and non-finite values go through ``repr`` itself; they are rare.
# Step 2 lays the digits out by repr's 'r' rules through a table of byte
# templates.  Every uint64 operation takes an np.uint64 operand, so numpy's
# legacy promotion (numpy < 2) cannot turn one into float64.

_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_LO63 = _U64((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292          # decimal exponents k of the g(k) table


def _flog2pow10(e: int) -> int:
    """floor(e·log2 10), exactly."""
    return (10 ** e).bit_length() - 1 if e >= 0 else -(10 ** -e).bit_length()


def _schubfach_table():
    """g(k) = floor(10^-k · 2^(125 − floor(-k·log2 10))) + 1, which lies in
    [2^125, 2^126), for k in [K_MIN, K_MAX]: g1 = g >> 63 and the 32-bit
    halves of g1 and of g0 = g mod 2^63; and floor(-k·log2 10) + 2, the
    shift h less q."""
    g1, g0, h = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            beta = 10 ** -k << shift if shift >= 0 else 10 ** -k >> -shift
        else:
            beta = (1 << shift) // 10 ** k
        g = beta + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
        h.append(_flog2pow10(-k) + 2)
    g1, g0 = np.array(g1, dtype=_U64), np.array(g0, dtype=_U64)
    return (g1, g1 & _LO32, g1 >> _U64(32), g0 & _LO32, g0 >> _U64(32),
            np.array(h, dtype=np.int64))


_G1, _G1_LO, _G1_HI, _G0_LO, _G0_HI, _H_OF_K = _schubfach_table()


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of the 128-bit product a·b, from 32-bit halves."""
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = ((a_lo * b_lo) >> _U64(32)) + (lh & _LO32) + (hl & _LO32)
    return (a_hi * b_hi + (lh >> _U64(32)) + (hl >> _U64(32))
            + (mid >> _U64(32)))


def _scaled_interval(t, q, i, irregular):
    """Schubfach's vb, vbl and vbr: cp·g / 2^127, rounded to odd, for
    cp = 4c·2^h (c = 2^52 + t) and for the ends of the rounding interval,
    where g and h are row i of the g(k) table.

    cp·g is held as the 128-bit products g1·cp and g0·cp, each (high,
    low).  The ends (4c ± 2)·2^h, or (4c − 1)·2^h below an irregular c,
    differ from cp by 2^s, s = h + 1 or h, so their products differ by
    g1·2^s and g0·2^s, added with 64-bit carries."""
    h = (q + _H_OF_K[i]).astype(_U64)
    sr = h + _U64(1)
    sl = sr - irregular.astype(_U64)
    g1, g0 = _G1[i], _G0_LO[i] | (_G0_HI[i] << _U64(32))
    y, x = _products((t | _U64(1 << 52)) << _U64(2) << h, i, g1, g0)
    out = t & _U64(1)       # odd c: the interval ends do not round to v
    vb = _rop(y, x)
    vbl = _rop(_shifted(y, g1, sl, -1), _shifted(x, g0, sl, -1))
    vbl += out
    vbr = _rop(_shifted(y, g1, sr, 1), _shifted(x, g0, sr, 1))
    vbr -= out
    return vb, vbl, vbr


def _products(cp, i, g1, g0):
    """g1·cp and g0·cp as (high, low), for g1, g0 = row i of the table."""
    cp_lo, cp_hi = cp & _LO32, cp >> _U64(32)
    return ((_mulhi(_G1_LO[i], _G1_HI[i], cp_lo, cp_hi), g1 * cp),
            (_mulhi(_G0_LO[i], _G0_HI[i], cp_lo, cp_hi), g0 * cp))


def _shifted(p, g, s, sign):
    """p ± g·2^s as (high, low), for p = (high, low) and 1 ≤ s < 64."""
    g_hi, g_lo = g >> (_U64(64) - s), g << s
    if sign > 0:
        lo = p[1] + g_lo
        return p[0] + g_hi + (lo < g_lo), lo
    return p[0] - g_hi - (p[1] < g_lo), p[1] - g_lo


def _rop(y, x):
    """cp·g / 2^127, rounded to odd, from g1·cp and the high half of g0·cp
    (JDK ``DoubleToDecimal.rop``)."""
    z = (y[1] >> _U64(1)) + x[0]
    return (y[0] + (z >> _U64(63))) | (((z & _LO63) + _LO63) >> _U64(63))


def _shortest_decimal(bits):
    """Digits f and exponent k with f·10^k the shortest decimal that reads
    back to each normal float64 ``bits`` (nearest, ties to even f)."""
    t = bits & _U64((1 << 52) - 1)
    q = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64) - 1075
    irregular = (t == _U64(0)) & (q > -1074)  # a power of two: closer below
    # floor(q·log10 2), or floor(log10(¾·2^q)) if irregular (JDK MathUtils)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    vb, vbl, vbr = _scaled_interval(t, q, k - _K_MIN, irregular)
    s = vb >> _U64(2)       # always ≥ 100 for normal values
    sp10 = (s // _U64(10)) * _U64(10)
    tp10 = sp10 + _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = (tp10 << _U64(2)) <= vbr
    uin = vbl <= s << _U64(2)
    win = ((s + _U64(1)) << _U64(2)) <= vbr
    mid = (s << _U64(2)) + _U64(2)
    above = (vb > mid) | ((vb == mid) & ((s & _U64(1)) == _U64(1)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 s + np.where(uin != win, win, above))
    return f, k


# One value's source row: 32 bytes, filled as 8 uint32 words.  Word 0 holds
# the leading digit of f, scaled to 17 digits, at byte 3; words 1-4 the
# other 16 digits; word 5 the three digits of |decimal exponent| at bytes
# 21-23; words 6-7 the constant bytes.
_DIGIT0, _EXP0 = 3, 21
_DOT, _ZERO, _E, _PLUS, _MINUS, _COMMA, _NUL = range(24, 31)
_CONSTANTS = np.frombuffer(b".0e+-,\0\0", dtype=np.uint32)
_FIELD = 24                 # the longest repr, as -2.2250738585072014e-308


def _four_digit_tables():
    """For j < 10⁴: the ASCII of j in four digits as one uint32, and the
    number of trailing zeros of those four digits."""
    j = np.arange(10_000)
    ascii_ = (j[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    zeros = sum(j % 10 ** p == 0 for p in range(1, 5))
    return ascii_.astype(np.uint8).view(np.uint32).ravel(), zeros


_FOUR_DIGITS, _TRAILING_ZEROS = _four_digit_tables()


def _template(neg, n, decpt, esign=False, wide=False):
    """Source columns of repr for the n digits d₁…dₙ of 0.d₁…dₙ·10^decpt
    (``decpt=None``: exponent form, exponent sign ``esign``, three exponent
    digits if ``wide``), padded with NUL and ended by a comma."""
    d = [_DIGIT0 + j for j in range(n)]
    cols = [_MINUS] if neg else []
    if decpt is None:
        cols += d[:1] + ([_DOT] + d[1:] if n > 1 else [])
        cols += [_E, _MINUS if esign else _PLUS]
        cols += [_EXP0, _EXP0 + 1, _EXP0 + 2][0 if wide else 1:]
    elif decpt <= 0:
        cols += [_ZERO, _DOT] + [_ZERO] * -decpt + d
    elif decpt < n:
        cols += d[:decpt] + [_DOT] + d[decpt:]
    else:
        cols += d + [_ZERO] * (decpt - n) + [_DOT, _ZERO]
    return cols + [_NUL] * (_FIELD - len(cols)) + [_COMMA]


def _templates():
    """Rows indexed by _template_key: per sign, positional decpt −3…16,
    then the exponent forms (exponent sign, width); in each, n = 1…17."""
    rows = []
    for neg in (False, True):
        for decpt in range(-3, 17):
            rows += [_template(neg, n, decpt) for n in range(1, 18)]
        for esign in (False, True):
            for wide in (False, True):
                rows += [_template(neg, n, None, esign, wide)
                         for n in range(1, 18)]
    return np.array(rows, dtype=np.uint8)


_TEMPLATES = _templates()


def _template_key(neg, n, decpt):
    """Row of _TEMPLATES for each value, and |decimal exponent|.  repr uses
    the exponent form when decpt ≤ −4 or decpt > 16."""
    e10 = np.abs(decpt - 1)
    exp_form = (decpt <= -4) | (decpt > 16)
    form = np.where(exp_form, 20 + 2 * (decpt < 1) + (e10 >= 100), decpt + 3)
    return (neg * 24 + form) * 17 + n - 1, e10


# Values per formatting pass.  A block of rows holds about this many values
# to format, so every pass has about this length (none is a short tail).
# The gather index takes 200 bytes per value, so it is built for at most
# _GATHER values at a time.
_BLOCK = 8192
_GATHER = 2048


def _scratch(n):
    """Workspace of ``_repr_fields`` for up to n values: the source rows
    (n × 8 uint32, constants in columns 6-7), the gathered template rows
    (n × 25 uint8), each row's offset in the source bytes, and the gather
    index of up to _GATHER rows (intp)."""
    words = np.empty((n, 8), dtype=np.uint32)
    words[:, 6:] = _CONSTANTS
    return (words, np.empty((n, _FIELD + 1), dtype=np.uint8),
            (np.arange(n) * 32)[:, None],
            np.empty((min(n, _GATHER), _FIELD + 1), dtype=np.intp))


def _repr_fields(x, scratch, out):
    """Write repr(float(v)) for each v of the float64 array ``x`` into the
    rows of the uint8 matrix ``out`` (len(x) × 25), NUL-padded, each followed
    by a comma, using the workspace ``scratch`` (``_scratch``)."""
    m = len(x)
    words, rows, offsets, idx = scratch
    words, rows = words[:m], rows[:m]
    bits = x.view(_U64)
    expo = bits & _U64(0x7FF0000000000000)
    zero = (bits << _U64(1)) == _U64(0)
    fallback = (((expo == _U64(0)) | (expo == _U64(0x7FF0000000000000)))
                & ~zero)
    f, k = _shortest_decimal(
        np.where(zero | fallback, _U64(0x3FF0000000000000), bits))
    short = f < _U64(10 ** 16)      # f has 16 or 17 digits
    m17 = np.where(short, f * _U64(10), f).astype(np.int64)
    m17[zero] = 0                   # ±0.0: the one digit 0 at decpt 1
    lead = m17 // 10 ** 16
    rest = m17 - lead * 10 ** 16
    hi = rest // 10 ** 8
    lo = rest - hi * 10 ** 8
    hi4, lo4 = hi // 10 ** 4, lo // 10 ** 4
    groups = (hi4, hi - hi4 * 10 ** 4, lo4, lo - lo4 * 10 ** 4)
    tz = _TRAILING_ZEROS[groups[0]]
    for g in groups[1:]:
        tz = np.where(g == 0, tz + 4, _TRAILING_ZEROS[g])
    n = np.where(zero, 1, 17 - tz)
    decpt = np.where(zero, 1, k + 17 - short)
    key, e10 = _template_key((bits >> _U64(63)).astype(np.intp), n, decpt)

    words[:, 0] = _FOUR_DIGITS[lead]
    for j, g in enumerate(groups, 1):
        words[:, j] = _FOUR_DIGITS[g]
    words[:, 5] = _FOUR_DIGITS[e10]
    np.take(_TEMPLATES, key, axis=0, out=rows)
    source = words.view(np.uint8).ravel()
    for a in range(0, m, _GATHER):
        b = min(a + _GATHER, m)
        np.add(rows[a:b], offsets[a:b], out=idx[:b - a])
        # every index is below 32·m by construction: "clip" skips the check
        np.take(source, idx[:b - a], out=out[a:b], mode="clip")
    for j in np.flatnonzero(fallback):
        text = repr(float(x[j])).encode()
        out[j, :_FIELD] = 0
        out[j, :len(text)] = np.frombuffer(text, dtype=np.uint8)


# The fields of the last float64 array formatted whose memory is an
# immutable bytes object, such as ``RadialGrid.nodes``, the first column of
# every solution and profile CSV: a weak reference to the array and its
# fields, dropped with the array.  Such an array cannot be made writeable,
# so it keeps the values it was formatted from, and a live reference is
# that array, so the fields of a hit are its own.
_kept = {"column": lambda: None, "fields": None}


def _forget(column):
    if _kept["column"] is column:
        _kept.update(column=lambda: None, fields=None)


def _csv_blocks(header, columns):
    """The CSV of float columns under a header, as a generator of byte
    blocks: each value is the ``repr`` of its Python float, which reads
    back to the same bits.  The columns are checked here, before the first
    block is asked for, so a streamed file is never left half written.

    The text is built with array operations (``_repr_fields``), not one
    ``repr`` call per value.  This function and its helpers stay private:
    the benchmark's tracer wraps every public function of this module, and
    a span that no layer lists would take the formatting time out of
    ``report.emit_report_s``."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    rows = len(columns[0])
    if any(len(c) != rows for c in columns):
        raise ValueError("CSV columns differ in length")
    return _blocks((",".join(header) + "\n").encode(), columns, rows)


def _blocks(head, columns, rows):
    """``_csv_blocks`` after its checks.  Each block of rows fills one
    workspace: every column to format goes through one fused
    ``_repr_fields`` pass, the kept fields of a column over an immutable
    bytes buffer, as a grid's nodes are, are copied in (``_kept``), and
    the NUL padding is dropped.  Such a column is formatted once: a miss
    is formatted with the others and its fields kept once all are."""
    yield head
    cached, cached_fields = _kept["column"](), _kept["fields"]
    hits = [j for j, c in enumerate(columns) if c is cached]
    fresh = [j for j, c in enumerate(columns) if c is not cached]
    keep = next((j for j in fresh if isinstance(columns[j].base, bytes)),
                None)
    into = fresh
    if fresh and fresh[-1] - fresh[0] == len(fresh) - 1:
        into = slice(fresh[0], fresh[-1] + 1)   # a copy, not a scatter
    width = max(len(fresh), 1)
    count = max(1, (rows * width + _BLOCK // 2) // _BLOCK)
    most = -(-rows // count)
    body = np.empty((most, len(columns), _FIELD + 1), dtype=np.uint8)
    nonzero = np.empty(body.size, dtype=bool)
    if fresh:
        scratch = _scratch(most * len(fresh))
        values = np.empty((most, len(fresh)))
        fields = np.empty((most, len(fresh), _FIELD + 1), dtype=np.uint8)
    if keep is not None:
        kept = np.empty((rows, _FIELD + 1), dtype=np.uint8)
    for b in range(count):
        lo, hi = rows * b // count, rows * (b + 1) // count
        block = body[:hi - lo]
        if fresh:
            for p, j in enumerate(fresh):
                values[:hi - lo, p] = columns[j][lo:hi]
            _repr_fields(values[:hi - lo].ravel(), scratch,
                         fields[:hi - lo].reshape(-1, _FIELD + 1))
            block[:, into] = fields[:hi - lo]
            if keep is not None:
                kept[lo:hi] = fields[:hi - lo, fresh.index(keep)]
        for j in hits:
            block[:, j] = cached_fields[lo:hi]
        block[:, -1, _FIELD] = ord("\n")
        flat = block.ravel()
        mask = nonzero[:flat.size]
        np.not_equal(flat, 0, out=mask)
        yield flat[mask].tobytes()
    if keep is not None:
        _kept.update(column=weakref.ref(columns[keep], _forget), fields=kept)


def _float_csv(header, columns) -> str:
    """``_csv_blocks`` as one string."""
    return b"".join(_csv_blocks(header, columns)).decode("ascii")


def _solution_blocks(results: dict):
    arrays = results["arrays"]
    return _csv_blocks(("r", "u", "consequence_margin"),
                       (arrays["grid"], arrays["u"],
                        arrays["consequence_margin"]))


def solution_csv_from_results(results: dict) -> str:
    return b"".join(_solution_blocks(results)).decode("ascii")


def emit_report(results: dict, out_dir: str) -> dict:
    """Write every artifact of one pipeline run and the hashed manifest.

    ``results`` is the pipeline results dictionary, or a minimal
    {"config_echo": ..., "error": ...} record for runs that failed before
    producing numbers.  Returns the manifest (also written to
    manifest.json).
    """
    entries = []
    if "error" in results:
        entries.append(write_artifact(out_dir, "error.json",
                                      {"error": results["error"],
                                       "config_echo":
                                       results.get("config_echo")}))
    else:
        summary = {k: v for k, v in results.items() if k != "arrays"}
        entries.append(write_artifact(out_dir, "audits.json", summary))
        entries.append(write_artifact(out_dir, "mass.json", {
            "alpha": results["alpha"],
            "alpha_graph": results["alpha_graph"],
            "alpha_fit": results["alpha_fit"],
            "decay": results["decay"]}))
        if "arrays" in results:
            entries.append(write_artifact(
                out_dir, "solution.csv", _solution_blocks(results)))
    if "config_echo" in results and "error" not in results:
        entries.append(write_artifact(out_dir, "config.json",
                                      results["config_echo"]))
    manifest = {"files": sorted(entries, key=lambda e: e["file"])}
    write_artifact(out_dir, "manifest.json", manifest)
    return manifest
