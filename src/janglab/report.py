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
    """Write one file (bytes/str/JSON-able) and return its manifest entry."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, name)
        if isinstance(payload, bytes):
            data = payload
        elif isinstance(payload, str):
            data = payload.encode()
        else:
            data = _json_bytes(payload)
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IOFailure(f"cannot write {name} in {out_dir}: {exc}") from exc
    return {"file": name, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


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


def _shortest_decimal(bits):
    """Digits f and exponent k with f·10^k the shortest decimal that reads
    back to each normal float64 ``bits`` (nearest, ties to even f)."""
    bq = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    t = bits & _U64((1 << 52) - 1)
    c = t | _U64(1 << 52)
    q = bq - 1075
    irregular = (t == _U64(0)) & (bq > 1)   # a power of two: closer below
    # floor(q·log10 2), or floor(log10(¾·2^q)) if irregular (JDK MathUtils)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    i = k - _K_MIN
    h = (q + _H_OF_K[i]).astype(_U64)
    g1, g1_lo, g1_hi = _G1[i], _G1_LO[i], _G1_HI[i]
    g0_lo, g0_hi = _G0_LO[i], _G0_HI[i]

    def rop(cp):
        # cp·g / 2^127, rounded to odd
        cp_lo, cp_hi = cp & _LO32, cp >> _U64(32)
        z = ((g1 * cp) >> _U64(1)) + _mulhi(g0_lo, g0_hi, cp_lo, cp_hi)
        return ((_mulhi(g1_lo, g1_hi, cp_lo, cp_hi) + (z >> _U64(63)))
                | (((z & _LO63) + _LO63) >> _U64(63)))

    cb = c << _U64(2)
    out = c & _U64(1)       # odd c: the interval ends do not round to v
    vb = rop(cb << h)
    vbl = rop((cb - _U64(2) + irregular.astype(_U64)) << h) + out
    vbr = rop((cb + _U64(2)) << h) - out
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
    return np.array(rows, dtype=np.intp)


_TEMPLATES = _templates()


def _template_key(neg, n, decpt):
    """Row of _TEMPLATES for each value, and |decimal exponent|.  repr uses
    the exponent form when decpt ≤ −4 or decpt > 16."""
    e10 = np.abs(decpt - 1)
    exp_form = (decpt <= -4) | (decpt > 16)
    form = np.where(exp_form, 20 + 2 * (decpt < 1) + (e10 >= 100), decpt + 3)
    return (neg * 24 + form) * 17 + n - 1, e10


def _repr_fields(x, words, out):
    """Write repr(float(v)) for each v of the float64 array ``x`` into the
    rows of the uint8 matrix ``out`` (len(x) × 25), NUL-padded, each followed
    by a comma.  ``words`` (len(x) × 8 uint32, constants in columns 6-7) is
    scratch space for the source rows."""
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
    idx = _TEMPLATES[key]
    idx += (np.arange(len(x)) * 32)[:, None]
    np.take(words.view(np.uint8).ravel(), idx, out=out)
    for j in np.flatnonzero(fallback):
        text = repr(float(x[j])).encode()
        out[j, :_FIELD] = 0
        out[j, :len(text)] = np.frombuffer(text, dtype=np.uint8)


# Values per pass.  Larger passes make fewer numpy calls, but the gather
# index takes 200 bytes per value.  With 4096, formatting three columns of
# 8193 values peaks 0.3 MiB above one repr call per value (2.1 vs 1.9 MiB).
_CHUNK = 4096


def _format_column(x, words, out):
    """``_repr_fields`` of the float64 column ``x`` into the rows of ``out``
    (len(x) × 25), one pass of at most _CHUNK values at a time."""
    for a in range(0, len(x), _CHUNK):
        chunk = x[a:a + _CHUNK]
        _repr_fields(chunk, words[:len(chunk)], out[a:a + _CHUNK])


# The fields of the last float64 array formatted whose memory is an
# immutable bytes object, such as ``RadialGrid.nodes``, the first column of
# every solution and profile CSV: a weak reference to the array and its
# fields, dropped with the array.  Such an array cannot be made writeable,
# so it keeps the values it was formatted from, and a live reference is
# that array, so the fields of a hit are its own.
_kept = {"column": lambda: None, "fields": None}


def _kept_fields(x, words):
    """The fields of the immutable array ``x``, formatted once."""
    if _kept["column"]() is not x:
        fields = np.empty((len(x), _FIELD + 1), dtype=np.uint8)
        _format_column(x, words, fields)
        _kept.update(column=weakref.ref(x, _forget), fields=fields)
    return _kept["fields"]


def _forget(column):
    if _kept["column"] is column:
        _kept.update(column=lambda: None, fields=None)


def _float_csv(header, columns) -> str:
    """CSV of float columns under a header: each value is the ``repr`` of
    its Python float, which reads back to the same bits.

    The text is built with array operations (``_repr_fields``), not one
    ``repr`` call per value; a column over an immutable bytes buffer, as a
    grid's nodes are, is formatted once (``_kept_fields``).  This function
    and its helpers stay private: the benchmark's tracer wraps every public
    function of this module, and a span that no layer lists would take the
    formatting time out of ``report.emit_report_s``."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    rows = len(columns[0])
    if any(len(c) != rows for c in columns):
        raise ValueError("CSV columns differ in length")
    body = np.empty((rows, len(columns), _FIELD + 1), dtype=np.uint8)
    words = np.empty((min(_CHUNK, rows), 8), dtype=np.uint32)
    words[:, 6:] = _CONSTANTS
    for j, column in enumerate(columns):
        if isinstance(column.base, bytes):
            body[:, j] = _kept_fields(column, words)
        else:
            _format_column(column, words, body[:, j])
    body[:, -1, _FIELD] = ord("\n")
    body = body.ravel()
    return (",".join(header) + "\n"
            + body[body != 0].tobytes().decode("ascii"))


def solution_csv_from_results(results: dict) -> str:
    arrays = results["arrays"]
    return _float_csv(("r", "u", "consequence_margin"),
                      (arrays["grid"], arrays["u"], arrays["consequence_margin"]))


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
                out_dir, "solution.csv", solution_csv_from_results(results)))
    if "config_echo" in results and "error" not in results:
        entries.append(write_artifact(out_dir, "config.json",
                                      results["config_echo"]))
    manifest = {"files": sorted(entries, key=lambda e: e["file"])}
    write_artifact(out_dir, "manifest.json", manifest)
    return manifest
