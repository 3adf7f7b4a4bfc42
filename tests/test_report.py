import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

import janglab.report
from janglab.barrier import BarrierProfile, barrier_csv, ode_residual
from janglab.errors import IOFailure
from janglab.geometry import make_dataset
from janglab.grids import build_grid
from janglab.pipeline import run_pipeline_on
from janglab.report import (_G0_HI, _G0_LO, _G1, _G1_HI, _G1_LO, _H_OF_K,
                            _K_MIN, _LO32, _LO63, _U64, _csv_blocks,
                            _float_csv, _mulhi, _shortest_decimal, emit_report,
                            solution_csv_from_results, write_artifact)


def test_write_artifact_hashes_content(tmp_path):
    entry = write_artifact(str(tmp_path), "x.json", {"a": 1, "b": [1.0, 2.0]})
    data = (tmp_path / "x.json").read_bytes()
    assert entry["bytes"] == len(data)
    assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    # keys are sorted so dict insertion order cannot leak into the bytes
    other = write_artifact(str(tmp_path), "y.json", {"b": [1.0, 2.0], "a": 1})
    assert other["sha256"] == entry["sha256"]


def test_write_artifact_serializes_numpy_types(tmp_path):
    payload = {"v": np.float64(1.5), "k": np.int64(3),
               "arr": np.array([1.0, 2.0]), "flag": np.bool_(True)}
    write_artifact(str(tmp_path), "np.json", payload)
    back = json.loads((tmp_path / "np.json").read_text())
    assert back == {"v": 1.5, "k": 3, "arr": [1.0, 2.0], "flag": True}


def test_write_artifact_writes_non_finite_floats_as_null(tmp_path):
    # strict JSON has no NaN or Infinity; json.loads would take them
    payload = {"v": np.nan, "w": np.float32(np.inf), "arr": np.array(
        [[1.0, -np.inf]]), "t": (2.5, float("nan")), "k": np.int64(3)}
    write_artifact(str(tmp_path), "nan.json", payload)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    back = json.loads((tmp_path / "nan.json").read_text(),
                      parse_constant=refuse)
    assert back == {"v": None, "w": None, "arr": [[1.0, None]],
                    "t": [2.5, None], "k": 3}


def test_write_artifact_raises_on_unwritable_target(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    with pytest.raises(IOFailure):
        write_artifact(str(blocker), "x.json", {})


def test_solution_csv_roundtrip():
    results = {"arrays": {"grid": np.array([0.0, 1.0]),
                          "u": np.array([0.5, 0.0]),
                          "consequence_margin": np.array([0.1, 0.2])}}
    text = solution_csv_from_results(results)
    lines = text.strip().split("\n")
    assert lines[0] == "r,u,consequence_margin"
    assert [float(v) for v in lines[1].split(",")] == [0.0, 0.5, 0.1]


def test_streamed_csv_entry_is_the_written_file(tmp_path):
    cols = (np.linspace(0.0, 3.0, 20_000), np.geomspace(1e-9, 1e9, 20_000))
    entry = write_artifact(str(tmp_path), "s.csv",
                           _csv_blocks(("x", "y"), cols))
    data = (tmp_path / "s.csv").read_bytes()
    assert data == _float_csv(("x", "y"), cols).encode()
    assert entry == {"file": "s.csv", "bytes": len(data),
                     "sha256": hashlib.sha256(data).hexdigest()}


def test_a_failed_csv_check_leaves_no_file(tmp_path):
    x = np.arange(5.0)
    for columns in ((x, x[1:]), (x, ["a"] * 5)):
        with pytest.raises(ValueError):
            write_artifact(str(tmp_path), "solution.csv",
                           _csv_blocks(("x", "y"), columns))
    results = {"alpha": 1.0, "alpha_graph": 1.0, "alpha_fit": {},
               "decay": {}, "arrays": {"grid": x, "u": x,
                                       "consequence_margin": x[1:]}}
    with pytest.raises(ValueError):
        emit_report(results, str(tmp_path))
    assert not (tmp_path / "solution.csv").exists()


def test_float_csv_writes_the_repr_of_each_float():
    cols = (np.array([0.0, -0.0, 1e-310, 2.0 ** 0.5]),
            np.array([np.nan, np.inf, -np.inf, 1e300]))
    want = "x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n"
                             for a, b in zip(*cols))
    assert _float_csv(("x", "y"), cols) == want
    assert want.splitlines()[1:3] == ["0.0,nan", "-0.0,inf"]


def _fields(values):
    """The formatter's text for each value, one CSV field per value."""
    text = _float_csv(("x",), (np.asarray(values, dtype=float),))
    return text.split("\n")[1:-1]


def _reprs(values):
    return [repr(float(v)) for v in values]


def test_float_csv_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(20_240_607).integers(
        0, 2 ** 64, 200_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert _fields(values) == _reprs(values)


def test_float_csv_matches_repr_on_edge_values():
    powers = 2.0 ** np.arange(-1074, 1024)
    around_2_53 = 2.0 ** 53 + np.arange(-2000.0, 2000.0)
    values = np.concatenate([
        powers, -powers, [float(f"1e{k}") for k in range(-330, 311)],
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 8e-323, -8e-323,
         1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,
         2.2250738585072014e-308, 2.225073858507201e-308,
         1.7976931348623157e308, -1.7976931348623157e308],
        around_2_53, -around_2_53, np.arange(-3000.0, 3000.0)])
    assert _fields(values) == _reprs(values)


def _three_product_shortest_decimal(bits):
    """The reference: Schubfach's three products, one per interval end and
    one for the value, as ``_shortest_decimal`` computed them before it
    derived the ends from the value's products."""
    bq = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    t = bits & _U64((1 << 52) - 1)
    c = t | _U64(1 << 52)
    q = bq - 1075
    irregular = (t == _U64(0)) & (bq > 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    i = k - _K_MIN
    h = (q + _H_OF_K[i]).astype(_U64)
    g1, g1_lo, g1_hi = _G1[i], _G1_LO[i], _G1_HI[i]
    g0_lo, g0_hi = _G0_LO[i], _G0_HI[i]

    def rop(cp):
        cp_lo, cp_hi = cp & _LO32, cp >> _U64(32)
        z = ((g1 * cp) >> _U64(1)) + _mulhi(g0_lo, g0_hi, cp_lo, cp_hi)
        return ((_mulhi(g1_lo, g1_hi, cp_lo, cp_hi) + (z >> _U64(63)))
                | (((z & _LO63) + _LO63) >> _U64(63)))

    cb = c << _U64(2)
    out = c & _U64(1)
    vb = rop(cb << h)
    vbl = rop((cb - _U64(2) + irregular.astype(_U64)) << h) + out
    vbr = rop((cb + _U64(2)) << h) - out
    s = vb >> _U64(2)
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


def _assert_same_decimal(bits):
    f, k = _shortest_decimal(bits)
    want_f, want_k = _three_product_shortest_decimal(bits)
    np.testing.assert_array_equal(f, want_f)
    np.testing.assert_array_equal(k, want_k)


def test_shortest_decimal_matches_the_three_product_reference():
    rng = np.random.default_rng(20_261_019)
    for _ in range(8):                  # 2 M normal bit patterns in all
        sign = rng.integers(0, 2, 1 << 18, dtype=np.uint64) << _U64(63)
        expo = rng.integers(1, 2047, 1 << 18, dtype=np.uint64) << _U64(52)
        frac = rng.integers(0, 1 << 52, 1 << 18, dtype=np.uint64)
        _assert_same_decimal(sign | expo | frac)
    # every normal 2^k, the irregular values, and its neighbours one ulp off
    powers = np.arange(1, 2047, dtype=np.uint64) << _U64(52)
    around = np.concatenate([powers, powers + _U64(1), powers[1:] - _U64(1)])
    _assert_same_decimal(np.concatenate([around, around | _U64(1 << 63)]))


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_csv_matches_repr_property(values):
    assert _fields(values) == _reprs(values)


def _repr_rows(header, cols):
    """The CSV as one ``repr`` call per value writes it, as a list of lines
    (a failed comparison of lists reports the first differing line)."""
    text = "\n".join(map(",".join,
                         zip(*(map(repr, c.tolist()) for c in cols))))
    return (",".join(header) + "\n" + text + "\n").split("\n")


def _edge_columns(rows, seed):
    """Random values with zeros, subnormals and non-finite values among
    them, so the block edges meet every kind of field."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    special = [0.0, -0.0, 5e-324, -1e-310, np.nan, np.inf, 1e16, 1e-5]
    x[rng.integers(0, rows, min(rows, 40))] = rng.choice(special,
                                                         min(rows, 40))
    return x


def _immutable(x):
    """x over an immutable bytes buffer, as a grid's nodes are."""
    return np.frombuffer(x.tobytes())


def _block_cases(rows):
    """(header, columns, fresh columns) of each layout around a block."""
    a, b = _edge_columns(rows, 1), _edge_columns(rows, 2)
    kept = _immutable(np.linspace(0.0, 512.0, rows))
    table = np.stack([_edge_columns(rows, 3), a, b], axis=1)
    return {
        "fresh": (("a", "b"), (a, b), 2),
        "kept-between": (("a", "r", "b"), (a, kept, b), 2),
        "all-kept": (("r", "r"), (kept, kept), 0),
        "strided": (("x", "y", "z"), (table[:, 0], table[::-1, 2],
                                      np.repeat(a, 2)[::2]), 3),
    }


@pytest.mark.parametrize("case", ["fresh", "kept-between", "all-kept",
                                  "strided"])
@pytest.mark.parametrize("edge", ["1", "B-1", "B", "B+1", "2B+1"])
def test_float_csv_matches_repr_rows_at_block_edges(case, edge, monkeypatch):
    block = janglab.report._BLOCK
    fresh = _block_cases(1)[case][2]
    size = block // max(fresh, 1)       # rows of one block
    rows = {"1": 1, "B-1": size - 1, "B": size, "B+1": size + 1,
            "2B+1": 2 * size + 1}[edge]
    header, columns, fresh = _block_cases(rows)[case]
    if fresh < len(columns):            # format the kept column once
        _float_csv(("r",), (columns[1],))
        assert janglab.report._kept["column"]() is columns[1]
    passes = []

    def counted(x, scratch, out, fmt=janglab.report._repr_fields):
        passes.append(len(x))
        fmt(x, scratch, out)
    monkeypatch.setattr(janglab.report, "_repr_fields", counted)
    assert _float_csv(header, columns).split("\n") == _repr_rows(header,
                                                                 columns)
    assert sum(passes) == fresh * rows
    if passes:                          # balanced: no short tail pass
        assert max(passes) - min(passes) <= fresh
        assert len(passes) == max(1, round(rows / size))


def test_solution_csv_of_a_run_matches_repr_rows(dec_data, base_grid):
    results = run_pipeline_on(dec_data, base_grid, seed=7)
    arrays = results["arrays"]
    cols = (arrays["grid"], arrays["u"], arrays["consequence_margin"])
    assert np.count_nonzero(arrays["u"] == 0.0) > 1000    # zero-extended tail
    assert solution_csv_from_results(results).split("\n") == _repr_rows(
        ("r", "u", "consequence_margin"), cols)


def test_float_csv_keeps_the_fields_of_read_only_columns_only():
    x = np.linspace(0.0, 1.0, 9)
    view = x[:]
    view.flags.writeable = False        # read-only, but x can change it
    for column in (x, view):
        assert _float_csv(("x",), (column,)).split("\n")[4] == "0.375"
    x[3] = 7.5
    for column in (x, view):
        assert _float_csv(("x",), (column,)).split("\n")[4] == "7.5"
    with pytest.raises(ValueError):
        _float_csv(("x", "y"), (x, x[1:]))
    nodes = build_grid(1.0, 16).nodes
    assert _float_csv(("r",), (nodes,)) == _float_csv(("r",), (nodes,))
    assert janglab.report._kept["column"]() is nodes
    del nodes                           # the fields go with the nodes
    assert janglab.report._kept["fields"] is None


def test_two_certifications_on_one_grid_emit_fresh_grid_bytes(tmp_path,
                                                              monkeypatch):
    passes = []

    def counted(x, scratch, out, fmt=janglab.report._repr_fields):
        passes.append(len(x))
        fmt(x, scratch, out)
    monkeypatch.setattr(janglab.report, "_repr_fields", counted)
    params = {"m": 1.0, "amplitude": 0.05}
    grid = build_grid(512.0, 4096, "uniform")
    emitted, formatted = {}, []
    for seed in (7, 11):
        data = make_dataset("perturbed-dec", 4, params, grid=grid, seed=seed)
        results = run_pipeline_on(data, grid, seed=seed)
        passes.clear()
        emitted[seed] = (emit_report(results, str(tmp_path / f"{seed}")),
                         results["arrays"])
        formatted.append(list(passes))
    # r, u and the margin, then u and the margin: the grid's r column is
    # formatted once, with the first certification's columns, and kept
    assert [sum(p) for p in formatted] == [3 * 4097, 2 * 4097]
    assert janglab.report._kept["column"]() is grid.nodes
    # every pass holds whole rows of its block, balanced: no 1-value tail
    for p, width in zip(formatted, (3, 2)):
        assert all(n % width == 0 for n in p)
        assert max(p) - min(p) <= width
    for seed, (manifest, arrays) in emitted.items():
        fresh = build_grid(512.0, 4096, "uniform")
        data = make_dataset("perturbed-dec", 4, params, grid=fresh, seed=seed)
        assert emit_report(run_pipeline_on(data, fresh, seed=seed),
                           str(tmp_path / f"fresh-{seed}")) == manifest
        text = (tmp_path / f"{seed}" / "solution.csv").read_text()
        assert text.split("\n") == _repr_rows(
            ("r", "u", "consequence_margin"),
            (arrays["grid"], arrays["u"], arrays["consequence_margin"]))


def test_barrier_csv_matches_repr_rows():
    bp = BarrierProfile(r0=1.0, n=4)
    s = np.geomspace(1.5, 64.0, 200)
    cols = (s, bp.b(s), bp.bprime(s), bp.bsecond(s), ode_residual(bp, s))
    assert np.count_nonzero(cols[-1] == 0.0) > 0           # exact residuals
    assert barrier_csv(bp, s).split("\n") == _repr_rows(
        ("s", "b", "bprime", "bsecond", "ode_residual"), cols)


def test_emit_report_error_record(tmp_path):
    manifest = emit_report({"error": "boom", "config_echo": {"k": 1}},
                           str(tmp_path))
    files = {e["file"] for e in manifest["files"]}
    assert files == {"error.json"}
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "boom"
    assert err["config_echo"] == {"k": 1}
    assert (tmp_path / "manifest.json").exists()
