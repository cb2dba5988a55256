"""The numpy '%.17g' formatter behind the CSV and .dat writers, held byte for
byte to Python's '%' and to the per-value row loop the writers used before."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from psq import PhaseField, make_grid, write_field_csv, write_field_dat
from psq.grids import _TIE_BAND, _g17_cells, _g17_digits
from psq.ordering import OrderingSpec
from psq.states import hermite_function, twisted_tensor


def rows_oracle(field, path, sep, header):
    """The per-value row loop: header, then x-major rows x, p, re, im as
    %.17g joined by sep, one x-row of Python floats at a time."""
    g = field.grid
    num = "%.17g" + sep
    pair = (num + "%.17g\n").__mod__
    xs, ps = ([num % a for a in axis.tolist()] for axis in (g.x, g.p))
    with open(path, "w") as fh:
        fh.write(header)
        for x, row in zip(xs, field.values):
            vals = map(pair, zip(row.real.tolist(), row.imag.tolist()))
            fh.writelines(x + p + v for p, v in zip(ps, vals))


def csv_header(g):
    return "# hbar=%.17g nx=%d np=%d\nx,p,re,im\n" % (g.hbar, g.nx, g.np)


def formatted(values):
    """The formatter's strings for a float64 array, one per value."""
    cells = _g17_cells(np.ascontiguousarray(values, dtype=np.float64))
    cells.view(np.uint8)[:, 47] = ord("\n")
    return cells.tobytes().translate(None, b"\0").decode().splitlines()


def ties(rng, count):
    """Dyadic values whose 18th significant digit is an exact 5: y = |v|
    10^(16 - X) = u 5^(16 - X) / 2 with u odd."""
    out = []
    for X in range(-4, 15):
        five = 5 ** (16 - X)
        lo, hi = -(-2 * 10 ** 16 // five), min(2 * 10 ** 17 // five, 2 ** 53)
        out += [(int(u) | 1) / 2 ** (17 - X) for u in rng.integers(lo, hi, count)]
    return np.array(out)


def edge_values(rng):
    """Powers of ten and their neighbours, the 1e16 and 1e17 edges, ties and
    their neighbours, integers over 2^k, short decimals, +-0, +-inf, NaN and
    subnormals."""
    tens = np.array([float("1e%d" % k) for k in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tie = ties(rng, 40)
    out = [tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
           twos, twos + np.ldexp(1.0, np.maximum(np.arange(-1074, 1024) - 52, -1074)),
           tie, np.nextafter(tie, 0), np.nextafter(tie, np.inf),
           np.array([1e16 - 2, 1e16 - 1, 1e16 + 2, 1e17 - 16, 1e17 - 8, 1e17 + 16,
                     9.9999999999999995e16, 99999999999999999.0, 1e-4, 1e-5, 9.99999999999999e-5,
                     0.1, 0.2, 0.3, 0.5, 1.5, 2.675, 1.005, 123.456, 1e23, 5e-324, 2.2250738585072009e-308,
                     2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0,
                     np.inf, -np.inf, np.nan]),
           np.array([round(x, d) for x, d in zip(rng.uniform(-1000, 1000, 2000).tolist(),
                                                  rng.integers(0, 8, 2000).tolist())]),
           rng.integers(-2 ** 62, 2 ** 62, 2000).astype(np.float64),
           rng.integers(0, 2 ** 52, 2000).astype(np.uint64).view(np.float64)]
    values = np.concatenate(out)
    return np.concatenate([values, -values])


class TestFormatter:
    def test_matches_percent_format(self):
        rng = np.random.default_rng(34)
        bits = rng.integers(0, 2 ** 64, 150_000, dtype=np.uint64, endpoint=False)
        values = np.concatenate([bits.view(np.float64), edge_values(rng)])
        want = ["%.17g" % v for v in values.tolist()]
        got = formatted(values)
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert len(got) == len(want) and not bad[:5]

    def test_only_ties_and_non_finite_values_take_the_fallback(self):
        rng = np.random.default_rng(35)
        bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False)
        values = np.concatenate([bits.view(np.float64), edge_values(rng)])
        D, X, odd = _g17_digits(values)
        marked = np.flatnonzero(odd & np.isfinite(values))
        with localcontext(prec=1000):
            for i in marked:
                y = abs(Decimal(values[i])).scaleb(16 - int(X[i]))
                # the computed fraction is within 2^-47 of the exact one
                assert abs(y % 1 - Decimal("0.5")) < Decimal(_TIE_BAND + 2.0 ** -47)
        assert odd[~np.isfinite(values)].all()
        # every exact tie is marked
        assert _g17_digits(ties(rng, 20))[2].all()

    def test_digits_and_exponent(self):
        values = np.array([1.0, 0.1, 1e16, 1e17, 99999999999999999.0, 5e-324, -2.5, 0.0])
        D, X, odd = _g17_digits(values)
        assert D.tolist() == [10 ** 16, 10000000000000001, 10 ** 16, 10 ** 16, 10 ** 16,
                              49406564584124654, 25000000000000000, 0]
        assert X.tolist() == [0, -1, 16, 17, 17, -324, 0, 0]
        assert not odd.any()


class TestRowWriters:
    EDGE = [np.nan, np.inf, -np.inf, 1.2345e-05, -1.2345e-4, 1.2345678901234568e16,
            -1e16, 1.2345678901234568e17, 1e17, 131073 / 131072, -0.0, 5e-324]

    @pytest.mark.parametrize("writer,sep", [(write_field_csv, ","), (write_field_dat, " ")])
    def test_edge_cases_match_row_loop(self, tmp_path, writer, sep):
        # NaN, +-inf, X = -5, -4, 16 and 17, and a tie, in both columns
        g = make_grid(4, 8, -1.1, 0.7, -3.3, 2.9, 0.5)
        edge = np.array(self.EDGE)
        vals = np.empty((4, 8), complex)
        vals.real = np.resize(edge, 32).reshape(4, 8)
        vals.imag = np.resize(edge[::-1], 32).reshape(4, 8)
        field = PhaseField(g, vals)
        header = csv_header(g) if sep == "," else ""
        writer(field, tmp_path / "new")
        rows_oracle(field, tmp_path / "old", sep, header)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()

    @pytest.mark.parametrize("nx,npn", [(256, 128), (8, 4096), (4, 64)])
    def test_write_field_dat_bytes(self, tmp_path, nx, npn):
        # blocks of several x-rows, of one x-row, and one short block
        g = make_grid(nx, npn, -8.0, 8.0, -8.0, 8.0, 1.0)
        if npn == 128:
            field = twisted_tensor(hermite_function(g, 1), hermite_function(g, 2),
                                   OrderingSpec(0.37)).psi_field
        else:
            rng = np.random.default_rng(nx * npn)
            field = PhaseField(g, rng.standard_normal((nx, npn)) * np.exp(
                rng.uniform(-40, 40, (nx, npn)) + 1j * rng.uniform(0, 6.3, (nx, npn))))
        write_field_dat(field, tmp_path / "new.dat")
        rows_oracle(field, tmp_path / "old.dat", " ", "")
        assert (tmp_path / "new.dat").read_bytes() == (tmp_path / "old.dat").read_bytes()
        write_field_csv(field, tmp_path / "new.csv")
        rows_oracle(field, tmp_path / "old.csv", ",", csv_header(g))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
