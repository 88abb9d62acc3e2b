"""Command-line front end: parse an expression, route it to the spectrum,
operational-form, instantaneous-frequency, or contrast machinery, and render
text or JSON.

Exit codes: 0 success, 1 input error (syntax, unsupported signal, bad
parameters, unreadable CSV, a value beyond the float range), a number with
more digits than the interpreter prints, or standard output closed before
the output was written, 2 numerical failure (root finding or partial
fractions did not converge).  All output is deterministic: floats are
rendered with 12 significant digits, byte for byte as `%.12g` prints them,
and JSON keys are fixed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
import warnings

from .fouriercontrast import contrast_report
from .instfreq import PhiTrace, SampledSignal, phi_fitted, phi_symbolic
from .pipeline import SpectrumAnalysis, analyze, image
from .ratfield import DigitLimitError, RootFindingError, _FrozenValue
from .sigexpr import ExpressionError, parse
from .weylode import format_equation

__all__ = ["CliConfig", "run", "main"]


class CliConfig(_FrozenValue):
    """One command line: `command` is spectrum, opform, instfreq, contrast
    or selftest; `output` is text or json; `at` is the evaluation time of a
    symbolic instfreq."""

    _fields = ("command", "expr", "csv_path", "window", "degree", "output",
               "explain", "at")

    def __init__(self, command: str, expr: str | None = None,
                 csv_path: str | None = None, window: int = 11,
                 degree: int = 3, output: str = "text", explain: bool = False,
                 at: float | None = None):
        object.__setattr__(self, "command", command)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "csv_path", csv_path)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "explain", explain)
        object.__setattr__(self, "at", at)


# ---------------------------------------------------------------------------
# Rendering helpers


def _g12(x: float) -> str:
    if x == 0:
        return "0"
    return format(float(x), ".12g")


def _c12(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return _g12(re)
    itxt = "i" if abs(im) == 1 else f"{_g12(abs(im))}i"
    if re == 0:
        return itxt if im > 0 else "-" + itxt
    sign = "+" if im > 0 else "-"
    return f"{_g12(re)} {sign} {itxt}"


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _g12(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_json_value(x)}"
                              for k, x in v.items()) + "}"
    raise TypeError(f"unrenderable value {v!r}")


def _freq_line(freqs) -> str:
    if not freqs:
        return "frequencies: (none)"
    return "frequencies: " + " ".join(_g12(f) for f in freqs)


# ---------------------------------------------------------------------------
# Subcommands


def _spectrum_json(a: SpectrumAnalysis) -> str:
    spec = a.spectrum
    return _json_value({
        "frequencies": list(spec.frequencies),
        "sources": [{"re": s.location.real, "im": s.location.imag,
                     "kind": s.kind, "order": s.order}
                    for s in spec.sources],
        "infinite_singularity": spec.infinite_singularity,
    })


def _spectrum_text(a: SpectrumAnalysis, explain: bool) -> str:
    lines = []
    if explain:
        lines.append(f"class: {a.signal_class.value}")
        if a.system is not None:
            lines.append(f"equation: {format_equation(a.system)}")
            for pt in a.finite_points:
                lines.append(f"singular point {_c12(pt.location)}: "
                             f"{pt.kind}, {pt.label}")
            if a.infinity is None:
                lines.append("point at infinity: ordinary")
            else:
                lines.append(f"point at infinity: {a.infinity.kind}, "
                             f"{a.infinity.label}")
        elif a.rational is not None:
            lines.append(f"operational image: {a.rational.format()}")
            if a.spectrum.sources:
                for s in a.spectrum.sources:
                    lines.append(f"pole {_c12(s.location)}: order {s.order}")
            else:
                lines.append("poles: (none)")
    lines.append(_freq_line(a.spectrum.frequencies))
    lines.append("infinite singularity: "
                 + ("yes" if a.spectrum.infinite_singularity else "no"))
    return "\n".join(lines)


def _cmd_spectrum(cfg: CliConfig) -> str:
    a = analyze(parse(cfg.expr))
    if cfg.output == "json":
        return _spectrum_json(a)
    return _spectrum_text(a, cfg.explain)


def _cmd_opform(cfg: CliConfig) -> str:
    r = image(parse(cfg.expr))
    if r is None:
        raise ExpressionError(
            "opform requires an exponential polynomial or the impulse")
    if cfg.output == "json":
        return _json_value({
            "numerator": r.num.format(),
            "denominator": r.den.format(),
            "strictly_proper": r.is_strictly_proper,
        })
    return r.format()


# bytes per block of `_read_csv`, which completes each to a line end
_CSV_BLOCK = 1 << 18


def _read_csv(path: str) -> SampledSignal:
    """The samples of a 't,x' file, parsed in one array pass.

    The file is opened once and read in binary: the header by `readline`,
    then the body in blocks of about `_CSV_BLOCK` bytes, each completed to
    a line end and parsed by `_csv_cells`.  A file whose every block it
    takes, and from whose samples `SampledSignal` builds a signal, is read
    there; any other file goes to `_read_csv_rows`, which accepts the same
    files, gives the same samples, and names the offending line of any
    other file.  So the only finiteness test of the array pass is
    `SampledSignal`'s.
    """
    with open(path, "rb") as raw:
        samples = _csv_samples(raw, csv.field_size_limit())
    if samples is not None and len(samples):
        try:
            return SampledSignal(samples[0::2], samples[1::2])
        except ValueError:
            pass
    return _read_csv_rows(path)


def _csv_samples(raw, limit: int):
    """The cells of the binary file `raw` after its header, in one float64
    array, or None where the row reader could read the file otherwise.

    The header is the bytes before the first line end, which must be
    b"\n" or b"\r\n" and come within csv's field size `limit`, split at
    b"," and stripped of ASCII whitespace; it must be exactly [b"t", b"x"].
    `bytes.strip` strips a subset of what the row reader's `str.strip`
    does, so every header taken here is one the row reader takes.  A line
    longer than `limit` or than a block is left to the row reader."""
    import numpy as np

    longest = min(limit, _CSV_BLOCK) + 1    # bytes of a line, with b"\n"
    line = raw.readline(longest + 1)
    head = line[:-2] if line[-2:] == b"\r\n" else line[:-1]
    if (line[-1:] != b"\n" or len(head) > limit or b"\r" in head
            or [c.strip() for c in head.split(b",")] != [b"t", b"x"]):
        return None
    parts = []
    while block := raw.read(_CSV_BLOCK):
        if block[-1:] != b"\n":
            rest = raw.readline(longest)
            block += rest
            if block[-1:] != b"\n":
                if len(rest) == longest:
                    return None
                block += b"\n"     # the last line ends the file
        cells = _csv_cells(block, limit)
        if cells is None:
            return None
        parts.append(cells)
    return np.concatenate(parts) if parts else None


def _read_csv_rows(path: str) -> SampledSignal:
    """Row by row: the error path of `_read_csv`, and its reference."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"csv line {reader.line_num}: {exc}") from None
    if not rows or [c.strip() for c in rows[0]] != ["t", "x"]:
        raise ValueError("csv must start with a 't,x' header row")
    times, values = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"csv line {lineno}: expected two columns")
        try:
            t, x = float(row[0]), float(row[1])
        except ValueError:
            raise ValueError(f"csv line {lineno}: non-numeric value") from None
        if not (math.isfinite(t) and math.isfinite(x)):
            raise ValueError(f"csv line {lineno}: non-finite value")
        times.append(t)
        values.append(x)
    return SampledSignal(tuple(times), tuple(values))


def _trace_text(trace: PhiTrace) -> str:
    if trace.arrays is None:
        rows = "".join(f"\n{_g12(t)} {'none' if p is None else _g12(p)}"
                       for t, p in zip(trace.times, trace.phi))
    else:
        rows = _g12_join(trace.arrays, "\n ")
    return f"method: {trace.method}\nt phi{rows}"


def _float_list(values) -> str:
    """A JSON list of floats and None, as `_json_value` renders it.  A
    tuple or list is printed in one format call, where adding 0.0 turns
    -0.0 into 0.0, which %g prints as 0, as _g12 does; a float64 array by
    `_g12_join`."""
    if not isinstance(values, (tuple, list)):
        return "[" + _g12_join((values,), ",")[1:] + "]"
    fmt = ",".join(["null" if v is None else "%.12g" for v in values])
    flat = [v + 0.0 for v in values if v is not None]
    return "[" + fmt % tuple(flat) + "]"


# cells per block of `_g12_join`; its uint16 byte offsets into the block's
# 16-byte cell sources then reach 16 * 4096 - 1 at most
_G12_BLOCK = 4096


@functools.cache
def _g12_tables() -> tuple:
    """The read-only tables of `_g12_join`, built on its first call:

    - digits: the four ASCII digits of each group 0..9999, as one uint32;
    - zeros: the trailing zero digits of each group, 4 for 0;
    - slots, chars: per layout key, the 19 bytes of a cell (separator,
      sign and up to 17 characters of %g's text), each a byte of the
      cell's source (slots) plus a constant (chars) where that byte is
      empty.  The key of a cell with exponent e in [-11, 34] and s
      significant digits is 12 * (e + 11) + s - 1; the last two keys print
      0 and the placeholder of a cell written on its own;
    - up, down: 10**p = up[i] / down[i] for i = 350 + p, one of them 1,
      so that a * up[i] / down[i] is rounded once; nan for |p| > 22,
      where 10**p is inexact.  p from -350 to 350 covers 11 - e for the
      exponent e of every float.
    """
    import numpy as np

    g = np.arange(10000)
    places = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1)
    digits = (places + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    zeros = sum((g % 10 ** j == 0).astype(np.intp) for j in range(1, 5))
    # a cell's source bytes: 0-11 the digits of its mantissa, 12 the
    # separator, 13 the sign, 14 and 15 empty
    keys = 12 * 46 + 2
    slots = np.full((keys, 19), 14, np.uint16)
    chars = np.zeros((keys, 19), np.uint8)
    for e in range(-11, 35):
        for s in range(1, 13):
            # %g: digits of the mantissa by place, and constant characters
            if -4 <= e < 0:
                text = ["0", "."] + ["0"] * (-e - 1) + list(range(s))
            elif 0 <= e < 12:
                text = list(range(max(s, e + 1)))
                if s > e + 1:
                    text.insert(e + 1, ".")
            else:
                text = [0] + (["."] + list(range(1, s)) if s > 1 else [])
                text += "e%+03d" % e
            for slot, x in enumerate([12, 13] + text):
                if isinstance(x, str):
                    chars[12 * (e + 11) + s - 1, slot] = ord(x)
                else:
                    slots[12 * (e + 11) + s - 1, slot] = x
    slots[-2:, 0] = 12
    chars[-2:, 1] = [ord("0"), 1]
    p = np.arange(-350, 351)
    up = np.where(np.abs(p) <= 22, 10.0 ** np.clip(p, 0, 22), np.nan)
    down = 10.0 ** np.clip(-p, 0, 22)
    tables = (digits, zeros, slots, chars, up, down)
    for table in tables:
        table.flags.writeable = False
    return tables


def _g12_join(columns, seps: str) -> str:
    """The float64 arrays `columns`, row by row, each cell after its
    column's one-character separator in `seps`; byte for byte
    "".join(sep + "%.12g" % (x + 0.0) for row in rows for x, sep in
    zip(row, seps)), rendered in numpy over blocks of `_G12_BLOCK` cells.

    A finite nonzero |x| is read at e = floor(log10 |x|) as
    q = |x| * 10**(11 - e), in [1e11, 1e12].  For |11 - e| <= 22 the power
    of ten is exact, so q is rounded once; rounding is monotonic and each
    n + 1/2 is a float at this scale, so q lies on the side of it that the
    exact product lies on, or on it.  rint(q) is then the correctly
    rounded 12-digit mantissa unless q is exactly a half.  A mantissa of
    10**12 is 10**11 with e + 1.  The digits and the layout %g gives them
    are looked up in `_g12_tables`.  A cell whose q is a half or outside
    [1e11, 1e12], with |11 - e| > 22, or not finite is written on its own
    by `%`.
    """
    import numpy as np

    digits, zeros, slots, chars, up, down = _g12_tables()
    zero_key, own_key = len(slots) - 2, len(slots) - 1
    rows = _G12_BLOCK // len(columns)
    offsets = (16 * np.arange(rows * len(columns), dtype=np.uint16))[:, None]
    out = []
    for lo in range(0, len(columns[0]), rows):
        x = np.stack([col[lo:lo + rows] for col in columns], 1).ravel()
        src = np.zeros((len(x), 4), np.uint32)
        src8 = src.view(np.uint8)
        src8.reshape(-1, len(seps), 16)[:, :, 12] = [ord(c) for c in seps]
        src8[:, 13] = (x < 0) * ord("-")
        a = np.abs(x)
        finite = (a > 0) & (a < np.inf)
        a[~finite] = 1.0
        # i = 350 + 11 - e; next to a power of ten, where log10 may miss e
        # by one, q falls outside [1e11, 1e12] and the cell is left to `%`
        i = 361 - np.floor(np.log10(a)).astype(np.intp)
        q = a * up.take(i) / down.take(i)
        m = np.rint(q)
        ok = finite & (q >= 1e11) & (q <= 1e12) & (np.abs(q - m) != 0.5)
        carry = m == 1e12
        m[~ok | carry] = 1e11
        # m < 1e12, so m / 1e8 and then m / 1e4 are never rounded up to
        # the next integer
        g0 = np.floor(m / 1e8)
        m -= 1e8 * g0
        g1 = np.floor(m / 1e4)
        m -= 1e4 * g1
        g0, g1, g2 = (g.astype(np.intp) for g in (g0, g1, m))
        digits.take(g0, out=src[:, 0])
        digits.take(g1, out=src[:, 1])
        digits.take(g2, out=src[:, 2])
        z = zeros.take(g2)
        z += (g2 == 0) * (zeros.take(g1) + (g1 == 0) * zeros.take(g0))
        # 12 * (e + 11) + s - 1, for s = 12 - z significant digits
        key = 12 * (372 - i + carry) + 11 - z
        key[~ok] = own_key
        key[x == 0] = zero_key
        at = slots.take(key, axis=0)
        at += offsets[:len(x)]
        cells = src8.ravel().take(at)
        cells += chars.take(key, axis=0)
        text = cells.tobytes().translate(None, b"\0").decode("ascii")
        alone = x[key == own_key].tolist()
        if alone:
            parts = text.split("\x01")
            text = parts[0] + "".join("%.12g" % v + part
                                      for v, part in zip(alone, parts[1:]))
        out.append(text)
    return "".join(out)


# the kind `_csv_cells` gives each byte that is not a digit: a dot, a
# minus, a mark of an exponent ("e", "E" or "+"), the two separators, and
# any other byte
_DOT, _MINUS, _EXP, _COMMA, _NEWLINE, _OTHER = range(1, 7)
_CSV_KINDS = bytes({46: _DOT, 45: _MINUS, 101: _EXP, 69: _EXP, 43: _EXP,
                    44: _COMMA, 10: _NEWLINE}.get(b, 0 if 48 <= b <= 57
                                                  else _OTHER)
                   for b in range(256))
# blanks inside a cell, and a line of blanks
_CSV_INNER_BLANK = rb"[^ \t,\n][ \t]+[^ \t,\n]|(?:^|\n)[ \t]+\n"
_CSV_SCAN = bytes.maketrans(b"\n", b",")
_POW10 = tuple(float(10 ** q) for q in range(23))


def _csv_cells(block: bytes, limit: int):
    """The cells of `block`, whole lines each ending in b"\n", as one
    float64 array in file order, each with the bits of `float` of its
    text; or None where the row reader could read the block otherwise.

    A line is two cells and a comma; a cell is a decimal [-]d*[.d*] with a
    digit, or any text of digits, ".", "-", "e", "E" and "+" with an
    exponent mark, which `float` reads.  CRLF ends, blank lines, and
    spaces and tabs around a cell are dropped first, as the row reader
    drops them; a lone CR, a blank inside a cell or a line of blanks, a
    line that may be longer than csv's field size `limit` (its length here
    plus every byte dropped from the block), or any other byte refuses the
    block.

    The dots and minus signs deleted and the lines joined by commas, numpy
    scans each decimal's digits as an int64 m, and its dot gives q digits
    after it.  For q <= 22 the power of ten p is exact, so where m is a
    float too, x = m / p is rounded once, as `float` rounds it; elsewhere
    `_nearest_quotient` corrects x.  A cell with an exponent mark, with
    q > 22 or m >= 2**62 (the scanner clamps an overflow to 2**63 - 1), or
    left undecided is read by `float` on its own.  The scan raises on a
    partial read in numpy 2 and warns in 1.x; both refuse the block.
    """
    import numpy as np

    size = len(block)
    if b"\r" in block:
        if block.count(b"\r") != block.count(b"\r\n"):
            return None
        block = block.replace(b"\r\n", b"\n")
    if b" " in block or b"\t" in block:
        if re.search(_CSV_INNER_BLANK, block):
            return None
        block = block.translate(None, b" \t")
    if block[:1] == b"\n" or b"\n\n" in block:
        block = b"".join(line + b"\n" for line in block.split(b"\n") if line)
    a = np.frombuffer(block, np.uint8)
    # each mark, a byte that is not a digit, after a line end at -1
    marks = np.flatnonzero((a < 48) | (a > 57))
    pos = np.empty(len(marks) + 1, np.intp)
    pos[0], pos[1:] = -1, marks
    kind = np.empty(len(pos), np.uint8)
    kind[0] = _NEWLINE
    np.frombuffer(_CSV_KINDS, np.uint8).take(a.take(marks), out=kind[1:])
    if (kind == _OTHER).any():
        return None
    # cell k runs from ends[k] + 1 to ends[k + 1]; its marks lie between
    # cut[k] and cut[k + 1]
    cut = np.flatnonzero(kind >= _COMMA)
    ends = pos.take(cut)
    n = len(cut) - 1
    sep = kind.take(cut[1:])
    if n % 2 or (sep[0::2] != _COMMA).any() or (sep[1::2] != _NEWLINE).any():
        return None
    # no line of the block as read is longer than its line here plus
    # every byte dropped from the block
    if n and (int(np.diff(ends[0::2]).max()) + size - len(block)
              > limit + 1):
        return None
    count = np.diff(cut) - 1
    neg = ((kind.take(cut[:-1] + 1) == _MINUS)
           & (pos.take(cut[:-1] + 1) == ends[:-1] + 1))
    dot = kind.take(cut[1:] - 1) == _DOT
    q = np.where(dot, ends[1:] - pos.take(cut[1:] - 1) - 1, 0)
    own = np.zeros(n, bool)
    own[np.searchsorted(cut, np.flatnonzero(kind == _EXP)) - 1] = True
    if ((count != neg.astype(np.intp) + dot)
            | (np.diff(ends) - 1 <= count))[~own].any():
        return None
    text = block
    if own.any():
        # a zero in each byte of a cell `float` reads
        buf = bytearray(block)
        for k in np.flatnonzero(own).tolist():
            buf[ends[k] + 1:ends[k + 1]] = b"0" * (ends[k + 1] - ends[k] - 1)
        text = bytes(buf)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            m = np.fromstring(text.translate(_CSV_SCAN, b".-"), np.int64,
                              sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if len(m) != n:
        return None
    own |= (m >= 1 << 62) | (q > 22)
    m[own] = 0
    q[own] = 0
    p = np.array(_POW10).take(q)
    mf = m.astype(np.float64)
    x = mf / p
    near = np.flatnonzero(mf.astype(np.int64) != m)
    if len(near):
        x[near], undecided = _nearest_quotient(x[near], m[near], p[near])
        own[near[undecided]] = True
    np.negative(x, out=x, where=neg)
    try:
        for k in np.flatnonzero(own).tolist():
            x[k] = float(block[ends[k] + 1:ends[k + 1]])
    except ValueError:
        return None
    return x


def _nearest_quotient(x, m, p):
    """(m / p rounded to nearest, the cells it leaves undecided), for
    int64 m in (2**53, 2**62), powers of ten p <= 1e22 and x = m / p
    with m and the quotient each rounded, so that x is within 1.5 ulps of
    m / p: the first rounding moves m / p less than an ulp of x, the
    second half an ulp.

    Dekker's product (Numer. Math. 18, 1971) splits x * p into hi + lo
    exactly; hi is within a few ulps of m, so an integer, and m - hi is
    exact in int64.  The residual m - x * p is then rounded once, and its
    ratio d to p * ulp(x), the distance of m / p from x in ulps, is known
    to about 2**-52.  x moves rint(d) ulps, to the float nearest m / p,
    unless it is a power of two, below which the ulp halves, or moves down
    to one at d < -1.  Such a cell, and one within 2**-30 of a half ulp
    or of 1.5 ulps, is undecided.
    """
    import numpy as np

    c = 134217729.0 * x             # Veltkamp's split at 2**27 + 1
    xh = c - (c - x)
    xl = x - xh
    c = 134217729.0 * p
    ph = c - (c - p)
    pl = p - ph
    hi = x * p
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    ulp = np.spacing(x)
    d = ((m - hi.astype(np.int64)).astype(np.float64) - lo) / (p * ulp)
    step = np.rint(d)
    out = x + step * ulp
    undecided = ((np.abs(np.abs(d) - 0.5) < 2.0 ** -30)
                 | (np.abs(d) > 1.5 - 2.0 ** -30) | (np.frexp(x)[0] == 0.5)
                 | ((d < -1) & (np.frexp(out)[0] == 0.5)))
    return out, undecided


def _trace_json(trace: PhiTrace) -> str:
    times, phi = trace.arrays or (trace.times, trace.phi)
    return (f'{{"times":{_float_list(times)},'
            f'"phi":{_float_list(phi)},'
            f'"method":{json.dumps(trace.method)}}}')


def _cmd_instfreq(cfg: CliConfig) -> str:
    if cfg.csv_path is not None:
        sig = _read_csv(cfg.csv_path)
        trace = phi_fitted(sig, window=cfg.window, degree=cfg.degree)
    else:
        e = parse(cfg.expr)
        value = phi_symbolic(e, cfg.at)
        trace = PhiTrace((cfg.at,), (value,), "symbolic")
    if cfg.output == "json":
        return _trace_json(trace)
    return _trace_text(trace)


def _cmd_contrast(cfg: CliConfig) -> str:
    report = contrast_report(parse(cfg.expr))
    if cfg.output == "json":
        return _json_value(report.as_dict())
    return report.to_text()


def _cmd_selftest(cfg: CliConfig) -> tuple[int, str]:
    from . import selftest
    lines, failures = selftest.run_all()
    return (0 if failures == 0 else 1), "\n".join(lines)


def run(config: CliConfig) -> tuple[int, str, str]:
    """Execute one command; returns (exit status, stdout, stderr)."""
    try:
        if config.command == "selftest":
            status, out = _cmd_selftest(config)
            return status, out, ""
        handler = {"spectrum": _cmd_spectrum, "opform": _cmd_opform,
                   "instfreq": _cmd_instfreq, "contrast": _cmd_contrast}
        return 0, handler[config.command](config), ""
    except RootFindingError as exc:
        return 2, "", f"error: numerical: {exc}"
    except DigitLimitError as exc:
        return 1, "", f"error: output: {exc}"
    except OverflowError:
        return 1, "", "error: input: a value exceeds the float range"
    except (ValueError, OSError) as exc:
        return 1, "", f"error: input: {exc}"


# ---------------------------------------------------------------------------
# Argument parsing


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="algspec",
                description="Algebraic signal spectra via operational "
                            "calculus, with classical Fourier contrasts.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="frequency set of an expression")
    sp.add_argument("expr")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--explain", action="store_true",
                    help="show the defining equation or operational image "
                         "and the singularity classification")

    op = sub.add_parser("opform", help="rational operational image")
    op.add_argument("expr")
    op.add_argument("--json", action="store_true")

    pf = sub.add_parser("instfreq", help="instantaneous frequency")
    pf.add_argument("expr", nargs="?")
    pf.add_argument("--csv", metavar="FILE",
                    help="uniformly sampled data with a 't,x' header")
    pf.add_argument("--window", type=int, default=11)
    pf.add_argument("--degree", type=int, default=3)
    pf.add_argument("--at", type=float, metavar="T",
                    help="evaluation time for an expression input")
    pf.add_argument("--json", action="store_true")

    ct = sub.add_parser("contrast",
                        help="algebraic spectrum next to the Fourier view")
    ct.add_argument("expr")
    ct.add_argument("--json", action="store_true")

    sub.add_parser("selftest", help="run the built-in oracle checks")
    return p


def _config_from(ns: argparse.Namespace) -> CliConfig:
    if ns.command == "instfreq":
        if (ns.csv is None) == (ns.expr is None):
            raise _UsageError(
                "instfreq needs exactly one of an expression or --csv FILE")
        if ns.expr is not None and ns.at is None:
            raise _UsageError("expression input needs --at T")
    return CliConfig(
        command=ns.command,
        expr=getattr(ns, "expr", None),
        csv_path=getattr(ns, "csv", None),
        window=getattr(ns, "window", 11),
        degree=getattr(ns, "degree", 3),
        output="json" if getattr(ns, "json", False) else "text",
        explain=getattr(ns, "explain", False),
        at=getattr(ns, "at", None),
    )


def _dash_hint(message: str, args: list) -> str:
    """How to pass an expression that argparse took for an option.  Every
    option is long, so a word such as -t or -sinc(8) that argparse did not
    read as a negative number is an expression."""
    if "--" in args or not (message.endswith("required: expr")
                            or message.startswith("unrecognized arguments")):
        return ""
    dashed = [k for k, a in enumerate(args)
              if a[:1] == "-" and a[1:2] not in ("", "-")
              and not re.fullmatch(r"-\d+|-\d*\.\d+", a)]
    if not dashed:
        return ""
    import shlex    # only this error path needs it

    k = dashed[0]
    example = args[:k] + args[k + 1:] + ["--", args[k]]
    return (f" (an expression that starts with '-' goes after '--': "
            f"algspec {shlex.join(example)})")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _build_parser().parse_args(args)
        config = _config_from(ns)
    except _UsageError as exc:
        print(f"error: usage: {exc}{_dash_hint(str(exc), args)}",
              file=sys.stderr)
        return 1
    status, out, err = run(config)
    if out:
        try:
            print(out)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left early (e.g. `| head`): send the rest of the
            # output, including the flush at exit, to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    if err:
        print(err, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
