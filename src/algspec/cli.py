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


# the suffixes by which numpy's loader decompresses a file it opens by name
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_csv(path: str) -> SampledSignal:
    """The samples of a 't,x' file, parsed in one array pass.

    `_loadtxt_reads_like_csv` scans the file's bytes once and reads the
    header off its first chunk.  A file it passes, and from which loadtxt
    and `SampledSignal` build a signal, is read whole by numpy; any other
    file goes to `_read_csv_rows`, which accepts the same files, gives the
    same samples, and names the offending line of any other file.  So the
    file is opened twice, by the scan and by numpy, and its only
    finiteness test is `SampledSignal`'s.

    numpy is given the file's path, not an open handle: a path it opens
    itself and reads in chunks in C, with universal newlines and `open`'s
    default encoding, as the row reader decodes; a handle it reads one
    line at a time through Python.  By name, numpy would also decompress
    a file by its suffix and fetch a URL, so a name with a compressed
    suffix goes to the row reader, which reads every file as plain text,
    and numpy gets the absolute path, which is never a URL.
    """
    import numpy as np

    if (not path.lower().endswith(_COMPRESSED_SUFFIXES)
            and _loadtxt_reads_like_csv(path)):
        with warnings.catch_warnings():
            # a header-only file is reported by the row reader
            warnings.filterwarnings("ignore", "loadtxt: input "
                                    "contained no data", UserWarning)
            try:
                data = np.loadtxt(os.path.abspath(path), delimiter=",",
                                  comments=None, dtype=float, ndmin=2,
                                  skiprows=1)
                if data.shape[0] and data.shape[1] == 2:
                    return SampledSignal(data[:, 0], data[:, 1])
            except ValueError:
                pass
    return _read_csv_rows(path)


def _loadtxt_reads_like_csv(path: str) -> bool:
    """Whether the file has the 't,x' header and loadtxt gives the row
    reader's samples wherever it parses the file.

    The header is the bytes of the first chunk before its first b"\r" or
    b"\n", which the chunk must hold, split at b"," and stripped of ASCII
    whitespace; it must be exactly [b"t", b"x"].  `bytes.strip` strips a
    subset of what the row reader's `str.strip` does, so every header
    taken here is one the row reader takes.  Two things would differ in
    the rest: a line longer than csv's field size limit, which the row
    reader refuses, and the separators 0x1c-0x1f, which loadtxt strips
    around a number and `float` refuses.  Lines are measured in bytes,
    never fewer than their characters; a quote, which could join lines
    into one csv field, is a non-numeric field to loadtxt."""
    limit = csv.field_size_limit()
    size = min(limit, 1 << 16)
    with open(path, "rb") as raw:
        chunk = raw.read(size)
        header = re.match(rb"[^\r\n]*[\r\n]", chunk)
        if not header or ([c.strip() for c in header[0].split(b",")]
                          != [b"t", b"x"]):
            return False
        pos, newline = 0, -1    # offsets of this chunk and of the last b"\n"
        while chunk:
            if any(bytes([c]) in chunk for c in range(0x1C, 0x20)):
                return False
            # the line ending at the chunk's first b"\n" may have begun in
            # an earlier chunk; a later one is shorter than the chunk
            first = chunk.find(b"\n")
            end = pos + (len(chunk) if first < 0 else first)
            if end - newline > limit + 1:
                return False
            if first >= 0:
                newline = pos + chunk.rfind(b"\n")
            pos += len(chunk)
            chunk = raw.read(size)
    return pos - newline <= limit + 1


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
